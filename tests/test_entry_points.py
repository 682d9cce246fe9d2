"""Both module entry points print exactly what run() prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twisted_rings
from twisted_rings.cli import EXIT_OK, run

ARGS = ["--json", "case", "c2c2"]
SRC = Path(twisted_rings.__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["twisted_rings", "twisted_rings.cli"])
def test_python_dash_m_prints_the_run_output(module, capsys, tmp_path):
    assert run(ARGS) == EXIT_OK
    expected = capsys.readouterr().out.encode()
    proc = subprocess.run(
        [sys.executable, "-m", module, *ARGS],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert proc.stdout == expected
