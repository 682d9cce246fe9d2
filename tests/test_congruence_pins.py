"""Byte pins of three congruence audits that no other test pins.

The digests were taken while the residue counts still enumerated every
matrix mod 2^k, so they show that counting them by convolution changes no
output byte.  ``--i 4 --depth 3`` is the benchmark's congruence operation;
``--i 4 --depth 16`` and ``--i 2 --depth 1`` are pinned in
test_report_bytes.py.
"""

import hashlib

import pytest

from twisted_rings.cli import EXIT_OK, run

DIGESTS = {
    ("--i", "4", "--depth", "3"): "d489aacaf58efbdeaf31938070e2099baaf52fee7770895d48a739008b5a74a3",
    ("--i", "3"): "87fbc91c7ec53f25d86b063e293e731f448b0314e92688224f1518cb4a20fafc",
    ("--i", "1", "--depth", "5"): "a82b79af453483e9133ff651651ee2cab3b4ca515d7c1cad04579cc12ae7eecf",
}


@pytest.mark.parametrize("args", sorted(DIGESTS), ids=" ".join)
def test_congruence_report_bytes_are_pinned(capsys, args):
    code = run(["--json", "case", "congruence", *args])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[args]
