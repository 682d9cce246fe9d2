"""Byte pins of the d8 case study at every level above 0.

The digests were taken before the round trips and the unit verdicts of the
case study were certified once per fact (by parent matrix and by leaf
determinant), so they show that neither changes an output byte.  Level 0 is
pinned in test_report_bytes.py.
"""

import hashlib

import pytest

from twisted_rings.cli import EXIT_OK, run

DIGESTS = {
    1: "46d5efed543414d8b9e011ed7b2a8ba3c3ee3acc1827c6022eefbb99153d0c33",
    2: "cbf85b8d933c74adfdf2d95eacd35bbe593c3a2986cf2ffde050052c75bb7574",
    3: "ef8299842a52dc1f77c946fada20a93adf73543ba349ea520aaa32d13e21d59e",
    4: "9fbc409423ab9bbb0b8f1cd7a58649c5c73929a92c3283c806265445c449da5f",
}


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_d8_case_study_report_bytes_are_pinned(capsys, n):
    code = run(["--json", "case", "d8", "--n", str(n)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[n]
