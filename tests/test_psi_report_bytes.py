"""Byte pin for `ext psi`, the command that prints the psi check alone.

The digest was taken from the boxed pairwise check, so the integer check
must print the same bytes.  The other caller of that check, `case d8`, is
pinned at n = 3 in test_unit_pins.py.
"""

import hashlib

from twisted_rings.cli import EXIT_OK, run

ARGV = ["ext", "psi", '{"preset":"dihedral8"}', "--normal", "0", "2", "--chi", "1"]
DIGEST = "2ae722dea3763fb4c6335c3045d966b2cf3911c5a1910d4d1df3b66ad62df75e"


def test_ext_psi_json_report_bytes_are_pinned(capsys):
    code = run(["--json"] + ARGV)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGEST
