"""A ring's twist must be normalized: alpha(1, g) = alpha(g, 1) = 1.

Every ring routine takes u_1 as the identity, which only a normalized table
makes true.  The constant table alpha = -1 on C2 satisfies the cocycle
identity but not normalization; it used to be accepted, and `ring unit` then
reported the inverse of 1 as -1.  Each command that loads a ring now refuses
it with the usage code and nothing on stdout, while `cocycle validate` still
reports the table.
"""

import json

import pytest

from twisted_rings.cli import EXIT_REFUTED, EXIT_USAGE, run

C2 = {"preset": "elementary_abelian_2", "params": [1]}
CONSTANT = {"group": C2, "m": 2, "table": [[1, 1], [1, 1]]}
RING = json.dumps({"cocycle": CONSTANT, "conductor": 2})
ONE = json.dumps({"coeffs": [{"g": 0, "m": 2, "c": [1]}]})


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "unit", RING, "--x", ONE],
        ["ring", "torsion", RING, "--x", ONE],
        ["ring", "mul", RING, "--x", ONE, "--y", ONE],
        ["ring", "scan", RING],
        ["units", "finiteness", RING],
        ["tower", "scan", "--ring", RING, "--n", "1", "--samples", "1"],
    ],
    ids=["unit", "torsion", "mul", "scan", "finiteness", "tower"],
)
def test_ring_commands_refuse_a_twist_that_is_not_normalized(capsys, argv):
    code = run(["--json"] + argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "not normalized" in captured.err


def test_cocycle_validate_still_reports_the_table(capsys):
    code = run(["--json", "cocycle", "validate", json.dumps(CONSTANT)])
    computed = json.loads(capsys.readouterr().out)["items"][0]["computed"]
    assert code == EXIT_REFUTED
    assert computed == {"is_cocycle": True, "normalized": False, "violation": None}
