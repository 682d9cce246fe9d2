"""Untrusted JSON is checked once, at the edge: a ring's twist must be a
cocycle, element ids must be in range, coefficients must lie in the ring's
Z[zeta_c], and every JSON number must be an integer.  Each bad input exits
with the usage code and prints nothing on stdout.  The d8 case study at
n = 1 and n = 2 keeps its --json bytes."""

import hashlib
import json

import pytest

from twisted_rings.cli import EXIT_CAP, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, run

C2C2 = {"preset": "elementary_abelian_2", "params": [2]}
# table[1][2] = 1 alone breaks the cocycle identity at (1, 1, 2)
NOT_A_COCYCLE = {"group": C2C2, "m": 2, "table": [[0] * 4, [0, 0, 1, 0], [0] * 4, [0] * 4]}
BAD_RING = json.dumps({"cocycle": NOT_A_COCYCLE, "conductor": 2})
ANTICOMMUTING = json.dumps({"cocycle": {"builtin": "anticommuting"}, "conductor": 2})
MODEL_1_7 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1.7, 0, 1], [0, 1, 0, 1]]
ONE = json.dumps({"coeffs": [{"g": 0, "m": 2, "c": [1]}]})


def _element(g, m=2, c=(1,)) -> str:
    return json.dumps({"coeffs": [{"g": g, "m": m, "c": list(c)}]})


def _refused(capsys, argv) -> None:
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "unit", BAD_RING, "--x", ONE],
        ["ring", "mul", BAD_RING, "--x", ONE, "--y", ONE],
        ["ring", "scan", BAD_RING],
    ],
    ids=["unit", "mul", "scan"],
)
def test_ring_commands_refuse_a_twist_that_is_not_a_cocycle(capsys, argv):
    _refused(capsys, argv)


def test_cocycle_validate_still_reports_the_failing_triple(capsys):
    code = run(["--json", "cocycle", "validate", json.dumps(NOT_A_COCYCLE)])
    item = json.loads(capsys.readouterr().out)["items"][0]
    assert code == EXIT_REFUTED
    assert item["computed"]["violation"] == [1, 1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "unit", ANTICOMMUTING, "--x", _element(7)],
        ["ring", "torsion", ANTICOMMUTING, "--x", _element(7)],
        ["ring", "mul", ANTICOMMUTING, "--x", _element(7), "--y", ONE],
        ["ring", "unit", ANTICOMMUTING, "--x", _element(-1)],
        ["ring", "mul", ANTICOMMUTING, "--x", _element(1, 4, (1, 1)), "--y", ONE],
        ["ring", "unit", ANTICOMMUTING, "--x", _element(1, 4, (1, 1))],
    ],
    ids=["id 7 unit", "id 7 torsion", "id 7 mul", "id -1", "zeta_4 mul", "zeta_4 unit"],
)
def test_elements_outside_the_ring_are_refused(capsys, argv):
    _refused(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "validate", json.dumps({"mul": [[0, 1], [1, 0.9]]})],
        ["group", "validate", json.dumps({"preset": "cyclic", "params": [True]})],
        # the matrix-model table with one entry 1 written as 1.7
        ["cocycle", "validate", json.dumps({"group": C2C2, "m": 2, "table": MODEL_1_7})],
        ["ring", "unit", ANTICOMMUTING, "--x", _element(1, c=(0.5,))],
        ["ring", "unit", ANTICOMMUTING, "--x", _element(True)],
    ],
    ids=[
        "group entry 0.9",
        "preset true",
        "cocycle entry 1.7",
        "coefficient 0.5",
        "id true",
    ],
)
def test_non_integer_json_numbers_are_refused(capsys, argv):
    _refused(capsys, argv)


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "46d5efed543414d8b9e011ed7b2a8ba3c3ee3acc1827c6022eefbb99153d0c33"),
        (2, "cbf85b8d933c74adfdf2d95eacd35bbe593c3a2986cf2ffde050052c75bb7574"),
    ],
)
def test_d8_case_bytes_at_higher_levels(capsys, n, digest):
    code = run(["--json", "case", "d8", "--n", str(n)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


C2_UNTWISTED = {"builtin": "trivial", "group": {"preset": "cyclic", "params": [2]}}


@pytest.mark.parametrize("conductor", [0, 5, -2])
@pytest.mark.parametrize(
    "command", [["ring", "unit"], ["units", "finiteness"]], ids=["unit", "finiteness"]
)
def test_a_ring_refuses_an_unsupported_conductor(capsys, command, conductor):
    ring = json.dumps({"cocycle": C2_UNTWISTED, "conductor": conductor})
    extra = ["--x", ONE] if command[0] == "ring" else []
    code = run(command + [ring] + extra)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        f"error: conductor {conductor} unsupported (allowed: (1, 2, 3, 4, 6, 8, 12, 24))\n"
    )


def test_a_conductor_past_the_cap_is_still_a_cap_error(capsys):
    ring = json.dumps({"cocycle": C2_UNTWISTED, "conductor": 48})
    assert run(["units", "finiteness", ring]) == EXIT_CAP
    assert capsys.readouterr().err == "error: conductor 48 exceeds cap 24\n"


@pytest.mark.parametrize(
    "x, message",
    [
        ('{"coeffs":[{"g":0,"m":2}]}', 'entry 0 of "coeffs" has no "c" field'),
        ('{"coeffs":[{"g":0,"c":[1]}]}', 'entry 0 of "coeffs" has no "m" field'),
        ('{"coeffs":{"g":0}}', 'an element must be a JSON object with a "coeffs" list'),
        ("[1]", 'an element must be a JSON object with a "coeffs" list'),
    ],
    ids=["no c", "no m", "coeffs an object", "a list"],
)
def test_a_malformed_element_is_refused_by_the_field_it_lacks(capsys, x, message):
    # these printed Python's own KeyError or TypeError text, such as "error: 'c'"
    anti = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 1}, "conductor": 2})
    code = run(["ring", "mul", anti, "--x", x, "--y", '{"coeffs":[]}'])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
