"""Id and index arguments of the CLI are range-checked at the edge: one out
of range exits with the usage code and a one-line error, not a traceback
and not the refuted-claim code.  A negative --chi no longer picks a
character from the end of the list, and ``case congruence`` no longer
reports verified items over empty lists for --i < 1 or --depth < 0.
Likewise ``tower scan`` refuses --samples < 1 instead of verifying a split
on no units, ``ext components`` refuses --conductor < 1 instead of a
traceback or the refuted-claim code, and ``ring scan`` refuses
--support < 0 instead of reading it as no cap.  ``ext`` refuses
--chi-modulus < 1 and ``cocycle cohomologous`` refuses --modulus < 1, in
place of a ZeroDivisionError traceback under the refuted-claim code or an
error that names another flag or the cocycle table."""

import json

import pytest

from twisted_rings.cli import EXIT_CAP, EXIT_USAGE, run

D8 = json.dumps({"preset": "dihedral8"})
QUAT_RING = json.dumps({"cocycle": {"builtin": "quaternion"}, "conductor": 2})
C2 = json.dumps({"preset": "cyclic", "params": [2]})
C4 = json.dumps({"preset": "cyclic", "params": [4]})
MATRIX = json.dumps({"builtin": "c2c2_matrix"})
QUAT = json.dumps({"builtin": "quaternion"})


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "build", D8, "--normal", "0", "9"],
        ["ext", "build", D8, "--normal", "0", "2", "--section", "0"],
        ["ext", "psi", D8, "--normal", "0", "2", "--chi", "7"],
        ["ext", "psi", D8, "--normal", "0", "2", "--chi", "-1"],
        ["units", "bicyclic", QUAT_RING, "--g", "9", "--h", "1"],
        ["tower", "split", "--n", "2", "--level", "5"],
        ["tower", "split", "--n", "2", "--level", "0"],
    ],
    ids=["normal 9", "short section", "chi 7", "chi -1", "g 9", "level 5", "level 0"],
)
def test_out_of_range_ids_exit_2_without_a_traceback(capsys, argv):
    code = run(["--json", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["units", "bicyclic", QUAT_RING, "--h", "1"], "--g"),
        (["tower", "scan", "--n", "0"], "--n"),
        (["case", "d8", "--n", "-1"], "--n"),
        (["units", "obstruct", "--n", "-1", "--element", "{}"], "--n"),
        (["case", "congruence", "--i", "0"], "--i"),
        (["case", "congruence", "--i", "-1"], "--i"),
        (["case", "congruence", "--depth", "-2"], "--depth"),
        (["tower", "scan", "--samples", "0"], "--samples"),
        (["tower", "scan", "--samples", "-5"], "--samples"),
        (["ext", "components", D8, "--normal", "0", "2", "--conductor", "0"], "--conductor"),
        (["ext", "components", D8, "--normal", "0", "2", "--conductor", "-4"], "--conductor"),
        (["ring", "scan", QUAT_RING, "--support", "-1"], "--support"),
    ],
    ids=[
        "bicyclic without g", "tower n 0", "d8 n -1", "obstruct n -1",
        "congruence i 0", "congruence i -1", "congruence depth -2",
        "scan samples 0", "scan samples -5", "components conductor 0",
        "components conductor -4", "ring support -1",
    ],
)
def test_bad_counts_and_missing_ids_exit_2_naming_the_flag(capsys, argv, flag):
    code = run(["--json", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and "Traceback" not in captured.err


def test_a_congruence_depth_above_its_ceiling_is_refused_before_it_allocates(capsys):
    # the residue table at depth d has 2^(d+2) entries
    code = run(["--json", "case", "congruence", "--depth", "17"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "depth 16" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ext", "psi", C2, "--normal", "0", "--chi-modulus", "0"], "--chi-modulus"),
        (["ext", "psi", C4, "--normal", "0", "2", "--chi-modulus", "-2"], "--chi-modulus"),
        (["cocycle", "cohomologous", MATRIX, "--other", QUAT, "--modulus", "0"], "--modulus"),
        (["cocycle", "cohomologous", MATRIX, "--other", QUAT, "--modulus", "-4"], "--modulus"),
    ],
    ids=["chi-modulus 0", "chi-modulus -2", "modulus 0", "modulus -4"],
)
def test_moduli_below_1_exit_2_naming_the_flag(capsys, argv, flag):
    code = run(["--json", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ") and "Traceback" not in captured.err
