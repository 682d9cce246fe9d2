import json

from twisted_rings.cli import EXIT_CAP, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, run

QUAT_RING = '{"cocycle": {"builtin": "quaternion"}, "conductor": 2}'
MODEL_RING = '{"cocycle": {"builtin": "c2c2_matrix"}, "conductor": 2}'
ANTI_COCYCLE = '{"builtin": "anticommuting", "n": 0}'
QUAT_COCYCLE = '{"builtin": "quaternion"}'


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_validate_ok(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"preset": "dihedral8"}), encoding="utf-8")
    code, out = _capture(capsys, ["group", "validate", str(path)])
    assert code == EXIT_OK
    assert "group is valid" in out


def test_group_validate_malformed_table_exits_2(capsys):
    bad = json.dumps({"order": 2, "mul": [[0, 1], [1, 1]]})
    code, _ = _capture(capsys, ["group", "validate", bad])
    assert code == EXIT_USAGE


def test_unknown_subcommand_exits_2(capsys):
    assert run(["definitely-not-a-command"]) == EXIT_USAGE


def test_cocycle_validate_and_order(capsys):
    code, out = _capture(capsys, ["cocycle", "validate", ANTI_COCYCLE])
    assert code == EXIT_OK
    code, out = _capture(capsys, ["--json", "cocycle", "order", QUAT_COCYCLE])
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"] == 2


def test_cocycle_galpha_reports_histogram_and_representative(capsys):
    code, out = _capture(capsys, ["--json", "cocycle", "galpha", QUAT_COCYCLE])
    assert code == EXIT_OK
    payload = json.loads(out)
    item = payload["items"][0]
    assert item["computed"]["order_histogram"] == {"1": 1, "2": 1, "4": 6}
    # reports echo the representative table that was used
    assert item["computed"]["representative_table"]


def test_cocycle_cohomologous_both_ways(capsys):
    code, out = _capture(
        capsys,
        [
            "--json",
            "cocycle",
            "cohomologous",
            '{"builtin": "c2c2_matrix"}',
            "--other",
            QUAT_COCYCLE,
            "--modulus",
            "4",
        ],
    )
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["witness"] is not None
    code, out = _capture(
        capsys,
        [
            "--json",
            "cocycle",
            "cohomologous",
            '{"builtin": "c2c2_matrix"}',
            "--other",
            QUAT_COCYCLE,
            "--modulus",
            "2",
        ],
    )
    assert code == EXIT_OK  # a proven non-witness is an expected outcome
    assert json.loads(out)["items"][0]["computed"]["witness"] is None


def test_coboundary_cap_exits_3(capsys):
    big = '{"builtin": "anticommuting", "n": 2}'
    code, _ = _capture(
        capsys,
        ["cocycle", "cohomologous", big, "--other", big, "--modulus", "4"],
    )
    assert code == EXIT_CAP


def _cocycle_spec(preset: str, params: list, m: int, table: list) -> str:
    return json.dumps({"group": {"preset": preset, "params": params}, "m": m, "table": table})


def test_cohomologous_refuses_tables_that_are_not_normalized_cocycles(capsys):
    # the identity fails on (1, 1, 2): not a cocycle at all
    not_cocycle = _cocycle_spec("cyclic", [3], 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    zero_c3 = _cocycle_spec("cyclic", [3], 3, [[0] * 3] * 3)
    # the coboundary of the constant map 1, which a search with f(1) = 0 misses
    not_normalized = _cocycle_spec("cyclic", [2], 2, [[1, 1], [1, 1]])
    zero_c2 = _cocycle_spec("cyclic", [2], 2, [[0, 0], [0, 0]])
    for first, other, m, message in [
        (not_cocycle, zero_c3, "3", "cocycle identity fails on triple (1,1,2)"),
        (zero_c3, not_cocycle, "3", "cocycle identity fails on triple (1,1,2)"),
        (not_normalized, zero_c2, "2", "table is not normalized"),
        (zero_c2, not_normalized, "2", "table is not normalized"),
    ]:
        code = run(["--json", "cocycle", "cohomologous", first, "--other", other, "--modulus", m])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert message in captured.err
    # validate still reports on any table, and refutes these two
    for table in (not_cocycle, not_normalized):
        assert run(["cocycle", "validate", table]) == EXIT_REFUTED
        capsys.readouterr()


def test_ring_unit_and_scan(capsys):
    x = json.dumps(
        {"coeffs": [{"g": 0, "m": 2, "c": [1]}, {"g": 2, "m": 2, "c": [1]}, {"g": 3, "m": 2, "c": [-1]}]}
    )
    code, out = _capture(capsys, ["--json", "ring", "unit", MODEL_RING, "--x", x])
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["is_unit"] is True
    code, out = _capture(capsys, ["--json", "ring", "scan", QUAT_RING])
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["violations"] == []


def test_units_finiteness_verdicts(capsys):
    code, out = _capture(capsys, ["--json", "units", "finiteness", QUAT_RING])
    assert code == EXIT_OK
    item = json.loads(out)["items"][0]
    assert item["computed"]["finite"] is True
    assert item["computed"]["case"] == "hamiltonian-2group"
    anti = '{"cocycle": {"builtin": "anticommuting", "n": 0}, "conductor": 2}'
    code, out = _capture(capsys, ["--json", "units", "finiteness", anti])
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["finite"] is False


def test_units_bicyclic_and_obstruct(capsys):
    anti = '{"cocycle": {"builtin": "anticommuting", "n": 0}, "conductor": 2}'
    code, out = _capture(
        capsys, ["--json", "units", "bicyclic", anti, "--g", "1", "--h", "2"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["increment_square_zero"] is True
    v = json.dumps(
        {"coeffs": [{"g": 0, "m": 2, "c": [1]}, {"g": 2, "m": 2, "c": [1]}, {"g": 3, "m": 2, "c": [-1]}]}
    )
    code, out = _capture(
        capsys, ["--json", "units", "obstruct", "--n", "0", "--element", v]
    )
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["certified"] is True


def test_tower_scan(capsys):
    code, out = _capture(
        capsys, ["--json", "tower", "scan", "--n", "2", "--samples", "8"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["items"][0]["computed"]["failures"] == 0


def test_case_d8_report(capsys):
    code, out = _capture(capsys, ["--json", "case", "d8", "--n", "0"])
    assert code == EXIT_OK  # the one refuted item is an expected discrepancy
    payload = json.loads(out)
    names = {i["name"] for i in payload["items"]}
    assert "psi(b1) = v^2" in names
    flagged = [i for i in payload["items"] if i["status"] == "refuted"]
    assert flagged and all(i.get("expected_discrepancy") for i in flagged)


def test_case_congruence_report(capsys):
    code, out = _capture(capsys, ["--json", "case", "congruence", "--i", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    by_name = {i["name"]: i for i in payload["items"]}
    assert by_name["index at modulus 2"]["computed"]["true_index"] == 6
    assert by_name["index at modulus 4"]["computed"]["true_index"] == 96
    assert by_name["successive quotients"]["computed"] == [16]


def test_json_reports_are_deterministic(capsys):
    argv = ["--json", "--seed", "7", "tower", "scan", "--n", "2", "--samples", "5"]
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first == second
    argv2 = ["--json", "case", "c2c2", "--check-all"]
    _, a = _capture(capsys, argv2)
    _, b = _capture(capsys, argv2)
    assert a == b


def test_ring_mul_and_torsion(capsys):
    x = json.dumps({"coeffs": [{"g": 1, "m": 2, "c": [1]}]})
    y = json.dumps({"coeffs": [{"g": 2, "m": 2, "c": [1]}]})
    code, out = _capture(capsys, ["--json", "ring", "mul", MODEL_RING, "--x", x, "--y", y])
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"]["coeffs"] == [
        {"g": 3, "m": 2, "c": [1]}
    ]
    code, out = _capture(capsys, ["--json", "ring", "torsion", MODEL_RING, "--x", x])
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"] == 2


def test_tower_split_and_usplit_traces(capsys):
    code, out = _capture(capsys, ["--json", "tower", "split", "--n", "1", "--level", "1"])
    assert code == EXIT_OK
    payload = json.loads(out)["items"][0]["computed"]
    assert {"unit", "kernel_part", "complement_part"} <= set(payload)
    code, out = _capture(capsys, ["--json", "tower", "usplit", "--n", "1", "--level", "1"])
    assert code == EXIT_OK


def test_ext_build_and_psi(capsys):
    group = json.dumps({"preset": "dihedral8"})
    code, out = _capture(capsys, ["--json", "ext", "build", group, "--normal", "0", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)["items"][0]["computed"]
    assert payload["quotient_order"] == 4 and payload["central"] is True
    code, out = _capture(
        capsys, ["--json", "ext", "psi", group, "--normal", "0", "2", "--chi", "1"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["items"][0]["computed"] is True


def test_ext_subcommands(capsys):
    group = json.dumps({"preset": "dihedral8"})
    code, out = _capture(
        capsys,
        ["--json", "ext", "kernel", group, "--normal", "0", "2", "--chi", "1"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    by_name = {i["name"]: i for i in payload["items"]}
    assert by_name["kernel module basis"]["computed"]["rank"] == 4
    assert by_name["kernel finiteness"]["computed"]["finite"] is True
    code, out = _capture(
        capsys,
        ["--json", "ext", "components", group, "--normal", "0", "2"],
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["items"][0]["computed"]) == 2


def test_ext_components_reads_only_its_own_flags(capsys):
    # --chi and --chi-modulus select one character for psi and kernel; the
    # component table walks every character and reads neither
    base = ["--json", "ext", "components", '{"preset":"direct_product","params":[4,2]}']
    base += ["--normal", "0", "4", "--conductor", "4"]
    code, out = _capture(capsys, base)
    assert code == EXIT_OK
    items = json.loads(out)["items"]
    for extra in (["--chi", "9"], ["--chi-modulus", "0"]):
        code, out = _capture(capsys, base + extra)
        assert code == EXIT_OK
        assert json.loads(out)["items"] == items
