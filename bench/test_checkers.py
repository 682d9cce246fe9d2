"""Each checker accepts the program's real report and rejects a corrupted one.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checkers as ck  # noqa: E402
import workloads  # noqa: E402
from twisted_rings import cli  # noqa: E402


def report_of(op: workloads.Op) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(op.argv + ["--json"]) == 0
    return json.loads(out.getvalue())


def item(report: dict, name: str) -> dict:
    return next(i for i in report["items"] if i["name"] == name)


def bump_first_coeff(element: dict) -> None:
    element["coeffs"][0]["c"][0] += 1


@pytest.fixture(scope="module")
def rng():
    return random.Random(7)


def test_tables_match_the_library():
    from twisted_rings import cocycles, rings, tower

    ctx = tower.build_tower(rings.anticommuting_ring(0), 2)
    assert ck.tower_table(2) == [list(r) for r in ctx.rings[2].cocycle.table]
    for rank in (3, 4):
        lib = cocycles.anticommuting_pair_cocycle(rank - 2)
        assert ck.anticommuting_table(rank) == [list(r) for r in lib.table]


@pytest.mark.parametrize("part", ["unit", "kernel_part", "complement_part"])
def test_tower_split_rejects_a_changed_part(rng, part):
    op = workloads.tower_split(rng)[0]
    report = report_of(op)
    assert op.check(report) == []
    bump_first_coeff(item(report, "split trace")["computed"][part])
    assert op.check(report)


def test_cohomology_rejects_flipped_verdicts_and_bad_witnesses(rng):
    ops = workloads.cohomology(rng)
    witness = next(op for op in ops if op.kind == "witness")
    refute = next(op for op in ops if op.kind == "refute")
    w_report, r_report = report_of(witness), report_of(refute)
    assert witness.check(w_report) == [] and refute.check(r_report) == []

    name = "cohomologous over mu_2"
    bad_witness = copy.deepcopy(w_report)
    f = item(bad_witness, name)["computed"]["witness"]
    f[5] = 1 - f[5]
    assert witness.check(bad_witness)
    no_witness = copy.deepcopy(w_report)
    item(no_witness, name)["computed"]["witness"] = None
    assert witness.check(no_witness)
    invented = copy.deepcopy(r_report)
    item(invented, name)["computed"]["witness"] = [0] * 16
    assert refute.check(invented)


def test_case_audit_checkers_reject_changed_values(rng):
    d8 = workloads.case_audits(rng)
    for op in d8[:2] + d8[3:]:  # d8 --n 2 takes seconds; its closed forms are the same
        report = report_of(op)
        assert op.check(report) == [], op.label

    d8_n1 = report_of(d8[1])
    item(d8_n1, "class count factorization")["computed"]["product"] = 8
    assert d8[1].check(d8_n1)
    d8_n0 = report_of(d8[0])
    item(d8_n0, "torsion kernel units")["computed"] = ["1"]
    assert d8[0].check(d8_n0)
    d8_n0 = report_of(d8[0])
    item(d8_n0, "psi(b3) = w v^-1 (published form)")["status"] = "verified"
    assert d8[0].check(d8_n0)
    c2c2 = report_of(d8[3])
    item(c2c2, "index of the free part")["computed"] = 4
    assert d8[3].check(c2c2)
    congruence = report_of(d8[4])
    item(congruence, "index at modulus 8")["computed"]["true_index"] = 1536
    assert d8[4].check(congruence)
    congruence = report_of(d8[4])
    item(congruence, "congruence depth indices")["computed"]["free_ranks"] = [3, 17, 129, 1025]
    assert d8[4].check(congruence)


def test_unit_scan_checkers_reject_wrong_answers(rng):
    ops = workloads.unit_scan(rng)
    scan, unit, zero_divisor, torsion = ops[1], ops[4], ops[5], ops[6]
    for op in (scan, unit, zero_divisor, torsion):
        assert op.check(report_of(op)) == [], op.label

    report = report_of(scan)
    item(report, "trace-zero scan")["computed"]["violations"] = [{"coeffs": []}]
    assert scan.check(report)
    report = report_of(unit)
    bump_first_coeff(item(report, "unit test")["computed"]["inverse"])
    assert unit.check(report)
    report = report_of(unit)
    item(report, "unit test")["computed"] = {"is_unit": False, "inverse": None}
    assert unit.check(report)
    report = report_of(zero_divisor)
    item(report, "unit test")["computed"] = {"is_unit": True, "inverse": ck.sparse(ck.one(8))}
    assert zero_divisor.check(report)


def test_torsion_checker_rejects_wrong_orders():
    table = ck.anticommuting_table(3)
    u_g = [0, 1, 0, 0, 0, 0, 0, 0]  # u_g^2 = 1
    u_gh = [0, 0, 0, 1, 0, 0, 0, 0]  # u_gh^2 = -1, order 4
    v = [1, 0, 1, -1, 0, 0, 0, 0]  # unipotent, infinite order
    hyperbolic = ck.mul([1, 0, 1, 1, 0, 0, 0, 0], v, table)

    def torsion_report(order):
        return {"items": [{"name": "torsion order", "computed": order}]}

    assert ck.check_torsion(torsion_report(2), u_g, table) == []
    assert ck.check_torsion(torsion_report(4), u_gh, table) == []
    assert ck.check_torsion(torsion_report(None), v, table) == []
    assert ck.check_torsion(torsion_report(None), hyperbolic, table) == []
    assert ck.check_torsion(torsion_report(4), u_g, table)  # not minimal
    assert ck.check_torsion(torsion_report(2), u_gh, table)  # x^2 = -1
    assert ck.check_torsion(torsion_report(None), u_gh, table)  # finite
    assert ck.check_torsion(torsion_report(6), v, table)


def test_hyperbolic_request_would_be_checked_if_it_returned():
    x, table = workloads.HYPERBOLIC_16, ck.anticommuting_table(4)
    assert ck.infinite_order_certificate(x, table) == 1
    assert ck.check_torsion({"items": [{"name": "torsion order", "computed": 4}]}, x, table)
