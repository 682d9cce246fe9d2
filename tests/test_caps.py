"""Caps last for one run() call, and run() leaves no other state behind."""

import json
import random
import threading
import time

import pytest

from twisted_rings.cli import EXIT_CAP, EXIT_OK, _caps, build_parser, run
from twisted_rings.cocycles import anticommuting_pair_cocycle, are_cohomologous
from twisted_rings.errors import CAPS, CapExceededError, Caps
from twisted_rings.groups import elementary_abelian_2

X = json.dumps({"coeffs": [{"g": 1, "m": 2, "c": [1]}]})


def _ring(conductor: int) -> str:
    return json.dumps({"cocycle": {"builtin": "quaternion"}, "conductor": conductor})


def test_lowered_caps_fire_inside_the_call(capsys):
    assert run(["--cap-group-order", "4", "case", "d8", "--n", "0"]) == EXIT_CAP
    assert run(["--cap-word-length", "8", "case", "c2c2"]) == EXIT_CAP


def test_lowered_group_order_cap_is_gone_after_the_call(capsys):
    assert run(["--cap-group-order", "4", "case", "d8", "--n", "0"]) == EXIT_CAP
    assert CAPS.get() == Caps()
    assert elementary_abelian_2(3).order == 8


def test_lowered_coboundary_cap_is_gone_after_the_call(capsys):
    # C2 x C2 at modulus 4 searches 4^3 = 64 maps, within a cap of 100
    argv = [
        "--cap-coboundary", "100", "cocycle", "cohomologous",
        '{"builtin": "c2c2_matrix"}', "--other", '{"builtin": "quaternion"}',
        "--modulus", "4",
    ]
    assert run(argv) == EXIT_OK
    # C2^3 at modulus 2 searches 2^7 = 128 maps, over the lowered cap
    small = anticommuting_pair_cocycle(1)
    assert are_cohomologous(small, small, 2) is not None
    big = anticommuting_pair_cocycle(2)  # 4^15 maps at modulus 4
    with pytest.raises(CapExceededError, match=f"exceeds cap {10**7}$"):
        are_cohomologous(big, big, 4)


def test_flags_lower_the_table_caps_and_set_the_search_cap():
    parse = build_parser().parse_args
    assert _caps(parse(["case", "d8"])) == Caps()
    args = parse(["--cap-group-order", "16", "case", "d8", "--cap-conductor", "8"])
    assert _caps(args) == Caps(group_order=16, conductor=8)
    # the table caps stay at their defaults; the search cap may be raised
    args = parse(["--cap-group-order", "1000", "--cap-word-length", "99", "case", "d8"])
    assert _caps(args) == Caps()
    args = parse(["--cap-coboundary", str(10**9), "case", "d8"])
    assert _caps(args) == Caps(coboundary=10**9)


def test_a_cap_set_in_one_thread_does_not_reach_another():
    token = CAPS.set(Caps(group_order=4))
    try:
        with pytest.raises(CapExceededError):
            elementary_abelian_2(3)
        built = []
        thread = threading.Thread(target=lambda: built.append(elementary_abelian_2(3)))
        thread.start()
        thread.join()
        assert [g.order for g in built] == [8]
    finally:
        CAPS.reset(token)


def test_conductor_cap_is_checked_on_the_ring(capsys):
    argv = ["ring", "mul", _ring(12), "--x", X, "--y", X]
    assert run(["--cap-conductor", "8"] + argv) == EXIT_CAP
    assert run(argv) == EXIT_OK
    assert run(["ring", "mul", _ring(24), "--x", X, "--y", X]) == EXIT_OK


def test_run_leaves_the_global_random_sequence_alone(capsys):
    random.seed(2024)
    expected = [random.random() for _ in range(3)]
    random.seed(2024)
    drawn = [random.random()]
    assert run(["--seed", "5", "tower", "scan", "--n", "1", "--samples", "2"]) == EXIT_OK
    drawn += [random.random(), random.random()]
    assert drawn == expected


def test_an_uncapped_scan_over_the_candidate_cap_exits_3_at_once(capsys):
    # C2^4 with coefficients +-1 and no support cap: 3^16 - 1 candidates
    ring = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 2}, "conductor": 2})
    start = time.monotonic()
    assert run(["ring", "scan", ring]) == EXIT_CAP
    assert time.monotonic() - start < 1.0
    assert f"scan of {3**16 - 1} candidates exceeds cap {10**6}" in capsys.readouterr().err


def test_the_scan_candidate_cap_is_a_search_cap(capsys):
    # C2^3 at support 4 scans 1,696 candidates
    ring = json.dumps({"cocycle": {"builtin": "anticommuting", "n": 1}, "conductor": 2})
    argv = ["ring", "scan", ring, "--support", "4"]
    assert run(["--cap-scan-candidates", "1695"] + argv) == EXIT_CAP
    assert run(["--cap-scan-candidates", "1696"] + argv) == EXIT_OK
    parse = build_parser().parse_args
    assert _caps(parse(["--cap-scan-candidates", str(10**9), "case", "d8"])) == Caps(
        scan_candidates=10**9
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "scan", "--samples", "1000001"],
        ["--cap-scan-candidates", "4", "tower", "scan", "--samples", "5"],
    ],
    ids=["default cap", "lowered cap"],
)
def test_tower_scan_over_the_cap_exits_3_before_building(capsys, monkeypatch, argv):
    def build_tower(*_):
        raise AssertionError("the tower is built before the samples are checked")

    monkeypatch.setattr("twisted_rings.tower.build_tower", build_tower)
    start = time.monotonic()
    assert run(argv) == EXIT_CAP
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "scan cap" in captured.err
