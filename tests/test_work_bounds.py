"""Two bounds checked where input enters: `tower scan` bounds its work, not
only its sample count, and a cocycle table is refused when an exponent is
not reduced mod its value modulus.

`tower scan` draws units up to the top level, of dim base.dim * 2^n, so it
refuses when --samples times that dim is over --cap-scan-candidates, before
the tower is built.  The Cocycle constructor compares each row's least and
largest entry with the modulus.
"""

import time

import pytest

from twisted_rings.cli import EXIT_CAP, EXIT_OK, run
from twisted_rings.cocycles import Cocycle
from twisted_rings.groups import cyclic, elementary_abelian_2


def _no_tower(*_):
    raise AssertionError("the tower is built before the work is checked")


@pytest.mark.parametrize(
    "argv",
    [
        # 62,501 samples at the default --n 2 and the dim-16 top level: one
        # past the cap of 10^6
        ["tower", "scan", "--n", "2", "--samples", "62501"],
        ["--cap-scan-candidates", "31", "tower", "scan", "--n", "1", "--samples", "4"],
        # 2^1000 is never built: the cap is shifted down instead
        ["tower", "scan", "--n", "1000", "--samples", "1"],
    ],
    ids=["n=2 default cap", "n=1 lowered cap", "n=1000"],
)
def test_tower_scan_over_samples_times_dim_exits_3_before_building(capsys, monkeypatch, argv):
    monkeypatch.setattr("twisted_rings.tower.build_tower", _no_tower)
    start = time.monotonic()
    assert run(argv) == EXIT_CAP
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed the scan cap" in captured.err


def test_tower_scan_at_samples_times_dim_equal_to_the_cap_runs(capsys):
    # 2 samples at the dim-8 top level of --n 1 are 16 units of work
    argv = ["tower", "scan", "--n", "1", "--samples", "2"]
    assert run(["--cap-scan-candidates", "16"] + argv) == EXIT_OK
    assert run(["--cap-scan-candidates", "15"] + argv) == EXIT_CAP


@pytest.mark.parametrize("group", [cyclic(1), cyclic(3), elementary_abelian_2(2)], ids=["C1", "C3", "C2^2"])
@pytest.mark.parametrize("modulus", [1, 2, 4])
def test_a_cocycle_entry_out_of_range_anywhere_is_refused(group, modulus):
    n = group.order
    zero = [[0] * n for _ in range(n)]
    assert Cocycle(group, modulus, tuple(map(tuple, zero))).modulus == modulus
    top = [[modulus - 1] * n for _ in range(n)]
    assert Cocycle(group, modulus, tuple(map(tuple, top))).table[0][0] == modulus - 1
    for g in range(n):
        for h in range(n):
            for bad in (-1, modulus, modulus + 7):
                table = [row[:] for row in zero]
                table[g][h] = bad
                with pytest.raises(ValueError, match="must be reduced mod the value modulus"):
                    Cocycle(group, modulus, tuple(map(tuple, table)))
