"""Each group table is checked once, where it enters: only a JSON table goes
through build_group's checks, and the groups the library derives by a formula
(presets, products, quotients and G_alpha) are packaged without them.  These
tests stand in for the checks the constructions no longer run, with
build_group as the oracle: every packaged group passes it unchanged.  The
order cap is checked before any table is built."""

import json
import tracemalloc

import pytest

from test_checked_once import GROUPS, _builtin_specs
from twisted_rings import cli
from twisted_rings.cli import EXIT_USAGE, run
from twisted_rings.cocycles import anticommuting_pair_cocycle, build_G_alpha
from twisted_rings.errors import CapExceededError
from twisted_rings.groups import (
    _package,
    all_subgroups,
    build_group,
    build_preset,
    cyclic,
    dihedral8,
    dihedral8_times_c2n,
    elementary_abelian_2,
    is_normal,
    quaternion8,
    quotient,
    subgroup_as_group,
)
from twisted_rings.rings import anticommuting_ring
from twisted_rings.tower import build_tower


def _assert_passes_build_group(g):
    # equality compares the tables, the inverses, the labels and the name
    assert build_group(g.mul, g.labels, g.name, g.generators) == g, g
    # both sides read their inverses off the rows, so check those directly
    assert all(g.mul[x][g.inv[x]] == 0 == g.mul[g.inv[x]][x] for x in g.elements()), g


def _presets():
    yield from (cyclic(n) for n in range(1, 17))
    yield from (elementary_abelian_2(k) for k in range(7))
    yield dihedral8()
    yield quaternion8()


def _products():
    for factors in ([4, 2], [2, 3, 5], [3, 3, 2, 2]):
        yield build_preset("direct_product", factors)
    yield from (dihedral8_times_c2n(n) for n in range(4))
    yield from (ring.group for ring in build_tower(anticommuting_ring(0), 3).rings)


@pytest.mark.parametrize("build", [_presets, _products], ids=["presets", "products"])
def test_every_packaged_preset_and_product_passes_build_group(build):
    groups = list(build())
    for g in groups:
        _assert_passes_build_group(g)
    assert len(groups) > 10


def test_every_subgroup_table_passes_build_group_unchanged():
    # subgroup_as_group checks its index table with build_group; packaging
    # that table with no check gives the same group
    checked = 0
    for g in (g for build in (_presets, _products) for g in build() if g.order <= 16):
        for sub in all_subgroups(g):
            members = sorted(sub)
            index = {x: i for i, x in enumerate(members)}
            mul = [[index[g.mul[x][y]] for y in members] for x in members]
            labels = [g.labels[x] for x in members]
            assert subgroup_as_group(g, sub)[0] == _package(mul, labels, f"{g.name}|H"), g
            checked += 1
    assert checked > 250


@pytest.mark.parametrize("name", GROUPS)
def test_every_quotient_passes_build_group(name):
    g = GROUPS[name]
    normal = [sub for sub in all_subgroups(g) if is_normal(g, sub)]
    for sub in normal:
        q, proj = quotient(g, sub)
        _assert_passes_build_group(q)
        assert proj.target is q
    assert len(normal) > 2


def test_the_basis_group_of_every_builtin_the_cli_loads_passes_build_group():
    specs = list(_builtin_specs())
    for spec in specs:
        c = cli._load_normalized_cocycle(spec)
        ga = build_G_alpha(c)
        _assert_passes_build_group(ga.group)
        assert ga.group.order == ga.value_order * c.group.order
    assert len(specs) > 100


def _peak_mb(call) -> float:
    """Peak traced allocation of call(), which must exceed the order cap."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="order .* exceeds cap 256$"):
            call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda: elementary_abelian_2(10),
        lambda: cyclic(1024),
        lambda: anticommuting_pair_cocycle(8),
    ],
    ids=["C2^10", "C1024", "anticommuting n=8"],
)
def test_an_order_over_the_cap_is_refused_before_its_table_is_built(call):
    assert _peak_mb(call) < 1


def test_a_basis_group_over_the_cap_is_refused_before_its_table_is_built():
    c = anticommuting_pair_cocycle(6)  # on C2^8; its basis group has order 512
    assert _peak_mb(lambda: build_G_alpha(c)) < 4


def _cocycle_spec(preset: str, params: list, m: int, table: list) -> str:
    return json.dumps({"group": {"preset": preset, "params": params}, "m": m, "table": table})


def test_galpha_refuses_tables_that_are_not_normalized_cocycles(capsys):
    # the identity fails on (1, 1, 2); and the coboundary of the constant map 1
    not_cocycle = _cocycle_spec("cyclic", [3], 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    not_normalized = _cocycle_spec("cyclic", [2], 2, [[1, 1], [1, 1]])
    for table, message in [
        (not_cocycle, "cocycle identity fails on triple (1,1,2)"),
        (not_normalized, "cocycle identity holds but table is not normalized"),
    ]:
        code = run(["--json", "cocycle", "galpha", table])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert message in captured.err


def test_build_group_still_refuses_what_the_packaged_tables_never_hold():
    c2_squared = [[a ^ b for b in range(4)] for a in range(4)]
    for table, message in [
        ([], "empty multiplication table"),
        ([[0, 1], [1, 1]], "element 1 has no two-sided inverse"),
        ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
        # a Latin square with identity 0 whose product is not associative
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
            "associativity fails",
        ),
    ]:
        with pytest.raises(ValueError, match=message):
            build_group(table)
    g = build_group(c2_squared)
    assert g.mul == tuple(map(tuple, c2_squared))
    assert g.inv == (0, 1, 2, 3)
    assert g.labels == ("e0", "e1", "e2", "e3")
