"""``build_group`` decides associativity by Light's test on a greedy
generating set, and walks a refused table triple by triple.

``groups.greedy_generators`` must return a set whose left-normed products,
from 0, reach every element, with at most log2 n members in a group, and
the same set as a walk that recomputes the reached products from 0 each
time the set grows.  On C2^k with one intercalate swapped, a Latin square
with identity 0 and every inverse kept, only associativity decides: none
is associative, and ``build_group`` must refuse each with
``oracles.first_nonassociative_triple``'s triple, byte for byte.  A table
on which every x past 0 is a greedy generator is refused with the message
the triple loop printed before Light's test.
"""

from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_nonassociative_triple
from twisted_rings.groups import (
    all_subgroups,
    build_group,
    build_preset,
    dihedral8,
    direct_product,
    elementary_abelian_2,
    greedy_generators,
    quaternion8,
    subgroup_as_group,
)


def _reached(tab, gens) -> set[int]:
    """The left-normed products of gens, starting from 0."""
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [t for s in frontier for t in {tab[s][g] for g in gens} if t not in reached]
        reached.update(frontier)
    return reached


def _greedy_by_restart(tab) -> list[int]:
    """The greedy set by its definition: x joins when the products of the
    set so far, recomputed from 0 each time the set grows, do not reach it."""
    gens: list[int] = []
    reached = {0}
    for x in range(len(tab)):
        if x not in reached:
            gens.append(x)
            reached = _reached(tab, gens)
    return gens


def _cyclic_factor_orders(largest: int, room: int):
    """Non-increasing tuples of cyclic orders >= 2 with product <= room."""
    for m in range(2, min(largest, room) + 1):
        yield (m,)
        for rest in _cyclic_factor_orders(m, room // m):
            yield (m, *rest)


@lru_cache(maxsize=None)
def _groups() -> tuple:
    """Every preset of order at most 64, direct products of order at most
    64 of C2^k, D8, Q8 and cyclic groups, and every subgroup of D8 x C2
    packaged by subgroup_as_group."""
    presets = [build_preset("cyclic", [n]) for n in range(1, 65)]
    presets += [build_preset("elementary_abelian_2", [k]) for k in range(7)]
    presets += [build_preset("dihedral8"), build_preset("quaternion8")]
    presets += [build_preset("direct_product", list(p)) for p in _cyclic_factor_orders(64, 64)]
    factors = [build_preset("cyclic", [n]) for n in (2, 3, 4, 8)]
    factors += [elementary_abelian_2(k) for k in (2, 3)] + [dihedral8(), quaternion8()]
    products = [direct_product(a, b) for a, b in combinations_with_replacement(factors, 2) if a.order * b.order <= 64]
    d8c2 = direct_product(dihedral8(), elementary_abelian_2(1))
    subgroups = [subgroup_as_group(d8c2, ids)[0] for ids in all_subgroups(d8c2)]
    return tuple(presets + products + subgroups)


def test_the_drawn_groups_cover_every_order_to_64_and_the_subgroups_of_d8_x_c2():
    orders = {group.order for group in _groups()}
    assert orders == set(range(1, 65))
    assert sum(group.name.endswith("|H") for group in _groups()) == 35


def test_the_greedy_set_generates_each_group_with_at_most_log2_n_members():
    for group in _groups():
        gens = greedy_generators(group.mul)
        assert _reached(group.mul, gens) == set(group.elements()), group
        assert 1 << len(gens) <= group.order, group


def test_the_incremental_walk_returns_the_greedy_set_by_its_definition():
    for group in _groups():
        assert greedy_generators(group.mul) == _greedy_by_restart(group.mul), group


@st.composite
def tables_with_identity(draw) -> list[list[int]]:
    """A table of order 1 to 12 with 0 as two-sided identity and every other
    entry drawn.  Most are not groups: a walk that skips some pairs still
    finds a group's greedy set, but not theirs."""
    n = draw(st.integers(1, 12))
    mul = [[x if y == 0 else y if x == 0 else 0 for y in range(n)] for x in range(n)]
    for x in range(1, n):
        for y in range(1, n):
            mul[x][y] = draw(st.integers(0, n - 1))
    return mul


@settings(max_examples=300, deadline=None)
@given(tables_with_identity())
def test_the_incremental_walk_follows_the_definition_on_any_table(mul):
    assert greedy_generators(mul) == _greedy_by_restart(mul)


def test_the_order_256_greedy_sets():
    d8_c2_5 = direct_product(dihedral8(), elementary_abelian_2(5))
    assert greedy_generators(d8_c2_5.mul) == [1, 2, 4, 8, 16, 32, 128]
    assert greedy_generators(elementary_abelian_2(8).mul) == [1 << i for i in range(8)]


@st.composite
def swapped_intercalates(draw) -> list[list[int]]:
    """C2^k, k = 3..6, with rows {u, v} and columns {x, y} swapped, where
    y = x ^ u ^ v.  Those four entries are an intercalate (u x = v y and
    u y = v x), so the table stays a Latin square; x not in {0, u, v, u ^ v}
    keeps 0 off the swapped entries and row 0 and column 0 out of them."""
    n = 1 << draw(st.integers(3, 6))
    u = draw(st.integers(1, n - 1))
    v = draw(st.integers(1, n - 1).filter(lambda v: v != u))
    x = draw(st.integers(1, n - 1).filter(lambda x: x not in (u, v, u ^ v)))
    y = x ^ u ^ v
    mul = [[a ^ b for b in range(n)] for a in range(n)]
    mul[u][x], mul[v][x] = mul[v][x], mul[u][x]
    mul[u][y], mul[v][y] = mul[v][y], mul[u][y]
    return mul


@settings(max_examples=200, deadline=None)
@given(swapped_intercalates())
def test_a_swapped_intercalate_is_refused_at_the_oracles_first_triple(mul):
    n = len(mul)
    assert all(sorted(row) == list(range(n)) for row in mul)
    assert all(sorted(col) == list(range(n)) for col in zip(*mul))
    assert mul[0] == list(range(n)) and [row[0] for row in mul] == list(range(n))
    # none is associative: each x x is still 0, so a group would be abelian,
    # but row u now reads x ^ v at x where row x reads x ^ u at u
    triple = first_nonassociative_triple(mul)
    assert triple is not None
    with pytest.raises(ValueError) as info:
        build_group(mul)
    assert str(info.value) == "associativity fails on ({},{},{})".format(*triple)


def test_the_255_generator_table_is_refused_with_the_triple_loops_message():
    # x x = 0 and x y = max(x, y): each x past 0 is a greedy generator
    mul = [[0 if x == y else max(x, y) for y in range(256)] for x in range(256)]
    assert greedy_generators(mul) == list(range(1, 256))
    with pytest.raises(ValueError) as info:
        build_group(mul)
    assert str(info.value) == "associativity fails on (1,2,2)"
    assert first_nonassociative_triple(mul) == (1, 2, 2)
