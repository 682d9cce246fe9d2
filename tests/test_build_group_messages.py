"""``build_group`` refuses every bad table with the message the
entry-by-entry checks printed, and accepts every good one as they did.

``oracles.build_group_entrywise`` checks the entries, the identity and the
inverses one entry at a time and associativity on every pair (a, b).  On
tables drawn from presets and products of order at most 16, with one
mutation each, ``build_group`` must raise the same exception type with the
same message, or return an equal ``FiniteGroup``.  Three order-256
messages are pinned as the entry-by-entry checks printed them.

Associativity is decided by Light's test on a greedy generating set, and
only a refused table is walked triple by triple to name its first failing
triple: the trivial table (whose set is empty) is accepted, tables of
order 32 to 64 with one product changed are answered as the
entry-by-entry checks answer them, and the first failing triple of the
order-256 table with 3 * 5 changed to 7 is pinned.  So is that of
D8 x C2^5 with one product changed, whose greedy generating set
{1, 2, 4, 8, 16, 32, 128} is not its bitmask basis.
"""

import json
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_group_entrywise, first_nonassociative_triple
from twisted_rings.cli import EXIT_USAGE, run
from twisted_rings.groups import (
    build_group,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian_2,
    quaternion8,
)


@lru_cache(maxsize=None)
def _groups() -> tuple:
    """Cyclic groups, C2^k, D8 and Q8 of order at most 16, and their
    pairwise direct products of order at most 16."""
    factors = [cyclic(n) for n in range(1, 17)]
    factors += [elementary_abelian_2(k) for k in range(2, 5)] + [dihedral8(), quaternion8()]
    products = [
        direct_product(a, b) for a, b in combinations_with_replacement(factors[1:], 2) if a.order * b.order <= 16
    ]
    return tuple(factors + products)


def _outcome(build, mul):
    """What build does with mul: the group, or the exception's type and text."""
    try:
        return build(mul)
    except Exception as error:  # any type: the type is compared too
        return type(error), str(error)


MUTATIONS = ("type", "range", "short row", "identity", "no zero", "no mirror", "product")


@st.composite
def mutated_tables(draw) -> list[list]:
    """A group table with one mutation from MUTATIONS."""
    group = draw(st.sampled_from(_groups()))
    n = group.order
    mul = [list(row) for row in group.mul]
    kind = draw(st.sampled_from(MUTATIONS))
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "type":
        # a float may hold a value out of range, and a str has no order with
        # an int, so range checked before type shows in the message or the type
        mul[x][y] = draw(
            st.sampled_from([True, False, float(mul[x][y]), float(n), -1.0, str(mul[x][y])])
        )
    elif kind == "range":
        mul[x][y] = draw(st.sampled_from([-1, -n, n, n + 1]))
    elif kind == "short row":
        del mul[x][draw(st.integers(0, n - 1))]
    elif kind == "identity":
        # row 0 or column 0 changed off the identity's own entry
        if n > 1:
            x = draw(st.integers(1, n - 1))
            v = draw(st.integers(0, n - 1).filter(lambda v: v != x))
            if draw(st.booleans()):
                mul[0][x] = v
            else:
                mul[x][0] = v
    elif kind == "no zero":
        y = mul[x].index(0)
        mul[x][y] = draw(st.integers(0, n - 1))
    elif kind == "no mirror":
        y = mul[x].index(0)
        mul[y][x] = draw(st.integers(0, n - 1))
    else:
        # a 0 is drawn often: a row with two zeros, the first without its mirror
        mul[x][y] = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    return mul


def test_every_drawn_group_is_accepted_as_it_is():
    for group in _groups():
        assert build_group(group.mul) == build_group_entrywise(group.mul)
    assert max(group.order for group in _groups()) == 16


@settings(max_examples=600, deadline=None)
@given(mutated_tables())
def test_build_group_answers_as_the_entrywise_checks(mul):
    assert _outcome(build_group, mul) == _outcome(build_group_entrywise, mul)


def _c2_8(x: int, y: int, value) -> list[list]:
    """C2^8 as an order-256 table with the one entry x * y changed to value."""
    mul = [[a ^ b for b in range(256)] for a in range(256)]
    mul[x][y] = value
    return mul


# each message as the entry-by-entry checks printed it
ORDER_256 = [
    (_c2_8(3, 5, True), "table entry must be an integer, got True"),
    (_c2_8(3, 5, 256), "table entry 256 out of range 0..255"),
    # row 3 holds no 0
    (_c2_8(3, 3, 1), "element 3 has no two-sided inverse"),
]
ORDER_256_IDS = ["true at [3][5]", "256 at [3][5]", "1 at [3][3]"]


@pytest.mark.parametrize("mul, message", ORDER_256, ids=ORDER_256_IDS)
def test_the_order_256_messages_are_pinned(mul, message):
    for build in (build_group, build_group_entrywise):
        with pytest.raises(ValueError) as info:
            build(mul)
        assert str(info.value) == message


@pytest.mark.parametrize("mul, message", ORDER_256, ids=ORDER_256_IDS)
def test_group_validate_prints_the_pinned_order_256_messages(mul, message, capsys, tmp_path):
    path = tmp_path / "c2_8.json"
    path.write_text(json.dumps({"mul": mul}), encoding="utf-8")
    assert run(["--json", "group", "validate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_the_trivial_table_is_accepted():
    assert build_group([[0]]) == build_group_entrywise([[0]])
    assert build_group([[0]]).mul == cyclic(1).mul == ((0,),)
    assert cyclic(1).order == 1


def test_the_order_256_first_failing_triple_is_pinned():
    # group validate prints it on stderr, exit 2, in test_row_associativity.py
    mul, message = _c2_8(3, 5, 7), "associativity fails on (1,2,5)"
    for build in (build_group, build_group_entrywise):
        with pytest.raises(ValueError) as info:
            build(mul)
        assert str(info.value) == message
    assert message == "associativity fails on ({},{},{})".format(*first_nonassociative_triple(mul))


@lru_cache(maxsize=None)
def _groups_32_to_64() -> tuple:
    """Cyclic groups of order 32 to 64, C2^5, C2^6, and products of C2^k, D8,
    Q8 and small cyclic groups of order 32 to 64."""
    factors = [cyclic(n) for n in (2, 4, 8)] + [elementary_abelian_2(2), dihedral8(), quaternion8()]
    products = [
        direct_product(a, b) for a, b in combinations_with_replacement(factors, 2) if 32 <= a.order * b.order <= 64
    ]
    products += [direct_product(dihedral8(), elementary_abelian_2(3)), direct_product(quaternion8(), cyclic(6))]
    return tuple([cyclic(n) for n in range(32, 65)] + [elementary_abelian_2(5), elementary_abelian_2(6)] + products)


@st.composite
def tables_with_one_product_changed(draw) -> list[list[int]]:
    """A group table of order 32 to 64 with the one entry x * y changed."""
    group = draw(st.sampled_from(_groups_32_to_64()))
    n = group.order
    mul = [list(row) for row in group.mul]
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    # a 0 is drawn often: a row with two zeros, the first without its mirror
    mul[x][y] = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    return mul


def test_the_larger_drawn_groups_are_accepted_as_they_are():
    orders = {group.order for group in _groups_32_to_64()}
    assert min(orders) == 32 and max(orders) == 64
    for group in _groups_32_to_64():
        assert build_group(group.mul) == build_group_entrywise(group.mul)


@settings(max_examples=150, deadline=None)
@given(tables_with_one_product_changed())
def test_build_group_answers_as_the_entrywise_checks_at_orders_32_to_64(mul):
    assert _outcome(build_group, mul) == _outcome(build_group_entrywise, mul)


def _d8_c2_5(x: int, y: int, value: int) -> list[list[int]]:
    """D8 x C2^5 as an order-256 table with the one entry x * y changed to value."""
    mul = [list(row) for row in direct_product(dihedral8(), elementary_abelian_2(5)).mul]
    mul[x][y] = value
    return mul


def test_the_d8_x_c2_5_first_failing_triple_is_pinned(capsys, tmp_path):
    # ab * a3 = a2b (160 * 96 = 192) changed to a2b*g (193): 0 is neither
    # the old nor the new entry, so the identity and every inverse survive
    mul, message = _d8_c2_5(160, 96, 193), "associativity fails on (1,160,96)"
    for build in (build_group, build_group_entrywise):
        with pytest.raises(ValueError) as info:
            build(mul)
        assert str(info.value) == message
    assert message == "associativity fails on ({},{},{})".format(*first_nonassociative_triple(mul))
    path = tmp_path / "d8_c2_5_perturbed.json"
    path.write_text(json.dumps({"mul": mul}), encoding="utf-8")
    assert run(["--json", "group", "validate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
