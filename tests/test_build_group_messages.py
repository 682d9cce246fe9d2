"""``build_group`` refuses every bad table with the message the
entry-by-entry checks printed, and accepts every good one as they did.

``oracles.build_group_entrywise`` checks the entries, the identity and the
inverses one entry at a time and associativity on every pair (a, b).  On
tables drawn from presets and products of order at most 16, with one
mutation each, ``build_group`` must raise the same exception type with the
same message, or return an equal ``FiniteGroup``.  Three order-256
messages are pinned as the entry-by-entry checks printed them.
"""

import json
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_group_entrywise
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
