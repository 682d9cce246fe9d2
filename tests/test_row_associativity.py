"""``build_group`` checks associativity a row at a time, and reports the
same first failing triple as the triple loop it replaced.

``oracles.first_nonassociative_triple`` walks every (a, b, c) in order.
On tables drawn from small groups with one or two entries changed, the
identity and every inverse kept, ``build_group`` must refuse a table with
that oracle's first triple in its message, byte for byte, and accept every
table the oracle finds associative.  The messages of three fixed tables are
pinned as the triple loop printed them.
"""

import json
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_nonassociative_triple
from test_group_validation import _perturbed_c2_power
from twisted_rings.cli import EXIT_USAGE, run
from twisted_rings.groups import (
    build_group,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian_2,
    quaternion8,
)

# the order-5 Latin square of test_packaged_groups.py: identity 0, every
# element its own inverse, not associative
LATIN_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize(
    "mul, message",
    [
        (_perturbed_c2_power(8, 3, 5, 7), "associativity fails on (1,2,5)"),
        (_perturbed_c2_power(7, 100, 101, 2), "associativity fails on (1,100,101)"),
        (LATIN_5, "associativity fails on (1,1,2)"),
    ],
    ids=["C2^8 3*5=7", "C2^7 100*101=2", "Latin square of order 5"],
)
def test_the_first_failing_triple_is_pinned(mul, message):
    with pytest.raises(ValueError) as info:
        build_group(mul)
    assert str(info.value) == message
    assert message == "associativity fails on ({},{},{})".format(*first_nonassociative_triple(mul))


def test_group_validate_prints_the_pinned_triple_of_the_order_256_table(capsys, tmp_path):
    path = tmp_path / "c2_8_perturbed.json"
    path.write_text(json.dumps({"mul": _perturbed_c2_power(8, 3, 5, 7)}), encoding="utf-8")
    assert run(["--json", "group", "validate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: associativity fails on (1,2,5)\n")


@lru_cache(maxsize=None)
def _groups() -> tuple:
    """Cyclic groups, C2^k, D8 and Q8 of order at most 32, and their
    pairwise direct products of order at most 32."""
    factors = [cyclic(n) for n in range(2, 17)]
    factors += [elementary_abelian_2(k) for k in range(2, 5)] + [dihedral8(), quaternion8()]
    products = [
        direct_product(a, b) for a, b in combinations_with_replacement(factors, 2) if a.order * b.order <= 32
    ]
    return tuple(factors + [cyclic(n) for n in range(17, 33)] + [elementary_abelian_2(5)] + products)


@st.composite
def perturbed_tables(draw) -> list[list[int]]:
    """A group table with one or two entries off the identity's row and
    column changed.  No entry 0 is changed, so every inverse survives."""
    # C2 has no entry off the identity's row and column but 0
    group = draw(st.sampled_from([g for g in _groups() if g.order > 2]))
    n = group.order
    cells = [(x, y) for x in range(1, n) for y in range(1, n) if group.mul[x][y] != 0]
    mul = [list(row) for row in group.mul]
    for x, y in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2)):
        mul[x][y] = draw(st.integers(0, n - 1))
    return mul


def test_every_drawn_group_is_accepted_as_it_is():
    for group in _groups():
        assert first_nonassociative_triple(group.mul) is None
        assert build_group(group.mul).mul == group.mul
    assert max(group.order for group in _groups()) == 32


@settings(max_examples=300, deadline=None)
@given(perturbed_tables())
def test_build_group_reports_the_triple_the_triple_loop_finds_first(mul):
    triple = first_nonassociative_triple(mul)
    if triple is None:
        assert build_group(mul).mul == tuple(map(tuple, mul))
    else:
        with pytest.raises(ValueError) as info:
            build_group(mul)
        assert str(info.value) == "associativity fails on ({},{},{})".format(*triple)
