"""The coboundary search reads its pairs into a list of checks once per
call; it must return the same witness or None, and raise the same cap
error, as the generator search it replaced (tests/oracles.py)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cohomologous_by_generator
from twisted_rings.cocycles import Cocycle, are_cohomologous, coboundary_twist
from twisted_rings.errors import CapExceededError
from twisted_rings.groups import cyclic, dihedral8, elementary_abelian_2, quaternion8

GROUPS = (
    [cyclic(n) for n in range(1, 7)]
    + [elementary_abelian_2(k) for k in range(1, 4)]
    + [dihedral8(), quaternion8()]
)
SPACE_LIMIT = 4096


def _table(draw, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))) for _ in range(n)
    )


@st.composite
def searches(draw):
    """(c1, c2, modulus, cap): each table's modulus divides the search
    modulus m, m^(|G|-1) <= SPACE_LIMIT, and the cap is sometimes below
    the search space."""
    g = draw(st.sampled_from(GROUPS))
    n = g.order
    m = draw(st.sampled_from([m for m in range(1, 5) if m ** (n - 1) <= SPACE_LIMIT]))
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    m1 = draw(st.sampled_from(divisors))
    c1 = Cocycle(g, m1, _table(draw, n, m1))
    kind = draw(st.sampled_from(["random", "twisted", "identical"]))
    if kind == "random":
        m2 = draw(st.sampled_from(divisors))
        c2 = Cocycle(g, m2, _table(draw, n, m2))
    elif kind == "twisted":
        # a normalized f, so a witness exists
        tail = draw(st.lists(st.integers(0, m1 - 1), min_size=n - 1, max_size=n - 1))
        c2 = coboundary_twist(c1, [0] + tail)
    else:
        c2 = c1
    space = m ** (n - 1)
    cap = draw(st.one_of(st.none(), st.integers(1, 2 * space)))
    return c1, c2, m, cap


def _outcome(search, c1, c2, m, cap):
    try:
        return "value", search(c1, c2, m, cap)
    except CapExceededError as exc:
        return "cap", str(exc)


@settings(max_examples=150, deadline=None)
@given(searches())
def test_check_list_search_agrees_with_generator_search(case):
    assert _outcome(are_cohomologous, *case) == _outcome(cohomologous_by_generator, *case)
