"""TwElement stores flat integer coordinates; its element API must agree
with the former CycInt-tuple element (tests/oracles.py) on every supported
conductor, also for coefficients given in a smaller conductor, which the
constructor embeds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CycTupleElement, quaternion_twist_ring
from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.cyclotomic import PHI_DEGREE, SUPPORTED_CONDUCTORS, CycInt
from twisted_rings.groups import cyclic
from twisted_rings.rings import TwElement, TwRing

RINGS = [TwRing(cyclic(3), trivial_cocycle(cyclic(3), 1), c) for c in SUPPORTED_CONDUCTORS] + [
    quaternion_twist_ring(c) for c in SUPPORTED_CONDUCTORS if c % 2 == 0
]


@st.composite
def coefficients(draw, ring):
    """One CycInt per group element, each in a conductor dividing the ring's
    (all in conductor 1, so rational, when drawn so), entries in [-3, 3]."""
    divisors = [d for d in SUPPORTED_CONDUCTORS if ring.conductor % d == 0]
    rational = draw(st.booleans())
    out = []
    for _ in ring.group.elements():
        m = 1 if rational else draw(st.sampled_from(divisors))
        phi = PHI_DEGREE[m]
        if draw(st.booleans()):
            vec = [0] * phi
        else:
            vec = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
        out.append(CycInt(m, tuple(vec)))
    return tuple(out)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except ValueError:
        return "error", None


def _coefficients(x):
    return [(c.m, c.coeffs) for c in x.coeffs]


def _agree(x: TwElement, old: CycTupleElement) -> None:
    assert x.vec == tuple(v for c in old.coeffs for v in c.coeffs)
    assert _coefficients(x) == _coefficients(old)
    assert [x.coeff(g) for g in x.ring.group.elements()] == list(old.coeffs)
    assert x.items() == old.items()
    assert x.support() == old.support()
    assert x.is_zero() == old.is_zero()
    assert x.content() == old.content()
    assert x.to_json() == old.to_json()
    assert repr(x) == repr(old)
    assert _outcome(x.int_vector) == _outcome(old.int_vector)
    for k in (1, 2, 3, -2):
        new_q, old_q = _outcome(x.divide_exact, k), _outcome(old.divide_exact, k)
        assert new_q[0] == old_q[0]
        if new_q[0] == "value":
            assert _coefficients(new_q[1]) == _coefficients(old_q[1])


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_element_api_matches_the_cyc_tuple_element(ring, data):
    a = data.draw(coefficients(ring))
    b = data.draw(coefficients(ring))
    x, y = TwElement(ring, a), TwElement(ring, b)
    old_x, old_y = CycTupleElement(ring, a), CycTupleElement(ring, b)
    for new, old in (
        (x, old_x),
        (y, old_y),
        (x + y, old_x + old_y),
        (x - y, old_x - old_y),
        (-x, -old_x),
        (x + x, old_x + old_x),
    ):
        _agree(new, old)
    assert (x + x).divide_exact(2) == x
    # the library's other constructors give the same element
    assert ring.element(dict(enumerate(a))) == x
    assert x - y + y == x and (x - x).is_zero() and x - x == ring.zero()
    # == and hash: by value, whatever conductor the coefficients came in
    same = TwElement(ring, x.coeffs)
    assert (x == y) == (old_x == old_y)
    assert same == x and hash(same) == hash(x)
    if x == y:
        assert hash(x) == hash(y)
    old_same = CycTupleElement(ring, old_x.coeffs)
    assert len({x, y, same}) == len({old_x, old_y, old_same})
