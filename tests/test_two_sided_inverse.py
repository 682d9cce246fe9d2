"""``is_unit`` checks x x^-1 = 1 only; the inverse it returns is two-sided.

In a Z-order inside a finite-dimensional Q-algebra, x y = 1 makes L_x onto,
hence bijective, so y x = 1 as well.  Here the other product is checked on
drawn units: words in the signed basis units +-u_g, the bicyclic units of
each ring (and a = i u_g, b = i u_h in the quaternion ring), and their
inverses.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quaternion_twist_ring
from twisted_rings.cyclotomic import CycInt
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.rings import anticommuting_ring, is_unit


def _anticommuting(n: int):
    """+-u_g and v = 1 + u_h - u_gh, w = 1 + u_h + u_gh."""
    ring = anticommuting_ring(n)
    one, h, gh = ring.one(), ring.basis(2), ring.basis(3)
    return ring, [one + h - gh, one + h + gh]


def _quaternion8():
    """i^k u_g and 1 + b -+ ab, where a = i u_g and b = i u_h square to 1 and
    anticommute, i = zeta_8^2."""
    ring = quaternion_twist_ring(8)
    i = CycInt.zeta(8) ** 2
    a, b = ring.basis(1, i), ring.basis(2, i)
    return ring, [1 + b - a * b, 1 + b + a * b, a, b]


def _d8_source():
    """+-u_g and the bicyclic units b1 = 1 + (1-b) ab (1+b),
    b2 = 1 + (1+b) ab (1-b) and b3 = 1 - (1+ab) b (1-ab) of Z[D8 x C2]."""
    ring = build_d8_psi(1).source
    gens = ring.group.generators
    one = ring.one()
    b = ring.basis(gens["b"])
    ab = ring.basis(ring.group.mul[gens["a"]][gens["b"]])
    return ring, [
        one + (one - b) * ab * (one + b),
        one + (one + b) * ab * (one - b),
        one - (one + ab) * b * (one - ab),
    ]


@lru_cache(maxsize=None)
def _rings() -> dict:
    """name -> (ring, generators with their inverses)."""
    out = {}
    for name, (ring, hyperbolic) in {
        **{f"anticommuting n={n}": _anticommuting(n) for n in range(3)},
        "quaternion c=8": _quaternion8(),
        "d8 source n=1": _d8_source(),
    }.items():
        signed = [s * ring.basis(g) for g in ring.group.elements() for s in (1, -1)]
        out[name] = ring, [(x, is_unit(x)) for x in signed + hyperbolic]
    return out


@st.composite
def units(draw):
    ring, gens = _rings()[draw(st.sampled_from(sorted(_rings())))]
    x = ring.one()
    for g, g_inv in draw(st.lists(st.sampled_from(gens), max_size=6)):
        x = x * (g_inv if draw(st.booleans()) else g)
    return x


def test_every_generator_has_a_two_sided_inverse():
    for ring, gens in _rings().values():
        for g, g_inv in gens:
            assert g_inv is not None
            assert g * g_inv == ring.one() == g_inv * g


@settings(max_examples=80, deadline=None)
@given(units())
def test_the_inverse_is_unit_returns_is_two_sided(x):
    inv = is_unit(x)
    assert inv is not None
    assert inv * x == x.ring.one() == x * inv
