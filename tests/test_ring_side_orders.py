"""Units and orders decided in the ring, checked against the matrix route.

``unit_order_coords`` builds no matrix: in each indecomposable component it
reads the traces of the powers of x from their u_1 coefficients, recovers
the characteristic polynomial of left multiplication by Newton's identities,
and confirms a torsion order by a power of x in the ring.  The oracle is the
route it replaced, on the whole regular representation: ``det_solve`` for
the unit verdict and ``matrix_order`` (Berkowitz's polynomial, then a matrix
power) for the order.
"""

from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import charpoly, det_solve, matrix_order
from test_components import RINGS, elements, ring_named
from twisted_rings import rings
from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.cyclotomic import (
    SUPPORTED_CONDUCTORS,
    CycInt,
    cyclotomic_factors,
    galois_apply,
)
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.groups import elementary_abelian_2
from twisted_rings.rings import (
    TwRing,
    _charpoly,
    _leaves,
    _rep_matrix,
    _small_supports,
    anticommuting_ring,
    quaternion_twist_ring,
    regular_rep,
    torsion_units_bounded,
    unit_order_coords,
)


def matrix_unit_order(ring: TwRing, xs, cap=None):
    """Oracle: the verdict and order from the whole regular representation."""
    mat = _rep_matrix(ring, xs)
    if det_solve(mat, [1] + [0] * (len(mat) - 1))[0] not in (1, -1):
        return False, None
    return True, matrix_order(mat, cap)


SIDE_RINGS = {
    **{f"anticommuting n={n}": (lambda n=n: anticommuting_ring(n)) for n in (0, 1, 2)},
    **{f"quaternion c={c}": (lambda c=c: quaternion_twist_ring(c)) for c in (2, 4, 8, 12, 24)},
    **{f"components: {name}": (lambda name=name: ring_named(name)) for name in RINGS},
}


@lru_cache(maxsize=None)
def side_ring(name: str) -> TwRing:
    return SIDE_RINGS[name]()


@st.composite
def small_elements(draw, ring: TwRing) -> list[tuple[int, int, int]]:
    """The coordinate list of an element with one to four coordinates in
    [-2, 2], or of the product of two such elements."""
    phi = ring.dim // ring.group.order

    def one():
        coords = draw(
            st.dictionaries(
                st.integers(0, ring.dim - 1), st.integers(-2, 2), min_size=1, max_size=4
            )
        )
        return [(k // phi, k % phi, a) for k, a in sorted(coords.items()) if a]

    xs = one()
    if draw(st.booleans()):
        xs = rings._coord_list(rings._tw_mul(ring, xs, one()), phi)
    return xs


def ring_and_coords():
    """A ring of SIDE_RINGS and the coordinate list of an element: one of
    small_elements, or a product of trivial, small and bicyclic factors
    (test_components.elements), which is more often a unit."""

    def draw_for(ring: TwRing):
        mixed = elements(ring).map(lambda x: x.coords())
        return st.tuples(st.just(ring), st.one_of(small_elements(ring), mixed))

    return st.sampled_from(sorted(SIDE_RINGS)).map(side_ring).flatmap(draw_for)


@given(ring_and_coords(), st.integers(1, 12))
@settings(max_examples=250, deadline=None)
def test_ring_side_verdict_and_order_match_the_matrix_route(case, cap):
    ring, xs = case
    assert unit_order_coords(ring, xs) == matrix_unit_order(ring, xs)
    assert unit_order_coords(ring, xs, cap) == matrix_unit_order(ring, xs, cap)


@given(ring_and_coords())
@settings(max_examples=100, deadline=None)
def test_newton_polynomial_is_the_berkowitz_polynomial_on_every_leaf(case):
    ring, xs = case
    for leaf, ys in _leaves(ring, xs):
        assert _charpoly(leaf, ys) == charpoly(_rep_matrix(leaf, ys))


@given(ring_and_coords(), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_square_and_multiply_is_repeated_multiplication(case, e):
    ring, xs = case
    phi = ring.dim // ring.group.order
    flat = [0] * ring.dim
    for g, j, a in xs:
        flat[g * phi + j] = a
    x = ring.from_coords(flat)
    product = ring.one()
    for _ in range(e):
        product = product * x
    assert x**e == product


# ---------------------------------------------------------------------------
# one fixed case per branch


def _check_fixed(ring: TwRing, vec, expected, cap=None):
    xs = ring.from_int_vector(vec).coords()
    assert unit_order_coords(ring, xs, cap) == expected
    assert matrix_unit_order(ring, xs, cap) == expected


def test_a_non_unit():
    # 2 has determinant 2^dim
    _check_fixed(anticommuting_ring(1), [2] + [0] * 7, (False, None))


def test_a_zero_divisor():
    # (1 + u_x1)(1 - u_x1) = 0 for the central involution x_1
    _check_fixed(anticommuting_ring(1), [1, 0, 0, 0, 1, 0, 0, 0], (False, None))


def test_a_unit_whose_polynomial_is_not_cyclotomic():
    ring = anticommuting_ring(2)
    vec = [3, 2, 2] + [0] * 13
    polys = [_charpoly(leaf, ys) for leaf, ys in _leaves(ring, ring.from_int_vector(vec).coords())]
    assert all(cyclotomic_factors(p) is None for p in polys)
    _check_fixed(ring, vec, (True, None))


def test_a_cyclotomic_polynomial_with_infinite_order():
    # v = 1 + u_h - u_gh in the model ring has polynomial (t - 1)^4, so the
    # lcm is 1, but v != 1
    ring = anticommuting_ring(0)
    vec = [1, 0, 1, -1]
    assert _charpoly(ring, ring.from_int_vector(vec).coords()) == [1, -4, 6, -4, 1]
    _check_fixed(ring, vec, (True, None))


def test_a_torsion_unit_above_the_cap():
    # u_g^2 = -1 in the quaternion ring, so u_g has order 4
    ring = quaternion_twist_ring(2)
    _check_fixed(ring, [0, 1, 0, 0], (True, None), cap=3)
    _check_fixed(ring, [0, 1, 0, 0], (True, 4), cap=4)
    _check_fixed(ring, [0, 1, 0, 0], (True, 4))


# ---------------------------------------------------------------------------
# the two facts the route rests on


def _trace_ring(conductor: int) -> TwRing:
    if conductor % 2:
        group = elementary_abelian_2(2)
        return TwRing(group, trivial_cocycle(group, 1), conductor)
    return quaternion_twist_ring(conductor)


def field_trace(a: CycInt) -> int:
    """Tr over Q as the sum of the Galois conjugates."""
    m = a.m
    total = CycInt.integer(0, m)
    for j in range(1, m + 1):
        if gcd(j, m) == 1:
            total = total + galois_apply(a, j)
    return total.as_int()


@pytest.mark.parametrize("conductor", SUPPORTED_CONDUCTORS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_the_trace_of_left_multiplication_reads_the_identity_coefficient(conductor, data):
    ring = _trace_ring(conductor)
    x = ring.from_coords(data.draw(st.lists(st.integers(-3, 3), min_size=ring.dim, max_size=ring.dim)))
    mat = regular_rep(x).matrix
    assert sum(mat[i][i] for i in range(ring.dim)) == ring.group.order * field_trace(x.coeff(0))


def _is_torsion_unit(ring: TwRing, support, coeffs) -> bool:
    unit, order = unit_order_coords(ring, [(g, 0, v) for g, v in zip(support, coeffs)])
    return unit and order is not None


def test_the_shared_tables_change_no_scan_result(monkeypatch):
    ring = anticommuting_ring(1)
    fresh = [
        ring.element(dict(zip(support, coeffs)))
        for support, coeffs in _small_supports(ring, (-1, 1), 4)
        if _is_torsion_unit(ring, support, coeffs)
    ]
    decided = []
    charpoly_in_ring = rings._charpoly

    def counted(*args):
        decided.append(args)
        return charpoly_in_ring(*args)

    monkeypatch.setattr(rings, "_charpoly", counted)
    assert torsion_units_bounded(ring, (-1, 0, 1), 4) == fresh
    # every candidate has two leaf images, and most repeat an earlier one
    candidates = sum(1 for _ in _small_supports(ring, (-1, 1), 4))
    assert len(decided) < candidates


@pytest.mark.parametrize("conductor", (4, 8))
def test_a_ring_without_components_stores_nothing(conductor):
    # the ring is its own only leaf, so every key would be a new candidate
    ring = quaternion_twist_ring(conductor)
    assert not ring.components
    polys: dict = {}
    orders: dict = {}
    fresh = []
    for support, coeffs in _small_supports(ring, (-1, 1), 2):
        xs = [(g, 0, v) for g, v in zip(support, coeffs)]
        verdict = rings._unit_order(ring, xs, None, polys, orders)
        assert verdict == unit_order_coords(ring, xs)
        if verdict[0] and verdict[1] is not None:
            fresh.append(ring.element(dict(zip(support, coeffs))))
    assert not polys and not orders
    assert torsion_units_bounded(ring, (-1, 0, 1), 2) == fresh


def test_no_order_is_computed_for_a_non_unit(monkeypatch):
    ring = anticommuting_ring(1)
    calls = []
    leaf_order = rings._leaf_order

    def counted(*args):
        calls.append(args)
        return leaf_order(*args)

    monkeypatch.setattr(rings, "_leaf_order", counted)
    first_leaf_a_unit = 0
    for support, coeffs in _small_supports(ring, (-1, 1), 4):
        xs = [(g, 0, v) for g, v in zip(support, coeffs)]
        calls.clear()
        if unit_order_coords(ring, xs)[0]:
            continue
        assert not calls
        leaf, ys = next(_leaves(ring, xs))
        first_leaf_a_unit += _charpoly(leaf, ys)[0] in (1, -1)
    # the first leaf alone would have let an order be computed
    assert first_leaf_a_unit


def test_each_stored_entry_is_that_of_its_own_leaf():
    # the d8 source at n = 1 has leaves of dims 1 and 4, so an image may
    # recur at another leaf position, in another ring
    ring = build_d8_psi(1).source
    leaves = [leaf for leaf, _ in _leaves(ring, ring.one().coords())]
    polys: dict = {}
    orders: dict = {}
    for support, coeffs in _small_supports(ring, (-1, 1), 2):
        rings._unit_order(ring, [(g, 0, v) for g, v in zip(support, coeffs)], None, polys, orders)
    assert len({leaf.dim for leaf in leaves}) > 1 and orders
    for (i, ys), poly in polys.items():
        assert poly == _charpoly(leaves[i], list(ys))
    for (i, ys), order in orders.items():
        assert polys[i, ys][0] in (1, -1)
        assert order == rings._leaf_order(leaves[i], list(ys), polys[i, ys], None)
