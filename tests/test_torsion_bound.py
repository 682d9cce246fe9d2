"""The torsion-unit test of the scans, checked against ``unit_order_coords``.

``is_torsion_unit_coords`` refutes a leaf image at the first power sum
p_k = tr L_x^k with |p_k| > n, the leaf's dimension: the n eigenvalues of a
unit of finite order are roots of unity, so every |p_k| <= n.  An image
within the bound for k = 1..n goes on to the constant term, Kronecker's
factorization and x^L = 1, as in ``unit_order_coords``.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quaternion_twist_ring
from twisted_rings import rings
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.rings import (
    TwRing,
    _charpoly_with_powers,
    _leaves,
    _rep_matrix,
    _small_supports,
    anticommuting_ring,
    is_torsion_unit_coords,
    torsion_units_bounded,
    unit_order_coords,
)

BOUND_RINGS = {
    **{f"anticommuting n={n}": (lambda n=n: anticommuting_ring(n)) for n in (0, 1)},
    **{f"quaternion c={c}": (lambda c=c: quaternion_twist_ring(c)) for c in (4, 8, 12)},
    # leaves of dims 1 and 4, so an image may recur at another leaf position
    "d8 source n=1": lambda: build_d8_psi(1).source,
}


@lru_cache(maxsize=None)
def bound_ring(name: str) -> TwRing:
    return BOUND_RINGS[name]()


@lru_cache(maxsize=None)
def shared_verdicts(name: str) -> dict:
    """One verdict table per ring for every example, as a scan shares one."""
    return {}


def power_sums(ring: TwRing, ys) -> list[int]:
    """Oracle: tr L^k for k = 1..n from the matrix L of left multiplication."""
    mat = _rep_matrix(ring, ys)
    n = len(mat)
    sums, power = [], mat
    for _ in range(n):
        sums.append(sum(power[i][i] for i in range(n)))
        power = [[sum(power[i][t] * mat[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return sums


@given(
    st.sampled_from(sorted(BOUND_RINGS)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_the_bounded_test_agrees_with_unit_order_coords(name, data):
    ring = bound_ring(name)
    support = data.draw(
        st.lists(st.sampled_from(ring.group.elements()), min_size=1, max_size=3, unique=True)
    )
    coeffs = data.draw(
        st.lists(st.integers(-2, 2), min_size=len(support), max_size=len(support))
    )
    xs = [(g, 0, v) for g, v in sorted(zip(support, coeffs)) if v]
    unit, order = unit_order_coords(ring, xs)
    expected = unit and order is not None
    assert is_torsion_unit_coords(ring, xs, {}) == expected
    assert is_torsion_unit_coords(ring, xs, shared_verdicts(name)) == expected


def _with_products(monkeypatch, fn, *args):
    """fn(*args), and the number of ring products (_tw_mul calls) it made."""
    calls = []
    tw_mul = rings._tw_mul

    def counted(*a):
        calls.append(a)
        return tw_mul(*a)

    with monkeypatch.context() as patch:
        patch.setattr(rings, "_tw_mul", counted)
        result = fn(*args)
    return result, len(calls)


def _refuted_at(leaf: TwRing, ys, monkeypatch) -> int:
    """The number of products the bounded Newton loop made before it
    returned None."""
    found, products = _with_products(monkeypatch, _charpoly_with_powers, leaf, ys, leaf.dim)
    assert found is None
    return products


@pytest.mark.parametrize("conductor", (2, 8))
def test_a_non_unit_is_refuted_at_the_first_power_sum_past_the_dimension(conductor, monkeypatch):
    # 1 + u_h - u_gh is no unit in the quaternion ring: det L_x = 9 at c = 2
    ring = quaternion_twist_ring(conductor)
    xs = ring.element({0: 1, 2: 1, 3: -1}).coords()
    assert unit_order_coords(ring, xs) == (False, None)
    sums = power_sums(ring, xs)
    first = next(k for k, p in enumerate(sums, 1) if abs(p) > ring.dim)
    assert first < ring.dim
    assert _refuted_at(ring, xs, monkeypatch) == first
    assert not is_torsion_unit_coords(ring, xs, {})


def test_a_unit_of_infinite_order_is_refuted_at_the_first_power_sum(monkeypatch):
    # the hyperbolic unit 3 + 2u_g + 2u_h: p_1 = 12 on each leaf of dim 4
    ring = anticommuting_ring(1)
    xs = ring.element({0: 3, 1: 2, 2: 2}).coords()
    assert unit_order_coords(ring, xs) == (True, None)
    for leaf, ys in _leaves(ring, xs):
        assert power_sums(leaf, ys)[0] == 12 > leaf.dim
        assert _refuted_at(leaf, ys, monkeypatch) == 1
    assert not is_torsion_unit_coords(ring, xs, {})


def test_the_bicyclic_unit_passes_every_power_sum_and_fails_its_power():
    # 1 + u_h - u_gh is 1 plus a nilpotent, so every eigenvalue is 1 and
    # p_k = n for every k: the bound cannot refute it, and x^L = 1 for the
    # lcm L = 1 of its cyclotomic factors does
    ring = anticommuting_ring(1)
    xs = ring.element({0: 1, 2: 1, 3: -1}).coords()
    assert unit_order_coords(ring, xs) == (True, None)
    for leaf, ys in _leaves(ring, xs):
        assert power_sums(leaf, ys) == [leaf.dim] * leaf.dim
        assert _charpoly_with_powers(leaf, ys, leaf.dim) is not None
    assert not is_torsion_unit_coords(ring, xs, {})


@pytest.mark.parametrize("name", sorted(BOUND_RINGS))
def test_trivial_units_pass_every_power_sum_and_are_kept(name):
    ring = bound_ring(name)
    trivial = [ring.basis(0, -1)]
    trivial += [ring.basis(g, s) for g in ring.group.elements()[1:] for s in (1, -1)]
    for x in trivial:
        xs = x.coords()
        for leaf, ys in _leaves(ring, xs):
            assert _charpoly_with_powers(leaf, ys, leaf.dim) is not None
        assert is_torsion_unit_coords(ring, xs, {})
    kept = torsion_units_bounded(ring, (-1, 0, 1), 1)
    assert all(x in kept for x in trivial)


def test_the_scan_refutes_most_candidates_early(monkeypatch):
    ring = quaternion_twist_ring(8)
    assert not ring.components
    fresh = []
    candidates = 0
    for support, coeffs in _small_supports(ring, (-1, 1), ring.group.order):
        candidates += 1
        unit, order = unit_order_coords(ring, [(g, 0, v) for g, v in zip(support, coeffs)])
        if unit and order is not None:
            fresh.append(ring.element(dict(zip(support, coeffs))))
    kept, products = _with_products(monkeypatch, torsion_units_bounded, ring, (-1, 0, 1))
    assert kept == fresh
    # the full Newton loop alone would make dim products per candidate
    assert products < candidates * ring.dim


def test_a_ring_with_components_stores_one_verdict_per_leaf_image():
    ring = anticommuting_ring(1)
    verdicts: dict = {}
    for support, coeffs in _small_supports(ring, (-1, 1), 2):
        is_torsion_unit_coords(ring, [(g, 0, v) for g, v in zip(support, coeffs)], verdicts)
    leaves = [leaf for leaf, _ in _leaves(ring, ring.one().coords())]
    assert verdicts
    for (i, ys), verdict in verdicts.items():
        unit, order = unit_order_coords(leaves[i], list(ys))
        assert verdict == (unit and order is not None)


@pytest.mark.parametrize("conductor", (4, 8))
def test_a_ring_without_components_stores_no_verdict(conductor):
    ring = quaternion_twist_ring(conductor)
    verdicts: dict = {}
    for support, coeffs in _small_supports(ring, (-1, 1), 2):
        is_torsion_unit_coords(ring, [(g, 0, v) for g, v in zip(support, coeffs)], verdicts)
    assert not verdicts
