"""Units and orders through the components, checked against the full matrix.

A ring whose twist is inflated along a subgroup N of central involutions
splits over Q into one component per character of N, and ``is_unit``,
``is_unit_coords``, ``unit_order`` and ``torsion_order`` decide there.  The
routes they replaced work on the whole regular representation; they are
kept here unchanged as the oracle at dims <= 32.  The split is certified
once per ring, and corrupted components must fail that certificate.
"""

from dataclasses import replace
from functools import lru_cache
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.cyclotomic import PHI_DEGREE
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.groups import (
    all_subgroups,
    cyclic,
    direct_product,
    elementary_abelian_2,
    quaternion8,
)
from oracles import det_solve, matrix_order
from twisted_rings import extensions, rings
from twisted_rings.rings import (
    TwElement,
    TwRing,
    _certify_components,
    anticommuting_ring,
    is_unit,
    is_unit_coords,
    quaternion_twist_ring,
    regular_rep,
    unit_order,
)
from twisted_rings.tower import build_tower


def full_is_unit(x: TwElement) -> Optional[TwElement]:
    """Oracle: the inverse from one elimination of the whole regular representation."""
    mat = regular_rep(x).matrix
    d, col = det_solve(mat, [1] + [0] * (len(mat) - 1))
    if d not in (1, -1):
        return None
    return x.ring.from_coords([d * v for v in col])


def full_unit_order(x: TwElement, cap: Optional[int] = None) -> tuple[bool, Optional[int]]:
    """Oracle: the unit verdict and order from the whole regular representation."""
    mat = regular_rep(x).matrix
    if det_solve(mat, [1] + [0] * (len(mat) - 1))[0] not in (1, -1):
        return False, None
    return True, matrix_order(mat, cap)


def _group_ring(group, conductor: int) -> TwRing:
    return TwRing(group, trivial_cocycle(group, 1), conductor)


C2 = elementary_abelian_2(1)
C2C2 = elementary_abelian_2(2)
C3 = cyclic(3)
C4 = cyclic(4)
C2C4 = direct_product(cyclic(2), cyclic(4))

# name -> (ring factory, order of N)
RINGS = {
    **{f"anticommuting n={n}": (lambda n=n: anticommuting_ring(n), 1 << n) for n in range(4)},
    **{
        f"tower level {k}": (lambda k=k: build_tower(anticommuting_ring(0), 2).ring(k), 1 << k)
        for k in (1, 2)
    },
    # the source is Z[D8 x C2^n], N = Z(D8) x C2^n; the target is the model ring
    **{f"d8 source n={n}": (lambda n=n: build_d8_psi(n).source, 2 << n) for n in (0, 1, 2)},
    **{f"d8 target n={n}": (lambda n=n: build_d8_psi(n).target, 1 << n) for n in (0, 1, 2)},
    # N is not a direct factor: the components carry nontrivial transgressed twists
    "Z[C4]": (lambda: _group_ring(C4, 1), 2),
    "Z[C2 x C4]": (lambda: _group_ring(C2C4, 2), 4),
    "Z[Q8]": (lambda: _group_ring(quaternion8(), 2), 2),
    # coefficient rings Z[zeta_c] for c = 1, 2, 3, 4, 8; at c = 3 the components
    # have conductor 6, a different power basis of the same ring
    "Z[C2 x C2] c=1": (lambda: _group_ring(C2C2, 1), 4),
    "Z[zeta_3][C2]": (lambda: _group_ring(C2, 3), 2),
    "Z[zeta_4][C4]": (lambda: _group_ring(C4, 4), 2),
    "Z[zeta_8][C2 x C2]": (lambda: _group_ring(C2C2, 8), 4),
    "anticommuting n=1 c=4": (lambda: anticommuting_ring(1, conductor=4), 2),
    "anticommuting n=1 c=8": (lambda: anticommuting_ring(1, conductor=8), 2),
    # no central involution along which the twist is inflated: the base case
    "quaternion": (lambda: quaternion_twist_ring(2), 1),
    "quaternion c=4": (lambda: quaternion_twist_ring(4), 1),
    # leaves of dim 16 at conductors 8 and 12, and an odd order with no
    # central involution at all
    "quaternion c=8": (lambda: quaternion_twist_ring(8), 1),
    "quaternion c=12": (lambda: quaternion_twist_ring(12), 1),
    "Z[C3]": (lambda: _group_ring(C3, 1), 1),
}


@lru_cache(maxsize=None)
def ring_named(name: str) -> TwRing:
    return RINGS[name][0]()


def brute_force_kernel(ring: TwRing) -> frozenset[int]:
    """The largest subgroup of central involutions along which the twist is inflated."""
    g, t = ring.group, ring.cocycle.table
    els = list(g.elements())

    def fits(h) -> bool:
        return all(
            g.mul[z][z] == 0
            and all(g.mul[z][a] == g.mul[a][z] for a in els)
            and all(t[g.mul[a][z]][b] == t[a][b] == t[a][g.mul[b][z]] for a in els for b in els)
            for z in h
        )

    fitting = [h for h in all_subgroups(g) if fits(h)]
    largest = max(fitting, key=len)
    assert all(h <= largest for h in fitting)
    return largest


@pytest.mark.parametrize("name", sorted(RINGS))
def test_components_split_the_ring_over_the_largest_kernel(name):
    ring = ring_named(name)
    comps = ring.components
    kernel = brute_force_kernel(ring)
    assert len(kernel) == RINGS[name][1]
    if len(kernel) == 1:
        assert comps == ()
        return
    assert len(comps) == len(kernel)
    assert all(psi.ext.sub_ids == kernel and psi.source == ring for psi in comps)
    assert sum(psi.target.dim for psi in comps) == ring.dim


def test_the_d8_source_splits_to_rank_one_and_quaternion_components():
    # Z[D8 x C2^n] over Z(D8) x C2^n: the characters trivial on a^2 give
    # Z[C2 x C2], which splits again into four copies of Z
    ring = build_d8_psi(1).source
    dims = sorted(
        (psi.target.dim, len(psi.target.components)) for psi in ring.components
    )
    assert dims == [(4, 0)] * 2 + [(4, 4)] * 2


@st.composite
def elements(draw, ring: TwRing) -> TwElement:
    """A product of one to three factors: a zeta^j u_g, an element of small
    support and coefficients, or a bicyclic unit 1 + (1 - u_g) u_h (1 + u_g)
    with u_g^2 = 1.  This gives units of finite and infinite order, and
    non-units."""
    n, phi = ring.group.order, PHI_DEGREE[ring.conductor]
    gids = st.integers(0, n - 1)
    one = ring.one()
    square_one = [g for g in ring.group.elements() if g and ring.basis(g) * ring.basis(g) == one]
    x = one
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("trivial", "small", "bicyclic")))
        vec = [0] * ring.dim
        if kind == "bicyclic" and square_one:
            u_g, u_h = ring.basis(draw(st.sampled_from(square_one))), ring.basis(draw(gids))
            x = x * (one + (one - u_g) * u_h * (one + u_g))
            continue
        if kind == "small":
            for g in draw(st.lists(gids, min_size=1, max_size=3, unique=True)):
                vec[g * phi + draw(st.integers(0, phi - 1))] = draw(st.integers(-2, 2))
        else:
            vec[draw(gids) * phi + draw(st.integers(0, phi - 1))] = draw(st.sampled_from((1, -1)))
        x = x * ring.from_coords(vec)
    return x


def ring_and_element(max_dim: int):
    names = sorted(n for n in RINGS if ring_named(n).dim <= max_dim)
    return st.sampled_from(names).map(ring_named).flatmap(
        lambda r: st.tuples(st.just(r), elements(r))
    )


@given(ring_and_element(32), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_component_route_matches_the_full_matrix(case, cap):
    # the verdict, the order, the order capped at cap (None above it) and
    # the inverse
    _, x = case
    assert unit_order(x) == full_unit_order(x)
    assert unit_order(x, cap) == full_unit_order(x, cap)
    assert is_unit(x) == full_is_unit(x)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_every_trivial_unit_agrees_with_the_full_matrix(name):
    # zeta^j u_g for every g and j: at conductor 3 the component inverses
    # carry powers of zeta_6, which lift back through Z[zeta_3]
    ring = ring_named(name)
    for k in range(0, ring.dim, max(1, ring.dim // 16)):
        vec = [0] * ring.dim
        vec[k] = -1
        x = ring.from_coords(vec)
        inv = is_unit(x)
        assert inv is not None and inv == full_is_unit(x)
        assert unit_order(x) == full_unit_order(x)


@given(ring_and_element(32))
@settings(max_examples=300, deadline=None)
def test_leaf_determinants_decide_units_as_the_verified_inverse_does(case):
    ring, x = case
    assert is_unit_coords(ring, x.coords()) == (is_unit(x) is not None)


# rings with components: rational, cyclotomic (conductors 6 and 8 in the
# targets), nontrivial transgressed twists, and the d8 case-study source
MUTANT_RINGS = ["d8 source n=1", "Z[zeta_3][C2]", "Z[zeta_8][C2 x C2]", "Z[C2 x C4]", "Z[Q8]"]


def _with_component(ring: TwRing, i: int, psi) -> list:
    psis = list(ring.components)
    psis[i] = psi
    return psis


def _flip_exponent(psi, gamma: int):
    images = list(psi.gamma_images)
    g, e = images[gamma]
    images[gamma] = (g, (e + 1) % psi.target.cocycle.modulus)
    return replace(psi, gamma_images=tuple(images))


@pytest.mark.parametrize("name", MUTANT_RINGS)
def test_the_components_as_built_pass_the_certificate(name):
    ring = ring_named(name)
    _certify_components(ring, ring.components)


@pytest.mark.parametrize("name", MUTANT_RINGS)
def test_a_corrupted_image_fails_the_certificate(name):
    ring = ring_named(name)
    last = len(ring.components) - 1
    bad = _with_component(ring, last, _flip_exponent(ring.components[last], 1))
    # where N is the whole group the flip gives another character's map,
    # which is multiplicative; then two components agree, and the lift fails
    with pytest.raises(ArithmeticError, match="is not multiplicative|do not lift back"):
        _certify_components(ring, bad)


@pytest.mark.parametrize("name", ["d8 source n=1", "Z[C2 x C4]", "Z[Q8]"])
def test_a_moved_quotient_element_fails_the_certificate(name):
    # the quotient map of the last component differs from the first's
    ring = ring_named(name)
    last = len(ring.components) - 1
    psi = ring.components[last]
    images = list(psi.gamma_images)
    images[1] = ((images[1][0] + 1) % psi.target.group.order, images[1][1])
    bad = _with_component(ring, last, replace(psi, gamma_images=tuple(images)))
    with pytest.raises(ArithmeticError, match="quotient map"):
        _certify_components(ring, bad)


@pytest.mark.parametrize("name", MUTANT_RINGS)
def test_a_component_that_misses_the_identity_fails_the_certificate(name):
    ring = ring_named(name)
    bad = _with_component(ring, 0, _flip_exponent(ring.components[0], 0))
    with pytest.raises(ArithmeticError, match="does not send 1 to 1"):
        _certify_components(ring, bad)


@pytest.mark.parametrize("name", MUTANT_RINGS)
def test_a_corrupted_lift_fails_the_certificate(name):
    # the kernel N as the lift reads it, with its last element replaced by
    # the identity: psi itself is unchanged, only its lift is wrong
    ring = ring_named(name)
    psi = ring.components[0]
    embed = psi.ext.sub_embed[:-1] + (0,)
    bad = _with_component(ring, 0, replace(psi, ext=replace(psi.ext, sub_embed=embed)))
    with pytest.raises(ArithmeticError, match="do not lift back"):
        _certify_components(ring, bad)


def test_a_ring_with_a_corrupted_component_refuses_to_decompose(monkeypatch):
    build_psi = extensions.build_psi

    def corrupted(ext, chi, *args, **kwargs):
        psi = build_psi(ext, chi, *args, **kwargs)
        return _flip_exponent(psi, 1) if any(chi.values) else psi

    monkeypatch.setattr(extensions, "build_psi", corrupted)
    ring = RINGS["d8 source n=1"][0]()
    with pytest.raises(ArithmeticError, match="is not multiplicative"):
        ring.components


def test_is_unit_still_verifies_the_inverse_it_returns(monkeypatch):
    ring = ring_named("d8 source n=1")
    is_unit(ring.basis(3))  # certifies the whole tree before the lift is corrupted
    lift_sum = rings._lift_sum

    def corrupted(psis, parts):
        out = lift_sum(psis, parts)
        out[1] += len(psis)
        return out

    monkeypatch.setattr(rings, "_lift_sum", corrupted)
    with pytest.raises(ArithmeticError, match="inverse verification failed"):
        is_unit(ring.basis(3))
    assert is_unit_coords(ring, ring.basis(3).coords())


def test_is_unit_verifies_the_leaf_inverse_it_reads_off_the_polynomial(monkeypatch):
    # a wrong coefficient with the constant term kept at +-1: the unit verdict
    # stands, and the Cayley-Hamilton inverse must fail its check
    ring = ring_named("quaternion c=8")
    assert ring.components == ()
    charpoly = rings._charpoly

    def corrupted(leaf, xs):
        f = charpoly(leaf, xs)
        f[1] += 1
        return f

    monkeypatch.setattr(rings, "_charpoly", corrupted)
    with pytest.raises(ArithmeticError, match="inverse verification failed"):
        is_unit(ring.basis(1))
