import pytest

from oracles import enumerate_units_bounded, quaternion_twist_ring
from twisted_rings.cocycles import Cocycle, trivial_cocycle
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.groups import cyclic, elementary_abelian_2, quaternion8
from twisted_rings.rings import (
    TwRing,
    anticommuting_ring,
    is_unit,
    torsion_order,
)
from twisted_rings.units import (
    BicyclicSpec,
    RationalIdempotent,
    decide_finiteness,
    find_infinite_order_unit,
    galois_twist_iso,
    generalized_bicyclic,
    idempotent_from_cyclic_sum,
    minimal_twisted_bicyclic,
    parity_obstruction,
    twisted_bicyclic,
)


def test_quaternion_twist_is_finite_hamiltonian():
    verdict = decide_finiteness(quaternion_twist_ring())
    assert verdict.finite
    assert verdict.case == "hamiltonian-2group"
    assert verdict.witness["galpha_order_histogram"] == {1: 1, 2: 1, 4: 6}


def test_quaternion_twist_units_enumerate_to_the_trivial_eight():
    q = quaternion_twist_ring()
    units = enumerate_units_bounded(q, 2)
    assert len(units) == 8
    assert all(len(u.support()) == 1 for u in units)


def test_anticommuting_twist_is_infinite_with_witness():
    verdict = decide_finiteness(anticommuting_ring(0))
    assert not verdict.finite
    assert verdict.case == "infinite"
    assert "witness_element" in verdict.witness


def test_infinite_order_witness_is_checked():
    w = find_infinite_order_unit(anticommuting_ring(0))
    assert w is not None
    assert torsion_order(w) is None


def test_trivial_twist_routes_through_the_classical_criterion():
    c2 = cyclic(2)
    assert decide_finiteness(TwRing(c2, trivial_cocycle(c2, 1), 1)).case == (
        "trivial-cocycle-higman"
    )
    q8 = quaternion8()
    assert decide_finiteness(TwRing(q8, trivial_cocycle(q8, 1), 1)).finite
    d8 = __import__("twisted_rings.groups", fromlist=["dihedral8"]).dihedral8()
    assert not decide_finiteness(TwRing(d8, trivial_cocycle(d8, 1), 1)).finite


def test_coboundary_of_trivial_class_stays_finite():
    # twisting the trivial table by f(g) = -1 gives a nonzero table whose
    # basis group is abelian of exponent 2; the class is trivial and the
    # unit group finite
    from twisted_rings.cocycles import coboundary_twist, trivial_cocycle

    g = elementary_abelian_2(2)
    table = coboundary_twist(trivial_cocycle(g, 2), (0, 1, 0, 0))
    assert not table.is_trivial_table()
    verdict = decide_finiteness(TwRing(g, table, 2))
    assert verdict.finite
    assert verdict.case == "trivial-cocycle-higman"
    assert len(enumerate_units_bounded(TwRing(g, table, 2), 1)) == 8


def test_abelian_exponent_four_case():
    # u_x^2 = -1 on C2 gives a basis group C4: finite over Z
    c2 = cyclic(2)
    c = Cocycle(c2, 2, ((0, 0), (0, 1)))
    verdict = decide_finiteness(TwRing(c2, c, 2))
    assert verdict.finite and verdict.case == "abelian-exp4"
    units = enumerate_units_bounded(TwRing(c2, c, 2), 2)
    assert len(units) == 4  # +-1, +-u_x


def test_large_conductor_is_immediately_infinite():
    g = cyclic(2)
    ring = TwRing(g, trivial_cocycle(g, 1), 8)
    verdict = decide_finiteness(ring)
    assert not verdict.finite


def test_inflated_quaternion_twist_stays_finite():
    # pulling the quaternion class back along C2^3 -> C2^2 gives a rank-16
    # Hamiltonian basis group Q8 x C2; the anticommuting class stays infinite
    from twisted_rings.cocycles import (
        c2c2_quaternion_cocycle,
        anticommuting_pair_cocycle,
        inflate,
    )
    from twisted_rings.groups import GroupHom

    big = elementary_abelian_2(3)
    proj = GroupHom(
        source=big,
        target=elementary_abelian_2(2),
        map=tuple(x & 3 for x in big.elements()),
    )
    quat = inflate(c2c2_quaternion_cocycle(), proj)
    verdict = decide_finiteness(TwRing(big, quat, 2))
    assert verdict.finite and verdict.case == "hamiltonian-2group"
    assert verdict.witness["galpha_order_histogram"][4] == 12
    anti = anticommuting_pair_cocycle(1)
    assert not decide_finiteness(TwRing(anti.group, anti, 2)).finite


def test_finite_cases_have_stable_bounded_counts():
    q = quaternion_twist_ring()
    assert len(enumerate_units_bounded(q, 1)) == len(enumerate_units_bounded(q, 3))


def test_minimal_twisted_bicyclic_matches_the_free_generator():
    ring = anticommuting_ring(0)
    v = minimal_twisted_bicyclic(ring, 1, 2)
    assert v == ring.one() + ring.basis(2) - ring.basis(3)
    inc = v - ring.one()
    assert inc * inc == ring.zero()
    assert is_unit(v) == 2 * ring.one() - v


def test_twisted_bicyclic_with_central_multiplier():
    ring = anticommuting_ring(1)
    z = ring.one() - ring.basis(4)  # 1 - u_x1
    u = minimal_twisted_bicyclic(ring, 1, 2, z=z)
    inc = u - ring.one()
    assert inc * inc == ring.zero()
    assert is_unit(u) is not None


def test_twisted_bicyclic_a_part_matches_classical_shape():
    # with a trivial twist the construction degenerates to the classical
    # bicyclic unit 1 + (o(g) - s_g) a s_g
    g = elementary_abelian_2(2)
    ring = TwRing(g, trivial_cocycle(g, 2), 2)
    u = twisted_bicyclic(BicyclicSpec(ring=ring, g=1, a=ring.basis(2)))
    sg = ring.one() + ring.basis(1)
    expected = ring.one() + (2 * ring.one() - sg) * ring.basis(2) * sg
    assert u == expected
    assert u == ring.one()  # abelian: classical bicyclics collapse


def test_twisted_bicyclic_rejects_bad_support():
    ring = anticommuting_ring(0)
    with pytest.raises(ValueError):
        twisted_bicyclic(BicyclicSpec(ring=ring, g=1, b=ring.basis(1)))
    q = quaternion_twist_ring()
    with pytest.raises(ValueError):
        # u_x^2 = -1 there, so the cyclic sum vanishes
        twisted_bicyclic(BicyclicSpec(ring=q, g=1, h=2))


def test_generalized_bicyclic_units():
    ring = anticommuting_ring(0)
    f = idempotent_from_cyclic_sum(ring, 1)
    assert f.n_f == 2
    b1, b2 = generalized_bicyclic(f, ring.basis(2))
    # 1 + 4 (1 - f) u_h f with denominators cleared
    num, den = f.numerator, f.denominator
    assert b1 == ring.one() + (den * ring.one() - num) * ring.basis(2) * num
    assert is_unit(b1) is not None and is_unit(b2) is not None
    zero = RationalIdempotent(ring.zero(), 1)
    one = RationalIdempotent(ring.one(), 1)
    for f_edge in (zero, one):
        u1, u2 = generalized_bicyclic(f_edge, ring.basis(2))
        assert u1 == ring.one() and u2 == ring.one()


def test_rational_idempotent_validation():
    ring = anticommuting_ring(0)
    with pytest.raises(ValueError):
        RationalIdempotent(ring.one() + ring.basis(1), 3)  # not reduced/idempotent
    with pytest.raises(ValueError):
        RationalIdempotent(ring.basis(2), 1)  # not idempotent


def test_galois_twist_checks_and_action():
    ring = anticommuting_ring(0)
    tw = galois_twist_iso(ring, 3)
    assert tw.target.cocycle.table == ring.cocycle.table
    with pytest.raises(ValueError):
        galois_twist_iso(ring, 2)
    tw1 = galois_twist_iso(ring, 1)
    x = ring.one() + ring.basis(2) - ring.basis(3)
    assert tw1.apply(x) == x


def test_galois_twist_is_multiplicative_and_preserves_units():
    g = cyclic(4)
    ring = TwRing(g, trivial_cocycle(g, 1), 4)
    tw = galois_twist_iso(ring, 3)
    from twisted_rings.cyclotomic import CycInt

    x = ring.basis(1, CycInt.zeta(4))
    y = ring.basis(2, 1) + ring.one()
    assert tw.apply(x * y) == tw.apply(x) * tw.apply(y)
    assert (is_unit(x) is not None) == (is_unit(tw.apply(x)) is not None)
    assert (is_unit(y) is not None) == (is_unit(tw.apply(y)) is not None)


def test_galois_twist_round_trip():
    g = cyclic(2)
    ring = TwRing(g, trivial_cocycle(g, 1), 12)
    tw = galois_twist_iso(ring, 5)
    back = galois_twist_iso(tw.target, 5)  # 5 * 5 = 25 = 1 mod 12
    from twisted_rings.cyclotomic import CycInt

    x = ring.basis(1, CycInt.zeta(12)) + ring.basis(0, CycInt.zeta(12, 7))
    assert back.apply(tw.apply(x)) == x


def test_parity_obstruction_certifies_the_free_generator():
    psi = build_d8_psi(0)
    tgt = psi.target
    v = tgt.one() + tgt.basis(2) - tgt.basis(3)
    cert = parity_obstruction(psi, v)
    assert cert.certified
    assert cert.checks["identity_coefficient_even"]
    assert cert.checks["not_trivial_mod2"]


def test_parity_obstruction_is_one_sided():
    psi = build_d8_psi(0)
    tgt = psi.target
    assert not parity_obstruction(psi, tgt.one()).certified
    # v^2 is in the image, and indeed fails the mod-2 support condition
    v = tgt.one() + tgt.basis(2) - tgt.basis(3)
    cert = parity_obstruction(psi, v * v)
    assert not cert.certified


def test_parity_obstruction_level_one_candidate():
    psi = build_d8_psi(1)
    tgt = psi.target
    # 1 + (1 - u_x1) u_h (1 + u_g) after clearing the half
    z = tgt.one() - tgt.basis(4)
    candidate = tgt.one() + z * tgt.basis(2) * (tgt.one() + tgt.basis(1))
    half_form = tgt.one() + (
        (tgt.one() - tgt.basis(1)) * (tgt.one() - tgt.basis(4)) * tgt.basis(2) * (tgt.one() + tgt.basis(1))
    ).divide_exact(2)
    assert candidate == half_form
    assert parity_obstruction(psi, candidate).certified
