import random

import pytest

from oracles import enumerate_units_bounded, quaternion_twist_ring
from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.cyclotomic import CycInt
from twisted_rings.groups import cyclic, element_order, elementary_abelian_2
from twisted_rings.intmat import det_bareiss
from twisted_rings.rings import (
    TwElement,
    TwRing,
    anticommuting_ring,
    basis_power_exponent,
    berman_higman_violations,
    conj_character,
    cyclic_sum,
    element_from_json,
    is_unit,
    partition_by_self_twist,
    regular_rep,
    torsion_order,
)

# model ring ids: 0 = 1, 1 = g, 2 = h, 3 = gh


@pytest.fixture
def ring():
    return anticommuting_ring(0)


def test_basis_products_follow_the_table(ring):
    ug, uh, ugh = ring.basis(1), ring.basis(2), ring.basis(3)
    assert ug * uh == ugh
    assert uh * ug == -ugh
    assert ugh * ugh == -ring.one()


def test_identity_acts_trivially(ring):
    rng = random.Random(1)
    for _ in range(5):
        z = ring.from_int_vector([rng.randint(-4, 4) for _ in range(4)])
        assert ring.one() * z == z
        assert z * ring.one() == z


def test_multiplication_is_associative_on_random_triples():
    rng = random.Random(7)
    for r in (anticommuting_ring(1), quaternion_twist_ring()):
        n = r.group.order
        for _ in range(15):
            x, y, z = (
                r.from_int_vector([rng.randint(-3, 3) for _ in range(n)])
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)


def test_the_standard_free_generators_are_units(ring):
    v = ring.one() + ring.basis(2) - ring.basis(3)
    v_inv = is_unit(v)
    assert v_inv == ring.one() - ring.basis(2) + ring.basis(3)
    assert v * v_inv == ring.one() and v_inv * v == ring.one()
    w = ring.one() + ring.basis(2) + ring.basis(3)
    assert is_unit(w) is not None
    # the published display for w v^-1 misprints the identity sign; the
    # element it denotes is a unit either way
    assert w * v_inv == -ring.one() - 2 * ring.basis(1) + 2 * ring.basis(3)
    assert is_unit(ring.one() - 2 * ring.basis(1) - 2 * ring.basis(3)) is not None


def test_non_units_are_rejected(ring):
    assert is_unit(2 * ring.one()) is None
    assert is_unit(ring.zero()) is None
    assert is_unit(ring.one() + ring.basis(1)) is None  # zero divisor


def test_regular_representation(ring):
    rep = regular_rep(ring.one())
    assert rep.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(rep.dim)) for i in range(rep.dim)
    )
    rng = random.Random(3)
    for _ in range(5):
        x = ring.from_int_vector([rng.randint(-2, 2) for _ in range(4)])
        y = ring.from_int_vector([rng.randint(-2, 2) for _ in range(4)])
        mx = [list(r) for r in regular_rep(x).matrix]
        my = [list(r) for r in regular_rep(y).matrix]
        mxy = [list(r) for r in regular_rep(x * y).matrix]
        from twisted_rings.intmat import mat_mul

        assert mat_mul(mx, my) == mxy
    v = ring.one() + ring.basis(2) - ring.basis(3)
    assert det_bareiss([list(r) for r in regular_rep(v).matrix]) in (1, -1)


def test_torsion_orders(ring):
    assert torsion_order(-ring.one()) == 2
    assert torsion_order(ring.basis(1)) == 2
    assert torsion_order(ring.basis(3)) == 4  # u_gh squares to -1
    v = ring.one() + ring.basis(2) - ring.basis(3)
    assert torsion_order(v) is None
    with pytest.raises(ValueError):
        torsion_order(2 * ring.one())
    assert torsion_order(ring.basis(3), cap=2) is None


def test_self_twist_partition_matches_direct_powers():
    for ring in (anticommuting_ring(1), quaternion_twist_ring()):
        classes = partition_by_self_twist(ring)
        for exponent_value, members in classes.items():
            for g in members:
                o = element_order(ring.group, g)
                power = ring.basis(g) ** o
                expected = ring.basis(0, 1 if exponent_value == 0 else -1)
                assert power == expected


def test_odd_conductor_scalars():
    g = cyclic(3)
    ring = TwRing(g, trivial_cocycle(g, 1), 3)
    z3 = ring.basis(0, CycInt.zeta(3))
    assert torsion_order(z3) == 3
    assert torsion_order(-z3) == 6
    assert torsion_order(ring.basis(1)) == 3


def test_self_twist_partition():
    ring = anticommuting_ring(1)
    classes = partition_by_self_twist(ring)
    # u_s^2 = -1 exactly on the gh-coset of the x_i's
    assert sorted(classes[1]) == [3, 7]
    assert sorted(classes[0]) == [0, 1, 2, 4, 5, 6]
    q = quaternion_twist_ring()
    qc = partition_by_self_twist(q)
    assert qc[0] == [0] and sorted(qc[1]) == [1, 2, 3]
    g = elementary_abelian_2(2)
    t = TwRing(g, trivial_cocycle(g, 2), 2)
    assert partition_by_self_twist(t) == {0: [0, 1, 2, 3]}


def test_conjugation_character(ring):
    cc = conj_character(ring, 1)  # x = g
    assert cc.c_minus == (2, 3)
    assert cc.c_plus == (0, 1)
    assert not cc.is_regular
    assert cc.exponents[0] == 0 and cc.exponents[1] == 0
    # trivial twist: everything is regular
    g = elementary_abelian_2(2)
    t = TwRing(g, trivial_cocycle(g, 2), 2)
    assert all(conj_character(t, x).is_regular for x in g.elements())
    # x_1 translates stay anticommuting one level up
    r1 = anticommuting_ring(1)
    cc1 = conj_character(r1, 1)
    assert set(cc1.c_minus) == {2, 3, 6, 7}


def test_conjugation_character_is_multiplicative(ring):
    for x in ring.group.elements():
        cc = conj_character(ring, x)
        grp = cc.character.group
        m = cc.character.modulus
        for a in grp.elements():
            for b in grp.elements():
                lhs = cc.character.values[grp.mul[a][b]]
                rhs = cc.character.values[a] + cc.character.values[b]
                assert (lhs - rhs) % m == 0


def test_cyclic_sums(ring):
    s = cyclic_sum(ring, 1)
    assert s == ring.one() + ring.basis(1)
    assert s * s == 2 * s
    assert cyclic_sum(ring, 0) == ring.one()
    # the quaternion twist makes every generator sum telescope to zero
    q = quaternion_twist_ring()
    assert cyclic_sum(q, 1) == q.zero()
    assert cyclic_sum(q, 3).is_zero()


def test_telescoping_identity_for_all_admissible_pairs():
    # (o(g) - s_g) u_h s_g = o(g) u_h s_g whenever u_g^o(g) = 1, o(g) even,
    # and h anticommutes with g
    for ring in (anticommuting_ring(0), anticommuting_ring(1), anticommuting_ring(2)):
        checked = 0
        for g in ring.group.elements():
            if g == 0 or basis_power_exponent(ring, g) != 0:
                continue
            og = element_order(ring.group, g)
            if og % 2:
                continue
            cc = conj_character(ring, g)
            sg = cyclic_sum(ring, g)
            for h in cc.c_minus:
                uh = ring.basis(h)
                assert (og - sg) * uh * sg == og * (uh * sg)
                checked += 1
        assert checked > 0


def test_trace_zero_scan_small_rings():
    for ring in (anticommuting_ring(0), quaternion_twist_ring()):
        assert berman_higman_violations(ring) == []


def test_unit_enumeration_counts_quaternion_twist():
    q = quaternion_twist_ring()
    assert len(enumerate_units_bounded(q, 1)) == 8
    assert len(enumerate_units_bounded(q, 2)) == 8


def test_element_json_roundtrip(ring):
    x = ring.one() + 3 * ring.basis(2) - ring.basis(3)
    data = x.to_json()
    assert element_from_json(ring, data) == x


def test_divide_exact(ring):
    x = 2 * ring.one() + 4 * ring.basis(1)
    assert x.divide_exact(2) == ring.one() + 2 * ring.basis(1)
    with pytest.raises(ValueError):
        (ring.one() + 2 * ring.basis(1)).divide_exact(2)


def test_ring_mismatch_rejected(ring):
    other = quaternion_twist_ring()
    with pytest.raises(ValueError):
        ring.one() * other.one()


def test_inflated_involutions_are_central():
    # basis elements coming from the untwisted factors commute with all
    # of the twisted basis
    ring = anticommuting_ring(2)
    for x in (4, 8, 12):  # x_1, x_2, x_1 x_2
        ux = ring.basis(x)
        for g in ring.group.elements():
            ug = ring.basis(g)
            assert ux * ug == ug * ux


def test_conductor_constraint():
    g = elementary_abelian_2(2)
    c = trivial_cocycle(g, 2)
    with pytest.raises(ValueError):
        TwRing(g, c, 1)  # mu_2 does not embed in a conductor-1 ring


def test_cyclotomic_coefficients_work():
    g = cyclic(4)
    ring = TwRing(g, trivial_cocycle(g, 1), 4)
    i = CycInt.zeta(4)
    x = ring.basis(1, i)
    assert x * x == ring.basis(2, -1)
    assert torsion_order(x) == 4
    assert torsion_order(ring.basis(0, i)) == 4
    assert torsion_order(ring.basis(1, i) + 0 * ring.one()) == 4


def test_equal_elements_of_separately_built_rings_hash_alike():
    a = anticommuting_ring(0).one()
    b = anticommuting_ring(0).one()
    assert a == b
    assert len({a, b}) == 1


@pytest.mark.parametrize("conductor", [1, 4, 8])
def test_zero_coefficient_is_shared_per_conductor(conductor):
    ring = TwRing(cyclic(2), trivial_cocycle(cyclic(2), 1), conductor)
    z = ring.zero_coeff()
    assert z.m == conductor and z.is_zero()
    assert z is ring.zero_coeff()
    # elements built on the shared zero compare and hash as elements built
    # from freshly made coefficients
    fresh = TwRing(cyclic(2), trivial_cocycle(cyclic(2), 1), conductor)
    for x, coeffs in (
        (ring.zero(), (0, 0)),
        (ring.one(), (1, 0)),
        (ring.basis(1, -1), (0, -1)),
        (ring.element({1: 3}), (0, 3)),
        (ring.one() - ring.one(), (0, 0)),
    ):
        y = TwElement(fresh, tuple(CycInt.integer(c, conductor) for c in coeffs))
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
