import pytest

from twisted_rings.cocycles import (
    Cocycle,
    LinearCharacter,
    anticommuting_pair_cocycle,
    are_cohomologous,
    build_G_alpha,
    c2c2_matrix_cocycle,
    c2c2_quaternion_cocycle,
    coboundary_twist,
    cocycle_from_signs,
    cocycle_order,
    cocycle_power,
    inflate,
    restrict,
    transgress,
    trivial_cocycle,
    validate_cocycle,
)
from twisted_rings.errors import CapExceededError
from twisted_rings.extensions import build_extension
from twisted_rings.groups import (
    GroupHom,
    cyclic,
    elementary_abelian_2,
    order_histogram,
    quaternion8,
    subgroup_closure,
)

# ids on C2 x C2: 0 = 1, 1 = g, 2 = h, 3 = gh


def test_both_standard_tables_validate():
    assert validate_cocycle(c2c2_matrix_cocycle()).ok
    assert validate_cocycle(c2c2_quaternion_cocycle()).ok


@pytest.mark.parametrize(
    "order, modulus, table, message",
    [
        # the coboundary of the constant map 1: a cocycle, not normalized
        (2, 2, ((1, 1), (1, 1)), "cocycle identity holds but table is not normalized"),
        (3, 3, ((0, 0, 0), (0, 1, 0), (0, 0, 0)), "cocycle identity fails on triple (1,1,2)"),
    ],
)
def test_checked_refuses_what_the_cli_refuses(order, modulus, table, message):
    with pytest.raises(ValueError) as info:
        Cocycle.checked(cyclic(order), modulus, table)
    assert str(info.value) == message


def test_checked_returns_the_cocycle_of_a_normalized_table():
    c = c2c2_quaternion_cocycle()
    assert Cocycle.checked(c.group, c.modulus, c.table) == c


def test_transposed_corner_variant_fails():
    # swapping the two mixed entries in the bottom row breaks the identity;
    # the validator pins a witnessing triple
    g = elementary_abelian_2(2)
    signs = {}
    for a in range(4):
        for b in range(4):
            signs[(a, b)] = -1 if (a in (2, 3) and b in (1, 3)) else 1
    signs[(3, 1)], signs[(3, 2)] = 1, -1
    report = validate_cocycle(cocycle_from_signs(g, signs))
    assert not report.is_cocycle
    assert report.violation is not None


def test_single_flipped_entry_fails_with_witness():
    c = c2c2_matrix_cocycle()
    table = [list(r) for r in c.table]
    table[1][2] ^= 1  # flip the (g, h) entry to -1
    bad = Cocycle(c.group, 2, tuple(tuple(r) for r in table))
    report = validate_cocycle(bad)
    assert not report.is_cocycle
    a, b, d = report.violation
    # re-check the reported triple by hand
    g = c.group
    lhs = bad.table[a][b] + bad.table[g.mul[a][b]][d]
    rhs = bad.table[b][d] + bad.table[a][g.mul[b][d]]
    assert (lhs - rhs) % 2 == 1


def test_all_ones_table_is_a_cocycle():
    g = elementary_abelian_2(2)
    assert validate_cocycle(trivial_cocycle(g, 2)).ok


def test_coboundary_witness_between_the_two_tables():
    # f(g) = f(h) = i, f(gh) = -1 carries the dihedral table to the
    # quaternion one over the fourth roots of unity
    alpha = c2c2_matrix_cocycle().rescaled(4)
    f = (0, 1, 1, 2)
    twisted = coboundary_twist(alpha, f)
    assert twisted.table == c2c2_quaternion_cocycle().rescaled(4).table


def test_coboundary_trivial_and_involution():
    c = c2c2_quaternion_cocycle()
    assert coboundary_twist(c, (0, 0, 0, 0)).table == c.table
    f = (0, 1, 1, 0)
    f_inv = tuple((-v) % 2 for v in f)
    assert coboundary_twist(coboundary_twist(c, f), f_inv).table == c.table


def test_coboundary_requires_normalized_f():
    c = c2c2_matrix_cocycle()
    with pytest.raises(ValueError):
        coboundary_twist(c, (1, 0, 0, 0))


def test_cohomologous_over_mu4_but_not_mu2():
    a = c2c2_matrix_cocycle()
    ap = c2c2_quaternion_cocycle()
    witness = are_cohomologous(a, ap, 4)
    assert witness is not None
    # the found witness really carries a to ap
    assert coboundary_twist(a.rescaled(4), witness).table == ap.rescaled(4).table
    assert are_cohomologous(a, ap, 2) is None
    # reflexive and symmetric
    assert are_cohomologous(a, a, 2) == (0, 0, 0, 0)
    assert are_cohomologous(ap, a, 4) is not None


def test_cohomologous_search_cap():
    c = anticommuting_pair_cocycle(2).rescaled(4)
    with pytest.raises(CapExceededError):
        are_cohomologous(c, c, 4, cap=1000)


def test_inflation_of_trivial_is_trivial():
    g = elementary_abelian_2(3)
    q, proj = _kill_last_factor(g)
    assert inflate(trivial_cocycle(q, 2), proj).is_trivial_table()


def _kill_last_factor(g):
    from twisted_rings.groups import quotient

    top = g.generators[sorted(g.generators)[-1]]
    return quotient(g, {0, top})


def test_inflation_gives_the_extended_table():
    big = anticommuting_pair_cocycle(2)
    g = big.group
    proj = GroupHom(
        source=g,
        target=elementary_abelian_2(2),
        map=tuple(x & 3 for x in g.elements()),
    )
    assert inflate(c2c2_matrix_cocycle(), proj).table == big.table
    assert validate_cocycle(big).ok


def test_inflate_then_restrict_recovers_table():
    base = c2c2_matrix_cocycle()
    big = anticommuting_pair_cocycle(1)
    back = restrict(big, {0, 1, 2, 3})
    assert back.table == base.table


def test_restrict_to_identity_and_trivial():
    c = anticommuting_pair_cocycle(1)
    assert restrict(c, {0}).table == ((0,),)
    t = trivial_cocycle(c.group, 2)
    assert restrict(t, {0, 1, 2, 3}).is_trivial_table()


def test_power_and_order():
    a = c2c2_matrix_cocycle()
    assert cocycle_order(a) == 2
    assert cocycle_order(c2c2_quaternion_cocycle()) == 2
    assert cocycle_power(a, 0).is_trivial_table()
    assert cocycle_power(a, 2).is_trivial_table()
    assert cocycle_order(trivial_cocycle(a.group, 2)) == 1


def test_basis_group_isomorphism_types():
    hist_d = order_histogram(build_G_alpha(c2c2_matrix_cocycle()).group)
    hist_q = order_histogram(build_G_alpha(c2c2_quaternion_cocycle()).group)
    assert hist_d == {1: 1, 2: 5, 4: 2}
    assert hist_q == {1: 1, 2: 1, 4: 6}


def test_basis_group_of_trivial_twist_is_the_group():
    g = elementary_abelian_2(2)
    ga = build_G_alpha(trivial_cocycle(g, 1))
    assert ga.group.order == g.order
    assert ga.value_order == 1


def test_basis_group_order_and_projection():
    c = c2c2_quaternion_cocycle()
    ga = build_G_alpha(c)
    assert ga.group.order == ga.value_order * c.group.order
    assert ga.projection.is_surjective()
    kernel = ga.projection.kernel()
    from twisted_rings.groups import centralizer

    assert all(
        centralizer(ga.group, k) == frozenset(ga.group.elements()) for k in kernel
    )


def test_transgression_of_quaternion_center_is_the_quaternion_table():
    q8 = quaternion8()
    center = subgroup_closure(q8, [1])  # -1 has id 1
    ext = build_extension(q8, center)
    chi = LinearCharacter(ext.sub_group, 2, (0, 1))
    out = transgress(ext, chi)
    assert out.table == c2c2_quaternion_cocycle().table


def test_transgression_of_trivial_character_is_trivial():
    q8 = quaternion8()
    ext = build_extension(q8, subgroup_closure(q8, [1]))
    chi = LinearCharacter(ext.sub_group, 2, (0, 0))
    assert transgress(ext, chi).is_trivial_table()


def test_transgression_with_positive_character_on_d8_is_a_coboundary():
    from twisted_rings.d8_case import d8_extension

    ext = d8_extension(0)
    chi = LinearCharacter(ext.sub_group, 2, (0, 0))
    out = transgress(ext, chi)
    # exhaustive search certifies the class is trivial at modulus 2
    assert are_cohomologous(out, trivial_cocycle(out.group, 2), 2) is not None


def test_transgression_commutes_with_inflation():
    # same character, transgressed upstairs vs transgressed downstairs and
    # inflated: identical tables for the dihedral family
    from twisted_rings.d8_case import d8_extension

    for n in (1, 2):
        big = d8_extension(n)
        small = d8_extension(0)
        chi_b = LinearCharacter(big.sub_group, 2, (0, 1))
        chi_s = LinearCharacter(small.sub_group, 2, (0, 1))
        top = transgress(big, chi_b)
        bottom = transgress(small, chi_s)
        proj = GroupHom(
            source=big.quotient_group,
            target=bottom.group,
            map=tuple(x & 3 for x in big.quotient_group.elements()),
        )
        assert inflate(bottom, proj).table == top.table


def test_transgression_rejects_non_invariant_characters():
    # the cyclic subgroup <a> of the dihedral group is normal but not
    # central; conjugation by b inverts it, so an order-4 character moves
    from twisted_rings.groups import dihedral8

    d8 = dihedral8()
    ext = build_extension(d8, subgroup_closure(d8, [d8.generators["a"]]))
    chi = LinearCharacter(ext.sub_group, 4, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="invariant"):
        transgress(ext, chi)
    # the order-2 character on the same subgroup is invariant and fine
    chi2 = LinearCharacter(ext.sub_group, 2, (0, 1, 0, 1))
    assert validate_cocycle(transgress(ext, chi2)).ok


def test_full_sign_cocycle_classification_on_the_klein_group():
    # enumerate all 512 normalized sign tables on C2 x C2: exactly 16 are
    # cocycles, falling into 8 classes of coboundary-pairs; the class of a
    # table is pinned by the two squares and the commutator sign
    import itertools

    g = elementary_abelian_2(2)
    valid = []
    for bits in itertools.product((0, 1), repeat=9):
        table = [[0, 0, 0, 0]]
        for row in range(3):
            table.append([0] + list(bits[3 * row : 3 * row + 3]))
        c = Cocycle(g, 2, tuple(tuple(r) for r in table))
        if validate_cocycle(c).ok:
            valid.append(c)
    assert len(valid) == 16

    def invariants(c):
        sq_g = c.table[1][1]
        sq_h = c.table[2][2]
        comm = (c.table[1][2] - c.table[2][1]) % 2
        return sq_g, sq_h, comm

    classes: list[list[Cocycle]] = []
    for c in valid:
        for cls in classes:
            if are_cohomologous(cls[0], c, 2) is not None:
                cls.append(c)
                break
        else:
            classes.append([c])
    assert len(classes) == 8
    assert all(len(cls) == 2 for cls in classes)
    # the invariant triple separates the classes and is constant on them
    seen = set()
    for cls in classes:
        tags = {invariants(c) for c in cls}
        assert len(tags) == 1
        seen |= tags
    assert len(seen) == 8
    # symmetry of the exhaustive comparison on a few cross pairs
    for a in valid[:4]:
        for b in valid[:4]:
            assert (are_cohomologous(a, b, 2) is None) == (
                are_cohomologous(b, a, 2) is None
            )


def test_basis_group_of_the_inflated_table_is_the_expected_product():
    # one extra untwisted involution multiplies the dihedral basis group
    # by C2: the order histogram matches the direct product's
    from twisted_rings.groups import dihedral8, direct_product, cyclic

    ga = build_G_alpha(anticommuting_pair_cocycle(1))
    expected = order_histogram(direct_product(dihedral8(), cyclic(2)))
    assert order_histogram(ga.group) == expected == {1: 1, 2: 11, 4: 4}


def test_restriction_to_an_untwisted_subgroup_is_trivial():
    c = anticommuting_pair_cocycle(2)
    # <g, x1> avoids the anticommuting pair: the restricted table is flat
    sub_ids = {0, 1, 4, 5}
    restricted = restrict(c, sub_ids)
    assert restricted.is_trivial_table()


def test_every_builder_output_validates():
    for c in (
        c2c2_matrix_cocycle(),
        c2c2_quaternion_cocycle(),
        anticommuting_pair_cocycle(2),
        cocycle_power(c2c2_matrix_cocycle(), 3),
    ):
        assert validate_cocycle(c).ok
