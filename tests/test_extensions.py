import random
from fractions import Fraction

import pytest

from oracles import orbit_space
from test_packaged_groups import _presets, _products
from twisted_rings.cocycles import (
    LinearCharacter,
    c2c2_matrix_cocycle,
    validate_cocycle,
)
from twisted_rings.d8_case import build_d8_psi, d8_extension
from twisted_rings.errors import CapExceededError
from twisted_rings.extensions import (
    apply_psi,
    build_extension,
    build_psi,
    component_table,
    galois_orbits,
    kernel_basis,
    kernel_finiteness_predicate,
    kernel_torsion_scan,
    lin_characters,
    perlis_walker_counts,
    torsion_kernel_units,
)
from twisted_rings.groups import (
    all_subgroups,
    centralizer,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian_2,
    quaternion8,
    subgroup_closure,
)


def test_split_extension_has_trivial_factor_set():
    g = direct_product(dihedral8(), cyclic(2))
    sub = {0, 1}  # the C2 factor
    ext = build_extension(g, sub)
    assert ext.is_central
    assert all(
        ext.alpha_sub[a][b] == 0
        for a in ext.quotient_group.elements()
        for b in ext.quotient_group.elements()
    )


def test_extension_requires_normal_subgroup():
    g = dihedral8()
    with pytest.raises(ValueError):
        build_extension(g, {0, g.generators["b"]})


def test_quaternion_extension_factor_set():
    q8 = quaternion8()
    ext = build_extension(q8, subgroup_closure(q8, [1]))
    # squares of all three non-identity quotient elements hit -1
    diag = [ext.alpha_sub[x][x] for x in range(1, 4)]
    assert diag == [1, 1, 1]


def test_d8_section_realizes_the_model_table():
    psi = build_d8_psi(0)
    assert psi.target.cocycle.table == c2c2_matrix_cocycle().table


def test_psi_is_multiplicative_and_unital():
    psi = build_d8_psi(0)
    src = psi.source
    for x in src.group.elements():
        for y in src.group.elements():
            lhs = apply_psi(psi, src.basis(x) * src.basis(y))
            rhs = apply_psi(psi, src.basis(x)) * apply_psi(psi, src.basis(y))
            assert lhs == rhs
    assert apply_psi(psi, src.one()) == psi.target.one()


def test_trivial_character_gives_the_collapse_map():
    gamma = direct_product(dihedral8(), cyclic(2))
    ext = build_extension(gamma, {0, 1})
    chi = LinearCharacter(ext.sub_group, 1, (0, 0))
    psi = build_psi(ext, chi)
    for n_id in ext.sub_ids:
        assert apply_psi(psi, psi.source.basis(n_id)) == psi.target.one()


def test_kernel_basis_maps_to_zero_and_spans():
    psi = build_d8_psi(0)
    basis = kernel_basis(psi)
    assert len(basis) == (psi.ext.sub_group.order - 1) * psi.ext.quotient_group.order
    for b in basis:
        assert apply_psi(psi, b) == psi.target.zero()
    # u_(a^2) + u_1 is one of the basis vectors (chi(a^2) = -1)
    src = psi.source
    expected = src.basis(2) + src.basis(0)
    assert any(b == expected for b in basis)
    # a random combination still maps to zero
    rng = random.Random(0)
    combo = src.zero()
    for b in basis:
        combo = combo + rng.randint(-2, 2) * b
    assert apply_psi(psi, combo) == psi.target.zero()


def test_element_mapping_to_zero_decomposes_over_the_basis():
    psi = build_d8_psi(0)
    src = psi.source
    basis = kernel_basis(psi)
    rng = random.Random(1)
    coeffs = [rng.randint(-3, 3) for _ in basis]
    x = src.zero()
    for c, b in zip(coeffs, basis):
        x = x + c * b
    # solve the integer system expressing x over the basis
    cols = [[v.as_int() for v in b.coeffs] for b in basis]
    rows = len(x.coeffs)
    mat = [[cols[j][i] for j in range(len(basis))] for i in range(rows)]
    rhs = [v.as_int() for v in x.coeffs]
    sol = _solve_rectangular(mat, rhs)
    assert sol is not None
    rebuilt = src.zero()
    for c, b in zip(sol, basis):
        rebuilt = rebuilt + int(c) * b
    assert rebuilt == x


def _solve_rectangular(mat, rhs):
    rows = len(mat)
    cols = len(mat[0])
    a = [[Fraction(mat[i][j]) for j in range(cols)] + [Fraction(rhs[i])] for i in range(rows)]
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [v / pv for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    sol = [Fraction(0)] * cols
    lead = 0
    for col in range(cols):
        if lead < rank and a[lead][col] == 1 and all(a[r][col] == 0 for r in range(rows) if r != lead):
            sol[col] = a[lead][cols]
            lead += 1
    for r in range(rank, rows):
        if a[r][cols] != 0:
            return None
    return sol


def test_torsion_kernel_units_dihedral_case():
    psi = build_d8_psi(0)
    src = psi.source
    tors = torsion_kernel_units(psi)
    assert set(tors) == {src.one(), -src.basis(2)}
    scanned = kernel_torsion_scan(psi)
    assert set(scanned) == {src.one(), -src.basis(2)}


def test_torsion_kernel_units_trivial_character():
    gamma = direct_product(elementary_abelian_2(2), cyclic(2))
    ext = build_extension(gamma, {0, 1})
    chi = LinearCharacter(ext.sub_group, 1, (0, 0))
    psi = build_psi(ext, chi)
    tors = torsion_kernel_units(psi)
    assert set(tors) == {psi.source.one(), psi.source.basis(1)}


def test_torsion_kernel_scan_agreement_one_level_up():
    psi = build_d8_psi(1)
    src = psi.source
    predicted = set(torsion_kernel_units(psi))
    assert predicted == {src.one(), -src.basis(2 << 1)}
    scanned = set(kernel_torsion_scan(psi, support_cap=3))
    assert scanned == predicted


def test_kernel_finiteness_clauses():
    # dihedral over the Klein quotient: kernel finite, abelian clause fires
    psi = build_d8_psi(0)
    verdict = kernel_finiteness_predicate(psi)
    assert verdict.finite
    assert "abelian-small-exponent" in verdict.clauses
    assert "prime-kernel" in verdict.clauses

    # trivial character on a C2 factor with an infinite ambient unit group
    gamma = direct_product(dihedral8(), cyclic(2))
    ext = build_extension(gamma, {0, 1})
    chi = LinearCharacter(ext.sub_group, 1, (0, 0))
    psi2 = build_psi(ext, chi)
    verdict2 = kernel_finiteness_predicate(psi2)
    assert not verdict2.finite

    # finite ambient unit group: kernel finite for free
    gamma3 = elementary_abelian_2(2)
    ext3 = build_extension(gamma3, {0, 1})
    chi3 = LinearCharacter(ext3.sub_group, 1, (0, 0))
    verdict3 = kernel_finiteness_predicate(build_psi(ext3, chi3))
    assert verdict3.finite
    assert "unit-group-finite" in verdict3.clauses


def test_character_enumeration_counts():
    assert len(lin_characters(cyclic(2), 2)) == 2
    assert len(lin_characters(elementary_abelian_2(2), 2)) == 4
    assert len(lin_characters(cyclic(4), 2)) == 2
    assert len(lin_characters(cyclic(4), 4)) == 4
    assert len(lin_characters(cyclic(6), 6)) == 6
    with pytest.raises(ValueError):
        lin_characters(dihedral8(), 2)


def test_orbit_space_under_trivial_action():
    chars = lin_characters(elementary_abelian_2(2), 2)
    orbits = orbit_space(chars, [tuple(range(4))])
    assert len(orbits) == 4
    assert all(len(o) == 1 for o in orbits)


def test_orbit_space_under_a_swap():
    g = elementary_abelian_2(2)
    chars = lin_characters(g, 2)
    swap = (0, 2, 1, 3)  # exchange the two generators
    orbits = orbit_space(chars, [swap])
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 1, 2]


def test_galois_orbits_of_c4_over_q():
    chars = lin_characters(cyclic(4), 4)
    orbits = galois_orbits(chars, 1)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 1, 2]


def test_component_tables():
    # dihedral over <a^2>: one untwisted and one twisted rational component
    ext = d8_extension(0)
    entries = component_table(ext, field_conductor=1)
    assert len(entries) == 2
    assert sorted(e.degree for e in entries) == [1, 1]
    twists = sorted(e.twist.is_trivial_table() for e in entries)
    assert twists == [False, True]
    for e in entries:
        assert validate_cocycle(e.twist).ok

    # Klein group over one factor: two copies of the rational group ring
    g2 = elementary_abelian_2(2)
    ext2 = build_extension(g2, {0, 1})
    entries2 = component_table(ext2, field_conductor=1)
    assert len(entries2) == 2
    assert all(e.twist.is_trivial_table() for e in entries2)


def test_perlis_walker_counts():
    assert perlis_walker_counts(cyclic(4)) == {1: 1, 2: 1, 4: 1}
    assert perlis_walker_counts(cyclic(2)) == {1: 1, 2: 1}
    assert perlis_walker_counts(elementary_abelian_2(2)) == {1: 1, 2: 3}
    assert perlis_walker_counts(cyclic(6)) == {1: 1, 2: 1, 3: 1, 6: 1}
    # over Q(i) the quartic component splits
    assert perlis_walker_counts(cyclic(4), field_conductor=4) == {1: 1, 2: 1, 4: 2}


def test_component_dimensions_match_perlis_walker():
    for group in (cyclic(2), elementary_abelian_2(2), cyclic(4), cyclic(6)):
        ext = build_extension(group, set(group.elements()))
        entries = component_table(ext, field_conductor=1)
        counts = perlis_walker_counts(group)
        assert sum(e.degree for e in entries) == group.order
        assert len(entries) == sum(counts.values())


def test_component_twists_are_the_targets_of_psi():
    # each entry's twist is read off transgress; build_psi with the trivial
    # beta twists its target ring by the same table
    checked = 0
    for g in (g for build in (_presets, _products) for g in build() if g.order <= 16):
        center = {x for x in g.elements() if len(centralizer(g, x)) == g.order}
        for sub in all_subgroups(g):
            if not sub <= center:
                continue
            ext = build_extension(g, sub)
            for conductor in (1, 2, 4):
                try:
                    entries = component_table(ext, field_conductor=conductor)
                except CapExceededError:
                    continue
                for e in entries:
                    assert e.twist == build_psi(ext, e.character).target.cocycle
                    checked += 1
    assert checked > 1000


def test_commuting_square_of_natural_and_projection_maps():
    # collapsing the extra involution before or after projecting agrees on
    # every basis element of the level-1 extension
    psi1 = build_d8_psi(1)
    psi0 = build_d8_psi(0)
    src1, tgt1 = psi1.source, psi1.target
    src0, tgt0 = psi0.source, psi0.target

    def collapse_source(x):
        acc = {}
        for gid, c in x.items():
            key = gid >> 1
            acc[key] = acc.get(key, src0.zero_coeff()) + c
        return src0.element(acc)

    def collapse_target(x):
        acc = {}
        for gid, c in x.items():
            key = gid & 3
            acc[key] = acc.get(key, tgt0.zero_coeff()) + c
        return tgt0.element(acc)

    for gamma in src1.group.elements():
        path1 = collapse_target(apply_psi(psi1, src1.basis(gamma)))
        path2 = apply_psi(psi0, collapse_source(src1.basis(gamma)))
        assert path1 == path2
