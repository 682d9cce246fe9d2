"""Acceptance suite: one test per exit criterion, each timed and reported.

Run with -s to see the per-criterion lines; every tolerance and time
budget is pinned here.
"""

import random
import time

import pytest

from oracles import enumerate_units_bounded, g_alpha_order_histogram, quaternion_twist_ring, reduced_words
from twisted_rings.cocycles import (
    are_cohomologous,
    c2c2_matrix_cocycle,
    c2c2_quaternion_cocycle,
    coboundary_twist,
    validate_cocycle,
)
from twisted_rings.d8_case import build_d8_psi, d8_case_study
from twisted_rings.extensions import (
    apply_psi,
    build_extension,
    component_table,
    kernel_torsion_scan,
    perlis_walker_counts,
    torsion_kernel_units,
)
from twisted_rings.gl2 import (
    MAT_V,
    MAT_W,
    congruence_index,
    model_ring,
    phi_model,
    phi_model_inverse,
    sanov_membership,
    unit_index_audit,
    IntMat2,
)
from twisted_rings.groups import cyclic, element_order, elementary_abelian_2
from twisted_rings.rings import (
    anticommuting_ring,
    basis_power_exponent,
    berman_higman_violations,
    conj_character,
    cyclic_sum,
    is_unit,
    torsion_order,
)
from twisted_rings.tower import (
    build_tower,
    kernel_embed,
    random_unit,
    split_unit,
    u_group_membership,
    u_split,
)
from twisted_rings.units import (
    decide_finiteness,
    minimal_twisted_bicyclic,
    twisted_bicyclic,
    BicyclicSpec,
)


def _report(name: str, start: float, budget: float) -> None:
    elapsed = time.monotonic() - start
    print(f"PASS {name} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_criterion_01_two_cocycles_audit():
    start = time.monotonic()
    alpha = c2c2_matrix_cocycle()
    alpha_q = c2c2_quaternion_cocycle()
    assert validate_cocycle(alpha).ok
    assert validate_cocycle(alpha_q).ok
    assert g_alpha_order_histogram(alpha) == {1: 1, 2: 5, 4: 2}
    assert g_alpha_order_histogram(alpha_q) == {1: 1, 2: 1, 4: 6}
    witness = are_cohomologous(alpha, alpha_q, 4)
    assert witness is not None
    # the published coboundary f(g) = f(h) = i, f(gh) = -1 is itself a witness
    published = (0, 1, 1, 2)
    assert (
        coboundary_twist(alpha.rescaled(4), published).table
        == alpha_q.rescaled(4).table
    )
    assert are_cohomologous(alpha, alpha_q, 2) is None
    _report("criterion 1: order-8 basis groups and coboundary search", start, 1.0)


def test_criterion_02_matrix_model_isomorphism():
    start = time.monotonic()
    ring = model_ring()
    for x in range(4):
        for y in range(4):
            assert phi_model(ring.basis(x) * ring.basis(y)) == phi_model(
                ring.basis(x)
            ) * phi_model(ring.basis(y))
    # bijectivity: round trip on a spanning box plus parity rejection
    for mat in (IntMat2(1, 0, 0, 1), IntMat2(3, 5, 1, -1), IntMat2(0, 2, 4, 2)):
        assert phi_model(phi_model_inverse(ring, mat)) == mat
    try:
        phi_model_inverse(ring, IntMat2(1, 0, 1, 0))
        raise AssertionError("parity-violating matrix accepted")
    except ValueError:
        pass
    _report("criterion 2: matrix model is a ring isomorphism", start, 1.0)


def test_criterion_03_free_subgroup_and_index():
    start = time.monotonic()
    ring = model_ring()
    v = ring.one() + ring.basis(2) - ring.basis(3)
    w = ring.one() + ring.basis(2) + ring.basis(3)
    assert phi_model(v) == MAT_V
    assert phi_model(w) == MAT_W
    uh, ug, ugh = ring.basis(2), ring.basis(1), ring.basis(3)
    assert uh * v * is_unit(uh) == w
    assert ug * v * is_unit(ug) == is_unit(v)
    assert ugh * v * is_unit(ugh) == is_unit(w)
    count = 0
    for word in reduced_words(12, limit=2000):
        mat = word.evaluate()
        assert not mat.is_identity()
        recovered = sanov_membership(mat)
        assert recovered is not None and recovered.letters == word.letters
        count += 1
    assert count == 2000
    assert unit_index_audit([v, w], ring).index == 8
    _report("criterion 3: free generators, round trips, index 8", start, 30.0)


def test_criterion_04_finiteness_decisions():
    start = time.monotonic()
    quat = quaternion_twist_ring()
    verdict = decide_finiteness(quat)
    assert verdict.finite and verdict.case == "hamiltonian-2group"
    assert len(enumerate_units_bounded(quat, 2)) == 8
    anti = anticommuting_ring(0)
    verdict2 = decide_finiteness(anti)
    assert not verdict2.finite
    witness = verdict2.witness.get("infinite_order_unit")
    assert witness is not None
    from twisted_rings.rings import element_from_json

    unit = element_from_json(anti, witness)
    assert torsion_order(unit) is None
    _report("criterion 4: finiteness verdicts with enumeration", start, 10.0)


def test_criterion_05_trace_zero_scan():
    start = time.monotonic()
    ring = anticommuting_ring(0)
    assert berman_higman_violations(ring, coeff_values=(-1, 0, 1)) == []
    _report("criterion 5: trace-zero scan over the model ring", start, 60.0)


def test_criterion_06_projection_identities():
    start = time.monotonic()
    psi = build_d8_psi(0)
    src, tgt = psi.source, psi.target
    one = src.one()
    b, ab = src.basis(4), src.basis(5)
    b1 = one + (one - b) * ab * (one + b)
    b2 = one + (one + b) * ab * (one - b)
    b3 = one - (one + ab) * b * (one - ab)
    v = tgt.one() + tgt.basis(2) - tgt.basis(3)
    w = tgt.one() + tgt.basis(2) + tgt.basis(3)
    assert apply_psi(psi, b1) == v * v
    assert apply_psi(psi, b2) == w * w
    # the corrected third identity, exact on both sides
    assert apply_psi(psi, b3) == -(v * is_unit(w))
    assert apply_psi(psi, src.basis(2) * (2 * one - b3)) == w * is_unit(v)
    for x in src.group.elements():
        for y in src.group.elements():
            assert apply_psi(psi, src.basis(x) * src.basis(y)) == apply_psi(
                psi, src.basis(x)
            ) * apply_psi(psi, src.basis(y))
    _report("criterion 6: projection identities and multiplicativity", start, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the published identity is off by the trivial unit -1: the image"
    " of b3 has identity coefficient +1 while w v^-1 has -1, for every"
    " admissible section; the exact forms are psi(b3) = -v w^-1 and"
    " psi(a^2 b3^-1) = w v^-1 (verified in criterion 6)",
)
def test_criterion_06_published_b3_identity():
    psi = build_d8_psi(0)
    src, tgt = psi.source, psi.target
    one = src.one()
    b, ab = src.basis(4), src.basis(5)
    b3 = one - (one + ab) * b * (one - ab)
    v = tgt.one() + tgt.basis(2) - tgt.basis(3)
    w = tgt.one() + tgt.basis(2) + tgt.basis(3)
    assert apply_psi(psi, b3) == w * is_unit(v)


def test_criterion_07_torsion_kernel_family():
    start = time.monotonic()
    for n in (0, 1, 2):
        psi = build_d8_psi(n)
        src = psi.source
        a_sq = src.basis(2 << n)
        expected = {src.one(), -a_sq}
        assert set(torsion_kernel_units(psi)) == expected
        scanned = set(kernel_torsion_scan(psi, support_cap=4))
        assert scanned == expected
    _report("criterion 7: torsion kernel across the family", start, 60.0)


def test_criterion_08_cokernel_counts():
    start = time.monotonic()
    study0 = d8_case_study(0)
    by_name = {i.name: i for i in study0.items}
    assert by_name["cokernel size at n = 0"].computed == 2
    for n in (1, 2):
        study = d8_case_study(n)
        item = {i.name: i for i in study.items}["cokernel classes from small unipotents"]
        assert item.status == "lower-bound"
        assert item.computed["certified_nontrivial"] == 2 ** (n + 1) - 1
        assert item.computed["pairwise_ratios_certified"]
        factor = {i.name: i for i in study.items}["class count factorization"]
        assert factor.status == "verified"
    _report("criterion 8: cokernel lower bounds and factorization", start, 120.0)


def test_criterion_09_congruence_oracle():
    start = time.monotonic()
    rep = congruence_index(2)
    assert rep.levels[0].gl2_size == 6
    assert rep.levels[1].gl2_size == 96
    assert rep.successive_quotients == (16,)
    assert any("192" in d for d in rep.discrepancies)
    _report("criterion 9: congruence subgroup enumeration", start, 5.0)


def test_criterion_10_tower_property_suite():
    start = time.monotonic()
    ctx = build_tower(anticommuting_ring(0), 2)
    rng = random.Random(0)
    deep_checked = 0
    for trial in range(200):
        level = 1 + (trial % 2)
        u = random_unit(ctx, level, rng, length=5)
        k, s = split_unit(ctx, level, u)
        assert k * s == u
        image = kernel_embed(ctx, level, k)
        assert u_group_membership(ctx, 1, level - 1, image)
        if trial % 10 == 0:
            sq = u * u
            if u_group_membership(ctx, 1, level, sq):
                a, bpart = u_split(ctx, 1, level, sq)
                assert u_group_membership(ctx, 2, level - 1, a)
                assert u_group_membership(ctx, 1, level - 1, bpart)
        if trial % 25 == 0:
            base_unit = random_unit(ctx, 0, rng, length=4)
            deep = (base_unit * base_unit) ** 2
            if deep != ctx.ring(0).one() and deep != -ctx.ring(0).one():
                assert u_group_membership(ctx, 2, 0, deep)
                assert torsion_order(deep) is None
                deep_checked += 1
    assert deep_checked >= 3
    _report("criterion 10: tower splittings on 200 seeded units", start, 120.0)


def test_criterion_11_identity_suite():
    start = time.monotonic()
    outputs = []
    for ring in (anticommuting_ring(0), anticommuting_ring(1), anticommuting_ring(2)):
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
                outputs.append(minimal_twisted_bicyclic(ring, g, h))
            outputs.append(
                twisted_bicyclic(BicyclicSpec(ring=ring, g=g, a=ring.basis(g)))
            )
    assert outputs
    for u in outputs:
        inc = u - u.ring.one()
        assert (inc * inc).is_zero()
        for c in u.coeffs:  # integral coefficients throughout
            assert all(isinstance(val, int) for val in c.coeffs)
    _report("criterion 11: telescoping and unipotence identities", start, 5.0)


def test_criterion_12_component_dimensions():
    start = time.monotonic()
    cases = {
        "C2": cyclic(2),
        "C2xC2": elementary_abelian_2(2),
        "C4": cyclic(4),
        "C6": cyclic(6),
    }
    for name, group in cases.items():
        ext = build_extension(group, set(group.elements()))
        entries = component_table(ext, field_conductor=1)
        assert sum(e.degree for e in entries) == group.order
        counts = perlis_walker_counts(group)
        assert len(entries) == sum(counts.values())
    # the order-4 cyclic group over Q: two rational pieces and one quartic
    ext4 = build_extension(cases["C4"], set(range(4)))
    fields = sorted(e.field_conductor for e in component_table(ext4))
    assert fields == [1, 2, 4]
    assert perlis_walker_counts(cases["C4"]) == {1: 1, 2: 1, 4: 1}
    _report("criterion 12: component and multiplicity bookkeeping", start, 1.0)
