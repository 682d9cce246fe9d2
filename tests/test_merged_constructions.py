"""Each shared construction against the formula or loop it stands in for.

The oracles below are the per-module versions that the shared helpers
replaced, kept here unchanged in substance.
"""

import itertools
import random
from dataclasses import replace
from math import gcd

import pytest

from oracles import quaternion_twist_ring
from twisted_rings import gl2
from twisted_rings.cocycles import (
    Cocycle,
    LinearCharacter,
    cocycle_order,
    exponent_order,
)
from twisted_rings.cyclotomic import SUPPORTED_CONDUCTORS, CycInt, root_to_cyc
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.groups import cyclic, elementary_abelian_2
from twisted_rings.extensions import psi_multiplicative_on_basis
from twisted_rings.rings import (
    TwRing,
    anticommuting_ring,
    small_support_elements,
    unit_order,
)
from twisted_rings.tower import build_tower, project_phi, project_psi
from twisted_rings.units import find_infinite_order_unit

# ---------------------------------------------------------------------------
# roots of unity in Z[zeta_c]


def test_root_to_cyc_is_the_zeta_power_formula():
    checked = 0
    for c in SUPPORTED_CONDUCTORS:
        for m in (d for d in range(1, c + 1) if c % d == 0):
            for k in range(m):
                z = root_to_cyc(m, k, c)
                assert z.m == c
                assert z.coeffs == CycInt.zeta(c, k * c // m).coeffs
                checked += 1
    assert checked == sum(
        sum(d for d in range(1, c + 1) if c % d == 0) for c in SUPPORTED_CONDUCTORS
    )


def test_root_to_cyc_returns_one_shared_value_per_argument():
    assert root_to_cyc(4, 1, 8) is root_to_cyc(4, 1, 8)
    assert root_to_cyc(2, 1, 3) is root_to_cyc(2, 1, 3)
    assert root_to_cyc(2, 1, 3) == CycInt.integer(-1, 3)


# ---------------------------------------------------------------------------
# orders of mu_m-valued exponents


def _order_by_search(m: int, exponents) -> int:
    return next(i for i in range(1, m + 1) if all(i * e % m == 0 for e in exponents))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
def test_exponent_order_is_the_least_killing_power(m):
    assert exponent_order(m) == 1
    for size in (1, 2):
        for exps in itertools.product(range(m), repeat=size):
            assert exponent_order(m, *exps) == _order_by_search(m, exps)


def test_cocycle_and_character_orders_use_every_value():
    g = cyclic(4)
    table = tuple(tuple(((a + b) // 4 * 2) % 8 for b in range(4)) for a in range(4))
    assert cocycle_order(Cocycle(g, 8, table)) == 4
    chi = LinearCharacter(g, 8, (0, 2, 4, 6))
    assert chi.value_order() == 4
    assert LinearCharacter(g, 8, (0, 0, 0, 0)).value_order() == 1


# ---------------------------------------------------------------------------
# integer content of an element


def _content_loop(x) -> int:
    g = 0
    for c in x.coeffs:
        for v in c.coeffs:
            g = gcd(g, v)
    return g


@pytest.mark.parametrize("conductor", [2, 4, 8])
def test_content_is_the_gcd_of_all_coordinates(conductor):
    ring = quaternion_twist_ring(conductor)
    width = len(ring.zero_coeff().coeffs)
    rng = random.Random(conductor)
    assert ring.zero().content() == 0
    for _ in range(50):
        scale = rng.choice([1, 2, 3, 4, 6])
        x = ring.element(
            {
                g: CycInt(conductor, tuple(scale * rng.randint(-3, 3) for _ in range(width)))
                for g in ring.group.elements()
            }
        )
        assert x.content() == _content_loop(x)


# ---------------------------------------------------------------------------
# small-support enumeration


def _small_support_loop(ring, values, support_cap):
    n = ring.group.order
    for size in range(1, support_cap + 1):
        for support in itertools.combinations(range(n), size):
            for coeffs in itertools.product(values, repeat=size):
                yield ring.element(dict(zip(support, coeffs)))


def _first_infinite_order_unit_loop(ring, bound=1, support_cap=3):
    n = ring.group.order
    for size in range(1, support_cap + 1):
        for support in itertools.combinations(range(n), size):
            for coeffs in itertools.product(
                [1, -1] if bound == 1 else range(-bound, bound + 1), repeat=size
            ):
                if any(c == 0 for c in coeffs):
                    continue
                x = ring.element(dict(zip(support, coeffs)))
                unit, order = unit_order(x)
                if unit and order is None:
                    return x
    return None


@pytest.mark.parametrize("values", [(1, -1), (-1, 1), (-2, -1, 1, 2)])
def test_small_support_order_is_size_support_then_product(values):
    ring = anticommuting_ring(1)
    for cap in (1, 2, 3):
        assert list(small_support_elements(ring, values, cap)) == list(
            _small_support_loop(ring, values, cap)
        )


@pytest.mark.parametrize(
    "ring",
    [
        anticommuting_ring(0),
        quaternion_twist_ring(2),
        TwRing(cyclic(3), Cocycle(cyclic(3), 1, ((0,) * 3,) * 3), 2),
        TwRing(cyclic(5), Cocycle(cyclic(5), 1, ((0,) * 5,) * 5), 2),
    ],
    ids=["anticommuting", "quaternion", "C3", "C5"],
)
@pytest.mark.parametrize("bound", [1, 2])
def test_first_infinite_order_unit_is_the_old_witness(ring, bound):
    assert find_infinite_order_unit(ring, bound) == _first_infinite_order_unit_loop(
        ring, bound
    )


# ---------------------------------------------------------------------------
# psi on basis pairs


@pytest.mark.parametrize("n", [0, 1])
def test_psi_multiplicative_on_basis_agrees_with_pairwise_products(n):
    psi = build_d8_psi(n)
    assert psi_multiplicative_on_basis(psi)
    # flipping the sign of one basis image breaks multiplicativity
    gq, exp = psi.gamma_images[1]
    images = list(psi.gamma_images)
    images[1] = (gq, (exp + 1) % psi.target.cocycle.modulus)
    assert not psi_multiplicative_on_basis(replace(psi, gamma_images=tuple(images)))


# ---------------------------------------------------------------------------
# the x_i -> +-1 retractions


@pytest.mark.parametrize("base", [anticommuting_ring(0), quaternion_twist_ring(4)])
def test_retractions_substitute_plus_and_minus_one(base):
    ctx = build_tower(base, 2)
    rng = random.Random(3)
    width = len(base.zero_coeff().coeffs)
    for i in (1, 2):
        hi, lo = ctx.ring(i), ctx.ring(i - 1)
        for _ in range(10):
            x = hi.element(
                {
                    g: CycInt(base.conductor, tuple(rng.randint(-2, 2) for _ in range(width)))
                    for g in hi.group.elements()
                }
            )
            for project, sign in ((project_psi, 1), (project_phi, -1)):
                expected = lo.element(
                    {
                        g: x.coeff(2 * g) + sign * x.coeff(2 * g + 1)
                        for g in lo.group.elements()
                    }
                )
                assert project(ctx, i, x) == expected


# ---------------------------------------------------------------------------
# matrix-model tables and congruence residue counts


def test_model_tables_are_the_matrix_cocycle():
    assert gl2._MODEL_GROUP_MUL == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert gl2._MODEL_SIGN == tuple(
        tuple(-1 if (a in (2, 3) and b in (1, 3)) else 1 for b in range(4))
        for a in range(4)
    )
    assert gl2._MODEL_GROUP_MUL == elementary_abelian_2(2).mul


def _det_pm1_loop(depth, modulus, parity):
    step = 1 << depth
    span = modulus // step
    pm1 = {1 % modulus, modulus - 1}
    count = 0
    for a11, a12, a21, a22 in itertools.product(range(span), repeat=4):
        if parity and ((a12 - a21) % 2 or (a11 - a22) % 2):
            continue
        m00 = (1 + step * a11) % modulus
        m01 = (step * a12) % modulus
        m10 = (step * a21) % modulus
        m11 = (1 + step * a22) % modulus
        if (m00 * m11 - m01 * m10) % modulus in pm1:
            count += 1
    return count


def _gl2_loop(modulus):
    total = detpm = 0
    for a, b, c, d in itertools.product(range(modulus), repeat=4):
        det = (a * d - b * c) % modulus
        if gcd(det, modulus) == 1:
            total += 1
            detpm += det in {1 % modulus, modulus - 1}
    return total, detpm


def test_congruence_levels_match_full_enumeration():
    rep = gl2.congruence_index(4)
    assert [(lv.gl2_size, lv.det_pm1_size) for lv in rep.levels] == [
        _gl2_loop(1 << i) for i in range(1, 5)
    ]


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_depth_unit_counts_match_enumeration(depth):
    for modulus in (2 << depth, 4 << depth, 8 << depth):
        assert gl2.count_depth_units_mod(depth, modulus) == _det_pm1_loop(
            depth, modulus, parity=True
        )
    with pytest.raises(ValueError):
        gl2.count_depth_units_mod(depth + 1, 2 << depth)


def test_sandwich_indices_match_enumeration():
    audit = gl2.depth_index_audit(3)
    assert list(audit.sandwich_indices) == [
        _det_pm1_loop(i, 1 << (i + 2), parity=False)
        // _det_pm1_loop(i, 1 << (i + 2), parity=True)
        for i in (1, 2, 3)
    ]
