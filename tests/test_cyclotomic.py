import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_rings.cyclotomic import (
    CycInt,
    RootOfUnity,
    SUPPORTED_CONDUCTORS,
    cyclotomic_factors,
    cyclotomic_polynomial,
    euler_phi,
    galois_apply,
    is_root_of_unity,
    root_to_cyc,
)
from twisted_rings.errors import CapExceededError


def root_of_unity_order_brute(a: CycInt, cap: int | None = None) -> int | None:
    """Oracle: least j <= cap with a^j = 1 by repeated exact multiplication."""
    if cap is None:
        cap = 2 * a.m * a.m
    one = CycInt.integer(1, a.m)
    p = a
    for j in range(1, cap + 1):
        if p == one:
            return j
        if max(abs(c) for c in p.coeffs) > 1:
            # power basis coords of roots of unity stay in {-1,0,1}
            return None
        p = p * a
    return None


def test_norm_identity_gaussian():
    i = CycInt.zeta(4)
    assert (1 + i) * (1 - i) == CycInt.integer(2, 4)


def test_third_root_relation():
    z = CycInt.zeta(3)
    assert z * z + z + 1 == CycInt.integer(0, 3)


def test_i_squared():
    i = CycInt.zeta(4)
    assert i * i == CycInt.integer(-1, 4)


def test_cross_conductor_coercion():
    # one modulus divides the other
    two = CycInt.integer(2, 1)
    z6 = CycInt.zeta(6)
    assert (two * z6).m == 6
    # lcm within the supported range
    z8 = CycInt.zeta(8)
    z3 = CycInt.zeta(3)
    assert (z8 * z3).m == 24


def test_embedding_consistency():
    assert CycInt.zeta(2).embed(4) == CycInt.zeta(4, 2)
    assert CycInt.zeta(3).embed(6) == CycInt.zeta(6, 2)
    assert CycInt.integer(7, 1) == CycInt.integer(7, 24)


coeff = st.integers(min_value=-8, max_value=8)
conductors = st.sampled_from(SUPPORTED_CONDUCTORS)


@st.composite
def cyc_ints(draw, m=None):
    from twisted_rings.cyclotomic import PHI_DEGREE

    mm = m if m is not None else draw(conductors)
    vec = draw(
        st.lists(coeff, min_size=PHI_DEGREE[mm], max_size=PHI_DEGREE[mm])
    )
    return CycInt(mm, tuple(vec))


@given(conductors.flatmap(lambda m: st.tuples(cyc_ints(m), cyc_ints(m), cyc_ints(m))))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(conductors.flatmap(lambda m: st.tuples(cyc_ints(m), cyc_ints(m))), st.integers(1, 23))
@settings(max_examples=60, deadline=None)
def test_galois_is_ring_morphism(pair, j):
    from math import gcd

    a, b = pair
    if gcd(j, a.m) != 1:
        with pytest.raises(ValueError):
            galois_apply(a, j)
        return
    assert galois_apply(a * b, j) == galois_apply(a, j) * galois_apply(b, j)
    assert galois_apply(a + b, j) == galois_apply(a, j) + galois_apply(b, j)
    assert galois_apply(a, 1) == a


def test_galois_conjugation_on_i():
    i = CycInt.zeta(4)
    assert galois_apply(i, 3) == -i


def test_galois_fixes_rationals():
    for m in (4, 6, 8):
        x = CycInt.integer(-5, m)
        assert galois_apply(x, m - 1) == x


def test_galois_involution_on_sixth_roots():
    z = CycInt.zeta(6)
    assert galois_apply(z, 5) == z**5
    assert galois_apply(galois_apply(z, 5), 5) == z


def test_root_recognition_examples():
    assert is_root_of_unity(CycInt.integer(-1, 1)) == RootOfUnity(2, 1)
    assert is_root_of_unity(CycInt.integer(2, 1)) is None
    assert is_root_of_unity(CycInt.zeta(6)) == RootOfUnity(6, 1)
    assert is_root_of_unity(CycInt.integer(0, 4)) is None
    assert is_root_of_unity(CycInt.zeta(6, 2)) == RootOfUnity(3, 1)


def test_root_recognition_matches_brute_force():
    for m in (1, 2, 3, 4, 6, 8):
        span = 2 * m
        for k in range(span):
            for sign in (1, -1):
                x = CycInt.zeta(m, k % m) * sign
                fancy = is_root_of_unity(x)
                brute = root_of_unity_order_brute(x)
                assert fancy is not None and brute == fancy.order
    # non-roots agree too
    for value in (CycInt.integer(3, 4), CycInt.zeta(4) + 1):
        assert is_root_of_unity(value) is None
        assert root_of_unity_order_brute(value) is None


def test_root_of_unity_multiplication():
    assert root_to_cyc(4, 1, 12) * root_to_cyc(6, 1, 12) == CycInt.zeta(12, 5)
    assert root_to_cyc(4, -1, 4) == CycInt.zeta(4, 3)


def test_root_to_cyc_handles_minus_one_in_z():
    assert root_to_cyc(2, 1, 1) == CycInt.integer(-1, 1)
    assert root_to_cyc(2, 0, 1) == CycInt.integer(1, 1)
    assert root_to_cyc(6, 1, 3) == CycInt.zeta(6).embed(6) == CycInt.zeta(6)
    assert root_to_cyc(6, 1, 3).embed(6) == CycInt.zeta(6)
    with pytest.raises(ValueError):
        root_to_cyc(4, 1, 3)


def test_unsupported_conductor_rejected():
    with pytest.raises(CapExceededError):
        CycInt.integer(1, 5)
    with pytest.raises(CapExceededError):
        CycInt.zeta(16)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_k_minus_1():
    for k in range(1, 61):
        prod = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                phi = cyclotomic_polynomial(d)
                assert len(phi) - 1 == euler_phi(d) and phi[-1] == 1
                prod = _poly_mul(prod, list(phi))
        assert prod == [-1] + [0] * (k - 1) + [1]


def test_cyclotomic_polynomials_match_the_hardcoded_conductors():
    from twisted_rings.cyclotomic import _PHI

    for m, phi in _PHI.items():
        assert cyclotomic_polynomial(m) == phi
    assert cyclotomic_polynomial(105)[7] == -2


@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 30]), max_size=5))
@settings(max_examples=60, deadline=None)
def test_cyclotomic_factors_recovers_the_factors(ks):
    poly = [1]
    for k in ks:
        poly = _poly_mul(poly, list(cyclotomic_polynomial(k)))
    expected = {}
    for k in ks:
        expected[k] = expected.get(k, 0) + 1
    assert cyclotomic_factors(poly) == expected
    # factors with roots off the unit circle
    assert cyclotomic_factors(_poly_mul(poly, [1, -3, 1])) is None
    assert cyclotomic_factors(_poly_mul(poly, [-2, 0, 1])) is None


def test_subtraction_of_an_int_and_across_conductors():
    # CycInt - int and CycInt - CycInt reach __sub__; int - CycInt does not
    i = CycInt.zeta(4)
    assert i - 1 == CycInt(4, (-1, 1))
    assert i - 1 == -(1 - i)
    assert i - i == CycInt.integer(0, 4)
    # zeta_3 - zeta_6 = zeta_3 - (1 + zeta_3) = -1, computed in Z[zeta_6]
    diff = CycInt.zeta(3) - CycInt.zeta(6)
    assert diff == CycInt.integer(-1, 6)
    assert diff.as_int() == -1
    # the pair is compared in Z[zeta_24] when the conductors share no field
    w = CycInt.zeta(8) - CycInt.zeta(3)
    assert w + CycInt.zeta(3) == CycInt.zeta(8)
    assert w.m == 24
