"""Each construction is derived from its definition and gives what its
earlier written-out form gave: Q8 from the quaternion relations, the
cyclotomic polynomials of the supported conductors and the reduction
modulo them from one polynomial division, and the section of D8 x C2^n
from mu.  The facts a construction already proves are checked here once
more: a generalized bicyclic increment squares to zero, and 2 - u inverts
the unipotent units the tower draws."""

import hashlib
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from twisted_rings import cyclotomic, d8_case
from twisted_rings.cli import EXIT_OK, run
from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.errors import CAPS, Caps
from twisted_rings.groups import cyclic, dihedral8, element_order, quaternion8
from twisted_rings.rings import (
    TwRing,
    anticommuting_ring,
    basis_power_exponent,
    conj_character,
    is_unit,
)
from twisted_rings.tower import build_tower
from twisted_rings.units import generalized_bicyclic, idempotent_from_cyclic_sum, minimal_twisted_bicyclic

# ---------------------------------------------------------------------------
# Q8


def test_q8_from_the_relations_is_the_written_table():
    new, old = quaternion8(), oracles.quaternion8_from_names()
    assert new.mul == old.mul
    assert new.inv == old.inv
    assert new.labels == old.labels
    assert new.generators == old.generators
    assert (new.order, new.name) == (old.order, old.name)


# the extension of C2 x C2 by the centre of Q8 reads the table through the
# quotient and the section; the digest was taken from the written table
Q8_EXT_BUILD = "1a656d7213814311d74a59ad35618b769685c3b42a83e3e4ce1b4a6e53792113"


def test_q8_extension_report_bytes_are_pinned(capsys):
    code = run(["--json", "ext", "build", '{"preset":"quaternion8"}', "--normal", "0", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == Q8_EXT_BUILD


# ---------------------------------------------------------------------------
# Phi_m and polynomial division


def test_phi_of_each_supported_conductor_is_the_written_table():
    assert cyclotomic._PHI == oracles._PHI
    assert tuple(cyclotomic._PHI) == cyclotomic.SUPPORTED_CONDUCTORS
    assert cyclotomic.PHI_DEGREE == {m: len(p) - 1 for m, p in oracles._PHI.items()}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(cyclotomic.SUPPORTED_CONDUCTORS),
    st.lists(st.integers(-50, 50), max_size=40),
)
@example(m=24, coeffs=[3])
@example(m=8, coeffs=[])
def test_reduction_agrees_with_the_written_table(m, coeffs):
    assert cyclotomic._reduce(coeffs, m) == oracles.reduce_by_table(coeffs, m)


@lru_cache(maxsize=None)
def _phi_by_exact_quotient(k: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            poly = oracles.exact_quotient(poly, _phi_by_exact_quotient(d))
    return tuple(poly)


@pytest.mark.parametrize("k", range(1, 61))
def test_phi_k_agrees_with_exact_quotients(k):
    assert cyclotomic.cyclotomic_polynomial(k) == _phi_by_exact_quotient(k)


def _factors_by_exact_quotient(poly):
    """The Kronecker split of a monic polynomial by exact quotients."""
    degree = len(poly) - 1
    rest = list(poly)
    found = {}
    for k in range(1, 2 * degree * degree + 1):
        if cyclotomic.euler_phi(k) > degree or len(rest) == 1:
            continue
        phi = _phi_by_exact_quotient(k)
        while len(phi) <= len(rest) and (q := oracles.exact_quotient(rest, phi)) is not None:
            rest = q
            found[k] = found.get(k, 0) + 1
    return found if len(rest) == 1 else None


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 30), max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
)
def test_kronecker_split_agrees_with_exact_quotients(ks, extra):
    poly = extra + [1]
    for k in ks:
        poly = _times(poly, _phi_by_exact_quotient(k))
    assert cyclotomic.cyclotomic_factors(poly) == _factors_by_exact_quotient(poly)


# ---------------------------------------------------------------------------
# the section of D8 x C2^n


@pytest.mark.parametrize("n", range(6))
def test_d8_extension_from_mu_is_the_bit_built_one(n):
    token = CAPS.set(Caps(case_level=5))
    try:
        new, old = d8_case.d8_extension(n), oracles.d8_extension_by_bits(n)
    finally:
        CAPS.reset(token)
    assert new.section == old.section
    assert new.proj == old.proj
    assert new.sub_ids == old.sub_ids
    assert new.alpha_sub == old.alpha_sub
    assert new.sigma == old.sigma
    assert new == old


# ---------------------------------------------------------------------------
# facts a construction proves


def _idempotent_rings():
    yield anticommuting_ring(0)
    yield anticommuting_ring(1)
    yield anticommuting_ring(0, conductor=4)
    yield oracles.quaternion_twist_ring()
    yield oracles.quaternion_twist_ring(conductor=4)
    for group in (quaternion8(), dihedral8(), cyclic(6)):
        yield TwRing(group, trivial_cocycle(group, 1), 2)


_RINGS = list(_idempotent_rings())


@st.composite
def _idempotent_and_element(draw):
    ring = draw(st.sampled_from(_RINGS))
    g = draw(st.sampled_from([g for g in ring.group.elements() if basis_power_exponent(ring, g) == 0]))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=ring.group.order, max_size=ring.group.order))
    return idempotent_from_cyclic_sum(ring, g), ring.element(dict(enumerate(coeffs)))


@settings(max_examples=150, deadline=None)
@given(_idempotent_and_element())
def test_generalized_bicyclic_increments_square_to_zero(drawn):
    f, x = drawn
    ring = x.ring
    num, den = f.numerator, f.denominator
    assert num * (den * ring.one() - num) == ring.zero()
    for unit in generalized_bicyclic(f, x):
        inc = unit - ring.one()
        assert inc * inc == ring.zero()


def _tower_rings():
    for conductor in (2, 4):
        for level, ring in enumerate(build_tower(anticommuting_ring(0, conductor), 2).rings):
            yield pytest.param(ring, id=f"conductor {conductor} level {level}")


def _unipotents(ring: TwRing):
    """Every unit the tower's sampler can draw as 1 + z u_h s_g."""
    for g in range(1, ring.group.order):
        if basis_power_exponent(ring, g) == 0 and element_order(ring.group, g) % 2 == 0:
            for h in conj_character(ring, g).c_minus:
                yield minimal_twisted_bicyclic(ring, g, h)


@pytest.mark.parametrize("ring", list(_tower_rings()))
def test_two_minus_u_inverts_every_tower_unipotent(ring):
    for u in _unipotents(ring):
        assert 2 - u == is_unit(u)


# a tower split report prints a product of the units the sampler drew,
# some of them inverted; the digests were taken while each inverse came
# from is_unit
TOWER_SPLIT = {
    1: "07d73cb1ed4f82787ecb566053795d81c8e7da79cb2bcaefdbe9be4e788b6559",
    2: "2ace4faa03d600265f20f87ec91b6f857a67361ed58ff7749223f5fba41e50ae",
    3: "55a890c901dff112f5257f8eae6086bfe0fd1a7ba0141794a8f4beb825fc0f06",
    7: "96b75474accaa6c358166fb4879f340efb857266db42e279e03e80c28dcf925a",
}


@pytest.mark.parametrize("seed", sorted(TOWER_SPLIT))
def test_tower_split_report_bytes_are_pinned(capsys, seed):
    code = run(["--json", "tower", "split", "--n", "2", "--level", "2", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TOWER_SPLIT[seed]
