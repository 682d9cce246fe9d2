"""The case-study certificates on plain integers against the boxed routines
they replaced.

psi_multiplicative_on_basis compares twist exponents pair by pair, and
sanov_membership peels on four local ints.  The oracles below are the former
implementations: products of boxed basis elements and their psi-images, and
a peel by IntMat2 products.
"""

import random
from dataclasses import replace
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_rings.cocycles import Cocycle
from twisted_rings.d8_case import build_d8_psi, d8_extension, sign_character
from twisted_rings.extensions import (
    apply_psi,
    build_extension,
    build_psi,
    lin_characters,
    psi_multiplicative_on_basis,
)
from twisted_rings.gl2 import I2, MAT_V, MAT_W, IntMat2, SanovWord, sanov_membership
from twisted_rings.groups import cyclic, element_order
from twisted_rings.rings import TwRing

LETTERS = [("V", 1), ("V", -1), ("W", 1), ("W", -1)]

# ---------------------------------------------------------------------------
# oracles: the boxed routines


def oracle_psi_multiplicative(psi) -> bool:
    src = psi.source
    basis = [src.basis(x) for x in src.group.elements()]
    images = [apply_psi(psi, u) for u in basis]
    return all(
        apply_psi(psi, ux * uy) == vx * vy
        for ux, vx in zip(basis, images)
        for uy, vy in zip(basis, images)
    )


def _letter_matrix(base: str, e: int) -> IntMat2:
    m = MAT_V if base == "V" else MAT_W
    return m if e == 1 else m.inverse()


def oracle_sanov(mat: IntMat2, step_cap: int = 64):
    if mat.det() not in (1, -1):
        raise ValueError("matrix is not invertible over Z")
    candidates = [(b, e, _letter_matrix(b, -e)) for b, e in LETTERS]
    letters = []
    cur = mat
    for _ in range(step_cap):
        if cur == I2:
            return SanovWord(tuple(letters))
        size = max(map(abs, cur.entries()))
        for base, e, undo in candidates:
            nxt = cur * undo
            if max(map(abs, nxt.entries())) < size:
                letters.insert(0, (base, e))
                cur = nxt
                break
        else:
            return None
    return None


# ---------------------------------------------------------------------------
# psi: the D8 case study and C8 over C4


def _carry(group, m: int, k: int) -> Cocycle:
    """u_x^n = zeta_m^k on a cyclic group of order n generated by x: with
    log(x^a) = a, alpha(g, h) = zeta_m^k when log g + log h wraps."""
    n = group.order
    x = next(g for g in group.elements() if element_order(group, g) == n)
    log = {0: 0}
    power = 0
    for a in range(1, n):
        power = group.mul[power][x]
        log[power] = a
    return Cocycle(group, m, tuple(
        tuple(k if log[g] + log[h] >= n else 0 for h in group.elements()) for g in group.elements()
    ))


def _c8_maps():
    c8 = cyclic(8)
    out = []
    for kernel, chi_modulus in (({0, 4}, 2), ({0, 2, 4, 6}, 4)):
        ext = build_extension(c8, kernel)
        for chi in lin_characters(ext.sub_group, chi_modulus):
            for beta in (None, _carry(ext.quotient_group, 4, 1)):
                for conductor in (4, 8):
                    out.append(build_psi(ext, chi, beta=beta, conductor=conductor))
    return out


PSI_MAPS = [build_d8_psi(n) for n in range(3)] + _c8_maps()


def test_the_c8_maps_cover_both_conductors_and_a_twisted_source():
    pairs = {(p.source.conductor, p.target.conductor) for p in PSI_MAPS}
    assert {(4, 4), (8, 8)} <= pairs
    assert any(any(map(any, p.source.cocycle.table)) for p in PSI_MAPS)


@pytest.mark.parametrize("index", range(len(PSI_MAPS)))
def test_psi_check_matches_the_boxed_products(index):
    psi = PSI_MAPS[index]
    assert psi_multiplicative_on_basis(psi) == oracle_psi_multiplicative(psi)


def test_d8_sign_projection_is_multiplicative_and_a_sign_flip_is_not():
    for n in range(3):
        assert psi_multiplicative_on_basis(build_d8_psi(n))
    ext = d8_extension(1)
    # a sign flip on one basis image of a valid map breaks it
    psi = build_psi(ext, sign_character(ext))
    images = list(psi.gamma_images)
    images[3] = (images[3][0], 1 - images[3][1])
    bad = replace(psi, gamma_images=tuple(images))
    assert not psi_multiplicative_on_basis(bad) and not oracle_psi_multiplicative(bad)


def test_a_wrong_quotient_element_alone_is_refused():
    # trivial twists and character: every exponent is 0, so only the
    # quotient elements can disagree
    ext = build_extension(cyclic(8), {0, 4})
    psi = build_psi(ext, lin_characters(ext.sub_group, 2)[0], conductor=4)
    assert not any(map(any, psi.target.cocycle.table))
    images = list(psi.gamma_images)
    images[1] = (images[2][0], images[1][1])
    bad = replace(psi, gamma_images=tuple(images))
    assert not psi_multiplicative_on_basis(bad) and not oracle_psi_multiplicative(bad)


@st.composite
def corrupted_maps(draw):
    psi = draw(st.sampled_from(PSI_MAPS))
    tgt = psi.target
    m_t, q = tgt.cocycle.modulus, tgt.group.order
    images = list(psi.gamma_images)
    for _ in range(draw(st.integers(0, 2))):
        gamma = draw(st.integers(0, len(images) - 1))
        images[gamma] = (draw(st.integers(0, q - 1)), draw(st.integers(0, m_t - 1)))
    table = [list(row) for row in tgt.cocycle.table]
    if q > 1:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1))
            table[a][b] = draw(st.integers(0, m_t - 1))
    cocycle = Cocycle(tgt.group, m_t, tuple(map(tuple, table)))
    target = TwRing(tgt.group, cocycle, tgt.conductor)
    return replace(psi, gamma_images=tuple(images), target=target)


@given(corrupted_maps())
@settings(max_examples=150, deadline=None)
def test_psi_check_matches_the_boxed_products_on_corrupted_maps(psi):
    assert psi_multiplicative_on_basis(psi) == oracle_psi_multiplicative(psi)


def test_corruption_reaches_both_verdicts():
    rng = random.Random(7)
    verdicts = set()
    for psi in PSI_MAPS[:1] + PSI_MAPS[3:]:
        images = list(psi.gamma_images)
        gamma = rng.randrange(1, len(images))
        images[gamma] = (images[gamma][0], rng.randrange(psi.target.cocycle.modulus))
        bad = replace(psi, gamma_images=tuple(images))
        verdict = psi_multiplicative_on_basis(bad)
        assert verdict == oracle_psi_multiplicative(bad)
        verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Sanov peeling


@st.composite
def reduced_words(draw, max_length: int = 12):
    letters = []
    for _ in range(draw(st.integers(0, max_length))):
        choices = [l for l in LETTERS if not letters or l != (letters[-1][0], -letters[-1][1])]
        letters.append(draw(st.sampled_from(choices)))
    return SanovWord(tuple(letters))


@given(reduced_words())
@settings(max_examples=300, deadline=None)
def test_evaluate_is_the_product_of_the_letter_matrices(word):
    assert word.evaluate() == reduce(mul, (_letter_matrix(b, e) for b, e in word.letters), I2)


@given(reduced_words(), st.sampled_from([64, 5, 1]))
@settings(max_examples=300, deadline=None)
def test_peeling_matches_the_matrix_product_peel_on_words(word, step_cap):
    mat = word.evaluate()
    found = sanov_membership(mat, step_cap)
    assert found == oracle_sanov(mat, step_cap)
    if step_cap > len(word):
        assert found == word


def _random_unimodular(rng: random.Random) -> IntMat2:
    """A product of elementary matrices, times diag(1, +-1) and +-I."""
    mat = IntMat2(rng.choice([1, -1]), 0, 0, rng.choice([1, -1]))
    for _ in range(rng.randrange(8)):
        k = rng.randrange(-3, 4)
        step = IntMat2(1, k, 0, 1) if rng.randrange(2) else IntMat2(1, 0, k, 1)
        mat = mat * step
    return mat


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_peeling_matches_the_matrix_product_peel_on_unimodular_matrices(seed):
    mat = _random_unimodular(random.Random(seed))
    assert sanov_membership(mat) == oracle_sanov(mat)


def test_unimodular_sample_reaches_both_outcomes():
    rng = random.Random(3)
    found = missing = 0
    for _ in range(400):
        mat = _random_unimodular(rng)
        word = sanov_membership(mat)
        assert word == oracle_sanov(mat)
        if word is None:
            missing += 1
        else:
            assert word.evaluate() == mat
            found += 1
    assert found > 20 and missing > 20


def test_non_unimodular_matrices_are_refused_by_both():
    for mat in (IntMat2(2, 0, 0, 1), IntMat2(1, 1, 1, 1)):
        with pytest.raises(ValueError):
            sanov_membership(mat)
        with pytest.raises(ValueError):
            oracle_sanov(mat)
