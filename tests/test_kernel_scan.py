"""The fibre-wise kernel torsion scan checked against the search it replaced.

``kernel_torsion_scan_brute`` visits every (support, coefficient) pair up to
the support cap, keeps those whose psi-image is 1 and tests each for a
torsion unit.  It is kept here unchanged as the oracle; the scan must return
the same list, element for element and in the same order.
"""

import itertools
from typing import Sequence

import pytest

from twisted_rings.d8_case import build_d8_psi
from twisted_rings.extensions import (
    PsiMap,
    apply_psi,
    build_extension,
    build_psi,
    kernel_torsion_scan,
    lin_characters,
)
from twisted_rings.groups import cyclic, direct_product
from twisted_rings.rings import TwElement


def kernel_torsion_scan_brute(
    psi: PsiMap,
    coeff_values: Sequence[int] = (-1, 1),
    support_cap: int = 4,
) -> list[TwElement]:
    """Oracle: all torsion units in ker(psi) with small support and coefficients.

    Enumerates every element with support <= support_cap and nonzero integer
    coefficients from coeff_values, keeps those mapping to 1, and returns the
    ones that are torsion units.
    """
    from twisted_rings.rings import unit_order

    src = psi.source
    n = src.group.order
    found = []
    images = psi.gamma_images
    m_t = psi.target.cocycle.modulus
    rational = m_t in (1, 2)
    one = psi.target.one()
    one_img = {0: 1}
    for size in range(1, support_cap + 1):
        for support in itertools.combinations(range(n), size):
            for coeffs in itertools.product(coeff_values, repeat=size):
                if rational:
                    # fast integer pre-filter on the image vector
                    acc: dict[int, int] = {}
                    for gamma, c in zip(support, coeffs):
                        gq, exp = images[gamma]
                        v = acc.get(gq, 0) + (-c if exp else c)
                        if v:
                            acc[gq] = v
                        elif gq in acc:
                            del acc[gq]
                    if acc != one_img:
                        continue
                elem = src.element(dict(zip(support, coeffs)))
                if apply_psi(psi, elem) != one:
                    continue
                unit, order = unit_order(elem)
                if unit and order is not None:
                    found.append(elem)
    return found


def _same_list(psi: PsiMap, coeff_values: Sequence[int], cap: int) -> list[TwElement]:
    fast = kernel_torsion_scan(psi, coeff_values, cap)
    brute = kernel_torsion_scan_brute(psi, coeff_values, cap)
    assert fast == brute  # element for element, in the same order
    return fast


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_scan_matches_brute_force_on_the_d8_family(n, cap):
    psi = build_d8_psi(n)
    found = _same_list(psi, (-1, 1), cap)
    src = psi.source
    assert set(found) == {src.one(), -src.basis(2 << n)}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("coeff_values", [(-1, 1), (-1, 0, 1), (1,), (-2, -1, 1, 2)])
def test_scan_matches_brute_force_on_other_coefficients(n, coeff_values):
    psi = build_d8_psi(n)
    for cap in range(1, 4 if n else 5):
        _same_list(psi, coeff_values, cap)


def test_zero_coefficients_repeat_an_element_once_per_support():
    psi = build_d8_psi(0)
    found = _same_list(psi, (-1, 0, 1), 2)
    one = psi.source.one()
    # 1 alone, then 1 + 0*u_g for each of the 7 other g
    assert found.count(one) == 8
    assert len(set(found)) == 2


def _quartic_psi(conductor=None) -> PsiMap:
    """C8 over its C4 subgroup with a faithful character: the target twist
    u^2 = i has modulus 4, so fibre sums lie in Z[i]."""
    ext = build_extension(cyclic(8), {0, 2, 4, 6})
    chi = next(c for c in lin_characters(ext.sub_group, 4) if c.value_order() == 4)
    return build_psi(ext, chi, conductor=conductor)


@pytest.mark.parametrize("conductor", [None, 8])
def test_scan_matches_brute_force_over_gaussian_integers(conductor):
    psi = _quartic_psi(conductor)
    assert psi.target.cocycle.modulus == 4
    assert psi.target.conductor == (conductor or 4)
    for coeff_values in ((-1, 1), (-1, 0, 1)) if conductor is None else ((-1, 1),):
        for cap in (1, 2, 3):
            found = _same_list(psi, coeff_values, cap)
            assert psi.source.one() in found


def test_scan_matches_brute_force_with_a_trivial_character():
    gamma = direct_product(cyclic(4), cyclic(2))
    ext = build_extension(gamma, {0, 1})
    chi = lin_characters(ext.sub_group, 1)[0]
    psi = build_psi(ext, chi)
    assert psi.target.cocycle.modulus == 1
    for cap in (1, 2, 3):
        _same_list(psi, (-1, 1), cap)


def test_scan_with_no_support_finds_nothing():
    assert kernel_torsion_scan(build_d8_psi(0), support_cap=0) == []
