"""The twist-exponent walk on components above conductor 8, against boxed
products.

The other walk tests reach target conductors 1, 2, 4 and 8.  Here every
component of five rings with coefficients in Z[zeta_3], Z[zeta_12] and
Z[zeta_24] is checked, together with every copy that changes one exponent or
one target-twist entry: psi_multiplicative_on_basis must agree with
apply_psi(u_x u_y) == apply_psi(u_x) apply_psi(u_y) on every basis pair, and
twist_exponents_failure must find a failure exactly when one of the maps has
one.  Z[C2 x C4] at conductor 6 and Z[zeta_24][C4] have components whose
targets carry a transgressed twist, at c_t = 6 and c_t = 24.
"""

import hashlib
from dataclasses import replace
from functools import lru_cache

import pytest

from test_certificate_shortcuts import _with
from test_integer_certificates import oracle_psi_multiplicative
from twisted_rings import extensions
from twisted_rings.cli import EXIT_OK, run
from twisted_rings.cocycles import Cocycle, trivial_cocycle
from twisted_rings.extensions import psi_multiplicative_on_basis, twist_exponents_failure
from twisted_rings.groups import cyclic, direct_product, elementary_abelian_2
from twisted_rings.rings import TwRing

C2, C2C2, C4 = elementary_abelian_2(1), elementary_abelian_2(2), cyclic(4)

# name -> (group, conductor, the conductors of its components' targets)
RINGS = {
    "Z[zeta_3][C2]": (C2, 3, {6}),
    "Z[C2 x C4] c=6": (direct_product(cyclic(2), C4), 6, {6}),
    "Z[zeta_12][C2]": (C2, 12, {12}),
    "Z[zeta_24][C2 x C2]": (C2C2, 24, {24}),
    "Z[zeta_24][C4]": (C4, 24, {24}),
}


@lru_cache(maxsize=None)
def _components(name: str) -> tuple:
    group, conductor, _ = RINGS[name]
    return TwRing(group, trivial_cocycle(group, 1), conductor).components


def _exponent_mutants(psi):
    """Every copy of psi with one exponent e(gamma) changed."""
    m_t = psi.target.cocycle.modulus
    for gamma, (g, e) in enumerate(psi.gamma_images):
        for other in range(m_t):
            if other != e:
                images = list(psi.gamma_images)
                images[gamma] = (g, other)
                yield replace(psi, gamma_images=tuple(images))


def _twist_mutants(psi):
    """Every copy of psi with one target-twist entry t(g, h) changed, g, h != 1,
    so that the twist stays normalized."""
    tgt = psi.target
    m_t, order = tgt.cocycle.modulus, tgt.group.order
    for g in range(1, order):
        for h in range(1, order):
            for other in range(m_t):
                if other != tgt.cocycle.table[g][h]:
                    table = [list(row) for row in tgt.cocycle.table]
                    table[g][h] = other
                    cocycle = Cocycle(tgt.group, m_t, tuple(map(tuple, table)))
                    yield replace(psi, target=TwRing(tgt.group, cocycle, tgt.conductor))


def _failure_verdict_holds(psis) -> bool:
    failure = twist_exponents_failure(psis)
    if failure is None:
        return all(map(oracle_psi_multiplicative, psis))
    return not oracle_psi_multiplicative(failure)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_every_component_walks_as_its_boxed_products_multiply(name):
    psis = _components(name)
    assert {psi.target.conductor for psi in psis} == RINGS[name][2]
    for psi in psis:
        assert psi_multiplicative_on_basis(psi) and oracle_psi_multiplicative(psi)
    assert twist_exponents_failure(psis) is None


def test_two_rings_have_a_twisted_target_at_conductors_6_and_24():
    for name, conductor in (("Z[C2 x C4] c=6", 6), ("Z[zeta_24][C4]", 24)):
        twisted = [psi for psi in _components(name) if any(map(any, psi.target.cocycle.table))]
        assert twisted and {psi.target.conductor for psi in twisted} == {conductor}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_every_single_exponent_and_twist_entry_mutant_walks_as_its_boxed_products(name):
    psis = _components(name)
    refuted = kept = 0
    for i, psi in enumerate(psis):
        for mutant in [*_exponent_mutants(psi), *_twist_mutants(psi)]:
            verdict = psi_multiplicative_on_basis(mutant)
            assert verdict == oracle_psi_multiplicative(mutant), (i, mutant.gamma_images)
            assert _failure_verdict_holds(_with(psis, i, mutant)), (i, mutant.gamma_images)
            refuted += not verdict
            kept += verdict
    assert refuted
    # over C2 = N a flipped exponent is the other character's map, which
    # multiplies; on larger groups every single change is refused
    assert bool(kept) == (len(psis[0].gamma_images) == 2)


# `ring unit` on Z[zeta_24][C2 x C2], whose four components sit at c_t = 24,
# with the ring and the element spelled as the hash-seed CI step spells them.
# The digest was taken while the walk still read a row at once, on bytes.
C24_RING = (
    '{"cocycle":{"builtin":"trivial","group":{"preset":"elementary_abelian_2","params":[2]}},'
    '"conductor":24}'
)
# the bicyclic unit 1 + u_h - u_gh of the anticommuting ring, here not a unit
BICYCLIC = '{"coeffs":[{"g":0,"m":2,"c":[1]},{"g":2,"m":2,"c":[1]},{"g":3,"m":2,"c":[-1]}]}'
C24_UNIT = "e5de34ff58ec619d778d5b703a6f80c3217a2e5dd71c08d6ae5db227f2f232bc"


def test_ring_unit_at_conductor_24_keeps_its_bytes(capsys, monkeypatch):
    walk = extensions.twist_exponents_multiplicative
    walked = []
    monkeypatch.setattr(
        extensions, "twist_exponents_multiplicative", lambda psi: walked.append(psi) or walk(psi)
    )
    code = run(["--json", "ring", "unit", C24_RING, "--x", BICYCLIC])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == C24_UNIT
    # the trivial character and the two generators of N = C2 x C2
    assert len(walked) == 3 and {psi.target.conductor for psi in walked} == {24}
