"""One rule, ``groups.group_ring_units_finite`` on the basis group, decides
every unit-group finiteness question.  The verdicts, labels and kernel
clauses must be those of the three routes it replaced (tests/oracles.py),
on a seeded sweep of trivial, builtin and random coboundary twists over
groups of order up to 16 at every supported conductor, which reaches every
label."""

import itertools
import random

import oracles
from twisted_rings.cocycles import (
    Cocycle,
    anticommuting_pair_cocycle,
    c2c2_matrix_cocycle,
    c2c2_quaternion_cocycle,
    coboundary_twist,
    inflate,
    trivial_cocycle,
)
from twisted_rings.cyclotomic import SUPPORTED_CONDUCTORS
from twisted_rings.extensions import (
    build_extension,
    build_psi,
    kernel_finiteness_predicate,
    lin_characters,
)
from twisted_rings.groups import (
    GroupHom,
    all_subgroups,
    build_preset,
    cyclic,
    dihedral8,
    dihedral8_times_c2n,
    direct_product,
    elementary_abelian_2,
    quaternion8,
)
from twisted_rings.rings import TwRing
from twisted_rings.units import decide_finiteness

GROUPS = (
    [cyclic(n) for n in range(1, 17)]
    + [elementary_abelian_2(k) for k in range(1, 5)]
    + [build_preset("direct_product", p) for p in ([4, 2], [6, 2], [4, 4], [3, 3], [2, 2, 2, 2])]
    + [dihedral8(), quaternion8(), dihedral8_times_c2n(1)]
    + [direct_product(quaternion8(), cyclic(2))]
)
MODULI = (2, 3, 4, 6)
LABELS = {
    "trivial-cocycle-higman",
    "abelian-exp3",
    "abelian-exp4",
    "abelian-exp6",
    "hamiltonian-2group",
    "infinite",
}


def _coboundary(rng: random.Random, c: Cocycle) -> Cocycle:
    return coboundary_twist(c, [0] + [rng.randrange(c.modulus) for _ in range(c.group.order - 1)])


def _builtins() -> list[Cocycle]:
    big = elementary_abelian_2(3)
    onto_c2c2 = GroupHom(big, elementary_abelian_2(2), tuple(x & 3 for x in big.elements()))
    c2 = cyclic(2)
    return [
        c2c2_quaternion_cocycle(),
        c2c2_matrix_cocycle(),
        inflate(c2c2_quaternion_cocycle(), onto_c2c2),
        Cocycle(c2, 2, ((0, 0), (0, 1))),
    ] + [anticommuting_pair_cocycle(n) for n in range(3)]


def _twists(rng: random.Random) -> list[Cocycle]:
    out = []
    for g in GROUPS:
        out.append(trivial_cocycle(g, 1))
        for m in MODULI:
            out += [_coboundary(rng, trivial_cocycle(g, m)) for _ in range(2)]
    for c in _builtins():
        out.append(c)
        for m in (2, 4):
            out.append(_coboundary(rng, c.rescaled(m)))
    return out


def test_decide_finiteness_agrees_with_the_branch_per_twist_kind():
    rng = random.Random(3)
    seen = set()
    rings = 0
    for c in _twists(rng):
        for conductor in SUPPORTED_CONDUCTORS:
            if conductor % c.modulus:
                continue
            ring = TwRing(c.group, c, conductor)
            got = decide_finiteness(ring, witness_search=False)
            want = oracles.decide_finiteness(ring, witness_search=False)
            assert (got.finite, got.case, got.witness) == (
                want.finite,
                want.case,
                want.witness,
            ), (c, conductor)
            seen.add(got.case)
            rings += 1
    assert seen == LABELS
    assert rings > 1000


def test_an_infinite_verdict_keeps_its_witness_search():
    for c in (anticommuting_pair_cocycle(0), trivial_cocycle(dihedral8(), 1)):
        ring = TwRing(c.group, c, 2)
        assert decide_finiteness(ring).witness == oracles.decide_finiteness(ring).witness


def test_kernel_clauses_and_target_verdict_agree_with_the_ring_routes():
    rng = random.Random(5)
    gammas = [cyclic(n) for n in (2, 3, 4, 6, 8, 9, 10, 12)] + [
        elementary_abelian_2(3),
        build_preset("direct_product", [4, 2]),
        build_preset("direct_product", [6, 2]),
        dihedral8(),
        quaternion8(),
        dihedral8_times_c2n(1),
    ]
    clauses = set()
    maps = 0
    for gamma in gammas:
        center = oracles.center(gamma)
        for sub in (s for s in all_subgroups(gamma) if s <= center):
            ext = build_extension(gamma, sub)
            g = ext.quotient_group
            betas = [None] + [_coboundary(rng, trivial_cocycle(g, m)) for m in (2, 3)]
            chars = [chi for m in (2, 3, 4) for chi in lin_characters(ext.sub_group, m)]
            for chi, beta, conductor in itertools.product(chars, betas, (None, 4, 3, 8)):
                psi = build_psi(ext, chi, beta, conductor)
                got = kernel_finiteness_predicate(psi)
                assert got == oracles.kernel_finiteness_predicate(psi), (gamma, sub, chi)
                want = oracles.target_group_ring_units_finite(psi)
                assert psi.target_group_ring_units_finite is want
                clauses.update(got.clauses)
                maps += 1
    assert clauses == {"unit-group-finite", "prime-kernel", "abelian-small-exponent"}
    assert maps > 500


def test_a_source_basis_group_past_the_order_cap_is_not_built_when_gamma_decides():
    # beta on C32 takes values of order 8, so the source's basis group would
    # have order 8 * 64 = 512; over Z[zeta_8] the rule already fails on Gamma
    ext = build_extension(cyclic(64), {0, 32})
    q = ext.quotient_group
    beta = coboundary_twist(trivial_cocycle(q, 8), [0] + [1] * (q.order - 1))
    psi = build_psi(ext, lin_characters(ext.sub_group, 2)[1], beta)
    assert psi.source.conductor == 8
    assert kernel_finiteness_predicate(psi) == oracles.kernel_finiteness_predicate(psi)
