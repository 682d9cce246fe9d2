"""The lift half of the components certificate by character orthogonality
against the routine it replaces, and the twist-exponent walk against its
oracle copy; equal sibling targets shared; the case study at n = 6 pinned.

``rings._lifts_back`` must give the verdict of ``oracles.lift_by_basis``,
which maps every basis vector through every component and lifts it back,
and ``extensions.twist_exponents_multiplicative`` the verdict of
``oracles.twist_exponents_by_pairs``, the fixed copy of the same pair walk,
on the components of every ring the certificate shortcuts are tested on and
on corrupted copies of them.
"""

import hashlib
import json
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import pytest

from oracles import lift_by_basis, twist_exponents_by_pairs
from test_certificate_shortcuts import _flip_exponent, _flip_twist, _rings, _with
from test_components import RINGS, ring_named
from twisted_rings import extensions
from twisted_rings.cocycles import Cocycle
from twisted_rings.d8_case import build_d8_psi, d8_case_study
from twisted_rings.errors import CAPS, Caps
from twisted_rings.extensions import twist_exponents_multiplicative
from twisted_rings.rings import TwRing, _lifts_back, anticommuting_ring


@lru_cache(maxsize=None)
def _split_rings() -> tuple:
    return tuple((name, ring) for name, ring in _rings() if ring.components)


def _oracle_lifts_back(ring, psis) -> bool:
    try:
        lift_by_basis(ring, psis)
    except ArithmeticError:
        return False
    return True


def _verdicts(ring, psis) -> tuple[bool, bool]:
    return _lifts_back(ring, psis), _oracle_lifts_back(ring, psis)


def test_the_orthogonality_check_agrees_with_the_basis_lift_on_every_ring():
    names = []
    for name, ring in _split_rings():
        assert _verdicts(ring, ring.components) == (True, True), name
        names.append(name)
    assert len(names) >= 250
    assert {"d8 source n=3", "anticommuting n=4"} <= set(names)


@pytest.mark.parametrize("name", [n for n in sorted(RINGS) if RINGS[n][1] > 1])
def test_the_orthogonality_check_agrees_with_the_basis_lift_across_conductors(name):
    # Z[zeta_3][C2] lifts components of conductor 6 back through Z[zeta_3]
    ring = ring_named(name)
    assert _verdicts(ring, ring.components) == (True, True)
    # one component given twice breaks only the orthogonality of the characters
    psis = ring.components
    assert _verdicts(ring, psis[:-1] + psis[:1]) == (False, False)
    # a lift that converts every power of zeta_(c_t) with the wrong sign
    bad = replace(psis[-1])
    section, powers, signs = psis[-1].lift_terms
    bad.__dict__["lift_terms"] = (section, tuple(tuple(-v for v in p) for p in powers), signs)
    assert _verdicts(ring, psis[:-1] + (bad,)) == (False, False)


def _d8_sources():
    return [build_d8_psi(1).source, build_d8_psi(2).source]


@pytest.mark.parametrize("ring", _d8_sources(), ids=["d8 source n=1", "d8 source n=2"])
def test_every_single_exponent_flip_fails_both_lift_checks(ring):
    psis = ring.components
    flips = 0
    for i, psi in enumerate(psis):
        for gamma in range(ring.group.order):
            bad = _with(psis, i, _flip_exponent(psi, gamma))
            assert _verdicts(ring, bad) == (False, False), (i, gamma)
            flips += 1
    assert flips == len(psis) * ring.group.order


def _with_ext(psi, **fields):
    return replace(psi, ext=replace(psi.ext, **fields))


def _swapped(section, a, b):
    out = list(section)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


@pytest.mark.parametrize("ring", _d8_sources(), ids=["d8 source n=1", "d8 source n=2"])
def test_a_swapped_section_entry_fails_both_lift_checks(ring):
    psis = ring.components
    section = _swapped(psis[0].ext.section, 1, 2)
    every = tuple(_with_ext(psi, section=section) for psi in psis)
    assert _verdicts(ring, every) == (False, False)
    for i in (0, len(psis) - 1):
        one = _with(psis, i, _with_ext(psis[i], section=section))
        assert _verdicts(ring, one) == (False, False), i


@pytest.mark.parametrize("ring", _d8_sources(), ids=["d8 source n=1", "d8 source n=2"])
def test_a_duplicated_kernel_element_fails_both_lift_checks(ring):
    psis = ring.components
    embed = psis[0].ext.sub_embed
    doubled = embed[:-1] + embed[-2:-1]
    every = tuple(_with_ext(psi, sub_embed=doubled) for psi in psis)
    assert _verdicts(ring, every) == (False, False)
    for i in (0, len(psis) - 1):
        one = _with(psis, i, _with_ext(psis[i], sub_embed=doubled))
        assert _verdicts(ring, one) == (False, False), i


def test_the_twist_walk_agrees_with_its_oracle_copy_on_every_component():
    walked = 0
    for name, ring in _split_rings():
        for psi in ring.components:
            assert twist_exponents_multiplicative(psi) == twist_exponents_by_pairs(psi), name
            walked += 1
    assert walked > 1000


def _raised_exponent(psi, gamma):
    # the same exponent, unreduced: both walks read it modulo c_t
    images = list(psi.gamma_images)
    g, e = images[gamma]
    images[gamma] = (g, e + psi.target.cocycle.modulus)
    return replace(psi, gamma_images=tuple(images))


def _flip_source_twist(psi, x, y):
    src = psi.source
    m = src.cocycle.modulus
    table = [list(row) for row in src.cocycle.table]
    table[x][y] = (table[x][y] + 1) % m
    cocycle = Cocycle(src.group, m, tuple(map(tuple, table)))
    return replace(psi, source=TwRing(src.group, cocycle, src.conductor))


@pytest.mark.parametrize(
    "ring",
    _d8_sources() + [anticommuting_ring(1), anticommuting_ring(2)],
    ids=["d8 source n=1", "d8 source n=2", "anticommuting n=1", "anticommuting n=2"],
)
def test_the_twist_walk_agrees_with_its_oracle_copy_on_corrupted_maps(ring):
    refuted = kept = 0
    for psi in ring.components:
        tgt = psi.target
        bad = [_flip_exponent(psi, gamma) for gamma in range(ring.group.order)]
        bad += [_raised_exponent(psi, gamma) for gamma in range(ring.group.order)]
        # a twist stays normalized: alpha(1, g) = alpha(g, 1) = 1
        nonidentity = range(1, tgt.group.order)
        bad += [_flip_twist(psi, g, h) for g in nonidentity for h in nonidentity]
        # s(x, y) is read in row x only: the first and the last row, where
        # the source twist has values to flip (not in a group ring)
        last = ring.group.order - 1
        if ring.cocycle.modulus > 1:
            bad += [_flip_source_twist(psi, x, y) for x in (1, last) for y in range(1, last + 1)]
        for mutant in bad:
            verdict = twist_exponents_multiplicative(mutant)
            assert verdict == twist_exponents_by_pairs(mutant)
            refuted += not verdict
            kept += verdict
    assert refuted and kept


# ---------------------------------------------------------------------------
# corrupted maps through components, and shared sibling targets


def _patched_build_psi(monkeypatch, corrupt):
    build_psi = extensions.build_psi

    def corrupted(ext, chi, *args, **kwargs):
        psi = build_psi(ext, chi, *args, **kwargs)
        return corrupt(psi) if any(chi.values) else psi

    monkeypatch.setattr(extensions, "build_psi", corrupted)


def test_components_refuse_a_map_with_a_swapped_section_entry(monkeypatch):
    ring = build_d8_psi(1).source
    _patched_build_psi(monkeypatch, lambda psi: _with_ext(psi, section=_swapped(psi.ext.section, 1, 2)))
    with pytest.raises(ArithmeticError, match="do not lift back"):
        ring.components


def test_components_refuse_a_map_with_a_flipped_target_exponent(monkeypatch):
    ring = build_d8_psi(1).source
    _patched_build_psi(monkeypatch, lambda psi: _flip_twist(psi, 1, 1))
    with pytest.raises(ArithmeticError, match="is not multiplicative"):
        ring.components


def test_equal_sibling_targets_are_one_ring():
    psis = build_d8_psi(2).source.components
    pairs = list(combinations(psis, 2))
    assert all((a.target is b.target) == (a.target == b.target) for a, b in pairs)
    # four Z[C2 x C2] targets, where chi(a^2) = 1, and four of the model twist
    assert len({id(psi.target) for psi in psis}) == 2
    # the scans key their verdicts by leaf position, one leaf per map
    assert len(psis) == 8


# ---------------------------------------------------------------------------
# the case study at n = 6, which the CLI refuses at the group-order cap

# the items serialized as Report.to_json serializes them, taken before the
# certificate read character orthogonality
D8_N6 = "f44bb331407937bc6ab2c439b3418e1a91e456aeaa9026c6113bea5a97093fb5"


def test_the_case_study_at_n_6_is_pinned_under_a_raised_context_cap():
    token = CAPS.set(Caps(group_order=512, case_level=6))
    try:
        study = d8_case_study(6)
    finally:
        CAPS.reset(token)
    items = [item.to_json() for item in sorted(study.items, key=lambda item: item.name)]
    text = json.dumps(items, sort_keys=True, indent=2, default=str)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == D8_N6
    assert study.ok
