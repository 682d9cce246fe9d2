"""The two shortcuts of the D8 x C2^n cokernel certificate, against the walks
they replace.

The cokernel classes r_c = 1 + sum c_i d_i are the image of a homomorphism
once d_i d_j = 0, so a pairwise ratio r_s r_t^-1 = r_(s - t) carries the
certificate of the class s xor t.  The twist exponents of a ring's
components are walked on every basis pair only for the trivial character and
a generating set; every other character's exponents and target twist must
be the sums of its factors'.
"""

import hashlib
import json
from dataclasses import replace
from itertools import combinations

import pytest

from twisted_rings import d8_case, extensions
from twisted_rings.cli import EXIT_CAP, EXIT_OK, _caps, build_parser, run
from twisted_rings.cocycles import Cocycle, trivial_cocycle
from twisted_rings.d8_case import _class_increments, build_d8_psi, d8_case_study
from twisted_rings.errors import CapExceededError, Caps
from twisted_rings.extensions import twist_exponents_failure, twist_exponents_multiplicative
from twisted_rings.groups import elementary_abelian_2, group_from_json
from twisted_rings.rings import TwRing, _certify_components, anticommuting_ring, is_unit
from twisted_rings.units import parity_obstruction

from test_checked_once import _preset_specs

COKERNEL = "cokernel classes from small unipotents"


def _item(study, name):
    return next(item for item in study.items if item.name == name)


def _class_rep(tgt, increments, bits):
    return sum((d for i, d in enumerate(increments) if bits >> i & 1), tgt.one())


@pytest.mark.parametrize("n", [0, 1, 2])
def test_every_pairwise_ratio_has_the_certificate_of_the_class_s_xor_t(n):
    psi = build_d8_psi(n)
    tgt = psi.target
    increments = _class_increments(tgt, n)
    assert all((d * e).is_zero() for d in increments for e in increments)
    reps = [_class_rep(tgt, increments, c) for c in range(1 << (n + 1))]
    for s, t in combinations(range(len(reps)), 2):
        ratio = reps[s] * is_unit(reps[t])
        assert parity_obstruction(psi, ratio).checks == parity_obstruction(psi, reps[s ^ t]).checks


def test_an_increment_that_does_not_square_to_zero_fails_the_cokernel_item(monkeypatch):
    # d_0 - 2 keeps every class a unit with the same parities, so every class
    # still certifies, but c -> r_c is no homomorphism and the ratios are open
    def corrupted(tgt, n):
        increments = _class_increments(tgt, n)
        return [increments[0] - 2 * tgt.one()] + increments[1:]

    monkeypatch.setattr(d8_case, "_class_increments", corrupted)
    item = _item(d8_case_study(1), COKERNEL)
    assert item.status == "inconclusive"
    assert item.computed == {"certified_nontrivial": 3, "pairwise_ratios_certified": False}


def test_the_class_loop_makes_one_certificate_per_nonempty_class(monkeypatch):
    # the three case-study levels of the case-audits benchmark round made
    # 2 + 9 + 35 = 46 certificates with the ratio loop
    calls = []

    def counted(psi, candidate):
        calls.append(candidate)
        return parity_obstruction(psi, candidate)

    monkeypatch.setattr(d8_case, "parity_obstruction", counted)
    for n in (0, 1, 2):
        assert d8_case_study(n).ok
    assert len(calls) == 1 + 3 + 7


# ---------------------------------------------------------------------------
# twist exponents from generating characters


def _group_ring_specs(max_order=64):
    for spec in _preset_specs(max_order):
        group = group_from_json(spec)
        for conductor in (1, 4):
            yield spec, TwRing(group, trivial_cocycle(group, 1), conductor)


def _rings():
    for spec, ring in _group_ring_specs():
        yield f"{json.dumps(spec)} c={ring.conductor}", ring
    yield from ((f"anticommuting n={n}", anticommuting_ring(n)) for n in range(5))
    yield from ((f"d8 source n={n}", build_d8_psi(n).source) for n in range(4))
    yield from ((f"d8 target n={n}", build_d8_psi(n).target) for n in range(4))


def test_the_generator_check_agrees_with_the_full_walk_on_every_ring(monkeypatch):
    walked = []

    def counted(psi):
        walked.append(psi)
        return twist_exponents_multiplicative(psi)

    monkeypatch.setattr(extensions, "twist_exponents_multiplicative", counted)
    names = set()
    for name, ring in _rings():
        if not (psis := ring.components):
            continue
        walked.clear()
        assert twist_exponents_failure(psis) is None, name
        # the trivial character and a basis of the dual of N, which has |psis| elements
        assert len(walked) == len(psis).bit_length(), name
        assert all(twist_exponents_multiplicative(psi) for psi in psis), name
        names.add(name)
    assert len(names) > 250
    assert {"d8 source n=3", "anticommuting n=4"} <= names


def _with(psis, i, psi):
    return psis[:i] + (psi,) + psis[i + 1 :]


def _flip_exponent(psi, gamma):
    images = list(psi.gamma_images)
    g, e = images[gamma]
    images[gamma] = (g, (e + 1) % psi.target.cocycle.modulus)
    return replace(psi, gamma_images=tuple(images))


def _flip_twist(psi, g, h):
    tgt = psi.target
    m = tgt.cocycle.modulus
    table = [list(row) for row in tgt.cocycle.table]
    table[g][h] = (table[g][h] + 1) % m
    cocycle = Cocycle(tgt.group, m, tuple(map(tuple, table)))
    return replace(psi, target=TwRing(tgt.group, cocycle, tgt.conductor))


def _non_generators(monkeypatch, psis):
    """The indices of the maps in psis that the full walk skips."""
    walked = set()

    def counted(psi):
        walked.add(psi.chi.values)
        return True

    with monkeypatch.context() as patch:
        patch.setattr(extensions, "twist_exponents_multiplicative", counted)
        assert twist_exponents_failure(psis) is None
    return [i for i, psi in enumerate(psis) if psi.chi.values not in walked]


@pytest.mark.parametrize(
    "make", [lambda: build_d8_psi(1).source, lambda: build_d8_psi(2).source],
    ids=["d8 source n=1", "d8 source n=2"],
)
@pytest.mark.parametrize("corrupt", ["exponent", "twist"])
def test_a_corrupted_non_generator_fails_the_certificate(monkeypatch, make, corrupt):
    ring = make()
    psis = ring.components
    later = _non_generators(monkeypatch, psis)
    assert later
    for i in later:
        psi = psis[i]
        if corrupt == "exponent":
            bad = _flip_exponent(psi, 1)
        else:
            assert psi.target.cocycle.modulus > 1 and psi.target.group.order > 1
            bad = _flip_twist(psi, 1, 1)
        # the full walk refutes the corrupted map on its own
        assert not twist_exponents_multiplicative(bad)
        with pytest.raises(ArithmeticError, match="is not multiplicative"):
            _certify_components(ring, _with(psis, i, bad))


def _c2_c2_c4_ring():
    g = group_from_json({"preset": "direct_product", "params": [2, 2, 4]})
    return TwRing(g, trivial_cocycle(g, 1), 2)


@pytest.mark.parametrize(
    "make",
    [lambda: build_d8_psi(2).source, lambda: anticommuting_ring(3), _c2_c2_c4_ring],
    ids=["d8 source n=2", "anticommuting n=3", "Z[C2 x C2 x C4]"],
)
def test_the_generator_check_never_passes_what_the_full_walk_refutes(make):
    ring = make()
    psis = ring.components
    refuted = 0
    for i, psi in enumerate(psis):
        for gamma in range(1, ring.group.order):
            bad = _with(psis, i, _flip_exponent(psi, gamma))
            if not all(twist_exponents_multiplicative(p) for p in bad):
                refuted += 1
                assert twist_exponents_failure(bad) is not None
    assert refuted


# ---------------------------------------------------------------------------
# the level cap, and a preset rank compared with the order cap before 2^rank


def test_the_case_level_is_a_cap_that_a_flag_may_raise(capsys):
    assert run(["--json", "case", "d8", "--n", "5"]) == EXIT_CAP
    assert "case study level 5 exceeds cap 4" in capsys.readouterr().err
    assert run(["--json", "units", "obstruct", "--n", "5", "--element", "{}"]) == EXIT_CAP
    capsys.readouterr()
    # above n = 5 the group-order cap still refuses: |D8 x C2^6| = 512
    assert run(["--json", "--cap-case-level", "6", "case", "d8", "--n", "6"]) == EXIT_CAP
    assert "order 512 exceeds cap 256" in capsys.readouterr().err
    parse = build_parser().parse_args
    assert _caps(parse(["--cap-case-level", "5", "case", "d8"])) == Caps(case_level=5)
    with pytest.raises(CapExceededError):
        d8_case.d8_extension(5)


# the report is the one the parent printed for `--json case d8 --n 5` with its
# level constant lifted, but for the echoed command line
D8_N5 = "4ebed862e29f68736fcd7ebb2544735db1487ecb3fbcfcbe0a2d0cc82218fb1e"
D8_N5_AS_PARENT = "23cfe7fcca3b327359fc6038e884b196ad3756f9b7711c299452395cc2b64c38"


def test_the_case_study_at_n_5_is_pinned_under_a_raised_cap(capsys):
    argv = ["--json", "--cap-case-level", "5", "case", "d8", "--n", "5"]
    assert run(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == D8_N5
    command = '"command": "' + " ".join(argv) + '"'
    assert command in out
    as_parent = out.replace(command, '"command": "--json case d8 --n 5"')
    assert hashlib.sha256(as_parent.encode("utf-8")).hexdigest() == D8_N5_AS_PARENT


def test_a_huge_preset_rank_exits_3_with_the_cap_message(capsys):
    preset = json.dumps({"preset": "elementary_abelian_2", "params": [20000]})
    assert run(["--json", "group", "validate", preset]) == EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: group order 2^20000 exceeds cap 256\n"
    # 2^(10^6) would print 301,030 digits; the rank is refused first
    with pytest.raises(CapExceededError, match=r"2\^1000000 exceeds cap 256$"):
        elementary_abelian_2(10**6)
    assert elementary_abelian_2(8).order == 256
    with pytest.raises(CapExceededError, match=r"2\^9 exceeds cap 256$"):
        elementary_abelian_2(9)
