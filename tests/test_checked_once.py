"""Each fact is checked once, where untrusted input enters; what the library
builds itself is not checked again.  These tests stand in for the checks
that were taken out of the constructions, with the kept validators as
oracles: the transgressed tables, the enumerated characters, the extended
generator images and the CLI's builtin twists all pass the check they no
longer run, and the finiteness predicate of a projection's kernel reads
no infinite-order witness."""

import itertools
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_character, validate_hom
from twisted_rings import cli, units
from twisted_rings.cocycles import (
    LinearCharacter,
    transgress,
    validate_cocycle,
)
from twisted_rings.extensions import (
    build_extension,
    build_psi,
    kernel_finiteness_predicate,
    lin_characters,
)
from twisted_rings.groups import (
    all_subgroups,
    cyclic,
    dihedral8,
    direct_product,
    elementary_abelian_2,
    exponent,
    hom_from_gen_images,
    is_abelian,
    is_normal,
    quaternion8,
    quotient,
)
from twisted_rings.rings import anticommuting_ring, is_unit
from twisted_rings.units import BicyclicSpec, twisted_bicyclic

GROUPS = {
    "D8": dihedral8(),
    "Q8": quaternion8(),
    "C2^3": elementary_abelian_2(3),
    "C4xC2": direct_product(cyclic(4), cyclic(2)),
    # a non-abelian quotient D8 over a nontrivial kernel
    "D8xC2": direct_product(dihedral8(), cyclic(2)),
}
# D8 = <a, b>, Q8 = <i, j>, C2^3 = <g, h, x1>, C4 x C2 = <(a, 1), (1, c)>,
# D8 x C2 = <(a, 1), (b, 1), (1, c)>
GENERATORS = {
    "D8": (1, 4), "Q8": (2, 4), "C2^3": (1, 2, 4), "C4xC2": (2, 1), "D8xC2": (2, 8, 1)
}


def _sections(ext):
    """Every section of the extension's quotient map that fixes 1."""
    fibres = [
        [x for x in ext.total.elements() if ext.proj.map[x] == g]
        for g in ext.quotient_group.elements()[1:]
    ]
    for rest in itertools.product(*fibres):
        yield (0,) + rest


@pytest.mark.parametrize("name", GROUPS)
def test_every_invariant_character_transgresses_to_a_normalized_cocycle(name):
    g = GROUPS[name]
    checked = 0
    for sub in all_subgroups(g):
        if not is_normal(g, sub):
            continue
        for section in _sections(build_extension(g, sub)):
            ext = build_extension(g, sub, section_map=section)
            if not is_abelian(ext.sub_group):
                continue
            for chi in lin_characters(ext.sub_group, exponent(ext.sub_group)):
                invariant = all(
                    chi.values[perm[n]] == chi.values[n]
                    for perm in ext.sigma
                    for n in range(ext.sub_group.order)
                )
                if not invariant:
                    with pytest.raises(ValueError, match="not invariant"):
                        transgress(ext, chi)
                    continue
                report = validate_cocycle(transgress(ext, chi))
                assert report.ok, (sub, section, chi.values, report.message)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "group, sub, modulus, values, message",
    [
        # chi(1) = -1 on the centre of D8
        (GROUPS["D8"], [0, 2], 2, (1, 0), "identity to 1"),
        # chi(a) = i but chi(a^2) = i on the C4 factor of C4 x C2 (ids 0, 2, 4, 6)
        (GROUPS["C4xC2"], [0, 2, 4, 6], 4, (0, 1, 1, 0), "not multiplicative"),
    ],
    ids=["chi(1) != 1", "not multiplicative"],
)
def test_transgress_refuses_a_character_that_is_not_a_homomorphism(
    group, sub, modulus, values, message
):
    ext = build_extension(group, sub)
    chi = LinearCharacter(ext.sub_group, modulus, values)
    with pytest.raises(ValueError, match=message):
        transgress(ext, chi)
    with pytest.raises(ValueError, match=message):
        build_psi(ext, chi)


@pytest.mark.parametrize(
    "name, sub, modulus, homs",
    [
        ("C2^3", range(8), 2, 8),
        ("C4xC2", range(8), 2, 4),
        ("C4xC2", [0, 2, 4, 6], 4, 4),
        # Q8 -> mu_2 factors through Q8 / <-1> = C2 x C2
        ("Q8", range(8), 2, 4),
    ],
    ids=["C2^3 mod 2", "C4xC2 mod 2", "C4 mod 4", "Q8 mod 2"],
)
def test_transgress_refuses_exactly_the_tables_validate_character_refuses(
    name, sub, modulus, homs
):
    # transgress reads the rows of a generating set of N, validate_character
    # every pair: every value table of N, one verdict
    ext = build_extension(GROUPS[name], list(sub))
    kept = 0
    for values in itertools.product(range(modulus), repeat=ext.sub_group.order):
        chi = LinearCharacter(ext.sub_group, modulus, values)
        try:
            validate_character(chi)
        except ValueError as exc:
            message = "identity to 1" if "identity" in str(exc) else "not multiplicative"
            with pytest.raises(ValueError, match=message):
                transgress(ext, chi)
            continue
        transgress(ext, chi)
        kept += 1
    assert kept == homs


def _abelian_groups():
    yield from ((f"C{n}", cyclic(n), (n,)) for n in range(1, 9))
    yield from ((f"C2^{k}", elementary_abelian_2(k), (2,) * k) for k in range(5))
    yield "C4xC2", direct_product(cyclic(4), cyclic(2)), (4, 2)


@pytest.mark.parametrize("modulus", [1, 2, 4, 6, 8])
def test_lin_characters_are_all_the_characters_and_only_characters(modulus):
    for name, group, factors in _abelian_groups():
        chars = lin_characters(group, modulus)
        for chi in chars:
            validate_character(chi)
        # |Hom(prod C_d, mu_m)| = prod gcd(d, m), each listed once
        count = reduce(lambda acc, d: acc * gcd(d, modulus), factors, 1)
        assert len({chi.values for chi in chars}) == len(chars) == count, name


HOM_GROUPS = [
    dihedral8(),
    quaternion8(),
    elementary_abelian_2(3),
    direct_product(cyclic(4), cyclic(2)),
    cyclic(6),
    cyclic(1),
]


@settings(max_examples=200, deadline=None)
@given(
    pair=st.tuples(st.sampled_from(HOM_GROUPS), st.sampled_from(HOM_GROUPS)),
    data=st.data(),
)
def test_hom_from_gen_images_returns_a_homomorphism_or_refuses(pair, data):
    source, target = pair
    gens = data.draw(
        st.lists(st.sampled_from(source.elements()), min_size=1, max_size=3, unique=True)
    )
    images = {s: data.draw(st.sampled_from(target.elements())) for s in gens}
    try:
        hom = hom_from_gen_images(source, target, images)
    except ValueError:
        return
    validate_hom(hom)
    assert all(hom.map[s] == t for s, t in images.items())


@pytest.mark.parametrize("name", GROUPS)
def test_hom_from_gen_images_gives_back_a_quotient_projection(name):
    g = GROUPS[name]
    for sub in all_subgroups(g):
        if is_normal(g, sub):
            _, proj = quotient(g, sub)
            images = {s: proj.map[s] for s in GENERATORS[name]}
            assert hom_from_gen_images(g, proj.target, images) == proj


def _preset_specs(max_order=32):
    yield from ({"preset": "cyclic", "params": [n]} for n in range(1, max_order + 1))
    yield from (
        {"preset": "elementary_abelian_2", "params": [k]} for k in range(6)
    )
    yield {"preset": "dihedral8"}
    yield {"preset": "quaternion8"}
    for size in (2, 3, 4, 5):
        for factors in itertools.combinations_with_replacement(range(2, 17), size):
            if reduce(int.__mul__, factors) <= max_order:
                yield {"preset": "direct_product", "params": list(factors)}


def _builtin_specs():
    yield from ({"builtin": "anticommuting", "n": n} for n in range(6))
    yield {"builtin": "quaternion"}
    yield {"builtin": "c2c2_matrix"}
    for group in _preset_specs():
        yield from ({"builtin": "trivial", "group": group, "m": m} for m in range(1, 5))


def test_every_builtin_the_cli_loads_is_a_normalized_cocycle():
    specs = list(_builtin_specs())
    for spec in specs:
        report = validate_cocycle(cli._load_normalized_cocycle(spec))
        assert report.ok, (spec, report.message)
    assert len(specs) > 100


@pytest.mark.parametrize(
    "group, normal, expected",
    [
        (cyclic(10), [0, 5], [(), ()]),
        (dihedral8(), [0, 2], [(), ("prime-kernel", "abelian-small-exponent")]),
    ],
    ids=["C10", "D8"],
)
def test_kernel_finiteness_reads_no_infinite_order_witness(monkeypatch, group, normal, expected):
    calls = []
    monkeypatch.setattr(units, "find_infinite_order_unit", lambda *a, **k: calls.append(a))
    ext = build_extension(group, normal)
    clauses = [
        kernel_finiteness_predicate(build_psi(ext, chi)).clauses
        for chi in lin_characters(ext.sub_group, 2)
    ]
    assert clauses == expected
    assert calls == []


def test_every_twisted_bicyclic_unit_has_the_inverse_one_minus_its_increment():
    ring = anticommuting_ring(1)
    built = 0
    for g, h in itertools.product(ring.group.elements(), repeat=2):
        try:
            u = twisted_bicyclic(BicyclicSpec(ring=ring, g=g, h=h))
        except ValueError:
            continue
        assert is_unit(u) == 2 * ring.one() - u
        built += 1
    assert built > 0
