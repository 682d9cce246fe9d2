"""Each construction is built once, by code the library already has, and
gives what its earlier second form gave: the peel step through the letters'
column operations, the trivial units of the model ring as G_alpha of its
twist, the cyclic sum of u_g from the order of u_g, and an extension's
section checked only where a caller passes one in."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twisted_rings import gl2
from twisted_rings.cli import EXIT_OK, EXIT_USAGE, run
from twisted_rings.cocycles import (
    anticommuting_pair_cocycle,
    build_G_alpha,
    c2c2_matrix_cocycle,
    c2c2_quaternion_cocycle,
    coboundary_twist,
    trivial_cocycle,
)
from twisted_rings.groups import (
    build_preset,
    cyclic,
    dihedral8,
    elementary_abelian_2,
    quaternion8,
    subgroup_closure,
)
from twisted_rings.rings import TwRing, cyclic_sum

# ---------------------------------------------------------------------------
# the peel step


def _matrix_of(word, trivial: int) -> tuple[int, int, int, int]:
    """Entries of (sign * u_gamma) * word for the trivial unit with G_alpha id
    trivial: -u_gamma has id gamma + 4."""
    t = gl2._BASIS_IMAGES[trivial % 4]
    if trivial >= 4:
        t = -t
    return (t * word.evaluate()).entries()


def _reduce(letters) -> gl2.SanovWord:
    word = gl2.SanovWord(())
    for letter in letters:
        word = word * gl2.SanovWord((letter,))
    return word


_WORDS = st.lists(st.sampled_from(gl2._LETTERS), max_size=12).map(_reduce)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 4))
def test_the_peel_step_agrees_with_four_written_candidates(entries):
    assert gl2._peel_step(*entries) == oracles.peel_step(*entries)


@settings(max_examples=300, deadline=None)
@given(_WORDS, st.integers(0, 7))
def test_the_peel_step_agrees_on_the_images_of_units(word, trivial):
    entries = _matrix_of(word, trivial)
    assert gl2._peel_step(*entries) == oracles.peel_step(*entries)


# ---------------------------------------------------------------------------
# the trivial units


_TRIVIAL = [(sign, gamma) for sign in (1, -1) for gamma in range(4)]
_EMPTY = gl2.SanovWord(())


def _t_id(sign: int, gamma: int) -> int:
    return gamma if sign == 1 else gamma + 4


def _seeds():
    for size in range(len(_TRIVIAL) + 1):
        yield from itertools.combinations(_TRIVIAL, size)


def test_t_is_g_alpha_of_the_model_twist():
    t = build_G_alpha(c2c2_matrix_cocycle()).group
    for (s1, g1), (s2, g2) in itertools.product(_TRIVIAL, repeat=2):
        sign = s1 * s2 * gl2._MODEL_SIGN[g1][g2]
        assert t.mul[_t_id(s1, g1)][_t_id(s2, g2)] == _t_id(sign, gl2._MODEL_GROUP_MUL[g1][g2])


def test_every_seed_set_closes_as_before():
    t = build_G_alpha(c2c2_matrix_cocycle()).group
    for seed in _seeds():
        closure = oracles.trivial_closure(seed)
        assert subgroup_closure(t, [_t_id(*x) for x in seed]) == {_t_id(*x) for x in closure}
        sub = gl2.subgroup_from_generators([gl2.UnitNF(s, g, _EMPTY) for s, g in seed])
        assert {x for x in _TRIVIAL if sub.contains(gl2.UnitNF(*x, _EMPTY))} == closure


def test_every_seed_set_gives_the_index_from_its_closure():
    # with V and W among the generators the free part is all of F, so the
    # index is [T : T_H]
    ring = gl2.model_ring()
    free = [gl2.UnitNF(1, 0, gl2.SanovWord(((b, 1),))) for b in "VW"]
    mixed = gl2.UnitNF(-1, 1, gl2.SanovWord((("V", 1),)))
    for seed in _seeds():
        closure = oracles.trivial_closure(seed)
        gens = [gl2.UnitNF(s, g, _EMPTY) for s, g in seed] + free
        units = [oracles.unit_from_nf(ring, nf) for nf in gens]
        assert gl2.unit_index_audit(units, ring).index == 8 // len(closure)
        if len(closure) < 8:
            with pytest.raises(ValueError, match="mixed generators"):
                gl2.subgroup_from_generators(gens + [mixed])
        else:
            assert gl2.subgroup_from_generators(gens + [mixed]).contains(mixed)


# ---------------------------------------------------------------------------
# the cyclic sum


def _twisted(cocycle, conductor: int, rng: random.Random) -> TwRing:
    f = [0] + [rng.randrange(cocycle.modulus) for _ in range(cocycle.group.order - 1)]
    return TwRing(cocycle.group, coboundary_twist(cocycle, f), conductor)


def _preset_rings():
    rng = random.Random(23)
    groups = [cyclic(n) for n in range(1, 17)]
    groups += [elementary_abelian_2(r) for r in range(1, 5)]
    groups += [dihedral8(), quaternion8()]
    groups += [build_preset("direct_product", p) for p in ([4, 2], [2, 4, 2], [4, 4], [2, 8], [3, 4])]
    for group in groups:
        m = rng.choice((2, 3, 4, 6))
        yield f"{group.name} mod {m}", _twisted(trivial_cocycle(group, m), m, rng)
    for group in (cyclic(6), cyclic(12), dihedral8(), quaternion8()):
        for m in (2, 3, 4, 6):
            yield f"{group.name} mod {m} again", _twisted(trivial_cocycle(group, m), m, rng)


def _builtin_rings():
    rng = random.Random(29)
    for n in range(3):
        for conductor in (2, 4):
            yield f"anticommuting {n} at {conductor}", _twisted(
                anticommuting_pair_cocycle(n), conductor, rng
            )
    for conductor in (2, 4, 6, 8, 12, 24):
        yield f"quaternion at {conductor}", _twisted(c2c2_quaternion_cocycle(), conductor, rng)
        yield f"quaternion untwisted at {conductor}", TwRing(
            c2c2_quaternion_cocycle().group, c2c2_quaternion_cocycle(), conductor
        )
    yield "matrix model", _twisted(c2c2_matrix_cocycle(), 2, rng)


_RINGS = list(_preset_rings()) + list(_builtin_rings())


@pytest.mark.parametrize("ring", [r for _, r in _RINGS], ids=[name for name, _ in _RINGS])
def test_the_cyclic_sum_agrees_with_the_sum_up_to_the_first_unit_power(ring):
    for g in ring.group.elements():
        assert cyclic_sum(ring, g) == oracles.cyclic_sum(ring, g)


# ---------------------------------------------------------------------------
# a section passed in on the command line

# written as on a shell command line, so the pinned bytes are those of
# `twisted-rings --json ext build '{"preset":"dihedral8"}' ...`
D8 = '{"preset":"dihedral8"}'


@pytest.mark.parametrize(
    "section, message",
    [
        (["0", "1", "4"], "error: section has 3 entries for 4 cosets\n"),
        (["1", "0", "4", "5"], "error: section does not fix the identity\n"),
        (["0", "1", "2", "3"], "error: section fails at 2\n"),
    ],
    ids=["wrong length", "identity moved", "not a section"],
)
def test_a_refused_section_keeps_its_exit_code_and_message(capsys, section, message):
    code = run(["--json", "ext", "build", D8, "--normal", "0", "2", "--section", *section])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == message


def test_an_accepted_section_keeps_its_report_bytes(capsys):
    code = run(["--json", "ext", "build", D8, "--normal", "0", "2", "--section", "0", "1", "4", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "15c60748e8f19367d4bfbdea3cda00aa4111ff46fa6b4c76686a4b4d2b2db3a0"
    )
