"""Each group fact is checked by the argument that proves it, with the same
answers as the longer checks it replaced.

* A nonempty subset of a finite group that is closed under products is a
  subgroup: x^-1 = x^(o(x)-1) and 1 = x^o(x).
* Right products by the generators, from 1, reach the whole subgroup they
  generate: each generator's inverse is a positive power of it.
* <x> is normal exactly when every conjugate t^-1 x t lies in <x>.
* When ids are scanned upward, the first id not yet placed is the least
  element of its coset, so cosets are numbered in the order they are found.

``oracles`` keeps the longer checks with their bodies unchanged:
``is_subgroup_with_inverses``, ``two_sided_closure``,
``is_dedekind_by_distinct_cyclics`` and ``quotient_by_sorted_cosets``.
"""

import hashlib
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    is_dedekind_by_distinct_cyclics,
    is_subgroup_with_inverses,
    quotient_by_sorted_cosets,
    two_sided_closure,
)
from twisted_rings.cli import EXIT_OK, run
from twisted_rings.cocycles import anticommuting_pair_cocycle, build_G_alpha, c2c2_quaternion_cocycle
from twisted_rings.extensions import build_extension
from twisted_rings.groups import (
    all_subgroups,
    cyclic,
    dihedral8,
    dihedral8_times_c2n,
    direct_product,
    elementary_abelian_2,
    is_dedekind,
    is_normal,
    is_subgroup,
    quaternion8,
    quotient,
    subgroup_as_group,
    subgroup_closure,
)


@lru_cache(maxsize=None)
def _groups() -> tuple:
    """C12, D8, Q8, C2^4, D8 x C2, Q8 x C4 and D8 x C2^2."""
    return (
        cyclic(12),
        dihedral8(),
        quaternion8(),
        elementary_abelian_2(4),
        dihedral8_times_c2n(1),
        direct_product(quaternion8(), cyclic(4)),
        dihedral8_times_c2n(2),
    )


@lru_cache(maxsize=None)
def _dedekind_groups() -> tuple:
    """The seven groups above, the Hamiltonian Q8 x C2, and G_alpha of the
    anticommuting n = 2 twist and of the quaternion twist.  A G_alpha has no
    named generators."""
    return _groups() + (
        direct_product(quaternion8(), cyclic(2)),
        build_G_alpha(anticommuting_pair_cocycle(2)).group,
        build_G_alpha(c2c2_quaternion_cocycle()).group,
    )


@lru_cache(maxsize=None)
def _normal_subgroups() -> tuple:
    return tuple((g, h) for g in _groups() for h in all_subgroups(g) if is_normal(g, h))


def test_quotient_agrees_with_its_oracle_on_every_normal_subgroup():
    assert len(_normal_subgroups()) == 214
    for g, h in _normal_subgroups():
        q, proj = quotient(g, h)
        expected, expected_proj = quotient_by_sorted_cosets(g, h)
        # equal order, table, inverses, labels and name
        assert q == expected
        assert proj.map == expected_proj.map
        assert proj.source is g and proj.target is q


def test_quotient_messages_are_pinned():
    d8 = dihedral8()
    # {1, a} is not closed; {1, b} is a subgroup that a conjugates to {1, a^2 b}
    for ids, message in [
        ({0, 1}, "given id set is not a subgroup"),
        (set(), "given id set is not a subgroup"),
        ({0, 4}, "subgroup is not normal"),
    ]:
        for route in (quotient, quotient_by_sorted_cosets):
            with pytest.raises(ValueError) as info:
                route(d8, ids)
            assert str(info.value) == message


def test_is_dedekind_agrees_with_both_reference_routes():
    verdicts = []
    for g in _dedekind_groups():
        verdict = is_dedekind(g)
        assert verdict == is_dedekind_by_distinct_cyclics(g) == is_dedekind(g, exhaustive=True)
        verdicts.append(verdict)
    # C12, Q8, C2^4 and Q8 x C2 are Dedekind; the quaternion twist's G_alpha is Q8
    assert verdicts == [True, False, True, True, False, False, False, True, False, True]


@pytest.mark.parametrize(
    "ids, message",
    [
        ({5}, "element id 5 out of range 0..1"),
        ({0, 5}, "element id 5 out of range 0..1"),
        # a negative id would read the table from its end
        ({-1}, "element id -1 out of range 0..1"),
    ],
)
def test_is_subgroup_refuses_ids_outside_the_group(ids, message):
    for route in (is_subgroup, is_normal, quotient, subgroup_as_group, build_extension):
        with pytest.raises(ValueError) as info:
            route(cyclic(2), ids)
        assert str(info.value) == message


@st.composite
def id_sets(draw):
    """One of the seven groups and a set of its ids: drawn freely, or a
    generated subgroup with at most one id added or taken away."""
    g = draw(st.sampled_from(_groups()))
    ids = st.integers(0, g.order - 1)
    if draw(st.booleans()):
        return g, draw(st.sets(ids, max_size=g.order))
    s = set(subgroup_closure(g, draw(st.lists(ids, max_size=3))))
    s ^= set(draw(st.lists(ids, max_size=1)))
    return g, s


@settings(max_examples=400, deadline=None)
@given(id_sets())
def test_is_subgroup_agrees_with_its_oracle(drawn):
    g, s = drawn
    assert is_subgroup(g, s) == is_subgroup_with_inverses(g, s)


@st.composite
def generator_lists(draw):
    g = draw(st.sampled_from(_groups()))
    return g, draw(st.lists(st.integers(0, g.order - 1), max_size=4))


@settings(max_examples=300, deadline=None)
@given(generator_lists())
def test_subgroup_closure_agrees_with_its_oracle(drawn):
    g, gens = drawn
    assert subgroup_closure(g, gens) == two_sided_closure(g, gens)


def test_the_default_section_quotient_of_d8_is_pinned(capsys):
    # D8 over its centre {1, a^2}: a quotient of a non-abelian group, numbered by scan order
    code = run(["--json", "ext", "build", '{"preset":"dihedral8"}', "--normal", "0", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "ac382f001521c3bafb5dd20d5aa0300248db1b3435e6d4b147378a5258f152e0"
    )
