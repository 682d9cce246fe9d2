"""Each input of an extension is checked once, where it enters.

* ``validate_section`` refuses a section id that is not an int in
  0..|Gamma|-1, by name, before its length test; the CLI reads that message
  instead of range-checking ids itself.
* ``quotient`` tests normality once: ``is_subgroup`` runs inside
  ``is_normal``, and again only to choose the message of a refusal.
* ``build_extension`` reads centrality off N and sigma: Gamma = N mu(G), so N
  is central exactly when it is abelian and every mu(g) fixes it.
* ``build_psi`` leaves the character's group to ``transgress``.

``oracles.is_central_by_scan`` keeps the commutation scan it replaced.
"""

import json

import pytest

from oracles import is_central_by_scan
from test_packaged_groups import _presets, _products
from twisted_rings import groups
from twisted_rings.cli import EXIT_USAGE, run
from twisted_rings.extensions import build_extension, build_psi, lin_characters
from twisted_rings.groups import all_subgroups, cyclic, dihedral8, is_normal, quotient

D8 = json.dumps({"preset": "dihedral8"})


@pytest.mark.parametrize(
    "section, message",
    [
        ([0, 1, 4, -1], "element id -1 out of range 0..7"),
        ([0, 1, 4, 8], "element id 8 out of range 0..7"),
        ([0, 1, 4, 5.0], "element id 5.0 out of range 0..7"),
        # the id is named before the length and the identity are read
        ([1, 99], "element id 99 out of range 0..7"),
        ([0, 1, 4, True], "element id True out of range 0..7"),
    ],
)
def test_build_extension_refuses_section_ids_outside_the_group(section, message):
    # D8 over {1, a^2}; [0, 1, 4, 5] is a section of it
    with pytest.raises(ValueError) as info:
        build_extension(dihedral8(), {0, 2}, section_map=section)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", ["99", "-1"])
def test_cli_reads_the_section_id_message_from_the_library(capsys, bad):
    code = run(["--json", "ext", "build", D8, "--normal", "0", "2", "--section", "0", "1", "4", bad])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: element id {bad} out of range 0..7\n"


def test_an_ext_input_with_two_faults_is_refused_at_the_first_checked(capsys):
    # {1, a3} is not a subgroup, and the quotient is built before the section is read
    code = run(["--json", "ext", "build", D8, "--normal", "0", "3", "--section", "0", "1", "4", "99"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: given id set is not a subgroup\n"


def _counting_is_subgroup(monkeypatch) -> list:
    calls = []
    original = groups.is_subgroup

    def counted(g, ids):
        calls.append(frozenset(ids))
        return original(g, ids)

    monkeypatch.setattr(groups, "is_subgroup", counted)
    return calls


def test_quotient_tests_an_accepted_subgroup_once(monkeypatch):
    calls = _counting_is_subgroup(monkeypatch)
    q, _ = quotient(dihedral8(), {0, 2})
    assert q.order == 4
    assert calls == [frozenset({0, 2})]


@pytest.mark.parametrize(
    "ids, message",
    [
        # a and a^3 are a conjugacy class: closed under conjugation, not a subgroup
        ({0, 1, 3}, "given id set is not a subgroup"),
        ({0, 1}, "given id set is not a subgroup"),
        ({0, 4}, "subgroup is not normal"),
        ({0, 9}, "element id 9 out of range 0..7"),
    ],
)
def test_quotient_messages_keep_their_precedence(monkeypatch, ids, message):
    calls = _counting_is_subgroup(monkeypatch)
    with pytest.raises(ValueError) as info:
        quotient(dihedral8(), ids)
    assert str(info.value) == message
    assert 1 <= len(calls) <= 2


def test_is_central_matches_the_commutation_scan():
    # with the least preimage of each coset as the section, and with the
    # greatest, so sigma is read under two sections
    verdicts = []
    for g in (g for build in (_presets, _products) for g in build() if g.order <= 32):
        for sub in all_subgroups(g):
            if not is_normal(g, sub):
                continue
            expected = is_central_by_scan(g, sub)
            ext = build_extension(g, sub)
            greatest = {ext.proj.map[x]: x for x in g.elements()}
            greatest[0] = 0
            other = build_extension(g, sub, section_map=[greatest[c] for c in sorted(greatest)])
            assert ext.is_central == other.is_central == expected, (g.name, sorted(sub))
            verdicts.append(expected)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 10


def test_a_character_on_another_group_is_refused_by_transgress():
    ext = build_extension(dihedral8(), {0, 2})
    # a character of C2 that is not the kernel's own packaged group
    chi = lin_characters(cyclic(2), 2)[1]
    with pytest.raises(ValueError) as info:
        build_psi(ext, chi)
    assert str(info.value) == "character is not defined on the extension kernel"
