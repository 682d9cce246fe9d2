"""Two contracts that no cap and no input order may bend: CycInt equality
agrees with its hash under every conductor cap, and an element given with
one id twice is refused at the edge instead of keeping the last entry."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisted_rings.cli import EXIT_USAGE, run
from twisted_rings.cyclotomic import PHI_DEGREE, SUPPORTED_CONDUCTORS, CycInt
from twisted_rings.errors import CAPS, Caps
from twisted_rings.rings import anticommuting_ring, element_from_json


@st.composite
def _cyc(draw):
    m = draw(st.sampled_from(SUPPORTED_CONDUCTORS))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=PHI_DEGREE[m], max_size=PHI_DEGREE[m]))
    return CycInt(m, tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(_cyc(), _cyc(), st.sampled_from(SUPPORTED_CONDUCTORS), st.sampled_from(SUPPORTED_CONDUCTORS))
@example(x=CycInt.integer(1, 3), y=CycInt.integer(1, 8), m=24, cap=8)
def test_equality_and_hash_agree_under_every_conductor_cap(x, y, m, cap):
    # x and its image in a larger ring are one value, whatever the cap
    big = x.embed(m) if m % x.m == 0 else x
    token = CAPS.set(Caps(conductor=cap))
    try:
        assert x == big and big == x
        assert hash(x) == hash(big)
        assert len({x, big}) == 1
        same = x.embed(24).coeffs == y.embed(24).coeffs
        assert (x == y) is same and (y == x) is same
        if same:
            assert hash(x) == hash(y)
    finally:
        CAPS.reset(token)


def test_one_and_one_are_equal_across_conductors_under_a_low_cap():
    token = CAPS.set(Caps(conductor=8))
    try:
        assert CycInt.integer(1, 3) == CycInt.integer(1, 8)
        assert len({CycInt.integer(1, 3), CycInt.integer(1, 8)}) == 1
    finally:
        CAPS.reset(token)


_ANTI = '{"cocycle":{"builtin":"anticommuting","n":1},"conductor":2}'
_TWICE = {"coeffs": [{"g": 0, "m": 2, "c": [1]}, {"g": 0, "m": 2, "c": [5]}]}


def test_an_element_id_given_twice_is_refused():
    with pytest.raises(ValueError, match="element id 0 given twice"):
        element_from_json(anticommuting_ring(1), _TWICE)


def test_ring_mul_refuses_an_element_id_given_twice(capsys):
    one = '{"coeffs":[{"g":0,"m":2,"c":[1]}]}'
    for flag, other in (("--x", "--y"), ("--y", "--x")):
        code = run(["ring", "mul", _ANTI, flag, json.dumps(_TWICE), other, one])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == "error: element id 0 given twice"
