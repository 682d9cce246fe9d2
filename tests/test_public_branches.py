"""Public branches that the rest of the suite does not reach: a negative
power of a ring element, comparison with an int, a commutator character
that is not +-1 valued, and a base ring with no anticommuting pair for the
tower's random unipotent factors."""

import json
import random

import pytest

from twisted_rings.cli import EXIT_USAGE, run
from twisted_rings.cocycles import trivial_cocycle
from twisted_rings.groups import elementary_abelian_2
from twisted_rings.rings import TwRing, anticommuting_ring, is_unit
from twisted_rings.tower import _random_unipotent
from twisted_rings.units import minimal_twisted_bicyclic

# model ring ids: 0 = 1, 1 = g, 2 = h, 3 = gh


def test_negative_powers_invert_units_and_refuse_non_units():
    ring = anticommuting_ring(0)
    v = minimal_twisted_bicyclic(ring, 1, 2)
    assert v ** -2 == is_unit(v) ** 2
    assert v ** -1 * v == ring.one()
    # u_g^2 = 1, so (1 + u_g)(1 - u_g) = 0
    with pytest.raises(ValueError, match="^negative power of a non-unit$"):
        (1 + ring.basis(1)) ** -1


def test_elements_compare_with_ints_as_multiples_of_one():
    ring = anticommuting_ring(0)
    assert ring.one() == 1
    assert ring.zero() == 0
    assert 3 * ring.one() == 3
    assert ring.basis(1) != 1
    assert ring.one() != 0


def test_a_commutator_character_that_is_not_sign_valued_is_refused(capsys):
    # Z[zeta_4]^alpha[C4 x C4] with alpha((x1, y1), (x2, y2)) = x1 y2 mod 4,
    # ids packed as 4 x + y: u_g u_h = zeta_4 u_h u_g for g = (1, 0), h = (0, 1)
    table = [[(x // 4) * (y % 4) % 4 for y in range(16)] for x in range(16)]
    spec = {
        "cocycle": {"group": {"preset": "direct_product", "params": [4, 4]}, "m": 4, "table": table},
        "conductor": 4,
    }
    code = run(["--json", "units", "bicyclic", json.dumps(spec), "--g", "4", "--h", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: conjugation character is not +-1 valued\n"


def test_random_unipotent_is_one_without_an_anticommuting_pair():
    g = elementary_abelian_2(2)
    ring = TwRing(g, trivial_cocycle(g, 1), 1)
    rng = random.Random(0)
    assert all(_random_unipotent(ring, rng) == ring.one() for _ in range(5))
