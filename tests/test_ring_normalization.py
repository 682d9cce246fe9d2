"""TwRing refuses a twist that is not normalized.

Every ring routine takes u_1 as the identity, which holds only when
alpha(1, g) = alpha(g, 1) = 1.  The constant table alpha = -1 on C2 satisfies
the cocycle identity but not normalization; built from the library it used
to give a ring whose one() squared to -one().
"""

import pytest

from twisted_rings.cocycles import Cocycle, coboundary_twist, trivial_cocycle
from twisted_rings.d8_case import build_d8_psi
from twisted_rings.groups import cyclic, elementary_abelian_2
from twisted_rings.rings import TwRing, anticommuting_ring, is_unit


def test_the_constant_table_on_c2_is_refused():
    c2 = elementary_abelian_2(1)
    with pytest.raises(ValueError, match="not normalized"):
        TwRing(c2, Cocycle(c2, 2, ((1, 1), (1, 1))), 2)


@pytest.mark.parametrize("where", ["row", "column"])
def test_one_entry_off_the_identity_is_refused(where):
    c4 = cyclic(4)
    table = [[0] * 4 for _ in range(4)]
    if where == "row":
        table[0][3] = 1
    else:
        table[2][0] = 1
    with pytest.raises(ValueError, match="not normalized"):
        TwRing(c4, Cocycle(c4, 2, tuple(map(tuple, table))), 2)


def test_normalized_coboundary_twists_are_accepted():
    c4 = cyclic(4)
    twisted = coboundary_twist(trivial_cocycle(c4, 4), [0, 1, 2, 3])
    ring = TwRing(c4, twisted, 4)
    assert ring.one() * ring.one() == ring.one()
    assert is_unit(ring.one()) == ring.one()


def test_library_rings_and_their_components_stay_valid():
    ring = anticommuting_ring(2)
    assert ring.components
    for psi in ring.components:
        # the components reuse the ring itself as their source
        assert psi.source is ring
        assert psi.target.one() * psi.target.one() == psi.target.one()
    psi = build_d8_psi(1)
    assert is_unit(psi.source.one()) == psi.source.one()
