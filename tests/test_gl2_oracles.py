"""The two gl2 oracles against the routes they replaced.

``_det_residue_counts`` convolves the products of the diagonal and the
off-diagonal pair; ``det_residue_counts_by_enumeration`` visits every
matrix.  ``StallingsGraph`` folds with a worklist; ``fold_by_restart``
rebuilds the whole map after each merge.  Both pairs must agree exactly.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import det_residue_counts_by_enumeration, fold_by_restart
from twisted_rings.gl2 import SanovWord, StallingsGraph, _det_residue_counts

RESIDUE_CASES = [
    (depth, 1 << k, parity)
    for k in range(7)
    for depth in range(k + 1)
    for parity in (False, True)
]


@pytest.mark.parametrize("depth, modulus, parity", RESIDUE_CASES)
def test_residue_counts_match_enumeration_at_every_power_of_two(depth, modulus, parity):
    counts = _det_residue_counts(depth, modulus, parity)
    listed = det_residue_counts_by_enumeration(depth, modulus, parity)
    # the sparse counts hold exactly the residues that occur
    assert dict(counts) == {r: c for r, c in enumerate(listed) if c}


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 3), factor=st.integers(1, 12), parity=st.booleans())
# at a power of two the off-diagonal counts are symmetric under negation, so
# only a span that is odd under parity tells d - o from d + o
@example(depth=1, factor=3, parity=True)
def test_residue_counts_match_enumeration_at_any_multiple(depth, factor, parity):
    modulus = factor << depth
    counts = _det_residue_counts(depth, modulus, parity)
    listed = det_residue_counts_by_enumeration(depth, modulus, parity)
    assert dict(counts) == {r: c for r, c in enumerate(listed) if c}


_LETTERS = (("V", 1), ("V", -1), ("W", 1), ("W", -1))


def _word(indices):
    """The freely reduced word of these letter indices, a cancelling letter
    dropped."""
    letters = []
    for i in indices:
        base, e = _LETTERS[i]
        if letters and letters[-1] == (base, -e):
            continue
        letters.append((base, e))
    return SanovWord(tuple(letters))


def _loop_edges(words):
    """Each word as a loop at vertex 0, numbered as StallingsGraph numbers it."""
    edges, count = [], 1
    for word in words:
        cur = 0
        for idx, (base, e) in enumerate(word.letters):
            if idx == len(word) - 1:
                nxt = 0
            else:
                nxt, count = count, count + 1
            edges.append((cur, base if e == 1 else base.lower(), nxt))
            cur = nxt
    return edges


words_strategy = st.lists(
    st.lists(st.integers(0, 3), max_size=10).map(_word), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(words=words_strategy)
# the even-length subgroup: index 2
@example(words=[_word([0, 0]), _word([2, 2]), _word([0, 3])])
# conjugates of one letter fold through a chain of hand-overs
@example(words=[_word([2, 0, 3]), _word([2, 2, 0, 3, 3]), _word([0]), _word([2, 2, 2])])
@example(words=[])
def test_worklist_fold_matches_the_restart_fold(words):
    graph = StallingsGraph(words)
    adj = fold_by_restart(_loop_edges(words))
    assert graph.adj == adj
    live = sorted({0} | {v for v, _ in adj} | set(adj.values()))
    assert graph.live_vertices() == live
    complete = all((v, lab) in adj for v in live for lab in "VvWw")
    assert graph.free_index() == (len(live) if complete else None)
