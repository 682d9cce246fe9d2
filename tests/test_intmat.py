from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import charpoly, det_solve, matrix_order
from twisted_rings.intmat import (
    det_bareiss,
    identity_matrix,
    mat_mul,
    solve_exact,
)


@st.composite
def square_systems(draw):
    n = draw(st.integers(0, 6))
    entries = st.integers(-3, 3)
    mat = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        # a row that repeats another makes the matrix singular
        mat[draw(st.integers(0, n - 1))] = list(mat[0])
    rhs = draw(st.lists(entries, min_size=n, max_size=n))
    return mat, rhs


@given(square_systems())
@settings(max_examples=150, deadline=None)
def test_det_solve_matches_bareiss_and_the_rational_solve(system):
    mat, rhs = system
    before = [row[:] for row in mat]
    d, y = det_solve(mat, rhs)
    assert mat == before
    assert d == det_bareiss(mat)
    sol = solve_exact(mat, rhs)
    if d == 0:
        assert y is None and sol is None
    else:
        assert [Fraction(v, d) for v in y] == sol


@given(square_systems())
@settings(max_examples=100, deadline=None)
def test_charpoly_agrees_with_determinants_at_n_plus_1_points(system):
    mat, _ = system
    n = len(mat)
    poly = charpoly(mat)
    assert len(poly) == n + 1 and poly[-1] == 1
    for t in range(n + 1):
        shifted = [
            [(t if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)
        ]
        assert sum(c * t**i for i, c in enumerate(poly)) == det_bareiss(shifted)


def test_charpoly_of_a_rotation_and_a_shear():
    assert charpoly([[0, -1], [1, 0]]) == [1, 0, 1]
    assert charpoly([[1, 1], [0, 1]]) == [1, -2, 1]
    assert charpoly([]) == [1]


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


ORDER_3 = [[0, -1], [1, -1]]
ORDER_4 = [[0, -1], [1, 0]]
ORDER_6 = [[1, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]
HYPERBOLIC = [[2, 1], [1, 1]]


def test_matrix_order_is_the_lcm_of_the_eigenvalue_orders():
    assert matrix_order(_block_diagonal(ORDER_3, ORDER_4)) == 12
    assert matrix_order(_block_diagonal(ORDER_6, ORDER_4, [[-1]])) == 12
    assert matrix_order(_block_diagonal(ORDER_3, ORDER_4), cap=11) is None
    assert matrix_order(identity_matrix(3)) == 1


def test_matrix_order_of_infinite_order_matrices_is_none():
    # cyclotomic characteristic polynomial, but not diagonalizable
    assert matrix_order(SHEAR) is None
    assert matrix_order(_block_diagonal(ORDER_3, _block_diagonal(ORDER_4, SHEAR))) is None
    assert matrix_order(_block_diagonal(ORDER_4, HYPERBOLIC)) is None
    assert matrix_order([[2]]) is None


@st.composite
def conjugated_signed_permutations(draw):
    """P * S * P^-1 for a signed permutation S and a unimodular P, with S."""
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    s = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    p, p_inv = identity_matrix(n), identity_matrix(n)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(st.integers(-2, 2))
        e, e_inv = identity_matrix(n), identity_matrix(n)
        e[i][j], e_inv[i][j] = c, -c
        p, p_inv = mat_mul(p, e), mat_mul(e_inv, p_inv)
    return mat_mul(mat_mul(p, s), p_inv), s


@given(conjugated_signed_permutations())
@settings(max_examples=100, deadline=None)
def test_matrix_order_matches_repeated_multiplication(pair):
    a, s = pair
    ident = identity_matrix(len(s))
    power, order = s, 1
    while power != ident:
        power, order = mat_mul(power, s), order + 1
    assert matrix_order(a) == order
