"""Exact linear algebra over the integers (dense, arbitrary precision)."""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    m = len(b[0])
    k = len(b)
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for c in range(m):
            bc = bt[c]
            s = 0
            for r in range(k):
                s += ai[r] * bc[r]
            row.append(s)
        out.append(row)
    return out


def mat_pow(a: list[list[int]], e: int) -> list[list[int]]:
    if e < 0:
        raise ValueError("negative exponent")
    n = len(a)
    result = identity_matrix(n)
    base = [row[:] for row in a]
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def det_solve(mat: list[list[int]], rhs: list[int]) -> tuple[int, list[int] | None]:
    """Determinant d of mat and the integer vector y with mat * y = d * rhs.

    One fraction-free (Bareiss) elimination of [mat | rhs], then back
    substitution.  d * mat^-1 * rhs is integral (Cramer's rule), so every
    division is exact.  y is None when mat is singular; the input is not
    modified.
    """
    n = len(mat)
    m = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, None
        row_k = m[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1 :]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            if mik:
                row_i[k + 1 :] = [
                    (pivot * a - mik * b) // prev for a, b in zip(row_i[k + 1 :], tail_k)
                ]
                row_i[k] = 0
            elif pivot != prev:
                # a zero multiplier only rescales the row; pivot / prev need
                # not be integral, but pivot * a / prev is (Bareiss)
                row_i[k + 1 :] = [pivot * a // prev for a in row_i[k + 1 :]]
        prev = pivot
    # row i now reads sum_j m[i][j] x_j = m[i][n] for the solution x of the
    # permuted system, whose determinant is prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        y[i] = (prev * row[n] - sum(map(mul, row[i + 1 : n], y[i + 1 :]))) // row[i]
    return sign * prev, [sign * v for v in y]


def det_bareiss(mat: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    All intermediate values stay integral; the input is not modified.  The
    program uses det_solve; this and solve_exact are the reference routines
    it is tested against.
    """
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def solve_exact(mat: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Solve mat * x = rhs exactly; None if the system is singular."""
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]
