"""Exact linear algebra over the integers (dense, arbitrary precision)."""

from __future__ import annotations

from fractions import Fraction


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


def det_bareiss(mat: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    All intermediate values stay integral; the input is not modified.  With
    solve_exact, the reference that the tests check det_solve against.
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
