"""Reference routines that only the tests call, kept with their bodies
unchanged from when the library carried them.

``charpoly`` and ``matrix_order`` decide a torsion order on the whole
integer matrix (Berkowitz's polynomial, then a matrix power), and
``det_solve`` gives its determinant d and d mat^-1 rhs by one
fraction-free elimination: the routes the library's matrix-free unit,
order and inverse tests replaced;
``enumerate_units_bounded`` is the exhaustive unit search;
``reduced_words`` lists the free words one at a time, as the round-trip
audit walked them before it certified each word from its parent;
``CycTupleElement`` is the ring element as it was stored before it held flat
integer coordinates, one ``CycInt`` per group element; the other three are
small conveniences over the library's own constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

from twisted_rings.cocycles import Cocycle, LinearCharacter, build_G_alpha
from twisted_rings.cyclotomic import CycInt, cyclotomic_factors
from twisted_rings.errors import CAPS, CapExceededError
from twisted_rings.gl2 import _BASIS_IMAGES, SanovWord, UnitNF, phi_model_inverse
from twisted_rings.groups import order_histogram
from twisted_rings.intmat import identity_matrix, mat_pow
from twisted_rings.rings import TwElement, TwRing, is_unit


def charpoly(mat: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(x*I - mat), ascending coefficients.

    Berkowitz's division-free algorithm: the polynomial of the leading
    (k+1) x (k+1) block is a Toeplitz matrix, built from the products
    r * A_k^i * c of the block's new row r, new column c and the leading
    k x k block A_k, times the polynomial of A_k.  O(n^4) integer
    operations, no division.
    """
    poly = [1]  # descending while it is built
    for k in range(len(mat)):
        block = [row[:k] for row in mat[:k]]
        row = mat[k][:k]
        col = [mat[i][k] for i in range(k)]
        toeplitz = [1, -mat[k][k]]
        for i in range(k):
            toeplitz.append(-sum(map(mul, row, col)))
            if i < k - 1:
                col = [sum(map(mul, r, col)) for r in block]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    return poly[::-1]


def matrix_order(mat: list[list[int]], cap: Optional[int] = None) -> Optional[int]:
    """Multiplicative order of an integer matrix, or None when infinite (or
    above cap).

    By Kronecker, a matrix of finite order has a characteristic polynomial
    that is a product of cyclotomic polynomials Phi_k.  It is also
    diagonalizable, so its order is then the lcm L of those k, and it has
    finite order exactly when A^L = I.
    """
    factors = cyclotomic_factors(charpoly(mat))
    if factors is None:
        return None
    order = lcm(*factors)
    if cap is not None and order > cap:
        return None
    if mat_pow(mat, order) != identity_matrix(len(mat)):
        return None
    return order


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


def enumerate_units_bounded(
    ring: TwRing, bound: int, cap: int = 10**7
) -> list[TwElement]:
    """All units with rational integer coefficients in [-bound, bound].

    Exhaustive oracle; the search space (2*bound+1)^|G| must stay below cap.
    """
    n = ring.group.order
    space = (2 * bound + 1) ** n
    if space > cap:
        raise CapExceededError(f"unit enumeration space {space} exceeds cap {cap}")
    units = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(v == 0 for v in vec):
            continue
        x = ring.from_int_vector(list(vec))
        if is_unit(x) is not None:
            units.append(x)
    return units


def orbit_space(
    chars: Sequence[LinearCharacter],
    actions: Sequence[Sequence[int]],
) -> list[list[LinearCharacter]]:
    """Orbits of characters under permutations of the underlying group.

    Each action is a permutation p of element ids; it sends chi to the
    character x -> chi(p(x)).
    """
    index = {chi.values: i for i, chi in enumerate(chars)}
    seen = set()
    orbits = []
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        orbit = {i}
        frontier = [chi.values]
        while frontier:
            vals = frontier.pop()
            for p in actions:
                moved = tuple(vals[p[x]] for x in range(len(vals)))
                j = index.get(moved)
                if j is None:
                    raise ValueError("action does not permute the character set")
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(moved)
        seen |= orbit
        orbits.append([chars[j] for j in sorted(orbit)])
    return orbits


def reduced_words(max_length: int, limit: Optional[int] = None) -> Iterator[SanovWord]:
    """Reduced words in breadth-first length order (optionally capped)."""
    if max_length > (cap := CAPS.get().word_length):
        raise CapExceededError(f"word length {max_length} exceeds cap {cap}")
    count = 0
    queue: list[tuple[tuple[str, int], ...]] = [()]
    for length in range(max_length + 1):
        next_queue = []
        for letters in queue:
            if length:
                yield SanovWord(letters)
                count += 1
                if limit is not None and count >= limit:
                    return
            if length == max_length:
                continue
            for base in ("V", "W"):
                for e in (1, -1):
                    if letters and letters[-1][0] == base and letters[-1][1] == -e:
                        continue
                    next_queue.append(letters + ((base, e),))
        queue = next_queue


def unit_from_nf(ring: TwRing, nf: UnitNF) -> TwElement:
    t = _BASIS_IMAGES[nf.gamma]
    if nf.sign == -1:
        t = -t
    return phi_model_inverse(ring, t * nf.word.evaluate())


def g_alpha_order_histogram(c: Cocycle) -> dict[int, int]:
    return order_histogram(build_G_alpha(c).group)


@dataclass(frozen=True)
class CycTupleElement:
    """The former TwElement: a dense tuple of CycInt coefficients, one per
    group element.  Only its additive and read-only API is kept; its sums
    take another CycTupleElement of the same ring."""

    ring: TwRing
    coeffs: tuple[CycInt, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.ring.group.order:
            raise ValueError("coefficient vector length does not match group order")
        c = self.ring.conductor
        if any(a.m != c for a in self.coeffs):
            # the integer kernels read coordinates in the ring's power basis
            object.__setattr__(self, "coeffs", tuple(a.embed(c) for a in self.coeffs))

    def coeff(self, g: int) -> CycInt:
        return self.coeffs[g]

    def items(self) -> list[tuple[int, CycInt]]:
        return [(g, c) for g, c in enumerate(self.coeffs) if not c.is_zero()]

    def support(self) -> tuple[int, ...]:
        return tuple(g for g, c in enumerate(self.coeffs) if not c.is_zero())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other) -> "CycTupleElement":
        return CycTupleElement(
            self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CycTupleElement":
        return CycTupleElement(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CycTupleElement":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycTupleElement):
            return NotImplemented
        return self.ring == other.ring and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.ring.group.order, self.ring.conductor, self.coeffs))

    def divide_exact(self, k: int) -> "CycTupleElement":
        """Divide every integer coordinate by k; error if not divisible."""
        out = []
        for c in self.coeffs:
            vals = []
            for v in c.coeffs:
                if v % k:
                    raise ValueError(f"coefficient {c!r} not divisible by {k}")
                vals.append(v // k)
            out.append(CycInt(c.m, tuple(vals)))
        return CycTupleElement(self.ring, tuple(out))

    def content(self) -> int:
        """gcd of the integer coordinates in the zeta^j u_g basis (0 for 0)."""
        return gcd(*(v for c in self.coeffs for v in c.coeffs))

    def int_vector(self) -> list[int]:
        """Coefficients as rational integers (requires a rational element)."""
        return [c.as_int() for c in self.coeffs]

    def __repr__(self) -> str:
        terms = []
        for g, c in self.items():
            lab = self.ring.group.labels[g]
            if g == 0:
                terms.append(f"{c!r}")
            elif c == 1:
                terms.append(f"u[{lab}]")
            elif c == -1:
                terms.append(f"-u[{lab}]")
            else:
                terms.append(f"({c!r})*u[{lab}]")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def to_json(self) -> dict:
        return {
            "coeffs": [
                {"g": g, "m": c.m, "c": list(c.coeffs)} for g, c in self.items()
            ]
        }
