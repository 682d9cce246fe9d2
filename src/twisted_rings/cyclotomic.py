"""Exact arithmetic in Z[zeta_m] for conductors dividing 24.

Elements are integer vectors in the power basis of Z[x]/Phi_m(x).  Every
Phi_k, those of the supported conductors and those that split integer
polynomials into cyclotomic factors (Kronecker's test), comes from one
routine: x^k - 1 divided by Phi_d for each proper divisor d of k.  No
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import CAPS, CapExceededError

SUPPORTED_CONDUCTORS = (1, 2, 3, 4, 6, 8, 12, 24)


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _divmod(poly: Sequence[int], monic: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of poly by a monic polynomial (ascending
    coefficients); the remainder has length deg(monic)."""
    deg = len(monic) - 1
    rest = list(poly) + [0] * (deg - len(poly))
    quot = [0] * (len(poly) - deg)
    for i in range(len(quot) - 1, -1, -1):
        c = rest[i + deg]
        if c:
            quot[i] = c
            for j, v in enumerate(monic):
                rest[i + j] -= c * v
    return quot, rest[:deg]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Phi_k as an ascending coefficient tuple (monic): x^k - 1 divided by
    Phi_d for every proper divisor d of k."""
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            poly = _divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


# Phi_m as ascending coefficient tuples (monic).
_PHI = {m: cyclotomic_polynomial(m) for m in SUPPORTED_CONDUCTORS}

PHI_DEGREE = {m: len(p) - 1 for m, p in _PHI.items()}


@lru_cache(maxsize=None)
def _cyclotomic_up_to(degree: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(k, Phi_k) for every k with phi(k) <= degree, k increasing.

    phi(k) >= sqrt(k / 2) for every k, so k <= 2 * degree^2.
    """
    return tuple(
        (k, cyclotomic_polynomial(k))
        for k in range(1, 2 * degree * degree + 1)
        if euler_phi(k) <= degree
    )


def cyclotomic_factors(poly: Sequence[int]) -> dict[int, int] | None:
    """Multiplicity of each Phi_k in a monic integer polynomial (ascending
    coefficients), or None when it is not a product of cyclotomic polynomials.

    Phi_k has degree phi(k), so only the finitely many k with phi(k) at most
    the degree can divide it (Kronecker; Cohen, A Course in Computational
    Algebraic Number Theory, 2.2).
    """
    rest = list(poly)
    found: dict[int, int] = {}
    for k, phi in _cyclotomic_up_to(len(poly) - 1):
        if len(rest) == 1:
            break
        while len(phi) <= len(rest):
            q, r = _divmod(rest, phi)
            if any(r):
                break
            rest = q
            found[k] = found.get(k, 0) + 1
    return found if len(rest) == 1 else None


def _check_conductor(m: int) -> None:
    if m not in _PHI:
        raise CapExceededError(
            f"conductor {m} unsupported (allowed: {SUPPORTED_CONDUCTORS})"
        )


def _reduce(coeffs: list[int], m: int) -> tuple[int, ...]:
    """Reduce an integer polynomial modulo the monic Phi_m."""
    return tuple(_divmod(coeffs, _PHI[m])[1])


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta_m] in the power basis of Z[x]/Phi_m(x)."""

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_conductor(self.m)
        if len(self.coeffs) != PHI_DEGREE[self.m]:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"expected {PHI_DEGREE[self.m]}"
            )

    @staticmethod
    def integer(value: int, m: int = 1) -> "CycInt":
        _check_conductor(m)
        coeffs = [0] * PHI_DEGREE[m]
        coeffs[0] = int(value)
        return CycInt(m, tuple(coeffs))

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycInt":
        """zeta_m^k as an element of Z[zeta_m]."""
        _check_conductor(m)
        k %= m
        mono = [0] * (k + 1)
        mono[k] = 1
        return CycInt(m, _reduce(mono, m))

    def embed(self, m_new: int) -> "CycInt":
        """Embed into Z[zeta_M] for self.m | M via zeta_m -> zeta_M^(M/m)."""
        if m_new == self.m:
            return self
        _check_conductor(m_new)
        if m_new % self.m != 0:
            raise ValueError(f"no embedding Z[zeta_{self.m}] -> Z[zeta_{m_new}]")
        step = m_new // self.m
        out = [0] * (len(self.coeffs) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CycInt(m_new, _reduce(out, m_new))

    def _pair(self, other: "CycInt") -> tuple["CycInt", "CycInt"]:
        if self.m == other.m:
            return self, other
        m = lcm(self.m, other.m)
        if m > CAPS.get().conductor or m not in _PHI:
            raise CapExceededError(
                f"no common conductor for {self.m} and {other.m} within cap"
            )
        return self.embed(m), other.embed(m)

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            return other
        if isinstance(other, int):
            return CycInt.integer(other, self.m)
        return NotImplemented

    def __add__(self, other) -> "CycInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return CycInt(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> "CycInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycInt":
        return (-self) + other

    def __mul__(self, other) -> "CycInt":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        ca, cb = a.coeffs, b.coeffs
        prod = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        prod[i + j] += x * y
        return CycInt(a.m, _reduce(prod, a.m))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycInt":
        if e < 0:
            raise ValueError("negative powers are not defined in Z[zeta_m]")
        result = CycInt.integer(1, self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.integer(other, self.m)
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.m == other.m:
            return self.coeffs == other.coeffs
        # every supported conductor divides 24, so Z[zeta_24] holds both,
        # whatever the conductor cap; __hash__ reads the same form
        return self.embed(24).coeffs == other.embed(24).coeffs

    def __hash__(self) -> int:
        return hash(self.embed(24).coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_int(self) -> int:
        """The rational integer value, if the element is rational."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __repr__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.m}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        return "+".join(terms).replace("+-", "-") or "0"


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_m^k with 0 <= k < m, in lowest terms (m is the order for k=1...)."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or not 0 <= self.k < self.m:
            raise ValueError(f"bad root of unity ({self.m},{self.k})")

    @property
    def order(self) -> int:
        return self.m // gcd(self.m, self.k) if self.k else 1


@lru_cache(maxsize=None)
def root_to_cyc(m: int, k: int, conductor: int) -> CycInt:
    """zeta_m^k as an element of Z[zeta_conductor], when it lies there.

    The roots of unity of Z[zeta_c] form the cyclic group <-zeta_c> of
    order lcm(2, c); zeta_m^k is converted through that group or rejected.
    """
    _check_conductor(conductor)
    k %= m
    big = lcm(2, conductor)
    if (k * big) % m:
        raise ValueError(
            f"zeta_{m}^{k} does not lie in Z[zeta_{conductor}]"
        )
    e = (k * big // m) % big
    if conductor % 2 == 0:
        return CycInt.zeta(conductor, e)
    if e % 2 == 0:
        return CycInt.zeta(conductor, e // 2)
    return -CycInt.zeta(conductor, ((e + conductor) // 2) % conductor)


def galois_apply(a: CycInt, j: int) -> CycInt:
    """Apply sigma_j : zeta_m -> zeta_m^j (requires gcd(j, m) = 1)."""
    j %= a.m
    if gcd(j, a.m) != 1:
        raise ValueError(f"gcd({j},{a.m}) != 1: not a Galois automorphism")
    out = [0] * (max((i * j for i in range(len(a.coeffs))), default=0) + 1)
    for i, c in enumerate(a.coeffs):
        if c:
            out[i * j] += c
    return CycInt(a.m, _reduce(out, a.m))


def is_root_of_unity(a: CycInt) -> RootOfUnity | None:
    """Recognize a as a root of unity, returning it in lowest form.

    The torsion units of Z[zeta_m] are exactly +-zeta_m^k, so membership
    is decided by direct comparison against that finite list.
    """
    if a.is_zero():
        return None
    big = lcm(2, a.m)
    emb = a.embed(big)
    for e in range(big):
        if emb == CycInt.zeta(big, e):
            n = big // gcd(big, e) if e else 1
            return RootOfUnity(n, (e * n // big) % n if e else 0)
    return None

