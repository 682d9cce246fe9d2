"""2-cocycles with root-of-unity values, and linear characters.

A cocycle table stores exponents: table[g][h] = k means the value is
zeta_m^k, with m the value modulus.  All class computations are done on
representatives; cohomology classes are compared by exhaustive coboundary
search, which doubles as a proof at the given value modulus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Optional, Sequence

from .cyclotomic import CycInt, root_to_cyc
from .errors import CAPS, CapExceededError
from .groups import (
    FiniteGroup,
    GroupHom,
    _check_order,
    _package,
    elementary_abelian_2,
    subgroup_as_group,
)

if TYPE_CHECKING:
    from .extensions import ExtensionData


@dataclass(frozen=True)
class Cocycle:
    """2-cocycle table on a finite group, valued in mu_m.  The constructor
    checks shape and range only; validate_cocycle is the edge check."""

    group: FiniteGroup
    modulus: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.group.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("cocycle table shape does not match group order")
        # the shape check leaves no row empty
        if any(min(r) < 0 or max(r) >= self.modulus for r in self.table):
            raise ValueError("table exponents must be reduced mod the value modulus")

    @classmethod
    def checked(cls, group: FiniteGroup, modulus: int, table) -> "Cocycle":
        """The cocycle of table, refused with validate_cocycle's message
        unless it is a normalized 2-cocycle."""
        c = cls(group, modulus, table)
        if not (report := validate_cocycle(c)).ok:
            raise ValueError(report.message)
        return c

    def rescaled(self, new_modulus: int) -> "Cocycle":
        """Same cocycle expressed with exponents modulo a multiple modulus."""
        if new_modulus % self.modulus != 0:
            raise ValueError(f"{self.modulus} does not divide {new_modulus}")
        f = new_modulus // self.modulus
        return Cocycle(
            self.group,
            new_modulus,
            tuple(tuple(v * f for v in row) for row in self.table),
        )

    def is_trivial_table(self) -> bool:
        return all(v == 0 for row in self.table for v in row)


@dataclass(frozen=True)
class CocycleReport:
    is_cocycle: bool
    is_normalized: bool
    violation: Optional[tuple[int, int, int]]
    message: str

    @property
    def ok(self) -> bool:
        return self.is_cocycle and self.is_normalized


def validate_cocycle(c: Cocycle) -> CocycleReport:
    """Check the 2-cocycle identity and normalization, reporting failures."""
    g = c.group
    m = c.modulus
    t = c.table
    normalized = all(t[0][x] == 0 and t[x][0] == 0 for x in g.elements())
    for a in g.elements():
        for b in g.elements():
            ab = g.mul[a][b]
            for d in g.elements():
                lhs = t[a][b] + t[ab][d]
                rhs = t[b][d] + t[a][g.mul[b][d]]
                if (lhs - rhs) % m:
                    return CocycleReport(
                        False,
                        normalized,
                        (a, b, d),
                        f"cocycle identity fails on triple ({a},{b},{d})",
                    )
    msg = "ok" if normalized else "cocycle identity holds but table is not normalized"
    return CocycleReport(True, normalized, None, msg)


def trivial_cocycle(group: FiniteGroup, modulus: int = 1) -> Cocycle:
    n = group.order
    return Cocycle(group, modulus, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def cocycle_from_signs(group: FiniteGroup, signs: dict[tuple[int, int], int]) -> Cocycle:
    """Build a modulus-2 cocycle table from a {(g,h): +-1} dictionary."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for (g, h), s in signs.items():
        if s not in (1, -1):
            raise ValueError("sign entries must be +-1")
        table[g][h] = 0 if s == 1 else 1
    return Cocycle(group, 2, tuple(tuple(r) for r in table))


def coboundary_twist(c: Cocycle, f: Sequence[int]) -> Cocycle:
    """Twist by the coboundary of f: G -> mu_m given as exponents.

    The twisted table is f(g) + f(h) - f(gh) + table(g,h); f must send the
    identity to 1 (exponent 0).
    """
    g = c.group
    m = c.modulus
    if len(f) != g.order:
        raise ValueError("coboundary map must assign a value to every element")
    if f[0] % m:
        raise ValueError("coboundary map must send the identity to 1")
    table = tuple(
        tuple(
            (f[a] + f[b] - f[g.mul[a][b]] + c.table[a][b]) % m
            for b in g.elements()
        )
        for a in g.elements()
    )
    return Cocycle(g, m, table)


def are_cohomologous(
    c1: Cocycle,
    c2: Cocycle,
    modulus: int,
    cap: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """Exhaustively search for f with twist(c1, f) = c2 over mu_modulus.

    Returns the first witness in lexicographic order, or None.  The search
    fixes f(1) = 0 and is exhaustive over the rest, so for two normalized
    cocycles None proves the classes differ at this modulus; for a table
    that is not a normalized cocycle, which is not checked here, None
    proves nothing.
    """
    if cap is None:
        cap = CAPS.get().coboundary
    if c1.group is not c2.group and c1.group != c2.group:
        raise ValueError("cocycles live on different groups")
    g = c1.group
    n = g.order
    if modulus % c1.modulus or modulus % c2.modulus:
        raise ValueError("value moduli do not divide the search modulus")
    t1 = c1.rescaled(modulus).table
    t2 = c2.rescaled(modulus).table
    space = modulus ** (n - 1)
    if space > cap:
        raise CapExceededError(f"coboundary search space {space} exceeds cap {cap}")
    # f twists t1 into t2 when f(a) + f(b) - f(ab) + t1(a, b) - t2(a, b) = 0 mod m
    checks = [
        (a, b, g.mul[a][b], (t1[a][b] - t2[a][b]) % modulus) for a in range(n) for b in range(n)
    ]
    for f in itertools.product((0,), *[range(modulus)] * (n - 1)):
        for a, b, ab, d in checks:
            if (f[a] + f[b] - f[ab] + d) % modulus:
                break
        else:
            return f
    return None


def inflate(c: Cocycle, proj: GroupHom) -> Cocycle:
    """Pull a cocycle on G/Q back to G along the projection."""
    if proj.target != c.group:
        raise ValueError("projection target does not carry the cocycle")
    if not proj.is_surjective():
        raise ValueError("inflation needs a surjective projection")
    g = proj.source
    table = tuple(
        tuple(c.table[proj.map[a]][proj.map[b]] for b in g.elements())
        for a in g.elements()
    )
    return Cocycle(g, c.modulus, table)


def restrict(c: Cocycle, subgroup_ids) -> Cocycle:
    """Restrict the table to a subgroup, repackaged as its own group.

    Subgroup elements are renumbered in ascending id order (identity
    first); the returned cocycle lives on that group.
    """
    sub, embed = subgroup_as_group(c.group, subgroup_ids)
    table = tuple(
        tuple(c.table[embed.map[a]][embed.map[b]] for b in sub.elements())
        for a in sub.elements()
    )
    return Cocycle(sub, c.modulus, table)


def cocycle_power(c: Cocycle, i: int) -> Cocycle:
    m = c.modulus
    return Cocycle(
        c.group, m, tuple(tuple((v * i) % m for v in row) for row in c.table)
    )


def exponent_order(m: int, *exponents: int) -> int:
    """Order of the subgroup of mu_m generated by the zeta_m^e, e in exponents."""
    return m // gcd(m, *exponents)


def cocycle_order(c: Cocycle) -> int:
    """Least i >= 1 with all table values satisfying value^i = 1."""
    return exponent_order(c.modulus, *(v for row in c.table for v in row))


# ---------------------------------------------------------------------------
# linear characters


@dataclass(frozen=True)
class LinearCharacter:
    """Homomorphism from an abelian group into mu_m, stored as exponents."""

    group: FiniteGroup
    modulus: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.group.order:
            raise ValueError("character value table has wrong length")

    def value_at(self, x: int, conductor: int) -> CycInt:
        return root_to_cyc(self.modulus, self.values[x], conductor)

    def inverse_value_at(self, x: int, conductor: int) -> CycInt:
        return root_to_cyc(self.modulus, -self.values[x] % self.modulus, conductor)

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def value_order(self) -> int:
        return exponent_order(self.modulus, *self.values)


# ---------------------------------------------------------------------------
# transgression


def transgress(ext: "ExtensionData", chi: LinearCharacter) -> Cocycle:
    """Compose the extension's factor set with an invariant character of N.

    The result is the 2-cocycle (g, h) -> chi(mu(g) mu(h) mu(gh)^-1) on the
    quotient group.  chi is checked to be a homomorphism invariant under the
    conjugation action of the quotient (central N always qualifies); then
    alpha(g,h) alpha(gh,k) = ^g alpha(h,k) alpha(g,hk) in Gamma makes the
    table a cocycle, and mu(1) = 1 makes it normalized, unchecked.  That
    chi(ab) = chi(a) + chi(b) for every b and every a in a generating set,
    with chi(1) = 0, gives it for every a by induction on word length:
    |N| log2 |N| reads, not |N|^2.
    """
    if chi.group != ext.sub_group:
        raise ValueError("character is not defined on the extension kernel")
    sub, m, v = ext.sub_group, chi.modulus, chi.values
    if v[0] % m:
        raise ValueError("character must send the identity to 1")
    for a in ext._sub_generators:
        for b, ab in enumerate(sub.mul[a]):
            if (v[a] + v[b] - v[ab]) % m:
                raise ValueError(f"character not multiplicative at ({a},{b})")
    for gid, perm in enumerate(ext.sigma):
        for n in range(ext.sub_group.order):
            if chi.values[perm[n]] != chi.values[n]:
                raise ValueError(
                    f"character is not invariant: quotient element {gid} moves it"
                )
    g = ext.quotient_group
    table = tuple(
        tuple(chi.values[ext.alpha_sub[a][b]] for b in g.elements())
        for a in g.elements()
    )
    return Cocycle(g, chi.modulus, table)


# ---------------------------------------------------------------------------
# the group generated by the twisted basis


@dataclass(frozen=True)
class GAlpha:
    """The finite group <zeta^i u_g> determined by a cocycle representative."""

    group: FiniteGroup
    value_order: int
    projection: GroupHom


def build_G_alpha(c: Cocycle) -> GAlpha:
    """Build the group of symbols zeta^i u_g with the table product.

    Its order is o * |G| where o is the order of the subgroup of mu_m
    generated by the table values; the projection zeta^i u_g -> g is a
    homomorphism with central kernel.  A normalized cocycle (checked at the
    edge) makes this table a central extension, a group by construction.
    """
    g = c.group
    o = cocycle_order(c)
    step = c.modulus // o
    n = g.order
    _check_order(total := o * n)

    def encode(i: int, x: int) -> int:
        return (i % o) * n + x

    # symbol zeta^i u_x has id i * n + x, so the identity symbol is id 0
    mul = []
    for e1 in range(total):
        i1, x1 = divmod(e1, n)
        row = []
        for e2 in range(total):
            i2, x2 = divmod(e2, n)
            k = c.table[x1][x2] // step
            row.append(encode(i1 + i2 + k, g.mul[x1][x2]))
        mul.append(row)
    labels = [
        (f"z^{e // n}*" if e >= n else "") + f"u[{g.labels[e % n]}]" for e in range(total)
    ]
    ga = _package(mul, labels, f"G_alpha({g.name})")
    proj = GroupHom(source=ga, target=g, map=tuple(e % n for e in range(total)))
    return GAlpha(group=ga, value_order=o, projection=proj)


# ---------------------------------------------------------------------------
# canonical tables for the standard examples


def c2c2_matrix_cocycle() -> Cocycle:
    """The sign table on C2 x C2 realized by the integer 2x2 matrix model.

    Relations: u_g^2 = u_h^2 = 1, u_g u_h = u_gh = -u_h u_g, u_gh^2 = -1.
    The basis group it generates is dihedral of order 8.
    """
    g = elementary_abelian_2(2)
    signs = {}
    for a in range(4):
        for b in range(4):
            signs[(a, b)] = -1 if (a in (2, 3) and b in (1, 3)) else 1
    return cocycle_from_signs(g, signs)


def c2c2_quaternion_cocycle() -> Cocycle:
    """The sign table on C2 x C2 with u_g^2 = u_h^2 = [u_g,u_h] = -1.

    Realized by the quaternion units i, j, k; the basis group it generates
    is the quaternion group of order 8.
    """
    g = elementary_abelian_2(2)
    minus = {(1, 1), (1, 3), (2, 2), (2, 1), (3, 2), (3, 3)}
    signs = {(a, b): -1 if (a, b) in minus else 1 for a in range(4) for b in range(4)}
    return cocycle_from_signs(g, signs)


def anticommuting_pair_cocycle(n: int) -> Cocycle:
    """The canonical twist on C2^(n+2) = <g, h, x_1..x_n>.

    [u_g, u_h] = -1 with all squares of basis involutions equal to 1 and the
    x_i untwisted: the inflation of the C2 x C2 matrix-model table along the
    projection that kills the x_i.
    """
    base = c2c2_matrix_cocycle()
    g = elementary_abelian_2(n + 2)
    return inflate(base, GroupHom(g, base.group, tuple(a & 3 for a in g.elements())))
