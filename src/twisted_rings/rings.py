"""Arithmetic in twisted group rings R^alpha[G] over Z[zeta_m].

An element is the flat tuple of its integer coordinates in the Z-basis
zeta^j u_g, and all arithmetic works on those; a coefficient in Z[zeta_m]
is built as a CycInt only when read (coeff, items, coeffs, JSON, repr).  x is
a unit of the order exactly when left multiplication L_x by x is invertible
over Z, i.e. has determinant +-1.  Over a subgroup N of central involutions
along which the twist is inflated, Q R^alpha[G] splits into the components
Q^(alpha_chi)[G/N], one per character chi of N, and that determinant is
the product of the component determinants, once each ring has certified
its split; units and their orders are decided component by component.

In an indecomposable component the unit and order tests build no matrix.
Since alpha(1, h) = 1, tr L_y = |G| Tr(y_1) reads the coefficient of u_1,
so the traces of the powers x, x^2, ..., x^n give the characteristic
polynomial of L_x by Newton's identities; its constant term is
(-1)^n det L_x.  By Kronecker, a unit of finite order has a product of
cyclotomic polynomials Phi_k as that polynomial and the lcm L of those k
as its order, and the unit has finite order exactly when x^L = 1 in the
component.  The bounded scan of small supports decides each distinct
component image of its candidates once.  ``is_unit`` reads the inverse
off the same polynomial by Cayley-Hamilton; ``is_unit_coords`` answers for
callers that never read the inverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .cocycles import (
    Cocycle,
    LinearCharacter,
    anticommuting_pair_cocycle,
    c2c2_quaternion_cocycle,
)
from .cyclotomic import (
    PHI_DEGREE,
    SUPPORTED_CONDUCTORS,
    CycInt,
    cyclotomic_factors,
    is_root_of_unity,
    root_to_cyc,
)
from .errors import CAPS, CapExceededError, exact_int
from .groups import FiniteGroup, centralizer, element_order, subgroup_as_group


@lru_cache(maxsize=None)
def _zero(conductor: int) -> CycInt:
    # CycInt is frozen, so every coefficient vector may share one zero
    return CycInt.integer(0, conductor)


@dataclass(frozen=True)
class TwRing:
    """R^alpha[G] with R = Z[zeta_conductor]."""

    group: FiniteGroup
    cocycle: Cocycle
    conductor: int

    def __post_init__(self) -> None:
        if self.cocycle.group != self.group:
            raise ValueError("cocycle lives on a different group")
        if self.conductor % self.cocycle.modulus:
            raise ValueError(
                f"cocycle values mu_{self.cocycle.modulus} do not embed in "
                f"Z[zeta_{self.conductor}]"
            )
        table = self.cocycle.table
        if any(table[0]) or any(row[0] for row in table):
            # every ring routine takes u_1 as the identity
            raise ValueError("twist is not normalized: alpha(1, g) or alpha(g, 1) != 1")

    @property
    def dim(self) -> int:
        return self.group.order * PHI_DEGREE[self.conductor]

    @cached_property
    def structure(self) -> tuple[int, tuple, tuple[tuple[int, ...], ...]]:
        """(phi, roots, twist), the integer structure table of the ring.

        phi is the degree of Z[zeta_c] over Z, roots[k] the nonzero entries
        (t, v) of the power-basis vector of zeta_c^k for 0 <= k < c, and
        twist[g][h] the exponent e with alpha(g, h) = zeta_c^e.
        """
        c = self.conductor
        roots = tuple(
            tuple((t, v) for t, v in enumerate(root_to_cyc(c, k, c).coeffs) if v)
            for k in range(c)
        )
        step = c // self.cocycle.modulus
        twist = tuple(tuple(a * step % c for a in row) for row in self.cocycle.table)
        return PHI_DEGREE[c], roots, twist

    @cached_property
    def components(self) -> tuple:
        """The projections psi_chi of the ring onto its components.

        N is the largest subgroup of central involutions z along which the
        twist is inflated: alpha(az, b) = alpha(a, b) = alpha(a, bz).  The
        u_z are then central and every character chi of N is real, so
        Q R^alpha[G] is the direct sum of the targets Q^(alpha_chi)[G/N] of
        the psi_chi.  That is certified here, once per ring, by
        _certify_components.  Empty when N = 1.
        """
        # a late import: extensions imports this module
        from .extensions import build_extension, build_psi, lin_characters

        g, table = self.group, self.cocycle.table
        kernel = [0]
        for z in g.elements()[1:]:
            col = tuple(row[z] for row in g.mul)
            if g.mul[z][z] or col != g.mul[z]:
                continue
            shift = itemgetter(*col)
            if all(table[col[a]] == row and shift(row) == row for a, row in enumerate(table)):
                kernel.append(z)
        if len(kernel) == 1:
            return ()
        ext = build_extension(g, kernel)
        sec = ext.section.map
        beta = Cocycle(
            ext.quotient_group,
            self.cocycle.modulus,
            tuple(tuple(table[a][b] for b in sec) for a in sec),
        )
        # beta inflated along ext.proj is the ring's own table
        psis = tuple(
            build_psi(ext, chi, beta, self.conductor, source=self)
            for chi in lin_characters(ext.sub_group, 2)
        )
        _certify_components(self, psis)
        return psis

    def zero_coeff(self) -> CycInt:
        return _zero(self.conductor)

    def coerce_coeff(self, value) -> CycInt:
        if isinstance(value, CycInt):
            return value.embed(self.conductor)
        if isinstance(value, int):
            return CycInt.integer(value, self.conductor)
        raise TypeError(f"cannot use {value!r} as a ring coefficient")

    def zero(self) -> "TwElement":
        return self.from_coords((0,) * self.dim)

    def one(self) -> "TwElement":
        return self.basis(0)

    def basis(self, g: int, value=1) -> "TwElement":
        return self.element({g: value})

    def element(self, mapping: Mapping[int, object]) -> "TwElement":
        phi = PHI_DEGREE[self.conductor]
        vec = [0] * self.dim
        for g, v in mapping.items():
            vec[g * phi : (g + 1) * phi] = self.coerce_coeff(v).coeffs
        return self.from_coords(vec)

    def from_int_vector(self, vec: Sequence[int]) -> "TwElement":
        flat = [0] * self.dim
        flat[:: PHI_DEGREE[self.conductor]] = vec
        return self.from_coords(flat)

    def from_coords(self, vec: Iterable[int]) -> "TwElement":
        """The element with flat coordinates vec in the zeta^j u_g basis."""
        x = object.__new__(TwElement)
        object.__setattr__(x, "ring", self)
        object.__setattr__(x, "vec", tuple(vec))
        if len(x.vec) != self.dim:
            raise ValueError(f"{len(x.vec)} coordinates for a ring of dimension {self.dim}")
        return x

    def __repr__(self) -> str:
        return (
            f"TwRing({self.group.name or self.group.order}, "
            f"m={self.cocycle.modulus}, R=Z[zeta_{self.conductor}])"
        )


@dataclass(frozen=True, init=False)
class TwElement:
    """Element of a twisted group ring: vec[g * phi + j] is the coordinate of
    zeta^j u_g, phi the degree of Z[zeta_c].  TwElement(ring, coeffs) takes
    one coefficient per group element (a CycInt of a smaller conductor is
    embedded); ring.from_coords takes the flat coordinates."""

    ring: TwRing
    vec: tuple[int, ...]

    def __init__(self, ring: TwRing, coeffs: Sequence) -> None:
        if len(coeffs) != ring.group.order:
            raise ValueError("coefficient vector length does not match group order")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "vec", ring.element(dict(enumerate(coeffs))).vec)

    @cached_property
    def coeffs(self) -> tuple[CycInt, ...]:
        """The coefficient of each u_g in Z[zeta_c], built on first read."""
        c, z = self.ring.conductor, self.ring.zero_coeff()
        phi = PHI_DEGREE[c]
        blocks = (self.vec[k : k + phi] for k in range(0, len(self.vec), phi))
        return tuple(CycInt(c, b) if any(b) else z for b in blocks)

    def coeff(self, g: int) -> CycInt:
        return self.coeffs[g]

    def items(self) -> list[tuple[int, CycInt]]:
        return [(g, c) for g, c in enumerate(self.coeffs) if not c.is_zero()]

    def coords(self) -> list[tuple[int, int, int]]:
        """Nonzero coordinates (g, j, a) of self = sum a zeta^j u_g."""
        return _coord_list(self.vec, PHI_DEGREE[self.ring.conductor])

    def support(self) -> tuple[int, ...]:
        phi = PHI_DEGREE[self.ring.conductor]
        return tuple(dict.fromkeys(k // phi for k, a in enumerate(self.vec) if a))

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __add__(self, other) -> "TwElement":
        other = _coerce_element(self.ring, other)
        return self.ring.from_coords(map(add, self.vec, other.vec))

    __radd__ = __add__

    def __neg__(self) -> "TwElement":
        return self.ring.from_coords(-a for a in self.vec)

    def __sub__(self, other) -> "TwElement":
        return self + -_coerce_element(self.ring, other)

    def __rsub__(self, other) -> "TwElement":
        return (-self) + other

    def __mul__(self, other) -> "TwElement":
        other = _coerce_element(self.ring, other)
        return self.ring.from_coords(_tw_mul(self.ring, self.coords(), other.coords()))

    # coefficients are central
    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TwElement":
        if e < 0:
            inv = is_unit(self)
            if inv is None:
                raise ValueError("negative power of a non-unit")
            return inv ** (-e)
        return self.ring.from_coords(_power(self.ring, self.coords(), e))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.basis(0, other)
        if not isinstance(other, TwElement):
            return NotImplemented
        return self.vec == other.vec and self.ring == other.ring

    def __hash__(self) -> int:
        return hash((self.ring.group.order, self.ring.conductor, self.vec))

    def divide_exact(self, k: int) -> "TwElement":
        """Divide every integer coordinate by k; error if not divisible."""
        if any(v % k for v in self.vec):
            raise ValueError(f"{self!r} is not divisible by {k}")
        return self.ring.from_coords(v // k for v in self.vec)

    def content(self) -> int:
        """gcd of the integer coordinates in the zeta^j u_g basis (0 for 0)."""
        return gcd(*self.vec)

    def int_vector(self) -> list[int]:
        """Coefficients as rational integers (requires a rational element)."""
        phi = PHI_DEGREE[self.ring.conductor]
        if any(a for k, a in enumerate(self.vec) if k % phi):
            raise ValueError(f"{self!r} has a coefficient that is not a rational integer")
        return list(self.vec[::phi])

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


def element_from_json(ring: TwRing, data: dict) -> TwElement:
    """Read {"coeffs": [{"g": id, "m": m, "c": [ints]}, ...]}, range-checked."""
    coeffs = {}
    for e in data["coeffs"]:
        g = exact_int(e["g"], "element id")
        if not 0 <= g < ring.group.order:
            raise ValueError(f"element id {g} out of range 0..{ring.group.order - 1}")
        c = tuple(exact_int(v, "coefficient") for v in e["c"])
        m = exact_int(e["m"], "coefficient conductor")
        if m not in SUPPORTED_CONDUCTORS:
            raise ValueError(f"coefficient conductor {m} not in {SUPPORTED_CONDUCTORS}")
        coeffs[g] = CycInt(m, c)
    return ring.element(coeffs)


def _coerce_element(ring: TwRing, value) -> TwElement:
    if isinstance(value, TwElement):
        if value.ring != ring:
            raise ValueError("ring mismatch")
        return value
    if isinstance(value, (int, CycInt)):
        return ring.basis(0, value)
    raise TypeError(f"cannot interpret {value!r} as a ring element")


def _tw_mul(ring: TwRing, xs, ys) -> list[int]:
    """Flat coordinates of (sum over xs) * (sum over ys), for coordinate
    lists (g, j, a) as returned by TwElement.coords."""
    phi, roots, twist = ring.structure
    c = ring.conductor
    mul = ring.group.mul
    out = [0] * ring.dim
    for g, i, a in xs:
        row, trow = mul[g], twist[g]
        for h, j, b in ys:
            base = row[h] * phi
            ab = a * b
            for t, v in roots[(i + j + trow[h]) % c]:
                out[base + t] += ab * v
    return out


# ---------------------------------------------------------------------------
# regular representation, units, torsion


@dataclass(frozen=True)
class RegRepMatrix:
    """Integer matrix of left multiplication on the Z-basis zeta^j u_g."""

    matrix: tuple[tuple[int, ...], ...]
    dim: int


def regular_rep(x: TwElement) -> RegRepMatrix:
    """Column h*phi + j holds the coordinates of x * zeta^j u_h."""
    return RegRepMatrix(matrix=_rep_matrix(x.ring, x.coords()), dim=x.ring.dim)


def _rep_matrix(ring: TwRing, xs) -> tuple[tuple[int, ...], ...]:
    phi = PHI_DEGREE[ring.conductor]
    cols = [
        _tw_mul(ring, xs, ((h, j, 1),)) for h in ring.group.elements() for j in range(phi)
    ]
    return tuple(zip(*cols))


def _one_coords(dim: int) -> list[int]:
    """Coordinates of u_1 in the zeta^j u_g basis."""
    return [1] + [0] * (dim - 1)


def _coord_list(flat: Sequence[int], phi: int) -> list[tuple[int, int, int]]:
    """The coordinate list (g, j, a), as TwElement.coords, of flat coordinates."""
    return [(k // phi, k % phi, a) for k, a in enumerate(flat) if a]


def _leaves(ring: TwRing, xs) -> Iterator[tuple[TwRing, list]]:
    """The coordinate lists of the images of xs in the indecomposable
    components of the ring."""
    if not ring.components:
        yield ring, xs
    for psi in ring.components:
        phi = PHI_DEGREE[psi.target.conductor]
        yield from _leaves(psi.target, _coord_list(psi.image_coords(xs), phi))


def _lift_sum(psis, parts) -> list[int]:
    """Flat coordinates of |N| x for the components x_chi of x, given as
    coordinate lists in parts, one per psi_chi in psis.

    The idempotent of chi is e_chi = |N|^-1 sum chi(z) u_z over z in N, and
    x = sum e_chi s(x_chi) for the section lift s(zeta^t v_g) = zeta^t u_mu(g).
    """
    ring = psis[0].source
    phi = PHI_DEGREE[ring.conductor]
    out = [0] * ring.dim
    for psi, part in zip(psis, parts):
        section, powers, signs = psi.lift_terms
        for g, t, a in part:
            lifted = section[g]
            terms = [(k, a * v) for k, v in enumerate(powers[t]) if v]
            for row, sign in signs:
                base = row[lifted] * phi
                for k, av in terms:
                    out[base + k] += sign * av
    return out


def _certify_components(ring: TwRing, psis) -> None:
    """Raise unless the psi_chi in psis split Q R^alpha[G] into their targets.

    Each psi_chi must send 1 to 1 and be multiplicative on basis pairs: the
    quotient map q, which every psi_chi shares, once for the ring, and the
    twist exponents once per chi.  The targets must have the ring's
    dimension in total, and _lift_sum of the images of every basis vector
    must be |N| times that vector.  Then the sum of the psi_chi is an
    injective, hence bijective, homomorphism of Q-algebras, so det L_x is
    the product of the determinants of L_psi_chi(x).
    """
    # a late import: extensions imports this module
    from .extensions import quotient_multiplicative, twist_exponents_multiplicative

    quotient = [g for g, _ in psis[0].gamma_images]
    if not quotient_multiplicative(psis[0]) or any(
        [g for g, _ in psi.gamma_images] != quotient for psi in psis
    ):
        raise ArithmeticError(f"components of {ring!r}: the quotient map is not multiplicative")
    for psi in psis:
        if psi.image_coords([(0, 0, 1)]) != _one_coords(psi.target.dim):
            raise ArithmeticError(f"component {psi.chi.values} of {ring!r} does not send 1 to 1")
        if not twist_exponents_multiplicative(psi):
            raise ArithmeticError(f"component {psi.chi.values} of {ring!r} is not multiplicative")
    if sum(psi.target.dim for psi in psis) != ring.dim:
        raise ArithmeticError(f"components of {ring!r} do not add up to its dimension")
    phi, n = PHI_DEGREE[ring.conductor], len(psis)
    for k in range(ring.dim):
        xs = [(k // phi, k % phi, 1)]
        parts = [
            _coord_list(psi.image_coords(xs), PHI_DEGREE[psi.target.conductor]) for psi in psis
        ]
        lifted = _lift_sum(psis, parts)
        if lifted[k] != n or any(lifted[:k]) or any(lifted[k + 1 :]):
            raise ArithmeticError(f"components of {ring!r} do not lift back to the ring")


def is_unit(x: TwElement) -> Optional[TwElement]:
    """Return the inverse when x is a unit of the Z-order, else None.

    On a ring with components, x is a unit exactly when every component
    image is, and x^-1 is rebuilt from their inverses by one exact division
    by |N|.  Otherwise x is a unit exactly when the constant term f_0 of
    the Newton polynomial f of L_x is +-1, and then x^-1 = -f_0 (x^(n-1) +
    f_(n-1) x^(n-2) + ... + f_1) by Cayley-Hamilton, the bracket by Horner's
    rule.  Either way x x^-1 = x^-1 x = 1 is checked.
    """
    ring = x.ring
    xs = x.coords()
    if ring.components:
        parts = []
        for psi in ring.components:
            part = is_unit(psi.target.from_coords(psi.image_coords(xs)))
            if part is None:
                return None
            parts.append(part)
        n = len(ring.components)
        total = _lift_sum(ring.components, [part.coords() for part in parts])
        if any(v % n for v in total):
            raise ArithmeticError("component inverses do not lift to the ring")
        inv = ring.from_coords([v // n for v in total])
    else:
        f = _charpoly(ring, xs)
        if f[0] not in (1, -1):
            return None
        phi, acc = PHI_DEGREE[ring.conductor], _one_coords(ring.dim)
        for fk in f[-2:0:-1]:
            acc = _tw_mul(ring, _coord_list(acc, phi), xs)
            acc[0] += fk
        inv = ring.from_coords([-f[0] * v for v in acc])
    if x * inv != ring.one() or inv * x != ring.one():
        raise ArithmeticError("inverse verification failed")
    return inv


@lru_cache(maxsize=None)
def _traces(conductor: int) -> tuple[int, ...]:
    """Tr(zeta^t) over Q for 0 <= t < phi: the trace of multiplication by
    zeta^t on the power basis, whose column s holds zeta^(t+s)."""
    phi = PHI_DEGREE[conductor]
    return tuple(
        sum(root_to_cyc(conductor, t + s, conductor).coeffs[s] for s in range(phi))
        for t in range(phi)
    )


def _charpoly(ring: TwRing, xs) -> list[int]:
    """det(t I - L_x), ascending coefficients, for x with coordinate list xs.

    The power sums p_k = tr L_x^k = |G| Tr((x^k)_1) of the eigenvalues fix
    the coefficients f_k of t^(n-k) by Newton's identities
    k f_k = -sum_{i=1..k} f_(k-i) p_i, with f_0 = 1.
    """
    n, phi, order = ring.dim, PHI_DEGREE[ring.conductor], ring.group.order
    traces = _traces(ring.conductor)
    power = _one_coords(n)
    p: list[int] = []
    f = [1]
    for k in range(1, n + 1):
        power = _tw_mul(ring, _coord_list(power, phi), xs)
        p.append(order * sum(map(mul, power, traces)))
        fk, rest = divmod(-sum(map(mul, p, reversed(f))), k)
        if rest:
            raise ArithmeticError("power sums do not give an integer polynomial")
        f.append(fk)
    return f[::-1]


def _power(ring: TwRing, xs, e: int) -> list[int]:
    """Flat coordinates of x^e for e >= 0, by square and multiply."""
    phi = PHI_DEGREE[ring.conductor]
    result = _one_coords(ring.dim)
    while e:
        if e & 1:
            result = _tw_mul(ring, _coord_list(result, phi), xs)
        e >>= 1
        if e:
            xs = _coord_list(_tw_mul(ring, xs, xs), phi)
    return result


def _leaf_order(ring: TwRing, xs, poly: list[int], cap: Optional[int]) -> Optional[int]:
    """The order of a unit x of a ring without components, whose L_x has
    characteristic polynomial poly (None when infinite or above cap)."""
    factors = cyclotomic_factors(poly)
    if factors is None:
        return None
    order = lcm(*factors)
    if cap is not None and order > cap:
        return None
    # L_x 1 = x, so L_x^order = I exactly when x^order = 1
    return order if _power(ring, xs, order) == _one_coords(ring.dim) else None


def _unit_leaves(ring: TwRing, xs, polys: dict) -> Optional[list]:
    """(key, leaf, image) for the image of xs in each leaf ring, with the
    characteristic polynomial of that image looked up in polys by key =
    (leaf position, image) and stored there; None as soon as one leaf
    determinant, the constant term up to sign, is not +-1."""
    leaves = []
    for i, (leaf, ys) in enumerate(_leaves(ring, xs)):
        key = (i, tuple(ys))
        if key not in polys:
            polys[key] = _charpoly(leaf, ys)
        if polys[key][0] not in (1, -1):
            return None
        leaves.append((key, leaf, ys))
    return leaves


def is_unit_coords(ring: TwRing, xs) -> bool:
    """Whether the element with coordinate list xs (as TwElement.coords) is
    a unit, without building its inverse.

    x is a unit exactly when det L_x = +-1.  The certified components make
    det L_x the product of the leaf determinants, which are integers, so x
    is a unit exactly when every leaf determinant is +-1.
    """
    return _unit_leaves(ring, xs, {}) is not None


def _unit_order(
    ring: TwRing, xs, cap: Optional[int], polys: dict, orders: dict
) -> tuple[bool, Optional[int]]:
    """unit_order_coords, with the characteristic polynomial and the order
    of each leaf image looked up in polys and orders by (leaf position,
    image) and stored there.  Every leaf's constant term is read before any
    order is computed.  A scan passes the same tables, and one cap, for all
    its candidates, so each distinct image is decided once."""
    if not ring.components:
        # the ring is its own only leaf, and a scan never repeats a candidate
        polys, orders = {}, {}
    leaves = _unit_leaves(ring, xs, polys)
    if leaves is None:
        return False, None
    found = []
    for key, leaf, ys in leaves:
        if key not in orders:
            orders[key] = _leaf_order(leaf, ys, polys[key], cap)
        if orders[key] is None:
            return True, None
        found.append(orders[key])
    order = lcm(*found)
    return True, order if cap is None or order <= cap else None


def unit_order_coords(
    ring: TwRing, xs, cap: Optional[int] = None
) -> tuple[bool, Optional[int]]:
    """unit_order of the element with coordinate list xs (as TwElement.coords).

    No matrix is built: each component image is decided by its Newton
    polynomial and one power, as the module docstring sets out, and the
    order of the element is the lcm of the component orders.
    """
    return _unit_order(ring, xs, cap, {}, {})


def unit_order(x: TwElement, cap: Optional[int] = None) -> tuple[bool, Optional[int]]:
    """Whether x is a unit, and if so its multiplicative order (None when
    infinite or above cap)."""
    return unit_order_coords(x.ring, x.coords(), cap)


def torsion_order(x: TwElement, cap: Optional[int] = None) -> Optional[int]:
    """Multiplicative order of a unit, or None when infinite (or above cap)."""
    unit, order = unit_order(x, cap)
    if not unit:
        raise ValueError("torsion order requested for a non-unit")
    return order


# ---------------------------------------------------------------------------
# self-twist classes, conjugation characters, cyclic sums


def basis_power_exponent(ring: TwRing, g: int) -> int:
    """Exponent s with u_g^o(g) = zeta^s (modulo the cocycle value modulus)."""
    s = 0
    p = g
    for _ in range(element_order(ring.group, g) - 1):
        s += ring.cocycle.table[p][g]
        p = ring.group.mul[p][g]
    return s % ring.cocycle.modulus


def partition_by_self_twist(ring: TwRing) -> dict[int, list[int]]:
    """Classes G_j = {g : u_g^o(g) = zeta^j}; G_0 is the idempotent-friendly one."""
    out: dict[int, list[int]] = {}
    for g in ring.group.elements():
        s = basis_power_exponent(ring, g)
        out.setdefault(s, []).append(g)
    return out


@dataclass(frozen=True)
class ConjCharacter:
    """The commutator character chi_x(g) = [u_g, u_x] on the centralizer of x."""

    ring: TwRing
    x: int
    exponents: dict[int, int]
    character: LinearCharacter
    c_plus: Optional[tuple[int, ...]]
    c_minus: Optional[tuple[int, ...]]

    @property
    def is_regular(self) -> bool:
        """x is alpha-regular when the character is trivial on C_G(x)."""
        return all(v == 0 for v in self.exponents.values())


def conj_character(ring: TwRing, x: int) -> ConjCharacter:
    g = ring.group
    m = ring.cocycle.modulus
    cent = tuple(sorted(centralizer(g, x)))
    exps = {c: (ring.cocycle.table[c][x] - ring.cocycle.table[x][c]) % m for c in cent}
    sub, embed = subgroup_as_group(g, cent)
    char = LinearCharacter(sub, m, tuple(exps[embed.map[i]] for i in range(sub.order)))
    half = m // 2 if m % 2 == 0 else None
    if all(v == 0 or (half is not None and v == half) for v in exps.values()):
        plus = tuple(c for c in cent if exps[c] == 0)
        minus = tuple(c for c in cent if exps[c] != 0)
    else:
        plus = minus = None
    return ConjCharacter(
        ring=ring,
        x=x,
        exponents=exps,
        character=char,
        c_plus=plus,
        c_minus=minus,
    )


def cyclic_sum(ring: TwRing, g: int) -> TwElement:
    """1 + u_g + ... + u_g^(o(u_g)-1); the zero element when the sum telescopes."""
    one = ring.one()
    total = one
    p = ring.basis(g)
    cap = element_order(ring.group, g) * ring.cocycle.modulus
    steps = 0
    while p != one:
        total = total + p
        p = p * ring.basis(g)
        steps += 1
        if steps > cap:
            raise ArithmeticError("cyclic sum failed to terminate")
    return total


# ---------------------------------------------------------------------------
# bounded scans for torsion units


def _small_supports(
    ring: TwRing, values: Sequence[int], support_cap: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(support, coefficients) with 1 to support_cap entries from values, by
    support size, then support, then coefficients in itertools.product order."""
    for size in range(1, support_cap + 1):
        for support in itertools.combinations(ring.group.elements(), size):
            for coeffs in itertools.product(values, repeat=size):
                yield support, coeffs


def small_support_elements(
    ring: TwRing, values: Sequence[int], support_cap: int
) -> Iterator[TwElement]:
    """Elements with 1 to support_cap nonzero coefficients from values, by
    support size, then support, then coefficients in itertools.product order."""
    for support, coeffs in _small_supports(ring, values, support_cap):
        yield ring.element(dict(zip(support, coeffs)))


def torsion_units_bounded(
    ring: TwRing,
    coeff_values: Sequence[int] = (-1, 0, 1),
    support_cap: Optional[int] = None,
) -> list[TwElement]:
    """All torsion units with coefficients from coeff_values (0 allowed).

    When support_cap is given, only elements with at most that many nonzero
    coefficients are enumerated.  A scan of more candidates than the
    scan_candidates cap is refused before it starts.
    """
    nonzero = [v for v in coeff_values if v != 0]
    out = []
    max_support = support_cap if support_cap is not None else ring.group.order
    count = sum(
        comb(ring.group.order, k) * len(nonzero) ** k for k in range(1, max_support + 1)
    )
    if count > (cap := CAPS.get().scan_candidates):
        raise CapExceededError(f"scan of {count} candidates exceeds cap {cap}")
    polys: dict = {}
    orders: dict = {}
    for support, coeffs in _small_supports(ring, nonzero, max_support):
        xs = [(g, 0, v) for g, v in zip(support, coeffs)]
        unit, order = _unit_order(ring, xs, None, polys, orders)
        if unit and order is not None:
            out.append(ring.element(dict(zip(support, coeffs))))
    return out


def berman_higman_violations(
    ring: TwRing,
    coeff_values: Sequence[int] = (-1, 0, 1),
    support_cap: Optional[int] = None,
) -> list[TwElement]:
    """Torsion units with nonzero identity coefficient that are not trivial.

    The trace-zero property predicts this list is empty: a torsion unit
    with nonzero coefficient at the identity must be a coefficient-ring
    unit (+- a root of unity times u_1).
    """
    bad = []
    for x in torsion_units_bounded(ring, coeff_values, support_cap):
        c1 = x.coeff(0)
        if c1.is_zero():
            continue
        if len(x.support()) == 1 and is_root_of_unity(c1) is not None:
            continue
        bad.append(x)
    return bad


# ---------------------------------------------------------------------------
# canonical rings for the case studies


def anticommuting_ring(n: int = 0, conductor: int = 2) -> TwRing:
    """Z^alpha[C2^(n+2)] with the canonical anticommuting-pair twist."""
    c = anticommuting_pair_cocycle(n)
    return TwRing(c.group, c, conductor)


def quaternion_twist_ring(conductor: int = 2) -> TwRing:
    """Z^gamma[C2 x C2] with u_g^2 = u_h^2 = [u_g, u_h] = -1."""
    c = c2c2_quaternion_cocycle()
    return TwRing(c.group, c, conductor)
