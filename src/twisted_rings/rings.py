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
component.  The scans ask only whether x is a unit of finite order: then
the n eigenvalues of L_x are roots of unity, so |p_k| <= n for the power
sums p_k = tr L_x^k, and the first p_k past n refutes x, unit or not, with
no further product.  They decide each distinct component image of their
candidates once, in a per-leaf verdict table that only the scans share;
``unit_order`` keeps nothing between calls.  ``is_unit`` reads the inverse
off the same polynomial by Cayley-Hamilton; ``is_unit_coords`` answers for
callers that never read the inverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import comb, gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .cocycles import (
    Cocycle,
    LinearCharacter,
    anticommuting_pair_cocycle,
    exponent_order,
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
    """R^alpha[G] with R = Z[zeta_conductor].

    The twist must be a normalized 2-cocycle, as for build_G_alpha and
    are_cohomologous; only normalization is checked here, the rest at the edge."""

    group: FiniteGroup
    cocycle: Cocycle
    conductor: int

    def __post_init__(self) -> None:
        if self.conductor not in SUPPORTED_CONDUCTORS:
            raise ValueError(
                f"conductor {self.conductor} unsupported (allowed: {SUPPORTED_CONDUCTORS})"
            )
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

        N is found coset by coset: for k in N, kz is a central involution
        along which the twist is inflated exactly when z is one (z = k kz,
        alpha(akz, b) = alpha(az, b) and alpha(a, bkz) = alpha(a, bz)), so
        one check decides the coset of z under the part of N found so far.
        Equal targets are one TwRing, so each is split and certified once.
        """
        # a late import: extensions imports this module
        from .extensions import build_extension, build_psi, lin_characters

        g, table = self.group, self.cocycle.table
        kernel = [0]
        decided = {0}
        for z in g.elements()[1:]:
            if z in decided:
                continue
            coset = [g.mul[k][z] for k in kernel]
            decided.update(coset)
            col = tuple(row[z] for row in g.mul)
            if g.mul[z][z] or col != g.mul[z]:
                continue
            shift = itemgetter(*col)
            if all(table[col[a]] == row and shift(row) == row for a, row in enumerate(table)):
                kernel += coset
        if len(kernel) == 1:
            return ()
        ext = build_extension(g, kernel)
        sec = ext.section
        beta = Cocycle(
            ext.quotient_group,
            self.cocycle.modulus,
            tuple(tuple(table[a][b] for b in sec) for a in sec),
        )
        # beta inflated along ext.proj is the ring's own table
        targets: dict = {}
        psis = []
        for chi in lin_characters(ext.sub_group, 2):
            psi = build_psi(ext, chi, beta, self.conductor, source=self)
            psis.append(replace(psi, target=targets.setdefault(psi.target, psi.target)))
        _certify_components(self, psis)
        return tuple(psis)

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
            if isinstance(v, int):
                vec[g * phi] = int(v)
            else:
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
    """Read {"coeffs": [{"g": id, "m": m, "c": [ints]}, ...]}; each id in
    range, once.  A missing or malformed field is refused by name."""
    entries = data.get("coeffs") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('an element must be a JSON object with a "coeffs" list')
    coeffs = {}
    for i, e in enumerate(entries):
        if missing := [k for k in ("g", "m", "c") if not isinstance(e, dict) or k not in e]:
            raise ValueError(f'entry {i} of "coeffs" has no "{missing[0]}" field')
        if not isinstance(e["c"], list):
            raise ValueError(f'"c" of entry {i} of "coeffs" must be a list of integers')
        g = exact_int(e["g"], "element id")
        if not 0 <= g < ring.group.order:
            raise ValueError(f"element id {g} out of range 0..{ring.group.order - 1}")
        if g in coeffs:
            raise ValueError(f"element id {g} given twice")
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
    quotient map q, which every psi_chi shares with the source ring, once
    for the ring, and the twist exponents by twist_exponents_failure, on
    every basis pair for the trivial chi and a generating set of characters
    and as sums of theirs for the rest.  The targets must have the ring's
    dimension in total, and _lift_sum of the images of every basis vector
    must be |N| times that vector, which _lifts_back checks by the
    orthogonality of the characters, sum over chi of chi(z) chi(n) =
    |N| [z = n].  Then the sum of the psi_chi is an
    injective, hence bijective, homomorphism of Q-algebras, so det L_x is
    the product of the determinants of L_psi_chi(x).
    """
    # a late import: extensions imports this module
    from .extensions import quotient_multiplicative, twist_exponents_failure

    quotient = [g for g, _ in psis[0].gamma_images]
    if not quotient_multiplicative(psis[0]) or any(
        psi.source != ring or [g for g, _ in psi.gamma_images] != quotient for psi in psis
    ):
        raise ArithmeticError(f"components of {ring!r}: the quotient map is not multiplicative")
    for psi in psis:
        if psi.image_coords([(0, 0, 1)]) != _one_coords(psi.target.dim):
            raise ArithmeticError(f"component {psi.chi.values} of {ring!r} does not send 1 to 1")
    if (bad := twist_exponents_failure(psis)) is not None:
        raise ArithmeticError(f"component {bad.chi.values} of {ring!r} is not multiplicative")
    if sum(psi.target.dim for psi in psis) != ring.dim:
        raise ArithmeticError(f"components of {ring!r} do not add up to its dimension")
    if not _lifts_back(ring, psis):
        raise ArithmeticError(f"components of {ring!r} do not lift back to the ring")


def _lifts_back(ring: TwRing, psis) -> bool:
    """Whether _lift_sum of the images of every basis vector zeta^j u_gamma
    under the psi_chi in psis is |N| times that vector, lifting none.

    Write gamma = n mu(q).  If psi_chi sends zeta^j u_gamma to
    chi(n) zeta^j v_q, then since the lift sends zeta^j v_q to
    sum over z in N of chi(z) zeta^j u_(z mu(q)), the lifted sum is

        sum over z of (sum over chi of chi(z) chi(n)) zeta^j u_(z mu(q)),

    which is |N| zeta^j u_gamma exactly when the inner sum is |N| at z = n
    and 0 at every other z.  Each psi's lift_terms give its section, the
    rows of the z in N and the signs chi(z), and the sum holds when
    1. the +-1 table H of the signs, one row per psi, has H^T H = |N| I;
    2. every psi reads one section and one N, and (z, q) -> z mu(q) is a
       bijection N x G -> Gamma, so each gamma has one (n, q);
    3. every psi sends gamma to q with exponent 0 or c_t/2 of zeta_(c_t),
       c_t/2 exactly when chi(n) = -1;
    4. zeta_(c_t)^(j c_t/c_s) and its negative convert back to e_j and
       -e_j in Z[zeta_(c_s)] through the powers of lift_terms.
    That reads |Gamma| images per psi and one popcount per pair of columns
    of H, where lifting every basis vector cost dim |N|^2.
    """
    order, phi = ring.group.order, PHI_DEGREE[ring.conductor]
    section, _, signs = psis[0].lift_terms
    rows = [row for row, _ in signs]
    where = {row[mu]: (i, q) for i, row in enumerate(rows) for q, mu in enumerate(section)}
    if len(psis) != len(rows) or len(where) != order or len(rows) * len(section) != order:
        return False
    n_of = [where[gamma][0] for gamma in range(order)]
    q_of = [where[gamma][1] for gamma in range(order)]
    # columns[i]: the rows of H, as bits, where chi(z_i) = -1
    columns = [0] * len(rows)
    for bit, psi in enumerate(psis):
        own_section, powers, own_signs = psi.lift_terms
        c_t = psi.target.conductor
        step = c_t // psi.source.conductor
        if (
            own_section != section
            or [row for row, _ in own_signs] != rows
            or not _converts_back(powers, psi.target.structure[1], step, phi)
        ):
            return False
        flips = [sign < 0 for _, sign in own_signs]
        root_step = c_t // psi.target.cocycle.modulus
        half = c_t // 2 if c_t % 2 == 0 else -1
        images = psi.gamma_images
        if [g for g, _ in images] != q_of or [e * root_step % c_t for _, e in images] != [
            half if flips[n] else 0 for n in n_of
        ]:
            return False
        for i, flip in enumerate(flips):
            columns[i] |= flip << bit
    # H^T H = |N| I: any two columns of H differ in exactly half its rows
    return all(2 * (a ^ b).bit_count() == len(psis) for a, b in itertools.combinations(columns, 2))


def _converts_back(powers, roots, step: int, phi: int) -> bool:
    """Whether, for every j < phi, the target power-basis vector of
    zeta_(c_t)^(j step) (roots[j step]) maps through powers to e_j, and
    that of zeta_(c_t)^(j step + c_t/2) to -e_j when c_t is even."""
    c_t = len(roots)
    for j in range(phi):
        for shift, sign in ((0, 1), (c_t // 2, -1))[: 2 - c_t % 2]:
            terms = roots[(j * step + shift) % c_t]
            vec = [sum(v * powers[t][k] for t, v in terms) for k in range(phi)]
            if vec != [sign * (k == j) for k in range(phi)]:
                return False
    return True


def is_unit(x: TwElement) -> Optional[TwElement]:
    """Return the inverse when x is a unit of the Z-order, else None.

    _inverse_coords builds it unchecked; x x^-1 = 1, checked once here,
    certifies it from both sides: in a Z-order inside a finite-dimensional
    Q-algebra, x y = 1 makes L_x onto, hence bijective, so y x = 1 too."""
    ring = x.ring
    if (flat := _inverse_coords(ring, x.coords())) is None:
        return None
    inv = ring.from_coords(flat)
    if x * inv != ring.one():
        raise ArithmeticError("inverse verification failed")
    return inv


def _inverse_coords(ring: TwRing, xs) -> Optional[list[int]]:
    """Flat coordinates of x^-1 for x with coordinate list xs, unchecked, or
    None when x is not a unit.  On a ring with components, x is a unit exactly when every component
    image is, and x^-1 is rebuilt from their inverses by one division by
    |N|.  Otherwise x is a unit exactly when the constant term f_0 of the
    Newton polynomial f of L_x is +-1, and then x^-1 = -f_0 (x^(n-1) +
    f_(n-1) x^(n-2) + ... + f_1) by Cayley-Hamilton, from the powers of x
    that made f.
    """
    if ring.components:
        parts = []
        for psi in ring.components:
            phi = PHI_DEGREE[psi.target.conductor]
            part = _inverse_coords(psi.target, _coord_list(psi.image_coords(xs), phi))
            if part is None:
                return None
            parts.append(_coord_list(part, phi))
        return [v // len(parts) for v in _lift_sum(ring.components, parts)]
    f, powers = _charpoly_with_powers(ring, xs)
    if f[0] not in (1, -1):
        return None
    # coordinate by coordinate, -f_0 sum_(k=1..n) f_k x^(k-1)
    return [-f[0] * sum(map(mul, f[1:], c)) for c in zip(*powers)]


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
    """det(t I - L_x), ascending coefficients, for x with coordinate list xs."""
    return _charpoly_with_powers(ring, xs)[0]


def _charpoly_with_powers(
    ring: TwRing, xs, bound: Optional[int] = None
) -> Optional[tuple[list[int], list[list[int]]]]:
    """det(t I - L_x), ascending coefficients, for x with coordinate list xs,
    and the flat coordinates of the powers x^0, ..., x^(n-1) that made it;
    None as soon as a power sum exceeds bound in absolute value.

    The power sums p_k = tr L_x^k = |G| Tr((x^k)_1) of the eigenvalues fix
    the coefficients f_k of t^(n-k) by Newton's identities
    k f_k = -sum_{i=1..k} f_(k-i) p_i, with f_0 = 1.
    """
    n, phi, order = ring.dim, PHI_DEGREE[ring.conductor], ring.group.order
    traces = _traces(ring.conductor)
    powers = [_one_coords(n)]
    p: list[int] = []
    f = [1]
    for k in range(1, n + 1):
        power = _tw_mul(ring, _coord_list(powers[-1], phi), xs)
        p.append(order * sum(map(mul, power, traces)))
        if bound is not None and abs(p[-1]) > bound:
            return None
        fk, rest = divmod(-sum(map(mul, p, reversed(f))), k)
        if rest:
            raise ArithmeticError("power sums do not give an integer polynomial")
        f.append(fk)
        if k < n:
            powers.append(power)
    return f[::-1], powers


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


def is_unit_coords(ring: TwRing, xs) -> bool:
    """Whether the element with coordinate list xs (as TwElement.coords) is
    a unit, without building its inverse.

    x is a unit exactly when det L_x = +-1.  The certified components make
    det L_x the product of the leaf determinants, which are integers, so x
    is a unit exactly when every leaf determinant is +-1.
    """
    return all(_charpoly(leaf, ys)[0] in (1, -1) for leaf, ys in _leaves(ring, xs))


def _torsion_leaf(ring: TwRing, xs) -> bool:
    """Whether x, with coordinate list xs, is a unit of finite order in a
    ring without components.

    The n = dim eigenvalues of L_x for such an x are roots of unity, so
    every power sum has |p_k| <= n, and the first p_k past n refutes x,
    unit or not.  An x within the bound for k = 1..n is decided as
    unit_order_coords decides it: constant term +-1, then _leaf_order.
    """
    found = _charpoly_with_powers(ring, xs, ring.dim)
    if found is None or found[0][0] not in (1, -1):
        return False
    return _leaf_order(ring, xs, found[0], None) is not None


def is_torsion_unit_coords(ring: TwRing, xs, verdicts: dict) -> bool:
    """Whether the element with coordinate list xs is a unit of finite
    order, with the verdict on each leaf image looked up in verdicts by
    (leaf position, image) and stored there.  A scan passes one table for
    all its candidates, so each distinct image is decided once.

    The certified components make x a unit of finite order exactly when
    every leaf image is one: det L_x is the product of the leaf
    determinants, and x^L = 1 exactly when every image has x^L = 1.
    """
    if not ring.components:
        # the ring is its own only leaf, and a scan never repeats a candidate
        return _torsion_leaf(ring, xs)
    for i, (leaf, ys) in enumerate(_leaves(ring, xs)):
        key = (i, tuple(ys))
        if key not in verdicts:
            verdicts[key] = _torsion_leaf(leaf, ys)
        if not verdicts[key]:
            return False
    return True


def unit_order_coords(
    ring: TwRing, xs, cap: Optional[int] = None
) -> tuple[bool, Optional[int]]:
    """unit_order of the element with coordinate list xs (as TwElement.coords).

    No matrix is built: each component image is decided by its Newton
    polynomial and one power, as the module docstring sets out, and the
    order of the element is the lcm of the component orders.  Every leaf's
    constant term is read before any order is computed.
    """
    leaves = []
    for leaf, ys in _leaves(ring, xs):
        poly = _charpoly(leaf, ys)
        if poly[0] not in (1, -1):
            return False, None
        leaves.append((leaf, ys, poly))
    orders = []
    for leaf, ys, poly in leaves:
        if (order := _leaf_order(leaf, ys, poly, cap)) is None:
            return True, None
        orders.append(order)
    order = lcm(*orders)
    return True, order if cap is None or order <= cap else None


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
    """1 + u_g + ... + u_g^(k-1) for k the order of u_g; the zero element
    when the sum telescopes.  u_g^o(g) = zeta^s for s = basis_power_exponent,
    so k = o(g) times the order of zeta^s."""
    k = element_order(ring.group, g) * exponent_order(
        ring.cocycle.modulus, basis_power_exponent(ring, g)
    )
    total = p = ring.one()
    for _ in range(k - 1):
        p = p * ring.basis(g)
        total = total + p
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
    verdicts: dict = {}
    for support, coeffs in _small_supports(ring, nonzero, max_support):
        if is_torsion_unit_coords(ring, [(g, 0, v) for g, v in zip(support, coeffs)], verdicts):
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
    phi = PHI_DEGREE[ring.conductor]
    for x in torsion_units_bounded(ring, coeff_values, support_cap):
        block = x.vec[:phi]
        if not any(block):
            continue
        c1 = CycInt(ring.conductor, block)
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
