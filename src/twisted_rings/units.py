"""Unit-group structure of twisted group rings.

Covers the finiteness decision for U(R^alpha[G]), construction of twisted
and generalized bicyclic units, the Galois twist isomorphism between
power-twisted rings, and the mod-2 certificate that exhibits unit classes
outside the image of a projection map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .cocycles import build_G_alpha, cocycle_order, cocycle_power
from .cyclotomic import galois_apply
from .extensions import PsiMap
from .groups import (
    element_order,
    exponent,
    group_ring_units_finite,
    is_abelian,
    order_histogram,
)
from .rings import (
    TwElement,
    TwRing,
    basis_power_exponent,
    conj_character,
    cyclic_sum,
    is_unit_coords,
    small_support_elements,
    unit_order,
)

# conductors of the fields with finite unit groups in their ring of integers
_FIELD_OF = {1: "Q", 2: "Q", 3: "Q(sqrt-3)", 4: "Q(i)", 6: "Q(sqrt-3)"}


@dataclass(frozen=True)
class FinitenessVerdict:
    finite: bool
    case: str
    witness: dict = field(default_factory=dict, compare=False)


def decide_finiteness(ring: TwRing, witness_search: bool = True) -> FinitenessVerdict:
    """Decide whether U(R^alpha[G]) is finite: exactly when U(R[G_alpha]) is,
    for the basis group G_alpha (``group_ring_units_finite``).

    A trivial twist, or an abelian G_alpha of exponent at most 2 (which
    makes the table a coboundary), leaves the plain group ring and the
    classical criterion.  Infinite verdicts carry a unit of infinite order
    when a small search finds one.
    """
    field_name = _FIELD_OF.get(ring.conductor)
    if field_name is None:
        reason = f"U(Z[zeta_{ring.conductor}]) is already infinite"
        return FinitenessVerdict(False, "infinite", {"reason": reason})
    ga = build_G_alpha(ring.cocycle).group
    info = {"galpha_order_histogram": order_histogram(ga), "field": field_name}
    if not group_ring_units_finite(ga, ring.conductor):
        if witness_search and ring.dim <= 12:
            w = find_infinite_order_unit(ring)
            if w is not None:
                info["infinite_order_unit"] = w.to_json()
                info["witness_element"] = repr(w)
        return FinitenessVerdict(False, "infinite", info)
    abelian, exp = is_abelian(ga), exponent(ga)
    if cocycle_order(ring.cocycle) == 1 or (abelian and exp <= 2):
        case = "trivial-cocycle-higman"
    else:
        case = f"abelian-exp{exp}" if abelian else "hamiltonian-2group"
    return FinitenessVerdict(True, case, info)


def find_infinite_order_unit(ring: TwRing, bound: int = 1) -> Optional[TwElement]:
    """First unit of infinite order with small integer coefficients and
    support at most 3, if any."""
    values = [1, -1] if bound == 1 else [c for c in range(-bound, bound + 1) if c]
    for x in small_support_elements(ring, values, 3):
        unit, order = unit_order(x)
        if unit and order is None:
            return x
    return None


# ---------------------------------------------------------------------------
# twisted bicyclic units


@dataclass(frozen=True)
class BicyclicSpec:
    """Data for 1 + (o(g) - s_g)(a + b/o(g)) s_g with s_g the cyclic sum of u_g.

    b may be given directly or assembled as z * u_h for h anticommuting
    with u_g (h in C_g^-) and an optional central multiplier z.
    """

    ring: TwRing
    g: int
    h: Optional[int] = None
    a: Optional[TwElement] = None
    b: Optional[TwElement] = None
    z: Optional[TwElement] = None

    def resolved_b(self) -> Optional[TwElement]:
        if self.b is not None:
            return self.b
        if self.h is None:
            return None
        out = self.ring.basis(self.h)
        if self.z is not None:
            out = self.z * out
        return out


def twisted_bicyclic(spec: BicyclicSpec) -> TwElement:
    """Construct the unipotent unit 1 + (o(g) - s_g) a s_g + b s_g.

    Requires u_g^o(g) = 1 (so the cyclic sum is a nonzero idempotent
    multiple), b supported on C_g^-, and even o(g) whenever b != 0.  These
    imply the telescoping identity (o(g) - s_g) b s_g = o(g) b s_g, which
    makes the division by o(g) integral, so it is not re-checked: s_g b =
    b s'_g with s'_g the alternating sum, u_g^i s_g = s_g, and the signs of
    s'_g sum to 0 for even o(g).  The increment e is checked square-zero,
    so (1 + e)(1 - e) = 1 - e^2 = 1 needs no check.
    """
    ring = spec.ring
    g = spec.g
    if basis_power_exponent(ring, g) != 0:
        raise ValueError("base element must satisfy u_g^o(g) = 1")
    og = element_order(ring.group, g)
    sg = cyclic_sum(ring, g)
    increment = ring.zero()
    if spec.a is not None and not spec.a.is_zero():
        increment = increment + (og - sg) * spec.a * sg
    b = spec.resolved_b()
    if b is not None and not b.is_zero():
        if og % 2:
            raise ValueError("anticommuting part requires even element order")
        cg = conj_character(ring, g)
        if cg.c_minus is None:
            raise ValueError("conjugation character is not +-1 valued")
        minus = set(cg.c_minus)
        if not set(b.support()) <= minus:
            raise ValueError("b must be supported on the anticommuting part C_g^-")
        increment = increment + b * sg
    out = ring.one() + increment
    if increment * increment != ring.zero():
        raise ArithmeticError("bicyclic increment is not square-zero")
    return out


def minimal_twisted_bicyclic(
    ring: TwRing, g: int, h: int, z: Optional[TwElement] = None
) -> TwElement:
    """1 + z u_h s_g, the small cokernel-class representatives."""
    return twisted_bicyclic(BicyclicSpec(ring=ring, g=g, h=h, z=z))


# ---------------------------------------------------------------------------
# generalized bicyclic units from rational idempotents


@dataclass(frozen=True)
class RationalIdempotent:
    """Idempotent numerator/denominator with denominator the least n_f."""

    numerator: TwElement
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        num = self.numerator
        g = gcd(num.content(), self.denominator)
        if g != 1 and not num.is_zero():
            raise ValueError("idempotent fraction is not reduced")
        if num * num != num * self.denominator:
            raise ValueError("numerator/denominator is not an idempotent")

    @staticmethod
    def reduced(numerator: TwElement, denominator: int) -> "RationalIdempotent":
        g = gcd(numerator.content(), denominator)
        if g > 1:
            numerator = numerator.divide_exact(g)
            denominator //= g
        return RationalIdempotent(numerator, denominator)

    @property
    def n_f(self) -> int:
        """Least positive integer with n_f * f integral."""
        return self.denominator


def idempotent_from_cyclic_sum(ring: TwRing, g: int) -> RationalIdempotent:
    """The idempotent s_g / o(g) attached to g with u_g^o(g) = 1."""
    if basis_power_exponent(ring, g) != 0:
        raise ValueError("cyclic sum is zero; no idempotent for this element")
    return RationalIdempotent.reduced(
        cyclic_sum(ring, g), element_order(ring.group, g)
    )


def generalized_bicyclic(
    f: RationalIdempotent, x: TwElement
) -> tuple[TwElement, TwElement]:
    """b(x, f) = 1 + n_f^2 (1-f) x f and b(f, x) = 1 + n_f^2 f x (1-f).

    With f = num/den in lowest terms, n_f = den and the products collapse to
    integral elements (den - num) x num and num x (den - num).  Both square
    to zero without a check: RationalIdempotent checked num^2 = den num, so
    num (den - num) = 0 sits in the middle of each square.
    """
    ring = x.ring
    if f.numerator.ring != ring:
        raise ValueError("idempotent and element live in different rings")
    num, den = f.numerator, f.denominator
    co = ring.one() * den - num
    return ring.one() + co * x * num, ring.one() + num * x * co


# ---------------------------------------------------------------------------
# Galois twist between power-twisted rings


@dataclass(frozen=True)
class GaloisTwist:
    """Coefficient-wise sigma_j from R^alpha[G] onto R^(alpha^j)[G]."""

    source: TwRing
    target: TwRing
    j: int

    def apply(self, x: TwElement) -> TwElement:
        if x.ring != self.source:
            raise ValueError("element is not in the source ring")
        return TwElement(
            self.target, tuple(galois_apply(c, self.j) for c in x.coeffs)
        )


def galois_twist_iso(ring: TwRing, j: int) -> GaloisTwist:
    """The ring isomorphism sum a_g u_g -> sum sigma_j(a_g) v_g.

    Defined when j is coprime to both the class order of the twist and the
    coefficient conductor; multiplicativity follows from sigma_j scaling the
    table values to their j-th powers.
    """
    o = cocycle_order(ring.cocycle)
    if gcd(j, o) != 1:
        raise ValueError(f"gcd({j}, {o}) != 1: power twist is not isomorphic")
    if gcd(j, ring.conductor) != 1:
        raise ValueError(f"gcd({j}, {ring.conductor}) != 1: sigma_j undefined")
    target = TwRing(ring.group, cocycle_power(ring.cocycle, j), ring.conductor)
    return GaloisTwist(source=ring, target=target, j=j % ring.conductor or ring.conductor)


# ---------------------------------------------------------------------------
# cokernel obstruction certificates


@dataclass(frozen=True)
class ObstructionCertificate:
    certified: bool
    checks: dict
    reason: str


def parity_obstruction(psi: PsiMap, candidate: TwElement) -> ObstructionCertificate:
    """Certify that a unit of the target is missed by the induced unit map.

    Writes the candidate as 1 + w.  Every preimage of it maps, under
    collapsing the kernel subgroup, to 1 + w' + 2y with w' the coefficient
    vector of w read in the plain group ring.  When the target group has a
    finite untwisted unit group, the trace-zero property of torsion units
    leaves only two escapes, blocked by two parities:

    * identity coefficient of w even  -> the image has odd, hence nonzero,
      identity coefficient;
    * 1 + w mod 2 has support >= 2    -> the image is not a trivial unit.

    Both hold: no preimage is a unit, so the candidate's class in the
    cokernel is non-trivial.  One-sided: failure is reported as
    inconclusive, never as membership.
    """
    checks: dict = {}
    ring = candidate.ring
    if candidate.ring != psi.target:
        raise ValueError("candidate must live in the projection target")
    checks["coefficients_rational"] = psi.source.conductor in (1, 2)
    checks["chi_values_pm1"] = all(
        2 * v % psi.chi.modulus == 0 for v in psi.chi.values
    )
    checks["kernel_central"] = psi.ext.is_central
    checks["target_group_ring_units_finite"] = psi.target_group_ring_units_finite
    checks["candidate_is_unit"] = is_unit_coords(ring, candidate.coords())
    w = candidate - ring.one()
    try:
        wvec = w.int_vector()
        checks["increment_integral"] = True
    except ValueError:
        wvec = None
        checks["increment_integral"] = False
    if wvec is not None:
        checks["identity_coefficient_even"] = wvec[0] % 2 == 0
        onew = [(1 if g == 0 else 0) + v for g, v in enumerate(wvec)]
        checks["mod2_support"] = sum(1 for v in onew if v % 2)
        checks["not_trivial_mod2"] = checks["mod2_support"] >= 2
    # the count is the one entry that is not a check
    certified = all(v for k, v in checks.items() if k != "mod2_support")
    if certified:
        reason = "outside the image: both parity conditions hold"
    else:
        failed = [k for k, v in checks.items() if v is False]
        reason = f"inconclusive: failed checks {failed}"
    return ObstructionCertificate(certified=certified, checks=checks, reason=reason)
