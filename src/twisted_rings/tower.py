"""Unit-group tower over G x C2^n for twists inflated from G.

Each extra central involution x_i gives two ring retractions, x_i -> 1 and
x_i -> -1.  The first splits the unit group as K_i x| U(level i-1); the
second embeds K_i onto the units congruent to 1 mod 2 one level down.
Iterating grades the whole unit group by 2-adic congruence depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cocycles import inflate
from .cyclotomic import PHI_DEGREE
from .groups import GroupHom, direct_product, element_order, elementary_abelian_2
from .rings import (
    TwElement,
    TwRing,
    basis_power_exponent,
    conj_character,
    is_unit,
    is_unit_coords,
)
from .units import minimal_twisted_bicyclic


@dataclass(frozen=True)
class TowerContext:
    """Rings Z^alpha[G x C2^i] for 0 <= i <= n with the inflated twist."""

    rings: tuple[TwRing, ...]

    def ring(self, i: int) -> TwRing:
        return self.rings[i]


def build_tower(base: TwRing, levels: int) -> TowerContext:
    rings = [base]
    for i in range(1, levels + 1):
        lo = rings[-1]
        c2 = elementary_abelian_2(1, [f"x{i}"])
        g = direct_product(lo.group, c2, name=f"{base.group.name}xC2^{i}")
        # the x_i-free part of id a is a // 2
        proj = GroupHom(g, lo.group, tuple(a // 2 for a in g.elements()))
        rings.append(TwRing(g, inflate(lo.cocycle, proj), base.conductor))
    return TowerContext(rings=tuple(rings))


def embed_up(ctx: TowerContext, i: int, x: TwElement) -> TwElement:
    """Include a level-(i-1) element into level i (x_i-free part)."""
    lo = ctx.rings[i - 1]
    hi = ctx.rings[i]
    if x.ring != lo:
        raise ValueError("element is not at the expected level")
    phi = PHI_DEGREE[lo.conductor]
    vec = [0] * hi.dim
    for g, j, a in x.coords():
        vec[2 * g * phi + j] = a
    return hi.from_coords(vec)


def _retract(ctx: TowerContext, i: int, x: TwElement, negate: bool) -> TwElement:
    """x_i -> -1 when negate is set, else x_i -> 1 (the odd ids carry x_i)."""
    lo = ctx.rings[i - 1]
    if x.ring != ctx.rings[i]:
        raise ValueError("element is not at the expected level")
    phi = PHI_DEGREE[lo.conductor]
    vec = [0] * lo.dim
    for g, j, a in x.coords():
        vec[g // 2 * phi + j] += -a if negate and g % 2 else a
    return lo.from_coords(vec)


def project_psi(ctx: TowerContext, i: int, x: TwElement) -> TwElement:
    """The retraction x_i -> 1, a ring morphism by centrality of x_i."""
    return _retract(ctx, i, x, negate=False)


def project_phi(ctx: TowerContext, i: int, x: TwElement) -> TwElement:
    """The retraction x_i -> -1."""
    return _retract(ctx, i, x, negate=True)


def split_unit(
    ctx: TowerContext, i: int, u: TwElement
) -> tuple[TwElement, TwElement]:
    """Factor a level-i unit as u = k * s with psi_i(k) = 1, s from below.

    s is psi_i(u) re-embedded; k lands in the kernel of the induced unit
    map.  The factorization is verified exactly.
    """
    u_inv = is_unit(u)
    if u_inv is None:
        raise ValueError("split requested for a non-unit")
    s_small = project_psi(ctx, i, u)
    s_small_inv = project_psi(ctx, i, u_inv)
    s = embed_up(ctx, i, s_small)
    k = u * embed_up(ctx, i, s_small_inv)
    if project_psi(ctx, i, k) != ctx.rings[i - 1].one():
        raise ArithmeticError("kernel part does not project to 1")
    if k * s != u:
        raise ArithmeticError("split does not recompose")
    return k, s


def kernel_embed(ctx: TowerContext, i: int, k: TwElement) -> TwElement:
    """Embed K_i into the 1+2u units one level down via x_i -> -1."""
    if project_psi(ctx, i, k) != ctx.rings[i - 1].one():
        raise ValueError("element is not in the kernel of psi_i")
    image = project_phi(ctx, i, k)
    if not u_group_membership(ctx, 1, i - 1, image):
        raise ArithmeticError("kernel image is not congruent to 1 mod 2")
    return image


def u_group_membership(ctx: TowerContext, k: int, j: int, x: TwElement) -> bool:
    """x in U_{k,j}: a level-j unit with x - 1 divisible by 2^k."""
    ring = ctx.rings[j]
    if x.ring != ring:
        return False
    if (x - ring.one()).content() % (1 << k):
        return False
    return is_unit_coords(ring, x.coords())


def u_split(
    ctx: TowerContext, k: int, j: int, x: TwElement
) -> tuple[TwElement, TwElement]:
    """Split U_{k,j} as U_{k+1,j-1} x| U_{k,j-1}.

    Returns (a, b) with b = psi_j(x) and a = phi_j(x b^-1); a gains one
    power of two in congruence depth.
    """
    if j < 1:
        raise ValueError("no involution left to split along")
    if not u_group_membership(ctx, k, j, x):
        raise ValueError(f"element is not in U_({k},{j})")
    b = project_psi(ctx, j, x)
    b_inv = is_unit(b)
    if b_inv is None:
        raise ArithmeticError("projection of a unit failed to invert")
    kpart = x * embed_up(ctx, j, b_inv)
    a = project_phi(ctx, j, kpart)
    if not u_group_membership(ctx, k + 1, j - 1, a):
        raise ArithmeticError("deep part misses the expected congruence depth")
    if not u_group_membership(ctx, k, j - 1, b):
        raise ArithmeticError("shallow part left its congruence class")
    return a, b


# ---------------------------------------------------------------------------
# seeded sample units


def random_unit(ctx: TowerContext, level: int, rng: random.Random, length: int = 6) -> TwElement:
    """Product of random trivial and unipotent units at the given level."""
    ring = ctx.rings[level]
    n = ring.group.order
    out = ring.one()
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            g = rng.randrange(n)
            sign = rng.choice([1, -1])
            out = out * ring.basis(g, sign)
        else:
            out = out * _random_unipotent(ring, rng)
    return out


def _random_unipotent(ring: TwRing, rng: random.Random) -> TwElement:
    """u = 1 + z u_h s_g for a random anticommuting pair, or its inverse 2 - u
    (twisted_bicyclic certified (z u_h s_g)^2 = 0), or 1 when no pair exists."""
    n = ring.group.order
    candidates = []
    for g in range(1, n):
        if basis_power_exponent(ring, g) != 0:
            continue
        if element_order(ring.group, g) % 2:
            continue
        cc = conj_character(ring, g)
        if cc.c_minus:
            for h in cc.c_minus:
                candidates.append((g, h))
    if not candidates:
        return ring.one()
    g, h = candidates[rng.randrange(len(candidates))]
    u = minimal_twisted_bicyclic(ring, g, h)
    return u if rng.randrange(2) else 2 - u
