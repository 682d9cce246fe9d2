"""Group extensions, sections, and the projection maps they induce.

An extension 1 -> N -> Gamma -> G -> 1 with a fixed section mu determines a
factor set alpha(g,h) = mu(g) mu(h) mu(gh)^-1 in N.  Composing with an
invariant character chi of N yields the ring epimorphism

    Psi: R[Gamma] -> R[chi]^(beta * chi(alpha))[G],  u_(n mu(g)) -> chi(n) v_g

whose kernel and induced unit-group map are the objects of interest here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .cocycles import (
    Cocycle,
    LinearCharacter,
    build_G_alpha,
    inflate,
    transgress,
    trivial_cocycle,
)
from .cyclotomic import PHI_DEGREE, SUPPORTED_CONDUCTORS, euler_phi, root_to_cyc
from .errors import CapExceededError
from .groups import (
    FiniteGroup,
    GroupHom,
    exponent,
    greedy_generators,
    group_ring_units_finite,
    is_abelian,
    order_histogram,
    quotient,
    subgroup_as_group,
    validate_section,
)
from .rings import TwElement, TwRing, is_torsion_unit_coords


@dataclass(frozen=True)
class ExtensionData:
    """An extension with a chosen section and its derived factor set."""

    total: FiniteGroup
    sub_ids: frozenset[int]
    quotient_group: FiniteGroup
    proj: GroupHom
    section: tuple[int, ...]
    sub_group: FiniteGroup
    sub_embed: tuple[int, ...]
    sub_index: dict[int, int]
    alpha_sub: tuple[tuple[int, ...], ...]
    sigma: tuple[tuple[int, ...], ...]
    is_central: bool

    @cached_property
    def _decomposed(self) -> tuple[tuple[int, int], ...]:
        """(sub-id of n, quotient id g) with gamma = n * mu(g), for every
        gamma, read once per extension by the maps of all its characters."""
        mul, inv = self.total.mul, self.total.inv
        return tuple(
            (self.sub_index[mul[gamma][inv[self.section[g]]]], g)
            for gamma, g in enumerate(self.proj.map)
        )

    @cached_property
    def _sub_generators(self) -> tuple[int, ...]:
        """A generating set of N, each element outside the span of those
        before it, so at most log2 |N| of them: transgress reads their rows."""
        return tuple(greedy_generators(self.sub_group.mul))


def build_extension(
    total: FiniteGroup,
    sub_ids: Iterable[int],
    section_map: Optional[Sequence[int]] = None,
    proj: Optional[GroupHom] = None,
) -> ExtensionData:
    """Build extension data over a normal subgroup.

    The quotient defaults to the canonical one (cosets numbered by least
    representative); passing an explicit surjective homomorphism with the
    same kernel fixes a preferred presentation of the quotient instead.  The
    default section picks the least preimage of each quotient element; an
    explicit section_map (quotient id -> total id), checked here, may be
    supplied to reproduce a particular labelling.  The factor set needs no
    check: proj is a homomorphism with kernel N and mu a section of it, so
    mu(a) mu(b) mu(ab)^-1 maps to 1 and lies in N.
    """
    nset = frozenset(sub_ids)
    if proj is None:
        q, proj = quotient(total, nset)
    else:
        if proj.source != total:
            raise ValueError("projection source is not the extension total")
        if not proj.is_surjective():
            raise ValueError("projection is not surjective")
        if proj.kernel() != nset:
            raise ValueError("projection kernel differs from the given subgroup")
        q = proj.target
    sub_group, embed = subgroup_as_group(total, nset)
    sub_index = {embed.map[i]: i for i in range(sub_group.order)}
    if section_map is None:
        # the least preimage of each coset, a section by construction
        least = {proj.map[x]: x for x in reversed(total.elements())}
        section = tuple(least[g] for g in q.elements())
    else:
        section = tuple(section_map)
        validate_section(proj, section)
    mul, inv = total.mul, total.inv
    # mu(a) mu(b) mu(ab)^-1, and n -> mu(g) n mu(g)^-1 on the kernel
    alpha_sub = tuple(
        tuple(
            sub_index[mul[mul[section[a]][section[b]]][inv[section[q.mul[a][b]]]]]
            for b in q.elements()
        )
        for a in q.elements()
    )
    sigma = tuple(tuple(sub_index[mul[mul[mu][n]][inv[mu]]] for n in embed.map) for mu in section)
    # Gamma = N mu(G), so N is central exactly when it is abelian and every
    # mu(g) fixes it under conjugation
    identity = tuple(range(sub_group.order))
    central = is_abelian(sub_group) and all(perm == identity for perm in sigma)
    return ExtensionData(
        total=total,
        sub_ids=nset,
        quotient_group=q,
        proj=proj,
        section=section,
        sub_group=sub_group,
        sub_embed=embed.map,
        sub_index=sub_index,
        alpha_sub=alpha_sub,
        sigma=sigma,
        is_central=central,
    )


# ---------------------------------------------------------------------------
# the projection ring map


@dataclass(frozen=True)
class PsiMap:
    """Ring epimorphism R^beta[Gamma] -> R[chi]^(beta * T(chi))[G]."""

    ext: ExtensionData
    chi: LinearCharacter
    source: TwRing
    target: TwRing
    gamma_images: tuple[tuple[int, int], ...]

    def image_coords(self, xs) -> list[int]:
        """Flat target coordinates of the image of the source element with
        coordinate list xs (as TwElement.coords).

        With c_s, c_t the source and target conductors and m_t the target
        modulus, the coordinate zeta_(c_s)^i u_gamma goes to
        zeta_(c_t)^(i c_t/c_s + e c_t/m_t) v_g for gamma_images[gamma] = (g, e).
        """
        target = self.target
        phi, roots, _ = target.structure
        c_t = target.conductor
        step = c_t // self.source.conductor
        root_step = c_t // target.cocycle.modulus
        images = self.gamma_images
        out = [0] * target.dim
        for gamma, i, a in xs:
            gq, exp = images[gamma]
            base = gq * phi
            for t, v in roots[(i * step + exp * root_step) % c_t]:
                out[base + t] += a * v
        return out

    @cached_property
    def lift_terms(self) -> tuple:
        """What the section lift back to the source reads: the section map,
        the power-basis vector of zeta_(c_t)^t in Z[zeta_(c_s)] for each
        t < phi(c_t), and for each z in N its row of the source group table
        with the sign chi(z)."""
        c_s, c_t = self.source.conductor, self.target.conductor
        mul = self.source.group.mul
        powers = tuple(root_to_cyc(c_t, t, c_s).coeffs for t in range(PHI_DEGREE[c_t]))
        signs = tuple(
            (mul[z], -1 if v else 1) for z, v in zip(self.ext.sub_embed, self.chi.values)
        )
        return self.ext.section, powers, signs

    @cached_property
    def target_group_ring_units_finite(self) -> bool:
        """Whether U(Z[G]) is finite for the target group G, decided once per map."""
        return group_ring_units_finite(self.target.group, 2)


def build_psi(
    ext: ExtensionData,
    chi: LinearCharacter,
    beta: Optional[Cocycle] = None,
    conductor: Optional[int] = None,
    source: Optional[TwRing] = None,
) -> PsiMap:
    """Assemble the projection map for an invariant character of the kernel.

    beta is a cocycle on the quotient (default trivial); the source ring is
    twisted by its inflation, the target by beta * T(chi).  A caller that
    already holds that source ring may pass it, and it is used as it is.
    transgress checks that chi is an invariant homomorphism on N.  The
    decomposition gamma = n mu(g), which does not depend on chi, is read
    once per extension.
    """
    g = ext.quotient_group
    if beta is None:
        beta = trivial_cocycle(g, 1)
    if beta.group != g:
        raise ValueError("beta must be a cocycle on the quotient group")
    t_chi = transgress(ext, chi)
    m_t = lcm(beta.modulus, t_chi.modulus)
    # beta and T(chi) with their exponents rescaled to mu_(m_t)
    f_beta, f_chi = m_t // beta.modulus, m_t // t_chi.modulus
    target_table = tuple(
        tuple((b * f_beta + t * f_chi) % m_t for b, t in zip(b_row, t_row))
        for b_row, t_row in zip(beta.table, t_chi.table)
    )
    target_cocycle = Cocycle(g, m_t, target_table)
    src_conductor = _fit_conductor(lcm(conductor or 1, beta.modulus))
    tgt_conductor = _fit_conductor(lcm(conductor or 1, m_t))
    if source is None:
        source = TwRing(ext.total, inflate(beta, ext.proj), src_conductor)
    target = TwRing(g, target_cocycle, tgt_conductor)
    return PsiMap(
        ext=ext,
        chi=chi,
        source=source,
        target=target,
        gamma_images=tuple((gq, chi.values[n] * f_chi % m_t) for n, gq in ext._decomposed),
    )


def _fit_conductor(m: int) -> int:
    for c in SUPPORTED_CONDUCTORS:
        if c % m == 0:
            return c
    raise CapExceededError(f"no supported conductor divisible by {m}")


def apply_psi(psi: PsiMap, x: TwElement) -> TwElement:
    """Linear extension of u_(n mu(g)) -> chi(n) v_g."""
    if x.ring != psi.source:
        raise ValueError("element does not belong to the source ring")
    return psi.target.from_coords(psi.image_coords(x.coords()))


def psi_multiplicative_on_basis(psi: PsiMap) -> bool:
    """Whether psi(u_x u_y) = psi(u_x) psi(u_y) for every basis pair (x, y).

    Both sides are monomials zeta_(c_t)^k v_g.  With u_x u_y =
    zeta_(c_s)^s(x,y) u_xy in the source, v_g v_h = zeta_(c_t)^t(g,h) v_gh in
    the target and gamma_images[x] = (q(x), e(x)), a pair holds exactly when
    q(xy) = q(x) q(y) and, modulo c_t,
    s(x,y) c_t/c_s + (e(xy) - e(x) - e(y)) c_t/m_t = t(q(x), q(y)).
    """
    return quotient_multiplicative(psi) and twist_exponents_multiplicative(psi)


def quotient_multiplicative(psi: PsiMap) -> bool:
    """Whether q(xy) = q(x) q(y) for every basis pair, the half of
    psi_multiplicative_on_basis that does not depend on the character."""
    q = [g for g, _ in psi.gamma_images]
    mul_t = psi.target.group.mul
    return all(
        list(map(q.__getitem__, row)) == list(map(mul_t[q[x]].__getitem__, q))
        for x, row in enumerate(psi.source.group.mul)
    )


def twist_exponents_multiplicative(psi: PsiMap) -> bool:
    """Whether s(x,y) c_t/c_s + (e(xy) - e(x) - e(y)) c_t/m_t = t(q(x), q(y))
    modulo c_t for every basis pair, the other half of
    psi_multiplicative_on_basis."""
    src, tgt = psi.source, psi.target
    c_t = tgt.conductor
    step = c_t // src.conductor
    rs = c_t // tgt.cocycle.modulus
    q = [g for g, _ in psi.gamma_images]
    e = [exp * rs for _, exp in psi.gamma_images]
    # t(g, q(y)) + e(y) for every y, one row per quotient element g
    rhs = [[trow[gy] + ey for gy, ey in zip(q, e)] for trow in tgt.structure[2]]
    for x, (s_row, row) in enumerate(zip(src.structure[2], src.group.mul)):
        ex = e[x]
        for s, xy, r in zip(s_row, row, rhs[q[x]]):
            if (s * step + e[xy] - ex - r) % c_t:
                return False
    return True


def twist_exponents_add(psi: PsiMap, first: PsiMap, second: PsiMap, one: PsiMap) -> bool:
    """Whether psi's exponents e and target twist t are first's plus second's
    minus one's, as exp/m_t in Q/Z over a common denominator.

    For four maps on one source ring and one quotient map, the defect
    s(x,y)/c_s + e(xy) - e(x) - e(y) - t(q(x), q(y)) that
    twist_exponents_multiplicative walks is affine in (e, t), so psi passes
    that walk when the other three do: |Gamma| + |G|^2 sums, not |Gamma|^2.
    """
    maps = (psi, first, second, one)
    den = lcm(*(p.target.cocycle.modulus for p in maps))
    # psi - first - second + one, each over the denominator den
    w0, w1, w2, w3 = (s * den // p.target.cocycle.modulus for s, p in zip((1, -1, -1, 1), maps))
    values = (
        [e for _, e in p.gamma_images] + [v for row in p.target.cocycle.table for v in row]
        for p in maps
    )
    return not any((w0 * a + w1 * b + w2 * c + w3 * d) % den for a, b, c, d in zip(*values))


def twist_exponents_failure(psis: Sequence[PsiMap]) -> Optional[PsiMap]:
    """The first of psis found not multiplicative on twist exponents, or None.

    psis map one source ring by one quotient map, one per character of N, the
    trivial one among them.  Only the trivial character and each chi not
    reached yet take the full walk; a walked chi reaches chi' chi for every
    chi' reached before, by twist_exponents_add, which every build_psi map
    passes (e_chi(n mu(g)) = chi(n), and t_chi - t_1 is chi of the factor
    set).  Over +-1 that walks log2 |N| + 1 of the |N| characters.
    """
    by_values = {psi.chi.values: psi for psi in psis}
    one = next(psi for psi in psis if psi.chi.is_trivial())
    done: dict[tuple[int, ...], PsiMap] = {}
    for gen in (one, *psis):
        if gen.chi.values in done:
            continue
        if not twist_exponents_multiplicative(gen):
            return gen
        m = gen.chi.modulus
        spanned = list(done.items())
        done[gen.chi.values] = gen
        for values, prev in spanned:
            prod = tuple((a + b) % m for a, b in zip(values, gen.chi.values))
            psi = by_values.get(prod)
            if psi is None or prod in done:
                continue
            if not twist_exponents_add(psi, prev, gen, one):
                return psi
            done[prod] = psi
    return None


def kernel_basis(psi: PsiMap) -> list[TwElement]:
    """R-module basis {u_(a mu(g)) - chi(a) u_mu(g)} of ker(psi), a != 1."""
    ext = psi.ext
    src = psi.source
    cond = src.conductor
    out = []
    for a_idx in range(1, ext.sub_group.order):
        a = ext.sub_embed[a_idx]
        chi_a = psi.chi.value_at(a_idx, cond)
        for g in ext.quotient_group.elements():
            mu_g = ext.section[g]
            elem = src.basis(ext.total.mul[a][mu_g]) - src.basis(mu_g) * chi_a
            out.append(elem)
    return out


def torsion_kernel_units(psi: PsiMap) -> list[TwElement]:
    """The torsion units of ker(unit map): {chi(a)^-1 u_a | a in N}."""
    ext = psi.ext
    if not ext.is_central:
        raise ValueError("torsion kernel description requires a central kernel")
    src = psi.source
    cond = src.conductor
    out = []
    for a_idx in range(ext.sub_group.order):
        a = ext.sub_embed[a_idx]
        out.append(src.basis(a) * psi.chi.inverse_value_at(a_idx, cond))
    return out


def kernel_torsion_scan(
    psi: PsiMap,
    coeff_values: Sequence[int] = (-1, 1),
    support_cap: int = 4,
) -> list[TwElement]:
    """All torsion units in ker(psi) with small support and coefficients.

    psi sends c u_gamma to c zeta^e v_q, so the image coefficient at q is the
    sum of c zeta^e over the part of the support inside the fibre psi^-1(q).
    The scan lists, fibre by fibre, the local patterns (a subset of the fibre
    with coefficients from coeff_values) whose sum is 1 on the identity fibre
    and 0 on every other fibre, joins patterns from distinct fibres into
    elements of support <= support_cap, and returns those that map to 1 and
    are torsion units.  The n eigenvalues of L_x on a component of
    dimension n for a torsion unit x are roots of unity, so each power sum
    p_k = tr L_x^k has |p_k| <= n, and the first p_k past n refutes x with
    no further product (rings.is_torsion_unit_coords); each distinct
    component image is decided once per scan.

    The result lists exactly the elements a search over every support and
    coefficient tuple would keep, in its order: by support size, then by
    support, then by coefficients in itertools.product order.  With 0 in
    coeff_values, an element is listed once for each support that carries it.
    """
    src = psi.source
    fibres: list[list[int]] = [[] for _ in psi.target.group.elements()]
    for gamma, (gq, _) in enumerate(psi.gamma_images):
        fibres[gq].append(gamma)
    zero = [0] * psi.target.dim
    # patterns[q]: nonempty (fibre subset, coefficient indices) whose image
    # is 1 for the identity q = 0 and 0 otherwise
    patterns = []
    for gq, fibre in enumerate(fibres):
        want = [1] + zero[1:] if gq == 0 else zero
        patterns.append([
            (sub, idx)
            for size in range(1, min(len(fibre), support_cap) + 1)
            for sub in itertools.combinations(fibre, size)
            for idx in itertools.product(range(len(coeff_values)), repeat=size)
            if psi.image_coords([(g, 0, coeff_values[i]) for g, i in zip(sub, idx)]) == want
        ])

    def joins(start: int, budget: int):
        """Patterns from distinct fibres >= start, of total size <= budget."""
        yield ()
        for gq in range(start, len(patterns)):
            for pat in patterns[gq]:
                if len(pat[0]) <= budget:
                    for rest in joins(gq + 1, budget - len(pat[0])):
                        yield (pat,) + rest

    keys = []
    for pat in patterns[0]:
        for rest in joins(1, support_cap - len(pat[0])):
            terms = sorted(t for sub, idx in (pat,) + rest for t in zip(sub, idx))
            support, idx = zip(*terms)
            keys.append((len(support), support, idx))
    keys.sort()

    # each key joins one pattern per fibre it meets, so its image is 1
    found = []
    verdicts: dict = {}
    for _, support, idx in keys:
        coeffs = [coeff_values[i] for i in idx]
        if is_torsion_unit_coords(src, [(g, 0, v) for g, v in zip(support, coeffs)], verdicts):
            found.append(src.element(dict(zip(support, coeffs))))
    return found


@dataclass(frozen=True)
class KernelFiniteness:
    finite: bool
    clauses: tuple[str, ...]


def kernel_finiteness_predicate(psi: PsiMap) -> KernelFiniteness:
    """Decide finiteness of ker(unit map) for a central kernel.

    The kernel is finite iff the source unit group is finite, or chi is
    non-trivial and either N is of prime order with U(R[G]) finite, or G is
    abelian with lcm(exp G, exp N) dividing 4 or 6.
    """
    ext = psi.ext
    if not ext.is_central:
        raise ValueError("finiteness predicate requires a central kernel")
    clauses = []
    conductor = psi.source.conductor
    # Gamma is a quotient of the basis group, so it meets the rule whenever the
    # basis group does: asked first, it spares building the basis group
    if group_ring_units_finite(ext.total, conductor) and group_ring_units_finite(
        build_G_alpha(psi.source.cocycle).group, conductor
    ):
        clauses.append("unit-group-finite")
    if not psi.chi.is_trivial():
        n_order = ext.sub_group.order
        g = ext.quotient_group
        prime = n_order > 1 and all(n_order % d for d in range(2, n_order))
        if prime and group_ring_units_finite(g, conductor):
            clauses.append("prime-kernel")
        if is_abelian(g):
            e = lcm(exponent(g), exponent(ext.sub_group))
            if 4 % e == 0 or 6 % e == 0:
                clauses.append("abelian-small-exponent")
    return KernelFiniteness(finite=bool(clauses), clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# characters of abelian groups, orbits, components


def lin_characters(group: FiniteGroup, modulus: int) -> list[LinearCharacter]:
    """All homomorphisms group -> mu_modulus (full dual when exp | modulus),
    built correct, so not checked: each step extends every character of H
    to H<x> by chi(h x^j) = chi(h) + j t, over the t with r t = chi(x^r)."""
    if not is_abelian(group):
        raise ValueError("linear characters require an abelian group")
    n = group.order
    mul = group.mul
    chars: list[tuple[int, ...]] = [tuple([0] * n)]
    covered = [0]  # ids of the generated subgroup H
    in_sub = {0}
    for x in group.elements():
        if x in in_sub:
            continue
        # x^1 .. x^(r-1) for the least r with x^r in H; the cosets H x^j
        # are then new and pairwise distinct
        powers = [x]
        while (x_r := mul[powers[-1]][x]) not in in_sub:
            powers.append(x_r)
        r = len(powers) + 1
        new_chars: list[tuple[int, ...]] = []
        for vals in chars:
            for t in range(modulus):
                if (r * t - vals[x_r]) % modulus:
                    continue
                new_vals = list(vals)
                for j, xj in enumerate(powers, start=1):
                    for h in covered:
                        new_vals[mul[h][xj]] = (vals[h] + j * t) % modulus
                new_chars.append(tuple(new_vals))
        chars = new_chars
        new_elems = [mul[h][xj] for xj in powers for h in covered]
        covered.extend(new_elems)
        in_sub.update(new_elems)
    return [LinearCharacter(group, modulus, vals) for vals in sorted(chars)]


def galois_orbits(
    chars: Sequence[LinearCharacter], field_conductor: int
) -> list[list[LinearCharacter]]:
    """Orbits under sigma_j with j = 1 mod field_conductor (value powering)."""
    index = {chi.values: i for i, chi in enumerate(chars)}
    m = chars[0].modulus if chars else 1
    big = lcm(m, field_conductor)
    js = [
        j
        for j in range(1, big + 1)
        if gcd(j, big) == 1 and j % field_conductor == 1 % field_conductor
    ]
    seen = set()
    orbits = []
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        orbit = set()
        for j in js:
            moved = tuple((v * j) % m for v in chi.values)
            k = index.get(moved)
            if k is not None:
                orbit.add(k)
        seen |= orbit
        orbits.append([chars[k] for k in sorted(orbit)])
    return orbits


@dataclass(frozen=True)
class ComponentEntry:
    character: LinearCharacter
    field_conductor: int
    degree: int
    orbit_size: int
    twist: Cocycle


def component_table(ext: ExtensionData, field_conductor: int = 1) -> list[ComponentEntry]:
    """Component bookkeeping of R[Gamma] over F for a central kernel.

    One entry per Galois orbit of characters of N over F; each entry carries
    the twist T(chi) of the corresponding component F(chi)[G]-twisted,
    and the dimension identity sum(degree) * |G| = |Gamma| is enforced.
    """
    if not ext.is_central:
        raise ValueError("component table requires a central kernel")
    n_grp = ext.sub_group
    full_modulus = _fit_conductor(exponent(n_grp))
    orbits = galois_orbits(lin_characters(n_grp, full_modulus), field_conductor)
    entries = []
    g = ext.quotient_group
    for orbit in orbits:
        chi = orbit[0]
        value_order = chi.value_order()
        f_chi = lcm(field_conductor, value_order)
        degree = euler_phi(f_chi) // euler_phi(field_conductor)
        entries.append(
            ComponentEntry(
                character=chi,
                field_conductor=f_chi,
                degree=degree,
                orbit_size=len(orbit),
                twist=transgress(ext, chi),
            )
        )
    total = sum(e.degree for e in entries) * g.order
    if total != ext.total.order:
        raise ValueError(
            f"dimension identity fails: {total} != {ext.total.order}"
        )
    return entries


def perlis_walker_counts(group: FiniteGroup, field_conductor: int = 1) -> dict[int, int]:
    """Multiplicity a_d of the F(zeta_d)-component of F[A] for abelian A."""
    if not is_abelian(group):
        raise ValueError("abelian group required")
    counts = {}
    for d, num in sorted(order_histogram(group).items()):
        k_d = num // euler_phi(d)
        rel_degree = euler_phi(lcm(field_conductor, d)) // euler_phi(field_conductor)
        counts[d] = k_d * euler_phi(d) // rel_degree
    return counts
