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
integer coordinates, one ``CycInt`` per group element;
``cohomologous_by_generator`` is the coboundary search as it was before it
read its pairs into a list of checks, one generator over the pairs per map;
``unit_index_by_cosets`` is the unit-group index by breadth-first coset
enumeration, which the index read off the normal form T x| F replaced;
``validate_hom`` is the pass over every pair that ``hom_from_gen_images``
made before its generator walk was taken as the proof;
``center`` and ``group_to_json`` are group routines that only the tests
use; ``decide_finiteness``, ``kernel_finiteness_predicate`` and
``target_group_ring_units_finite`` decide unit-group finiteness by the
three routes the library took before one rule on the basis group replaced
them: a branch per twist kind over G_alpha, and a ring built (and its
G_alpha) for every untwisted group ring; ``peel_step`` is the peel step
with its four column operations written out by hand, ``trivial_closure``
the closure of trivial units as (sign, gamma) pairs, and ``cyclic_sum``
the sum of the powers of u_g up to the first that is 1, as the library
wrote them before the letters, G_alpha of the model twist and the order
of u_g replaced them; ``det_residue_counts_by_enumeration`` counts the
determinant residues over every matrix, and ``fold_by_restart`` folds a
Stallings graph by rebuilding its whole map after each merge, as the
library did before it convolved the two pairs' products and folded with a
worklist; ``quaternion_twist_ring`` builds a ring that only the tests use;
``quaternion8_from_names`` builds Q8 from a table of its unit products,
``_PHI`` lists the cyclotomic polynomials of the supported conductors,
``reduce_by_table`` reduces modulo one of them, ``exact_quotient`` divides
by a monic polynomial when the division is exact, and
``d8_extension_by_bits`` builds the section of D8 x C2^n from the bits of
the product's ids, as the library did before Q8 came from the quaternion
relations, Phi_m and polynomial division were written once, and the
section came from mu; ``lift_by_basis`` maps every basis vector through
all the components and lifts it back, as the library did before character
orthogonality certified the lift; ``twist_exponents_by_pairs`` walks the
twist exponents of a component one basis pair at a time, the shape the
library's walk has too, kept here as the fixed reference it is compared with;
``validate_character`` checks chi(ab) = chi(a) + chi(b) on every pair, as
``transgress`` did before it read only the rows of a generating set of N;
``first_nonassociative_triple`` walks every triple of a table in (a, b, c)
order, as ``build_group`` did before it compared whole rows;
``build_group_entrywise`` checks a table's entries, identity and
inverses one entry at a time and every pair (a, b) for associativity, as
``build_group`` did before it checked them by row operations;
``is_subgroup_with_inverses`` tests the identity, every inverse and every
product, ``two_sided_closure`` closes under left and right products by the
generators, ``is_dedekind_by_distinct_cyclics`` checks each distinct cyclic
subgroup by ``is_normal``, and ``quotient_by_sorted_cosets`` sorts each coset
and then the cosets by their least members, as ``groups.is_subgroup``,
``subgroup_closure``, ``is_dedekind`` and ``quotient`` did before closure
was taken to make a subgroup, a generator's conjugates to make its cyclic
subgroup normal, and the scan order to number the cosets (each copy calls
the other copies where the library routine called its own);
``is_central_by_scan`` compares every element of N with every element of
Gamma, as ``build_extension`` did before it read centrality off N's
multiplication and the section's conjugation action sigma;
the other three are small conveniences over the library's own
constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from twisted_rings.cocycles import (
    Cocycle,
    LinearCharacter,
    build_G_alpha,
    c2c2_quaternion_cocycle,
    cocycle_order,
    trivial_cocycle,
)
from twisted_rings.cyclotomic import PHI_DEGREE, CycInt, cyclotomic_factors
from twisted_rings.errors import CAPS, CapExceededError, exact_int
from twisted_rings.gl2 import (
    _BASIS_IMAGES,
    PEEL_STEP_CAP,
    IndexAudit,
    SanovWord,
    UnitNF,
    _MODEL_GROUP_MUL,
    _MODEL_SIGN,
    _require_model_ring,
    factor_unit,
    phi_model_inverse,
    subgroup_from_generators,
)
from twisted_rings.extensions import ExtensionData, KernelFiniteness, PsiMap, build_extension
from twisted_rings.groups import (
    FiniteGroup,
    GroupHom,
    _check_order,
    _package,
    centralizer,
    dihedral8_times_c2n,
    element_order,
    elementary_abelian_2,
    exponent,
    is_abelian,
    is_hamiltonian_2group,
    hom_from_gen_images,
    is_normal,
    order_histogram,
)
from twisted_rings.intmat import identity_matrix, mat_pow
from twisted_rings.rings import TwElement, TwRing, _coord_list, _lift_sum, is_unit
from twisted_rings.units import _FIELD_OF, FinitenessVerdict, find_infinite_order_unit


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


def cohomologous_by_generator(
    c1: Cocycle,
    c2: Cocycle,
    modulus: int,
    cap: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """Exhaustively search for f with twist(c1, f) = c2 over mu_modulus.

    Returns the first witness in lexicographic order, or None; because the
    search is exhaustive, None proves the classes differ at this modulus.
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
    pairs = [(a, b) for a in range(n) for b in range(n)]
    for tail in itertools.product(range(modulus), repeat=n - 1):
        f = (0,) + tail
        if all(
            (f[a] + f[b] - f[g.mul[a][b]] + t1[a][b] - t2[a][b]) % modulus == 0
            for a, b in pairs
        ):
            return f
    return None


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


def validate_hom(h: GroupHom) -> None:
    if h.map[0] != 0:
        raise ValueError("homomorphism does not fix the identity")
    for x in h.source.elements():
        for y in h.source.elements():
            if h.map[h.source.mul[x][y]] != h.target.mul[h.map[x]][h.map[y]]:
                raise ValueError(f"multiplicativity fails at ({x},{y})")


def first_nonassociative_triple(tab: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    n = len(tab)
    triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    for a, b, c in triples:
        if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
            return a, b, c
    return None


def build_group_entrywise(
    mul: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    name: str = "",
    generators: Optional[dict[str, int]] = None,
) -> FiniteGroup:
    n = len(mul)
    if n == 0:
        raise ValueError("empty multiplication table")
    _check_order(n)
    table = []
    for i, row in enumerate(mul):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        r = tuple(exact_int(x, "table entry") for x in row)
        for x in r:
            if not 0 <= x < n:
                raise ValueError(f"table entry {x} out of range 0..{n - 1}")
        table.append(r)
    tab = tuple(table)
    for x in range(n):
        if tab[0][x] != x or tab[x][0] != x:
            raise ValueError("element 0 is not a two-sided identity")
    for x in range(n):
        if not any(tab[x][y] == 0 and tab[y][x] == 0 for y in range(n)):
            raise ValueError(f"element {x} has no two-sided inverse")
    for a, row in enumerate(tab):
        for b, ab in enumerate(row):
            if tab[ab] != tuple(map(row.__getitem__, tab[b])):
                c = next(c for c in range(n) if tab[ab][c] != row[tab[b][c]])
                raise ValueError(f"associativity fails on ({a},{b},{c})")
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    elif len(labels) != n:
        raise ValueError("labels length does not match order")
    return _package(tab, [str(s) for s in labels], name, generators)


def is_subgroup_with_inverses(g: FiniteGroup, ids: Iterable[int]) -> bool:
    s = set(ids)
    if 0 not in s:
        return False
    for x in s:
        if g.inv[x] not in s:
            return False
        for y in s:
            if g.mul[x][y] not in s:
                return False
    return True


def two_sided_closure(g: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    elems = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (g.mul[x][s], g.mul[s][x]):
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
    return frozenset(elems)


def is_dedekind_by_distinct_cyclics(g: FiniteGroup) -> bool:
    seen: set[frozenset[int]] = set()
    for x in g.elements():
        h = two_sided_closure(g, [x])
        if h in seen:
            continue
        seen.add(h)
        if not is_normal(g, h):
            return False
    return True


def quotient_by_sorted_cosets(
    g: FiniteGroup, normal_ids: Iterable[int]
) -> tuple[FiniteGroup, GroupHom]:
    nset = frozenset(normal_ids)
    if not is_subgroup_with_inverses(g, nset):
        raise ValueError("given id set is not a subgroup")
    if not is_normal(g, nset):
        raise ValueError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in g.elements():
        if x in coset_of:
            continue
        members = sorted(g.mul[x][n] for n in nset)
        rep_index = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = rep_index
    order = len(reps)
    perm = sorted(range(order), key=lambda i: reps[i])
    rank = {old: new for new, old in enumerate(perm)}
    reps = [reps[old] for old in perm]
    proj = tuple(rank[coset_of[x]] for x in g.elements())
    mul = [
        [proj[g.mul[reps[i]][reps[j]]] for j in range(order)] for i in range(order)
    ]
    labels = [g.labels[r] for r in reps]
    q = _package(mul, labels, f"{g.name}/N")
    return q, GroupHom(source=g, target=q, map=proj)


def center(g: FiniteGroup) -> frozenset[int]:
    zs = set(g.elements())
    for x in g.elements():
        zs &= centralizer(g, x)
    return frozenset(zs)


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "mul": [list(row) for row in g.mul],
        "labels": list(g.labels),
    }


def unit_index_by_cosets(
    generators: Sequence[TwElement],
    ring: TwRing,
    coset_cap: int = 4096,
) -> IndexAudit:
    """Index of the subgroup generated by given units inside U(model ring).

    Every generator is put into the (trivial unit) * (free word) normal
    form; cosets are enumerated by right multiplication with the ambient
    generators, comparing cosets through the subgroup's membership oracle.
    """
    _require_model_ring(ring)
    nfs = [factor_unit(u) for u in generators]
    sub = subgroup_from_generators(nfs)
    ambient = [
        UnitNF(-1, 0, SanovWord(())),
        UnitNF(1, 1, SanovWord(())),
        UnitNF(1, 2, SanovWord(())),
        UnitNF(1, 0, SanovWord((("V", 1),))),
        UnitNF(1, 0, SanovWord((("W", 1),))),
    ]
    reps: list[UnitNF] = [UnitNF(1, 0, SanovWord(()))]
    queue = [reps[0]]
    while queue:
        current = queue.pop(0)
        for gen in ambient:
            candidate = current * gen
            if len(candidate.word) > 3 * PEEL_STEP_CAP:
                raise CapExceededError("coset word length exploded")
            is_new = True
            for rep in reps:
                if sub.contains(candidate * rep.inverse()):
                    is_new = False
                    break
            if is_new:
                reps.append(candidate)
                queue.append(candidate)
                if len(reps) > coset_cap:
                    return IndexAudit(index=None)
    return IndexAudit(index=len(reps))


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


def decide_finiteness(ring: TwRing, witness_search: bool = True) -> FinitenessVerdict:
    """Decide whether U(R^alpha[G]) is finite.

    Non-trivial twists route through the basis group G_alpha: the unit
    group is finite exactly when G_alpha is abelian of exponent 4, 3 or 6
    over the matching field, or a Hamiltonian 2-group over Q.  Trivial
    twists use the classical group-ring criterion.  Infinite verdicts carry
    a unit of infinite order when a small search finds one.
    """
    field_name = _FIELD_OF.get(ring.conductor)
    if field_name is None:
        return FinitenessVerdict(
            False,
            "infinite",
            {"reason": f"U(Z[zeta_{ring.conductor}]) is already infinite"},
        )
    ga = build_G_alpha(ring.cocycle)
    hist = order_histogram(ga.group)
    info = {"galpha_order_histogram": hist, "field": field_name}
    trivial = cocycle_order(ring.cocycle) == 1
    abelian = is_abelian(ga.group)
    exp = exponent(ga.group)
    if trivial:
        if abelian and (
            (field_name == "Q" and (4 % exp == 0 or 6 % exp == 0))
            or (field_name == "Q(i)" and 4 % exp == 0)
            or (field_name == "Q(sqrt-3)" and 6 % exp == 0)
        ):
            return FinitenessVerdict(True, "trivial-cocycle-higman", info)
        if field_name == "Q" and is_hamiltonian_2group(ga.group):
            return FinitenessVerdict(True, "trivial-cocycle-higman", info)
        return _infinite(ring, info, witness_search)
    if abelian:
        if exp <= 2:
            # an abelian basis group of exponent 2 forces the table to be a
            # coboundary, so the ring is the plain group ring of an
            # elementary abelian 2-group: finite over every allowed field
            return FinitenessVerdict(True, "trivial-cocycle-higman", info)
        if exp == 4 and field_name in ("Q", "Q(i)"):
            return FinitenessVerdict(True, "abelian-exp4", info)
        if exp == 3 and field_name == "Q(sqrt-3)":
            return FinitenessVerdict(True, "abelian-exp3", info)
        if exp == 6 and field_name in ("Q", "Q(sqrt-3)"):
            return FinitenessVerdict(True, "abelian-exp6", info)
        return _infinite(ring, info, witness_search)
    if field_name == "Q" and is_hamiltonian_2group(ga.group):
        return FinitenessVerdict(True, "hamiltonian-2group", info)
    return _infinite(ring, info, witness_search)


def _infinite(ring: TwRing, info: dict, search: bool) -> FinitenessVerdict:
    info = dict(info)
    if search and ring.dim <= 12:
        w = find_infinite_order_unit(ring)
        if w is not None:
            info["infinite_order_unit"] = w.to_json()
            info["witness_element"] = repr(w)
    return FinitenessVerdict(False, "infinite", info)


def _units_finite(ring: TwRing) -> bool:
    return decide_finiteness(ring, witness_search=False).finite


def target_group_ring_units_finite(psi: PsiMap) -> bool:
    """Whether U(Z[G]) is finite for the target group G."""
    g = psi.target.group
    return _units_finite(TwRing(g, trivial_cocycle(g), 2))


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
    if _units_finite(psi.source):
        clauses.append("unit-group-finite")
    if not psi.chi.is_trivial():
        n_grp = ext.sub_group
        n_order = n_grp.order
        prime = n_order > 1 and all(n_order % d for d in range(2, n_order))
        cyclic_n = any(element_order(n_grp, x) == n_order for x in n_grp.elements())
        if prime and cyclic_n:
            untwisted = TwRing(
                ext.quotient_group,
                trivial_cocycle(ext.quotient_group, 1),
                psi.source.conductor,
            )
            if _units_finite(untwisted):
                clauses.append("prime-kernel")
        g = ext.quotient_group
        if is_abelian(g):
            e = lcm(exponent(g), exponent(n_grp))
            if 4 % e == 0 or 6 % e == 0:
                clauses.append("abelian-small-exponent")
    return KernelFiniteness(finite=bool(clauses), clauses=tuple(clauses))


def peel_step(a: int, b: int, c: int, d: int):
    """(letter, entries) of one greedy peel step on the matrix (a b; c d):
    the first letter, in the order V, V^-1, W, W^-1, whose removal from the
    right strictly decreases the largest absolute entry, and the entries
    left after removing it.  None when no letter does, as at the identity.
    Stripping a letter is a column operation on the four entries."""
    size = max(abs(a), abs(b), abs(c), abs(d))
    for letter, *nxt in (
        (("V", 1), a - 2 * b, b, c - 2 * d, d),
        (("V", -1), a + 2 * b, b, c + 2 * d, d),
        (("W", 1), a, b - 2 * a, c, d - 2 * c),
        (("W", -1), a, b + 2 * a, c, d + 2 * c),
    ):
        if max(map(abs, nxt)) < size:
            return letter, tuple(nxt)
    return None


def trivial_closure(seed: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    elems = {(1, 0)}
    frontier = [(1, 0)]
    gens = list(seed)
    while frontier:
        s, g = frontier.pop()
        for s2, g2 in gens:
            prod = (s * s2 * _MODEL_SIGN[g][g2], _MODEL_GROUP_MUL[g][g2])
            if prod not in elems:
                elems.add(prod)
                frontier.append(prod)
    return frozenset(elems)


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


def det_residue_counts_by_enumeration(depth: int, modulus: int, parity: bool = False) -> list[int]:
    """How many M = I + 2^depth A mod modulus have each determinant residue,
    A over all residues mod modulus / 2^depth (with parity, only those with
    A11 = A22 and A12 = A21 mod 2).  At depth 0 M is every matrix mod modulus."""
    step = 1 << depth
    span = modulus // step
    counts = [0] * modulus

    def same_parity(a: int) -> range:
        return range(a % 2, span, 2) if parity else range(span)

    for a11 in range(span):
        diag = [(1 + step * a11) * (1 + step * a22) for a22 in same_parity(a11)]
        for a12 in range(span):
            for a21 in same_parity(a12):
                off = step * step * a12 * a21
                for d in diag:
                    counts[(d - off) % modulus] += 1
    return counts


def fold_by_restart(edges: Sequence[tuple[int, str, int]]) -> dict[tuple[int, str], int]:
    """The folded adjacency map of the graph with these labelled edges on
    vertices 0..max id: merge the targets of the first clash (the smaller
    id survives), then rebuild the whole map from every edge, until no
    clash is left."""
    parent = list(range(1 + max((max(s, d) for s, _, d in edges), default=0)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    def inv(lab: str) -> str:
        return lab.lower() if lab.isupper() else lab.upper()

    while True:
        adj: dict[tuple[int, str], int] = {}
        clash = None
        for s, lab, d in edges:
            rs, rd = find(s), find(d)
            for key, dst in (((rs, lab), rd), ((rd, inv(lab)), rs)):
                old = adj.get(key)
                if old is None:
                    adj[key] = dst
                elif old != dst:
                    clash = (old, dst)
                    break
            if clash:
                break
        if clash is None:
            return adj
        union(*clash)


def quaternion_twist_ring(conductor: int = 2) -> TwRing:
    """Z^gamma[C2 x C2] with u_g^2 = u_h^2 = [u_g, u_h] = -1."""
    c = c2c2_quaternion_cocycle()
    return TwRing(c.group, c, conductor)


def quaternion8_from_names() -> FiniteGroup:
    """Q8 = {+-1, +-i, +-j, +-k} with ids 0..7 = 1,-1,i,-i,j,-j,k,-k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def unit_mul(u: str, v: str) -> tuple[int, str]:
        tbl = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
            ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
            ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        return tbl[(u, v)]

    def decode(x: int) -> tuple[int, str]:
        sign = -1 if x % 2 else 1
        sym = ["1", "i", "j", "k"][x // 2]
        return sign, sym

    def encode(sign: int, sym: str) -> int:
        return 2 * ["1", "i", "j", "k"].index(sym) + (0 if sign == 1 else 1)

    mul = []
    for x in range(8):
        s1, u1 = decode(x)
        row = []
        for y in range(8):
            s2, u2 = decode(y)
            s3, u3 = unit_mul(u1, u2)
            row.append(encode(s1 * s2 * s3, u3))
        mul.append(row)
    return _package(mul, names, "Q8", {"i": 2, "j": 4})


# Phi_m as ascending coefficient tuples (monic).
_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
}


def reduce_by_table(coeffs: list[int], m: int) -> tuple[int, ...]:
    """Reduce an integer polynomial modulo the monic Phi_m."""
    phi = _PHI[m]
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, p in enumerate(phi):
                work[i - deg + j] -= c * p
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


def exact_quotient(poly: list[int], monic: Sequence[int]) -> list[int] | None:
    """poly / monic (ascending coefficients) when the division is exact."""
    deg = len(monic) - 1
    rest = list(poly)
    quot = [0] * (len(poly) - deg)
    for i in range(len(quot) - 1, -1, -1):
        c = rest[i + deg]
        if c:
            quot[i] = c
            for j, v in enumerate(monic):
                rest[i + j] -= c * v
    return None if any(rest[:deg]) else quot


def d8_extension_by_bits(n: int) -> ExtensionData:
    """The extension with the section that reproduces the model twist.

    The quotient is presented as C2^(n+2) = <g, h, x_1..x_n> via a -> gh,
    b -> g, y_i -> x_i.  The section mu(g) = b, mu(h) = ab, mu(gh) = a^-1,
    extended multiplicatively over the y_i, makes the sign character
    transgress to exactly the matrix-model cocycle table.
    """
    if n > (cap := CAPS.get().case_level):
        raise CapExceededError(f"case study level {n} exceeds cap {cap}")
    gamma = dihedral8_times_c2n(n)
    target = elementary_abelian_2(n + 2)
    ycount = n
    a_sq = 2 << ycount  # D8 element a^2 paired with trivial y-part
    images = {
        1 << ycount: 3,  # a -> gh
        4 << ycount: 1,  # b -> g
    }
    for i in range(1, n + 1):
        images[1 << (n - i)] = 1 << (i + 1)  # y_i -> x_i
    proj = hom_from_gen_images(gamma, target, images)
    section = []
    d8_part = {(0, 0): 0, (1, 0): 4, (0, 1): 5, (1, 1): 3}  # 1, b, ab, a^3
    for gid in range(1 << (n + 2)):
        e_g = gid & 1
        e_h = (gid >> 1) & 1
        ybits = gid >> 2
        top = d8_part[(e_g, e_h)]
        low = 0
        for i in range(n):
            if (ybits >> i) & 1:
                low |= 1 << (n - 1 - i)
        section.append((top << ycount) | low)
    return build_extension(gamma, {0, a_sq}, section_map=section, proj=proj)


def lift_by_basis(ring: TwRing, psis) -> None:
    """Raise unless _lift_sum of the images of every basis vector under the
    psis is |N| times that vector: the lift check of
    rings._certify_components, one basis vector at a time."""
    phi, n = PHI_DEGREE[ring.conductor], len(psis)
    for k in range(ring.dim):
        xs = [(k // phi, k % phi, 1)]
        parts = [
            _coord_list(psi.image_coords(xs), PHI_DEGREE[psi.target.conductor]) for psi in psis
        ]
        lifted = _lift_sum(psis, parts)
        if lifted[k] != n or any(lifted[:k]) or any(lifted[k + 1 :]):
            raise ArithmeticError(f"components of {ring!r} do not lift back to the ring")


def twist_exponents_by_pairs(psi: PsiMap) -> bool:
    """Whether s(x,y) c_t/c_s + (e(xy) - e(x) - e(y)) c_t/m_t = t(q(x), q(y))
    modulo c_t for every basis pair, the other half of
    psi_multiplicative_on_basis."""
    src, tgt = psi.source, psi.target
    c_t = tgt.conductor
    step = c_t // src.conductor
    rs = c_t // tgt.cocycle.modulus
    tw_s, tw_t = src.structure[2], tgt.structure[2]
    q = [g for g, _ in psi.gamma_images]
    e = [exp * rs for _, exp in psi.gamma_images]
    # t(g, q(y)) + e(y) for every y, one row per quotient element g
    rhs = [[trow[gy] + ey for gy, ey in zip(q, e)] for trow in tw_t]
    for x, row in enumerate(src.group.mul):
        ex = e[x]
        for s, xy, r in zip(tw_s[x], row, rhs[q[x]]):
            if (s * step + e[xy] - ex - r) % c_t:
                return False
    return True


def validate_character(chi: LinearCharacter) -> None:
    g = chi.group
    m = chi.modulus
    if chi.values[0] % m:
        raise ValueError("character must send the identity to 1")
    for a in g.elements():
        for b in g.elements():
            if (chi.values[a] + chi.values[b] - chi.values[g.mul[a][b]]) % m:
                raise ValueError(f"character not multiplicative at ({a},{b})")


def is_central_by_scan(total: FiniteGroup, nset: Iterable[int]) -> bool:
    return all(
        total.mul[n][x] == total.mul[x][n]
        for n in nset
        for x in total.elements()
    )
