"""Integer 2x2 matrix model of the anticommuting C2 x C2 twist, and audits.

The twisted ring with u_g^2 = u_h^2 = 1, u_g u_h = u_gh = -u_h u_g maps
isomorphically onto the parity-conditioned matrices
{(a b; c d) : a = d, b = c mod 2}.  The images of v = 1 + u_h - u_gh and
w = 1 + u_h + u_gh are (1 0; 2 1) and (1 2; 0 1), generators of a free
rank-2 subgroup of GL2(Z); every unit of the ring factors uniquely as a
trivial unit times a word in them.  That normal form powers exact index
computations in the unit group and the mod-2^k congruence audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .cocycles import c2c2_matrix_cocycle
from .errors import CAPS, CapExceededError
from .rings import TwElement, TwRing

PEEL_STEP_CAP = 64
COSET_CAP = 4096
_LETTERS = (("V", 1), ("V", -1), ("W", 1), ("W", -1))


@dataclass(frozen=True)
class IntMat2:
    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "IntMat2":
        return IntMat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "IntMat2":
        det = self.det()
        if det == 1:
            return IntMat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMat2(-self.d, self.b, self.c, -self.a)
        raise ValueError("matrix is not invertible over Z")

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def in_dtilde(self) -> bool:
        return (self.a - self.d) % 2 == 0 and (self.b - self.c) % 2 == 0

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


I2 = IntMat2(1, 0, 0, 1)
MAT_V = IntMat2(1, 0, 2, 1)
MAT_W = IntMat2(1, 2, 0, 1)

_BASIS_IMAGES = (
    I2,                      # u_1
    IntMat2(1, 0, 0, -1),    # u_g
    IntMat2(0, 1, 1, 0),     # u_h
    IntMat2(0, 1, -1, 0),    # u_gh
)

_MODEL = c2c2_matrix_cocycle()
_MODEL_GROUP_MUL = _MODEL.group.mul
# sign in u_a u_b = sign * u_(ab) for the matrix-model table
_MODEL_SIGN = tuple(tuple((-1) ** v for v in row) for row in _MODEL.table)


def model_ring(conductor: int = 2) -> TwRing:
    return TwRing(_MODEL.group, _MODEL, conductor)


def _require_model_ring(ring: TwRing) -> None:
    if ring.group.order != 4 or ring.cocycle.rescaled(
        max(2, ring.cocycle.modulus)
    ).table != _MODEL.rescaled(max(2, ring.cocycle.modulus)).table:
        raise ValueError("ring is not the anticommuting C2 x C2 model ring")


def phi_model(x: TwElement) -> IntMat2:
    """The ring isomorphism onto the parity-conditioned 2x2 matrices."""
    _require_model_ring(x.ring)
    terms = [[c * e for e in m.entries()] for c, m in zip(x.int_vector(), _BASIS_IMAGES)]
    return IntMat2(*map(sum, zip(*terms)))


def phi_model_inverse(ring: TwRing, mat: IntMat2) -> TwElement:
    """Solve (m+n, k+r; k-r, m-n) for the coefficient vector."""
    _require_model_ring(ring)
    if not mat.in_dtilde():
        raise ValueError("matrix violates the parity conditions")
    m = (mat.a + mat.d) // 2
    n = (mat.a - mat.d) // 2
    k = (mat.b + mat.c) // 2
    r = (mat.b - mat.c) // 2
    return ring.from_int_vector([m, n, k, r])


# ---------------------------------------------------------------------------
# free subgroup membership by ping-pong peeling


@dataclass(frozen=True)
class SanovWord:
    """Reduced word in V = (1 0; 2 1) and W = (1 2; 0 1)."""

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for base, e in self.letters:
            if base not in ("V", "W") or e not in (1, -1):
                raise ValueError(f"bad letter ({base},{e})")
            if prev is not None and prev[0] == base and prev[1] == -e:
                raise ValueError("word is not freely reduced")
            prev = (base, e)

    def __len__(self) -> int:
        return len(self.letters)

    def evaluate(self) -> IntMat2:
        entries = (1, 0, 0, 1)
        for base, e in self.letters:
            entries = _times_letter(*entries, base, e)
        return IntMat2(*entries)

    def inverse(self) -> "SanovWord":
        return SanovWord(tuple((b, -e) for b, e in reversed(self.letters)))

    def __mul__(self, other: "SanovWord") -> "SanovWord":
        left = list(self.letters)
        right = list(other.letters)
        while left and right and left[-1][0] == right[0][0] and left[-1][1] == -right[0][1]:
            left.pop()
            right.pop(0)
        return SanovWord(tuple(left + right))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return ".".join(b if e == 1 else b + "'" for b, e in self.letters)


def _times_letter(a: int, b: int, c: int, d: int, base: str, e: int) -> tuple[int, ...]:
    """The entries of (a b; c d) times V^e or W^e, a column operation."""
    if base == "V":
        return a + 2 * e * b, b, c + 2 * e * d, d
    return a, b + 2 * e * a, c, d + 2 * e * c


def _peel_step(a: int, b: int, c: int, d: int):
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


def sanov_membership(mat: IntMat2, step_cap: int = PEEL_STEP_CAP) -> Optional[SanovWord]:
    """Recover the unique reduced word evaluating to mat, if one exists.

    Greedy peeling: repeatedly strip the rightmost letter whose removal
    strictly decreases the maximum absolute entry; the recovered word is
    re-evaluated before being returned, so false positives are impossible.
    """
    if mat.det() not in (1, -1):
        raise ValueError("matrix is not invertible over Z")
    entries = mat.entries()
    peeled: list[tuple[str, int]] = []
    for _ in range(step_cap):
        if entries == (1, 0, 0, 1):
            word = SanovWord(tuple(reversed(peeled)))
            if word.evaluate() != mat:
                raise ArithmeticError("peeled word fails to re-evaluate")
            return word
        step = _peel_step(*entries)
        if step is None:
            return None
        letter, entries = step
        peeled.append(letter)
    return None


def word_round_trips(
    max_length: int, limit: Optional[int] = None, step_cap: int = PEEL_STEP_CAP
) -> tuple[int, int]:
    """(words, failures) of word -> matrix -> sanov_membership(matrix, step_cap)
    over the reduced words of length 1 to max_length, breadth first with
    V, V^-1, W, W^-1 in that order, stopping after limit words.

    A word fails when the peel does not return it, and once more when its
    matrix is the identity.  The matrix of w x is that of w times x.  The
    peel is a function of the matrix, so when w round trips and the first
    peel step on w x strips x and leaves the matrix of w, within the step
    cap, w x round trips too; only a word where that fails is peeled in full.
    """
    if max_length > (cap := CAPS.get().word_length):
        raise CapExceededError(f"word length {max_length} exceeds cap {cap}")
    words = failures = 0
    # each word of the previous length: (letters, matrix entries, round trips)
    level = [((), (1, 0, 0, 1), True)]
    for length in range(1, max_length + 1):
        children = []
        for letters, parent, parent_ok in level:
            for letter in _LETTERS:
                if letters and letters[-1] == (letter[0], -letter[1]):
                    continue
                word, entries = letters + (letter,), _times_letter(*parent, *letter)
                ok = parent_ok and length < step_cap and _peel_step(*entries) == (letter, parent)
                if not ok:
                    found = sanov_membership(IntMat2(*entries), step_cap)
                    ok = found is not None and found.letters == word
                    failures += (not ok) + (entries == (1, 0, 0, 1))
                children.append((word, entries, ok))
                words += 1
                if limit is not None and words >= limit:
                    return words, failures
        level = children
    return words, failures


# ---------------------------------------------------------------------------
# abstract unit group: (trivial units) acting on the free part

# conjugation action of u_gamma on the letters: u_g inverts both, u_h swaps
# them, u_gh swaps and inverts; signs act trivially
_LETTER_ACTION = {
    0: {"V": ("V", 1), "W": ("W", 1)},
    1: {"V": ("V", -1), "W": ("W", -1)},
    2: {"V": ("W", 1), "W": ("V", 1)},
    3: {"V": ("W", -1), "W": ("V", -1)},
}


def _act_word(gamma: int, word: SanovWord) -> SanovWord:
    act = _LETTER_ACTION[gamma]
    return SanovWord(tuple((act[b][0], e * act[b][1]) for b, e in word.letters))


@dataclass(frozen=True)
class UnitNF:
    """Normal form of a unit: (sign * u_gamma) * (word in V, W)."""

    sign: int
    gamma: int
    word: SanovWord

    def __mul__(self, other: "UnitNF") -> "UnitNF":
        # (t1 w1)(t2 w2) = (t1 t2)(w1^t2 w2)
        return UnitNF(
            sign=self.sign * other.sign * _MODEL_SIGN[self.gamma][other.gamma],
            gamma=_MODEL_GROUP_MUL[self.gamma][other.gamma],
            word=_act_word(other.gamma, self.word) * other.word,
        )

    def inverse(self) -> "UnitNF":
        # u_gamma^-1 = (u_gamma^2)^-1 u_gamma, and squares are +-1
        sq = _MODEL_SIGN[self.gamma][self.gamma]
        return UnitNF(
            sign=self.sign * sq,
            gamma=self.gamma,
            word=_act_word(self.gamma, self.word.inverse()),
        )

    def is_identity(self) -> bool:
        return self.sign == 1 and self.gamma == 0 and len(self.word) == 0

    def key(self) -> tuple:
        return (self.sign, self.gamma, self.word.letters)


def factor_unit(x: TwElement) -> UnitNF:
    """Factor a unit of the model ring as (trivial unit) * (free word)."""
    mat = phi_model(x)
    if mat.det() not in (1, -1):
        raise ValueError("element is not a unit")
    for gamma in range(4):
        for sign in (1, -1):
            t = _BASIS_IMAGES[gamma]
            if sign == -1:
                t = -t
            word = sanov_membership(t.inverse() * mat)
            if word is not None:
                return UnitNF(sign=sign, gamma=gamma, word=word)
    raise ValueError("unit does not factor over the model normal form")


# ---------------------------------------------------------------------------
# Stallings folding for finitely generated subgroups of the free part


class StallingsGraph:
    """Folded core graph of a finitely generated subgroup of F(V, W)."""

    _LABELS = ("V", "v", "W", "w")

    def __init__(self, words: Iterable[SanovWord]):
        self._parent: list[int] = [0]
        edges: list[tuple[int, str, int]] = []
        for word in words:
            cur = 0
            letters = list(word.letters)
            for idx, (base, e) in enumerate(letters):
                lab = base if e == 1 else base.lower()
                if idx == len(letters) - 1:
                    nxt = 0
                else:
                    self._parent.append(len(self._parent))
                    nxt = len(self._parent) - 1
                edges.append((cur, lab, nxt))
                cur = nxt
        self._edges = edges
        self.adj: dict[tuple[int, str], int] = {}
        self._fold()

    def _find(self, x: int) -> int:
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra

    @staticmethod
    def _inv(lab: str) -> str:
        return lab.lower() if lab.isupper() else lab.upper()

    def _fold(self) -> None:
        while True:
            adj: dict[tuple[int, str], int] = {}
            clash = None
            for s, lab, d in self._edges:
                rs, rd = self._find(s), self._find(d)
                for key, dst in (((rs, lab), rd), ((rd, self._inv(lab)), rs)):
                    old = adj.get(key)
                    if old is None:
                        adj[key] = dst
                    elif old != dst:
                        clash = (old, dst)
                        break
                if clash:
                    break
            if clash is None:
                self.adj = adj
                return
            self._union(*clash)

    def contains(self, word: SanovWord) -> bool:
        cur = self._find(0)
        for base, e in word.letters:
            nxt = self.adj.get((cur, base if e == 1 else base.lower()))
            if nxt is None:
                return False
            cur = nxt
        return cur == self._find(0)

    def live_vertices(self) -> list[int]:
        verts = {self._find(0)}
        for (v, _), d in self.adj.items():
            verts.add(v)
            verts.add(d)
        return sorted(verts)

    def is_complete(self) -> bool:
        return all(
            (v, lab) in self.adj for v in self.live_vertices() for lab in self._LABELS
        )

    def free_index(self) -> Optional[int]:
        """Index in F(V, W) when finite (vertex count of a complete graph)."""
        return len(self.live_vertices()) if self.is_complete() else None


# ---------------------------------------------------------------------------
# coset enumeration in the unit group


@dataclass(frozen=True)
class SubgroupNF:
    """Subgroup generated by trivial units and free words (closed form)."""

    trivial_part: frozenset[tuple[int, int]]
    graph: StallingsGraph

    def contains(self, x: UnitNF) -> bool:
        return (x.sign, x.gamma) in self.trivial_part and self.graph.contains(x.word)


def _trivial_closure(seed: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
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


def subgroup_from_generators(gens: Sequence[UnitNF]) -> SubgroupNF:
    """Closed form for subgroups generated by pure trivial units / pure words.

    Mixed generators are accepted only once the trivial part is already the
    full group of trivial units, in which case their word parts act as word
    generators.
    """
    trivial_seed = [(g.sign, g.gamma) for g in gens if len(g.word) == 0]
    trivial_part = _trivial_closure(trivial_seed)
    words = [g.word for g in gens if len(g.word) > 0]
    mixed = [g for g in gens if len(g.word) > 0 and not (g.sign == 1 and g.gamma == 0)]
    if mixed and len(trivial_part) < 8:
        raise ValueError(
            "mixed generators are only supported when all trivial units are present"
        )
    # close the word generators under conjugation by the trivial part
    closed_words = []
    for word in words:
        for _, gamma in trivial_part:
            closed_words.append(_act_word(gamma, word))
    return SubgroupNF(trivial_part=trivial_part, graph=StallingsGraph(closed_words))


@dataclass(frozen=True)
class IndexAudit:
    index: Optional[int]


def unit_index_audit(
    generators: Sequence[TwElement],
    ring: TwRing,
    coset_cap: int = COSET_CAP,
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


def nielsen_schreier(rank: int, index: int) -> int:
    """Rank of an index-'index' subgroup of a free group of rank 'rank'."""
    if rank < 1 or index < 1:
        raise ValueError("rank and index must be positive")
    return 1 + index * (rank - 1)


# ---------------------------------------------------------------------------
# congruence subgroup enumeration oracles


@dataclass(frozen=True)
class CongruenceLevel:
    modulus: int
    gl2_size: int
    det_pm1_size: int
    published_index: Optional[int]


@dataclass(frozen=True)
class CongruenceReport:
    levels: tuple[CongruenceLevel, ...]
    successive_quotients: tuple[int, ...]
    discrepancies: tuple[str, ...]


def _det_residue_counts(depth: int, modulus: int, parity: bool = False) -> list[int]:
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


def _det_pm1(counts: list[int]) -> int:
    """How many of the counted matrices have determinant +-1."""
    return sum(counts[r] for r in {1 % len(counts), len(counts) - 1})


def congruence_index(max_level: int) -> CongruenceReport:
    """Audit [GL2(Z) : ker(mod 2^i)] for i <= max_level by enumeration.

    The reduction of GL2(Z) mod 2^i has image the det = +-1 matrices, so
    that count is the true index; the full |GL2(Z/2^i)| and the published
    closed form 3 * 2^(3i) (for i >= 2) are reported side by side and any
    disagreement is flagged.
    """
    if max_level > 4:
        raise CapExceededError("congruence enumeration capped at level 4 (mod 16)")
    levels = []
    discrepancies = []
    for i in range(1, max_level + 1):
        m = 1 << i
        counts = _det_residue_counts(0, m)
        total = sum(c for r, c in enumerate(counts) if gcd(r, m) == 1)
        detpm = _det_pm1(counts)
        published = 6 if i == 1 else 3 * 2 ** (3 * i)
        levels.append(
            CongruenceLevel(
                modulus=m,
                gl2_size=total,
                det_pm1_size=detpm,
                published_index=published,
            )
        )
        if published != detpm:
            discrepancies.append(
                f"published index {published} at level 2^{i} vs enumerated {detpm}"
            )
        if total != detpm:
            discrepancies.append(
                f"|GL2(Z/{m})| = {total} counts all unit determinants; the"
                f" reduction of GL2(Z) only reaches the {detpm} with det = +-1"
            )
    quotients = tuple(
        levels[i + 1].det_pm1_size // levels[i].det_pm1_size
        for i in range(len(levels) - 1)
    )
    return CongruenceReport(
        levels=tuple(levels),
        successive_quotients=quotients,
        discrepancies=tuple(discrepancies),
    )


def count_depth_units_mod(depth: int, modulus: int) -> int:
    """#{M mod modulus : M = I mod 2^depth, parity-shifted, det = +-1}.

    Counts the image of phi(U_depth) = {I + 2^depth A : A11 = A22,
    A12 = A21 mod 2} in GL2(Z/modulus).  Reduction is onto this residue
    set (lift det = +-1 residues through the special linear group, then
    fix the parity, which only depends on the residue), so ratios of these
    counts at a common modulus M give exact subgroup indices whenever both
    groups contain the kernel of reduction mod M.
    """
    if modulus % (2 << depth):
        raise ValueError("modulus must be a multiple of 2^(depth+1)")
    return _det_pm1(_det_residue_counts(depth, modulus, parity=True))


@dataclass(frozen=True)
class DepthIndexAudit:
    depth_indices: tuple[int, ...]
    sandwich_indices: tuple[int, ...]
    free_ranks: tuple[int, ...]
    published: dict
    flagged: tuple[str, ...]


def depth_index_audit(max_depth: int = 3) -> DepthIndexAudit:
    """Certify [U_i : U_(i+1)] for the congruence-depth filtration.

    U_i is the group of units congruent to 1 mod 2^i in the model ring; its
    matrix image is the parity-shifted congruence set at level 2^i, pinched
    between principal congruence levels, so successive indices are certified
    by finite enumeration mod 2^(i+2).  Free ranks follow by the index
    formula from rank 3 at depth 1 (the depth-1 group is the even subgroup
    of F(V, W) times the central -1; the -1 factor halves the depth-1
    index before the formula applies).

    Published values audited against the enumeration: the blanket
    [U_i : U_(i+1)] = 8 (confirmed, including i = 1), the in-proof case
    split claiming 16 at i = 1 (refuted), the in-proof sandwich index
    [Gamma(2^i) : phi(U_i)] = 2 (refuted at i = 1, where it is 4), and the
    rank formulas (the in-proof rank 9 for depth 2 is confirmed; both
    published closed forms 1 + 2*8^(i-1) and 1 + 2*8^i are refuted).
    """
    if max_depth > 16:
        raise CapExceededError("congruence depth audit capped at depth 16 (mod 2^18)")
    indices = []
    for i in range(1, max_depth + 1):
        big = 1 << (i + 2)
        c_i = count_depth_units_mod(i, big)
        c_next = count_depth_units_mod(i + 1, big)
        if c_i % c_next:
            raise ArithmeticError("containment of congruence sets failed")
        indices.append(c_i // c_next)
    sandwich = []
    for i in range(1, max_depth + 1):
        big = 1 << (i + 2)
        gamma_i = _det_pm1(_det_residue_counts(i, big))
        c_i = count_depth_units_mod(i, big)
        if gamma_i % c_i:
            raise ArithmeticError("parity subgroup does not divide the level")
        sandwich.append(gamma_i // c_i)
    ranks = [3]
    for depth, idx in enumerate(indices, start=1):
        torsion_free_index = idx // 2 if depth == 1 else idx
        ranks.append(nielsen_schreier(ranks[-1], torsion_free_index))
    published = {
        "index_statement": 8,
        "index_proof_case_split": {"depth 1": 16, "depth >= 2": 8},
        "sandwich_index": 2,
        "rank_formulas": {
            "statement 1+2*8^(i-1)": [1 + 2 * 8 ** (i - 1) for i in range(2, max_depth + 2)],
            "variant 1+2*8^i": [1 + 2 * 8**i for i in range(2, max_depth + 2)],
            "proof depth-2 rank": 9,
        },
    }
    flagged = []
    for depth, idx in enumerate(indices, start=1):
        if idx != 8:
            flagged.append(
                f"[U_{depth} : U_{depth + 1}] = {idx}, published blanket value is 8"
            )
    if indices and indices[0] != 16:
        flagged.append(
            f"in-proof case split says [U_1 : U_2] = 16; enumeration gives {indices[0]}"
        )
    for depth, s in enumerate(sandwich, start=1):
        if s != 2:
            flagged.append(
                f"published sandwich index 2 at level {depth}; enumeration gives {s}"
            )
    for depth in range(2, max_depth + 2):
        true_rank = ranks[depth - 1]
        stmt = 1 + 2 * 8 ** (depth - 1)
        if stmt != true_rank:
            flagged.append(
                f"published rank formula gives {stmt} at depth {depth}; "
                f"certified indices give {true_rank}"
            )
    return DepthIndexAudit(
        depth_indices=tuple(indices),
        sandwich_indices=tuple(sandwich),
        free_ranks=tuple(ranks),
        published=published,
        flagged=tuple(flagged),
    )

