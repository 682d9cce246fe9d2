"""Finite groups as dense multiplication tables with 0-based element ids.

Element ids run 0..order-1 and 0 is always the identity.  Labels are
metadata only; every structural question is answered from the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import CAPS, CapExceededError, exact_int

ALL_SUBGROUPS_CAP = 64


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by its multiplication table."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    name: str = ""
    generators: dict[str, int] = field(default_factory=dict, compare=False)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'order ' + str(self.order)})"


@dataclass(frozen=True)
class GroupHom:
    """Group homomorphism given by its value table on element ids."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def kernel(self) -> frozenset[int]:
        return frozenset(x for x in self.source.elements() if self.map[x] == 0)

    def image(self) -> frozenset[int]:
        return frozenset(self.map)

    def is_surjective(self) -> bool:
        return len(self.image()) == self.target.order


def build_group(
    mul: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    name: str = "",
    generators: Optional[dict[str, int]] = None,
) -> FiniteGroup:
    """Validate a multiplication table and package it as a FiniteGroup.

    Each axiom is one loop that names the first bad entry: each row's length
    and its entries' types (a bool or float is not an int) and range; 0 as
    two-sided identity; an inverse of each x; associativity on every triple,
    a row at a time: for each (a, b) row ab must be row a read at row b."""
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
            if tab[ab] != tuple([row[c] for c in tab[b]]):
                c = next(c for c in range(n) if tab[ab][c] != row[tab[b][c]])
                raise ValueError(f"associativity fails on ({a},{b},{c})")
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    elif len(labels) != n:
        raise ValueError("labels length does not match order")
    return _package(tab, [str(s) for s in labels], name, generators)


def _package(
    mul: Sequence[Sequence[int]],
    labels: Sequence[str],
    name: str,
    generators: Optional[dict[str, int]] = None,
) -> FiniteGroup:
    """Package a table that is a group by construction; only the order cap is
    checked.  Each inverse is read off its row: x y = 1 exactly when y x = 1
    in a group."""
    _check_order(len(mul))
    tab = tuple(map(tuple, mul))
    inv = tuple(row.index(0) for row in tab)
    return FiniteGroup(len(tab), tab, inv, tuple(labels), name, dict(generators or {}))


def _check_order(n: int, what: str = "group") -> None:
    """Refuse an order over the cap before any table of that order is built."""
    if n > (cap := CAPS.get().group_order):
        raise CapExceededError(f"{what} order {n} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# presets


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError(f"cyclic order must be positive, got {n}")
    _check_order(n)
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    gens = {"g": 1} if n > 1 else {}
    return _package(mul, labels, f"C{n}", gens)


def elementary_abelian_2(
    rank: int, gen_names: Optional[Sequence[str]] = None
) -> FiniteGroup:
    """C_2^rank with bitmask element ids.

    Default generator names follow g, h, x1, x2, ... so that the rank-(n+2)
    groups used by the case studies read naturally.
    """
    if rank < 0:
        raise ValueError("rank must be >= 0")
    # 2^rank > cap exactly when rank reaches the cap's bit length, so the rank
    # is compared before 2^rank is built or printed
    if rank >= max(cap := CAPS.get().group_order, 0).bit_length():
        raise CapExceededError(f"group order 2^{rank} exceeds cap {cap}")
    n = 1 << rank
    if gen_names is None:
        gen_names = ["g", "h"] + [f"x{i}" for i in range(1, rank)]
    gen_names = list(gen_names)[:rank]
    if len(gen_names) != rank:
        raise ValueError("not enough generator names")
    mul = [[i ^ j for j in range(n)] for i in range(n)]
    labels = []
    for mask in range(n):
        parts = [gen_names[b] for b in range(rank) if mask >> b & 1]
        labels.append("".join(parts) if parts else "1")
    gens = {gen_names[b]: 1 << b for b in range(rank)}
    return _package(mul, labels, f"C2^{rank}", gens)


def dihedral8() -> FiniteGroup:
    """D8 = <a, b | a^4 = b^2 = 1, a^b = a^-1>, ids a^i b^j -> i + 4j."""
    mul = []
    for x in range(8):
        i1, j1 = x % 4, x // 4
        row = []
        for y in range(8):
            i2, j2 = y % 4, y // 4
            i = (i1 + (i2 if j1 == 0 else -i2)) % 4
            row.append(i + 4 * ((j1 + j2) % 2))
        mul.append(row)
    labels = ["1", "a", "a2", "a3", "b", "ab", "a2b", "a3b"]
    return _package(mul, labels, "D8", {"a": 1, "b": 4})


def quaternion8() -> FiniteGroup:
    """Q8 = {+-1, +-i, +-j, +-k} with ids 0..7 = 1,-1,i,-i,j,-j,k,-k.

    Id 2s + e is (-1)^e times unit s of 1, i, j, k.  For s, t in {i, j, k},
    s s = -1, and otherwise s t = +-(s xor t), with + exactly when t follows
    s in the cycle i -> j -> k.
    """

    def product(x: int, y: int) -> int:
        s, t = x // 2, y // 2
        if s == t:
            e, u = int(s > 0), 0
        elif s == 0 or t == 0:
            e, u = 0, s | t
        else:
            e, u = int(t != s % 3 + 1), s ^ t
        return 2 * u + (x + y + e) % 2

    mul = [[product(x, y) for y in range(8)] for x in range(8)]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return _package(mul, names, "Q8", {"i": 2, "j": 4})


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with ids packed as x*|B| + y."""
    _check_order(n := a.order * b.order, "product")
    nb = b.order
    mul = []
    for x in range(n):
        xa, xb = divmod(x, nb)
        row = []
        for y in range(n):
            ya, yb = divmod(y, nb)
            row.append(a.mul[xa][ya] * nb + b.mul[xb][yb])
        mul.append(row)
    labels = []
    for x in range(n):
        xa, xb = divmod(x, nb)
        la, lb = a.labels[xa], b.labels[xb]
        if la == "1":
            labels.append(lb)
        elif lb == "1":
            labels.append(la)
        else:
            labels.append(f"{la}*{lb}")
    gens = {k: v * nb for k, v in a.generators.items()}
    for k, v in b.generators.items():
        if k not in gens:
            gens[k] = v
    return _package(mul, labels, name or f"{a.name}x{b.name}", gens)


def build_preset(name: str, params: Sequence[int] = ()) -> FiniteGroup:
    """Construct a named preset group.

    Known presets: cyclic(n), elementary_abelian_2(rank), dihedral8,
    quaternion8, direct_product(n1, n2, ...) of cyclic factors.
    """
    params = list(params)
    if name == "cyclic":
        if len(params) != 1:
            raise ValueError("cyclic needs one parameter")
        return cyclic(params[0])
    if name == "elementary_abelian_2":
        if len(params) != 1:
            raise ValueError("elementary_abelian_2 needs one parameter")
        return elementary_abelian_2(params[0])
    if name == "dihedral8":
        return dihedral8()
    if name == "quaternion8":
        return quaternion8()
    if name == "direct_product":
        if not params:
            raise ValueError("direct_product needs cyclic factor orders")
        g = cyclic(params[0])
        for m in params[1:]:
            g = direct_product(g, cyclic(m))
        return g
    raise ValueError(f"unknown preset {name!r}")


def dihedral8_times_c2n(n: int) -> FiniteGroup:
    """D8 x C2^n with the extra involutions labelled y1..yn."""
    g = dihedral8()
    for i in range(1, n + 1):
        g = direct_product(g, elementary_abelian_2(1, [f"y{i}"]), name=f"D8xC2^{i}")
    return g


# ---------------------------------------------------------------------------
# structural queries


def element_order(g: FiniteGroup, x: int) -> int:
    k = 1
    y = x
    while y != 0:
        y = g.mul[y][x]
        k += 1
    return k


def order_histogram(g: FiniteGroup) -> dict[int, int]:
    hist: dict[int, int] = {}
    for x in g.elements():
        o = element_order(g, x)
        hist[o] = hist.get(o, 0) + 1
    return hist


def exponent(g: FiniteGroup) -> int:
    e = 1
    for x in g.elements():
        e = lcm(e, element_order(g, x))
    return e


def is_abelian(g: FiniteGroup) -> bool:
    return all(
        g.mul[x][y] == g.mul[y][x]
        for x in g.elements()
        for y in range(x + 1, g.order)
    )


def centralizer(g: FiniteGroup, x: int) -> frozenset[int]:
    return frozenset(y for y in g.elements() if g.mul[y][x] == g.mul[x][y])


def conjugate(g: FiniteGroup, x: int, by: int) -> int:
    """x^by = by^-1 * x * by."""
    return g.mul[g.mul[g.inv[by]][x]][by]


def subgroup_closure(g: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """The subgroup gens generate, as right products by the generators from
    1: each generator's inverse is a positive power of it."""
    elems = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.mul[x][s]
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def is_subgroup(g: FiniteGroup, ids: Iterable[int]) -> bool:
    """Whether ids is nonempty and closed under products, which in a finite
    group makes it a subgroup: x^-1 = x^(o(x)-1) and 1 = x^o(x).  An id
    outside 0..order-1 is a ValueError."""
    s = set(ids)
    if bad := [x for x in s if not 0 <= x < g.order]:
        raise ValueError(f"element id {min(bad)} out of range 0..{g.order - 1}")
    return bool(s) and {g.mul[x][y] for x in s for y in s} <= s


def is_normal(g: FiniteGroup, ids: Iterable[int]) -> bool:
    s = set(ids)
    if not is_subgroup(g, s):
        return False
    return all(conjugate(g, x, t) in s for x in s for t in g.elements())


def all_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup, by closing the cyclic subgroups under joins.

    Exhaustive; intended for orders <= 64.
    """
    if g.order > ALL_SUBGROUPS_CAP:
        raise CapExceededError(f"subgroup enumeration capped at {ALL_SUBGROUPS_CAP}")
    subs = {frozenset([0])}
    frontier = {frozenset([0])}
    while frontier:
        new: set[frozenset[int]] = set()
        for h in frontier:
            for x in g.elements():
                if x in h:
                    continue
                j = subgroup_closure(g, set(h) | {x})
                if j not in subs:
                    new.add(j)
        subs |= new
        frontier = new
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def is_dedekind(g: FiniteGroup, exhaustive: bool = False) -> bool:
    """True when every subgroup is normal.

    Cyclic subgroups suffice (normality is preserved by joins), and <x> is
    normal exactly when every conjugate t^-1 x t lies in <x>; with
    exhaustive=True all subgroups are enumerated and checked instead.
    """
    if exhaustive:
        return all(is_normal(g, h) for h in all_subgroups(g))
    for x in g.elements():
        h = subgroup_closure(g, [x])
        if any(conjugate(g, x, t) not in h for t in g.elements()):
            return False
    return True


def is_hamiltonian_2group(g: FiniteGroup) -> bool:
    """Non-abelian 2-group with every subgroup normal (= Q8 x C2^m)."""
    n = g.order
    if n & (n - 1):
        return False
    if is_abelian(g):
        return False
    return is_dedekind(g)


# for each conductor c with U(Z[zeta_c]) finite, U(Z[zeta_c][A]) is finite for
# an abelian A exactly when exp A divides one of these: then Q(zeta_c, zeta_e)
# for e = exp A is one of Q, Q(i) and Q(sqrt-3)
_FINITE_EXPONENT_BOUNDS = {1: (4, 6), 2: (4, 6), 3: (6,), 4: (4,), 6: (6,)}


def group_ring_units_finite(g: FiniteGroup, conductor: int) -> bool:
    """Whether U(Z[zeta_conductor][g]) is finite.

    Higman's criterion, over Q(i) and Q(sqrt-3) too: g is abelian of an
    exponent that divides 4 or 6 over Q, 4 over Q(i) and 6 over Q(sqrt-3),
    or the field is Q and g is a Hamiltonian 2-group.  Applied to the basis
    group G_alpha, it decides U(R^alpha[G]).
    """
    if is_abelian(g):
        e = exponent(g)
        return any(b % e == 0 for b in _FINITE_EXPONENT_BOUNDS.get(conductor, ()))
    return conductor in (1, 2) and is_hamiltonian_2group(g)


def quotient(g: FiniteGroup, normal_ids: Iterable[int]) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the canonical projection.

    Cosets are numbered by their least representative, so the identity
    coset is element 0 of the quotient.  Ids are scanned upward, and each
    coset is placed whole when it is found, so the first id not yet placed
    is the least of its coset: the scan finds the cosets in that order.
    """
    nset = frozenset(normal_ids)
    if not is_normal(g, nset):
        if not is_subgroup(g, nset):
            raise ValueError("given id set is not a subgroup")
        raise ValueError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in g.elements():
        if x not in coset_of:
            coset_of.update((g.mul[x][n], len(reps)) for n in nset)
            reps.append(x)
    proj = tuple(coset_of[x] for x in g.elements())
    mul = [[proj[g.mul[x][y]] for y in reps] for x in reps]
    labels = [g.labels[r] for r in reps]
    q = _package(mul, labels, f"{g.name}/N")
    return q, GroupHom(source=g, target=q, map=proj)


def subgroup_as_group(
    g: FiniteGroup, ids: Iterable[int]
) -> tuple[FiniteGroup, GroupHom]:
    """Package a subgroup as its own FiniteGroup plus the embedding."""
    members = sorted(set(ids))
    if not is_subgroup(g, members):
        raise ValueError("given id set is not a subgroup")
    index = {x: i for i, x in enumerate(members)}
    mul = [[index[g.mul[x][y]] for y in members] for x in members]
    labels = [g.labels[x] for x in members]
    h = build_group(mul, labels, name=f"{g.name}|H")
    embed = GroupHom(source=h, target=g, map=tuple(members))
    return h, embed


def hom_from_gen_images(
    source: FiniteGroup, target: FiniteGroup, images: dict[int, int]
) -> GroupHom:
    """Extend generator images to a full homomorphism table.

    The walk checks f(x s) = f(x) t_s for every x and generator s, with
    f(1) = 1, so f is multiplicative by induction on word length."""
    table: dict[int, int] = {0: 0}
    frontier = [0]
    pairs = list(images.items())
    while frontier:
        x = frontier.pop()
        for s, t in pairs:
            y = source.mul[x][s]
            v = target.mul[table[x]][t]
            if y in table:
                if table[y] != v:
                    raise ValueError("generator images are inconsistent")
            else:
                table[y] = v
                frontier.append(y)
    if len(table) != source.order:
        raise ValueError("images do not generate the source group")
    return GroupHom(source, target, tuple(table[x] for x in source.elements()))


def validate_section(proj: GroupHom, section: Sequence[int]) -> None:
    """Check that section (quotient id -> source id) is a section of the
    surjection proj that fixes the identity; its first id that is not an
    int in 0..|source|-1 is refused first, by name."""
    n = proj.source.order
    for x in section:
        if type(x) is not int or not 0 <= x < n:
            raise ValueError(f"element id {x} out of range 0..{n - 1}")
    if len(section) != proj.target.order:
        raise ValueError(f"section has {len(section)} entries for {proj.target.order} cosets")
    if section[0] != 0:
        raise ValueError("section does not fix the identity")
    for gid in proj.target.elements():
        if proj.map[section[gid]] != gid:
            raise ValueError(f"section fails at {gid}")


# ---------------------------------------------------------------------------
# serialization

def group_from_json(data: dict) -> FiniteGroup:
    if "preset" in data:
        params = [exact_int(p, "preset parameter") for p in data.get("params", [])]
        return build_preset(data["preset"], params)
    if "mul" not in data:
        raise ValueError("group JSON needs 'mul' or 'preset'")
    return build_group(data["mul"], data.get("labels"), name=data.get("name", ""))
