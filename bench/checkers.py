"""Output checkers that share no code with the program under test.

Each checker reads one parsed ``--json`` report and returns a list of
problems; an empty list means the report is correct.  Ring arithmetic here
is the benchmark's own: dense integer vectors over an elementary abelian
2-group (element ids are bit masks, the group law is XOR) with a sign
cocycle given as a 0/1 table, so that ``u_a u_b = (-1)^t[a][b] u_(a^b)``.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# sign tables


def anticommuting_table(rank: int) -> list[list[int]]:
    """Twist on C2^rank with [u_g, u_h] = -1, g = bit 0 and h = bit 1.

    The sign is -1 exactly when the left factor has the h bit and the right
    factor has the g bit; the remaining generators are untwisted.
    """
    n = 1 << rank
    return [[(a >> 1 & 1) & (b & 1) for b in range(n)] for a in range(n)]


def tower_table(levels: int) -> list[list[int]]:
    """The same twist read on the tower G x C2^levels over G = C2 x C2.

    Tower ids put the base element in the high bits and x_1 .. x_levels in
    the low bits, x_levels lowest.
    """
    n = 4 << levels
    return [
        [((a >> levels) >> 1 & 1) & (b >> levels & 1) for b in range(n)]
        for a in range(n)
    ]


# ---------------------------------------------------------------------------
# integer twisted group ring on C2^k


def mul(x: list[int], y: list[int], table: list[list[int]]) -> list[int]:
    out = [0] * len(x)
    for a, xa in enumerate(x):
        if xa:
            row = table[a]
            for b, yb in enumerate(y):
                if yb:
                    v = xa * yb
                    out[a ^ b] += -v if row[b] else v
    return out


def one(n: int) -> list[int]:
    return [1] + [0] * (n - 1)


def power(x: list[int], e: int, table: list[list[int]]) -> list[int]:
    result = one(len(x))
    base = x
    while e:
        if e & 1:
            result = mul(result, base, table)
        base = mul(base, base, table)
        e >>= 1
    return result


def dense(element: dict, n: int) -> list[int]:
    """Read a report element; only rational coefficients (m = 2) occur."""
    out = [0] * n
    for entry in element["coeffs"]:
        if entry["m"] != 2 or len(entry["c"]) != 1:
            raise ValueError(f"unexpected coefficient {entry}")
        out[entry["g"]] += entry["c"][0]
    return out


def sparse(x: list[int]) -> dict:
    """Element JSON in the program's input format."""
    return {"coeffs": [{"g": g, "m": 2, "c": [v]} for g, v in enumerate(x) if v]}


def _item(report: dict, name: str) -> dict:
    for item in report["items"]:
        if item["name"] == name:
            return item
    raise KeyError(f"report has no item {name!r}")


# ---------------------------------------------------------------------------
# tower-split


def check_tower_split(report: dict, table: list[list[int]]) -> list[str]:
    """unit = kernel_part * complement_part, psi_2(kernel_part) = 1, and
    complement_part = psi_2(unit) re-embedded (psi_2: x_2 -> 1)."""
    n = len(table)
    parts = _item(report, "split trace")["computed"]
    u = dense(parts["unit"], n)
    k = dense(parts["kernel_part"], n)
    s = dense(parts["complement_part"], n)
    problems = []
    if mul(k, s, table) != u:
        problems.append("kernel_part * complement_part != unit")

    def psi(x):
        out = [0] * (n // 2)
        for g, v in enumerate(x):
            out[g >> 1] += v
        return out

    if psi(k) != one(n // 2):
        problems.append("psi_2(kernel_part) != 1")
    embedded = [0] * n
    for g, v in enumerate(psi(u)):
        embedded[2 * g] = v
    if s != embedded:
        problems.append("complement_part is not psi_2(unit) re-embedded")
    return problems


# ---------------------------------------------------------------------------
# cohomology


def self_values(table: list[list[int]]) -> list[int]:
    """alpha(g, g); over mu_2 on C2^k these classify the cohomology class."""
    return [table[g][g] for g in range(len(table))]


def check_cohomologous(
    report: dict, t1: list[list[int]], t2: list[list[int]]
) -> list[str]:
    """The verdict matches alpha(g, g) and a witness f satisfies
    f(a) + f(b) - f(ab) + t1(a, b) - t2(a, b) = 0 mod 2 for all a, b."""
    n = len(t1)
    witness = _item(report, "cohomologous over mu_2")["computed"]["witness"]
    expected = self_values(t1) == self_values(t2)
    if (witness is not None) != expected:
        return [f"verdict {witness is not None} but alpha(g,g) says {expected}"]
    if witness is None:
        return []
    f = witness
    if len(f) != n or f[0] % 2:
        return ["witness is not a normalized map on the group"]
    bad = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if (f[a] + f[b] - f[a ^ b] + t1[a][b] - t2[a][b]) % 2
    ]
    return [f"witness fails on {len(bad)} pairs, first {bad[0]}"] if bad else []


# ---------------------------------------------------------------------------
# case-audits


def check_d8(report: dict, n: int) -> list[str]:
    """Closed forms of the D8 x C2^n case study."""
    problems = []
    classes = 2 ** (n + 1)
    kernel = _item(report, "torsion kernel units")
    if sorted(kernel["computed"]) != ["-u[a2]", "1"] or kernel["status"] != "verified":
        problems.append(f"torsion kernel {kernel['computed']} is not {{1, -u_(a^2)}}")
    cok = _item(report, "cokernel classes from small unipotents")["computed"]
    if cok["certified_nontrivial"] != classes - 1 or not cok["pairwise_ratios_certified"]:
        problems.append(f"certified classes {cok} != 2^(n+1) - 1 = {classes - 1}")
    fact = _item(report, "class count factorization")["computed"]
    if fact["product"] != classes or fact["total_classes"] != classes:
        problems.append(f"factorization {fact} does not give 2^(n+1) = {classes}")
    if n == 0 and _item(report, "cokernel size at n = 0")["computed"] != 2:
        problems.append("cokernel size at n = 0 is not 2")
    b3 = _item(report, "psi(b3) = w v^-1 (published form)")
    if b3["status"] != "refuted" or not b3.get("expected_discrepancy"):
        problems.append("published psi(b3) item is not an expected refutation")
    return problems


def check_c2c2(report: dict) -> list[str]:
    """Free part of index 8; 2000 reduced words round-trip with 0 failures."""
    problems = []
    if _item(report, "index of the free part")["computed"] != 8:
        problems.append("free-part index is not 8")
    words = _item(report, "free-word round trips")["computed"]
    if words != {"words": 2000, "failures": 0}:
        problems.append(f"free-word round trips {words}")
    return problems


def free_ranks(depth: int) -> list[int]:
    """Ranks of the free congruence subgroups U_1 .. U_(depth+1).

    U_1 is free of rank 3 up to the torsion unit -1, which lies in U_1 but
    not in U_2; so the free part of U_1 has index 8 / 2 = 4 over U_2, and
    every later step has index 8.  Nielsen-Schreier: r' = 1 + idx (r - 1).
    """
    ranks = [3]
    for step in range(depth):
        idx = 4 if step == 0 else 8
        ranks.append(1 + idx * (ranks[-1] - 1))
    return ranks


def check_congruence(report: dict, i: int, depth: int) -> list[str]:
    """|GL2(Z/2^j)| = 6 * 16^(j-1); the det +-1 count is 12 * 8^(j-1) for
    j >= 2 (6 at j = 1); free ranks 3, 9, 65, 513, ..."""
    problems = []
    for j in range(1, i + 1):
        got = _item(report, f"index at modulus {2 ** j}")["computed"]
        det_pm1 = 6 if j == 1 else 12 * 8 ** (j - 1)
        if got != {"gl2_size": 6 * 16 ** (j - 1), "true_index": det_pm1}:
            problems.append(f"modulus {2 ** j}: {got}")
    audit = _item(report, "congruence depth indices")["computed"]
    if audit["indices"] != [8] * depth:
        problems.append(f"depth indices {audit['indices']} are not all 8")
    if audit["free_ranks"] != free_ranks(depth):
        problems.append(f"free ranks {audit['free_ranks']} != {free_ranks(depth)}")
    return problems


# ---------------------------------------------------------------------------
# unit-scan


def check_scan(report: dict) -> list[str]:
    item = _item(report, "trace-zero scan")
    if item["computed"]["violations"] or item["status"] != "verified":
        return [f"trace-zero scan reports violations {item['computed']}"]
    return []


def check_unit(
    report: dict,
    x: list[int],
    table: list[list[int]],
    annihilator: list[int] | None = None,
) -> list[str]:
    """An inverse y must satisfy x y = y x = 1; a non-unit verdict must be
    backed by a known z != 0 with x z = 0."""
    n = len(x)
    got = _item(report, "unit test")["computed"]
    if got["is_unit"]:
        y = dense(got["inverse"], n)
        if mul(x, y, table) != one(n) or mul(y, x, table) != one(n):
            return ["returned inverse does not invert"]
        return []
    if annihilator is None or not any(annihilator):
        return ["non-unit verdict on an element built as a unit"]
    if any(mul(x, annihilator, table)):
        return ["non-unit verdict, but the known annihilator does not annihilate"]
    return []


def _primes(k: int) -> list[int]:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def infinite_order_certificate(x: list[int], table, max_power: int = 64) -> int | None:
    """Least k with x^k certifiably of infinite order, or None.

    In Z^alpha[G] the trace of left multiplication is |G| times the identity
    coefficient, so a torsion unit has identity coefficient in {-1, 0, 1};
    and 1 + z with z != 0, z^2 = 0 has infinite order.
    """
    n = len(x)
    y = one(n)
    for k in range(1, max_power + 1):
        y = mul(y, x, table)
        if abs(y[0]) > 1:
            return k
        z = y[:]
        z[0] -= 1
        if any(z) and not any(mul(z, z, table)):
            return k
    return None


def check_torsion(report: dict, x: list[int], table: list[list[int]]) -> list[str]:
    """x^o = 1 and x^(o/p) != 1 for each prime p | o; 'infinite' (null) must
    be backed by a power with identity coefficient beyond +-1 or 1 + nilpotent."""
    order = _item(report, "torsion order")["computed"]
    n = len(x)
    if order is None:
        if infinite_order_certificate(x, table) is None:
            return ["infinite order claimed without a certificate"]
        return []
    if power(x, order, table) != one(n):
        return [f"x^{order} != 1"]
    for p in _primes(order):
        if power(x, order // p, table) == one(n):
            return [f"order {order} is not minimal: x^{order // p} = 1"]
    return []
