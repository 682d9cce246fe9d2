"""The benchmark's four workloads as seeded lists of CLI calls.

A workload is a list of ``Op``: the argv given to ``cli.run`` (``--json`` is
added when it runs) and the independent check its report must pass.  Inputs
come from a private ``random.Random(seed)``, never the global generator,
which ``cli.run`` reseeds on every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import checkers as ck


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], list[str]]
    # calls of one kind and size share a kind: per-call percentiles are
    # taken over a workload whose calls all have one kind, and the
    # "witness" / "refute" coboundary searches feed their own medians
    kind: str = ""
    # wall-clock limit; an op that hits it counts as failed
    limit_s: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = " ".join(self.argv)


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# case-audits: the paper's case study; no free inputs


def case_audits(rng: random.Random) -> list[Op]:
    return [
        Op(["case", "d8", "--n", str(n)], partial(ck.check_d8, n=n)) for n in (0, 1, 2)
    ] + [
        Op(["case", "c2c2", "--check-all"], ck.check_c2c2),
        Op(
            ["case", "congruence", "--i", "4", "--depth", "3"],
            partial(ck.check_congruence, i=4, depth=3),
        ),
    ]


# ---------------------------------------------------------------------------
# tower-split: many calls of one kind and one size (level 2, dim 16)

TOWER_CALLS = 100


def tower_split(rng: random.Random) -> list[Op]:
    table = ck.tower_table(2)
    seeds = rng.sample(range(1 << 31), TOWER_CALLS)
    return [
        Op(
            ["tower", "split", "--n", "2", "--level", "2", "--seed", str(s)],
            partial(ck.check_tower_split, table=table),
            kind="split",
        )
        for s in seeds
    ]


# ---------------------------------------------------------------------------
# cohomology: coboundary searches over C2^4 at modulus 2 (2^15 maps)

WITNESS_CALLS = 60
REFUTE_CALLS = 40
_C2_4 = {"preset": "elementary_abelian_2", "params": [4]}


def _bilinear(rng: random.Random) -> list[list[int]]:
    form = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
    return [
        [
            sum(form[i][j] for i in range(4) for j in range(4) if a >> i & 1 and b >> j & 1) % 2
            for b in range(16)
        ]
        for a in range(16)
    ]


def _twist(table: list[list[int]], f: list[int]) -> list[list[int]]:
    return [
        [(f[a] + f[b] - f[a ^ b] + table[a][b]) % 2 for b in range(16)]
        for a in range(16)
    ]


def _random_hom(rng: random.Random) -> list[int]:
    r = rng.randrange(16)
    return [bin(a & r).count("1") % 2 for a in range(16)]


def _witness_coboundary(rng: random.Random) -> list[int]:
    """A random map whose lexicographically first witness has a fixed prefix.

    Maps that differ by a homomorphism twist alike, and the search returns
    the coset member with f(1) = f(2) = f(4) = f(8) = 0.  Fixing that member
    at elements 1..8 (f(3) = 1, the rest 0) makes every search scan between
    4,097 and 4,224 of the 32,768 maps, so the witness times are of one size;
    the values at 9..15 and the homomorphism part are random.
    """
    f = [0, 0, 0, 1, 0, 0, 0, 0, 0] + [rng.randrange(2) for _ in range(7)]
    h = _random_hom(rng)
    return [(a + b) % 2 for a, b in zip(f, h)]


def _cocycle_spec(table: list[list[int]]) -> str:
    return _js({"group": _C2_4, "m": 2, "table": table})


def cohomology(rng: random.Random) -> list[Op]:
    ops = []
    kinds = ["witness"] * WITNESS_CALLS + ["refute"] * REFUTE_CALLS
    rng.shuffle(kinds)
    for kind in kinds:
        t1 = _bilinear(rng)
        if kind == "witness":
            t2 = _twist(t1, _witness_coboundary(rng))
        else:
            other = _bilinear(rng)
            while ck.self_values(other) == ck.self_values(t1):
                other = _bilinear(rng)
            t2 = _twist(other, [0] + [rng.randrange(2) for _ in range(15)])
        argv = [
            "cocycle", "cohomologous", _cocycle_spec(t1),
            "--other", _cocycle_spec(t2), "--modulus", "2",
        ]
        label = f"cocycle cohomologous ({kind} pair {len(ops)})"
        ops.append(Op(argv, partial(ck.check_cohomologous, t1=t1, t2=t2), kind, label=label))
    return ops


# ---------------------------------------------------------------------------
# unit-scan: many small unit and torsion tests through rings and intmat

ANTICOMMUTING_1 = _js({"cocycle": {"builtin": "anticommuting", "n": 1}, "conductor": 2})
ANTICOMMUTING_2 = _js({"cocycle": {"builtin": "anticommuting", "n": 2}, "conductor": 2})
# 3 + 2u_g + 2u_h, the hyperbolic unit w v at dim 16; rings.torsion_order
# raises its regular representation to the 24,504,480th power and does not
# return, so the call is cut at this limit and counted as failed
HYPERBOLIC_16 = [3, 2, 2] + [0] * 13
HYPERBOLIC_LIMIT_S = 1.0


def _quaternion(conductor: int) -> str:
    return _js({"cocycle": {"builtin": "quaternion"}, "conductor": conductor})


def _random_unit(rng: random.Random, table, length: int) -> list[int]:
    """A word in +-u_g and the bicyclic units v = 1 + u_h - u_gh,
    w = 1 + u_h + u_gh and their inverses, on C2^3."""
    v, w = [1, 0, 1, -1, 0, 0, 0, 0], [1, 0, 1, 1, 0, 0, 0, 0]
    v_inv, w_inv = [1, 0, -1, 1, 0, 0, 0, 0], [1, 0, -1, -1, 0, 0, 0, 0]
    x = ck.one(8)
    for _ in range(length):
        if rng.randrange(2):
            factor = [0] * 8
            factor[rng.randrange(8)] = rng.choice((1, -1))
        else:
            factor = rng.choice((v, w, v_inv, w_inv))
        x = ck.mul(x, factor, table)
    return x


def unit_scan(rng: random.Random) -> list[Op]:
    table8 = ck.anticommuting_table(3)
    ops = [Op(["ring", "scan", ANTICOMMUTING_1, "--support", "4"], ck.check_scan)]
    ops += [Op(["ring", "scan", _quaternion(c)], ck.check_scan) for c in (4, 8, 12)]
    # a unit, and a zero divisor y (1 + u_x1) annihilated by 1 - u_x1
    unit = _random_unit(rng, table8, 4)
    zero_divisor = ck.mul(_random_unit(rng, table8, 3), [1, 0, 0, 0, 1, 0, 0, 0], table8)
    annihilator = [1, 0, 0, 0, -1, 0, 0, 0]
    for x, ann in ((unit, None), (zero_divisor, annihilator)):
        argv = ["ring", "unit", ANTICOMMUTING_1, "--x", _js(ck.sparse(x))]
        ops.append(Op(argv, partial(ck.check_unit, x=x, table=table8, annihilator=ann)))
    for length in (2, 3):
        x = _random_unit(rng, table8, length)
        argv = ["ring", "torsion", ANTICOMMUTING_1, "--x", _js(ck.sparse(x))]
        ops.append(Op(argv, partial(ck.check_torsion, x=x, table=table8)))
    argv = ["ring", "torsion", ANTICOMMUTING_2, "--x", _js(ck.sparse(HYPERBOLIC_16))]
    check = partial(ck.check_torsion, x=HYPERBOLIC_16, table=ck.anticommuting_table(4))
    ops.append(Op(argv, check, limit_s=HYPERBOLIC_LIMIT_S))
    return ops


WORKLOADS = {
    "case-audits": case_audits,
    "tower-split": tower_split,
    "cohomology": cohomology,
    "unit-scan": unit_scan,
}
