"""Command-line front end: validation, audits, and JSON reports.

Every subcommand emits a report whose items pair a published or expected
value with the computed one and a status in {verified, refuted,
lower-bound, inconclusive}.  With --json the output is deterministic for
a fixed command line and seed (timing is reported only in human mode).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import cocycles, d8_case, extensions, groups, rings, tower, units
from .d8_case import AuditItem, check
from .errors import CAPS, CapExceededError, Caps, exact_int

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


@dataclass
class Report:
    command: str
    inputs: dict
    seed: int
    items: list[AuditItem] = field(default_factory=list)
    timing: Optional[float] = None

    def add(self, item: AuditItem) -> None:
        self.items.append(item)

    def ok(self) -> bool:
        return all(i.ok for i in self.items)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "items": [i.to_json() for i in sorted(self.items, key=lambda x: x.name)],
            "ok": self.ok(),
            "timing": None,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        for i in sorted(self.items, key=lambda x: x.name):
            mark = {
                "verified": "ok",
                "refuted": "XX" if not i.expected_discrepancy else "!!",
                "lower-bound": ">=",
                "inconclusive": "??",
            }[i.status]
            claim = f" claimed={i.claimed}" if i.claimed is not None else ""
            note = f"  ({i.note})" if i.note else ""
            lines.append(f"[{mark}] {i.name}: {i.computed}{claim}{note}")
        if self.timing is not None:
            lines.append(f"-- {self.timing:.2f}s, ok={self.ok()}")
        return "\n".join(lines)


def _load_json_arg(arg: Optional[str]) -> dict:
    if arg is None:
        raise ValueError("missing required JSON argument")
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _load_cocycle(spec: dict) -> cocycles.Cocycle:
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "anticommuting":
            return cocycles.anticommuting_pair_cocycle(exact_int(spec.get("n", 0), "n"))
        if name == "quaternion":
            return cocycles.c2c2_quaternion_cocycle()
        if name == "c2c2_matrix":
            return cocycles.c2c2_matrix_cocycle()
        if name == "trivial":
            g = groups.group_from_json(spec["group"])
            return cocycles.trivial_cocycle(g, exact_int(spec.get("m", 1), "m"))
        raise ValueError(f"unknown builtin cocycle {name!r}")
    g = groups.group_from_json(spec["group"])
    table = tuple(
        tuple(exact_int(v, "cocycle entry") for v in row) for row in spec["table"]
    )
    return cocycles.Cocycle(g, exact_int(spec["m"], "m"), table)


def _in_range(value: Optional[int], lo: int, hi: Optional[int], flag: str) -> int:
    """value when lo <= value <= hi (or lo <= value when hi is None), else a
    usage error naming the flag; a flag left unset is an error too."""
    if value is None:
        raise ValueError(f"{flag} is required")
    if value < lo or (hi is not None and value > hi):
        raise ValueError(f"{flag} {value} out of range {lo}..{'' if hi is None else hi}")
    return value


def _load_ring(spec: dict) -> rings.TwRing:
    """The ring of a JSON spec; its twist must be a normalized cocycle, so
    that u_1 is the identity."""
    c = _load_cocycle(spec["cocycle"] if "cocycle" in spec else spec)
    if not (report := cocycles.validate_cocycle(c)).ok:
        raise ValueError(report.message)
    conductor = exact_int(spec.get("conductor", max(2, c.modulus)), "conductor")
    if conductor > (cap := CAPS.get().conductor):
        raise CapExceededError(f"conductor {conductor} exceeds cap {cap}")
    return rings.TwRing(c.group, c, conductor)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_group_validate(args, report: Report) -> None:
    g = groups.group_from_json(_load_json_arg(args.file))
    report.add(
        check(
            "group is valid", True, {"order": g.order, "abelian": groups.is_abelian(g)}
        )
    )


def _cmd_cocycle(args, report: Report) -> None:
    c = _load_cocycle(_load_json_arg(args.file))
    if args.action == "validate":
        rep = cocycles.validate_cocycle(c)
        report.add(
            check(
                "cocycle identity and normalization",
                rep.ok,
                {
                    "is_cocycle": rep.is_cocycle,
                    "normalized": rep.is_normalized,
                    "violation": rep.violation,
                },
                note=rep.message,
            )
        )
    elif args.action == "order":
        report.add(check("cocycle order", True, cocycles.cocycle_order(c)))
    elif args.action == "galpha":
        ga = cocycles.build_G_alpha(c)
        hist = groups.order_histogram(ga.group)
        report.add(
            check(
                "basis group",
                True,
                {
                    "order": ga.group.order,
                    "order_histogram": {str(k): v for k, v in sorted(hist.items())},
                    "representative_table": [list(r) for r in c.table],
                },
            )
        )
    elif args.action == "cohomologous":
        other = _load_cocycle(_load_json_arg(args.other))
        witness = cocycles.are_cohomologous(c, other, args.modulus)
        report.add(
            check(
                f"cohomologous over mu_{args.modulus}",
                witness,
                {"witness": list(witness) if witness else None},
                note="exhaustive search; no witness proves inequivalence",
                expected_discrepancy=witness is None,
            )
        )


def _cmd_ring(args, report: Report) -> None:
    ring = _load_ring(_load_json_arg(args.ring))
    if args.action == "mul":
        x = rings.element_from_json(ring, _load_json_arg(args.x))
        y = rings.element_from_json(ring, _load_json_arg(args.y))
        report.add(check("product", True, (x * y).to_json()))
    elif args.action == "unit":
        x = rings.element_from_json(ring, _load_json_arg(args.x))
        inv = rings.is_unit(x)
        report.add(
            check(
                "unit test",
                True,
                {"is_unit": inv is not None, "inverse": inv.to_json() if inv else None},
            )
        )
    elif args.action == "torsion":
        x = rings.element_from_json(ring, _load_json_arg(args.x))
        report.add(check("torsion order", True, rings.torsion_order(x)))
    elif args.action == "scan":
        bad = rings.berman_higman_violations(
            ring, support_cap=args.support if args.support > 0 else None
        )
        report.add(
            check(
                "trace-zero scan",
                not bad,
                {"violations": [b.to_json() for b in bad]},
                "no torsion unit with nonzero identity coefficient"
                " beyond the coefficient-ring units",
                source="computed",
            )
        )


def _cmd_ext(args, report: Report) -> None:
    g = groups.group_from_json(_load_json_arg(args.group))
    for v in args.normal + (args.section or []):
        _in_range(v, 0, g.order - 1, "element id")
    sub = set(args.normal)
    ext = extensions.build_extension(g, sub, section_map=args.section)
    if args.action == "build":
        report.add(
            check(
                "extension data",
                True,
                {
                    "quotient_order": ext.quotient_group.order,
                    "central": ext.is_central,
                    "section": list(ext.section.map),
                },
            )
        )
        return
    chars = extensions.lin_characters(ext.sub_group, args.chi_modulus)
    chi = chars[_in_range(args.chi, 0, len(chars) - 1, "--chi")]
    psi = extensions.build_psi(ext, chi)
    if args.action == "psi":
        ok = extensions.psi_multiplicative_on_basis(psi)
        report.add(check("projection multiplicative on basis pairs", ok, ok))
    elif args.action == "kernel":
        basis = extensions.kernel_basis(psi)
        zero = all(
            extensions.apply_psi(psi, b) == psi.target.zero() for b in basis
        )
        tors = extensions.torsion_kernel_units(psi) if ext.is_central else []
        fin = extensions.kernel_finiteness_predicate(psi) if ext.is_central else None
        report.add(
            check(
                "kernel module basis",
                zero,
                {"rank": len(basis), "all_map_to_zero": zero},
            )
        )
        if ext.is_central:
            report.add(
                check("kernel torsion units", True, [t.to_json() for t in tors])
            )
            report.add(
                check(
                    "kernel finiteness",
                    True,
                    {"finite": fin.finite, "clauses": list(fin.clauses)},
                )
            )
    elif args.action == "components":
        entries = extensions.component_table(ext, field_conductor=args.conductor)
        report.add(
            check(
                "component table",
                True,
                [
                    {
                        "field_conductor": e.field_conductor,
                        "degree": e.degree,
                        "orbit_size": e.orbit_size,
                    }
                    for e in entries
                ],
                note="dimension identity enforced during construction",
            )
        )


def _cmd_units(args, report: Report) -> None:
    if args.action == "finiteness":
        ring = _load_ring(_load_json_arg(args.ring))
        verdict = units.decide_finiteness(ring)
        report.add(
            check(
                "unit group finiteness",
                True,
                {
                    "finite": verdict.finite,
                    "case": verdict.case,
                    "witness": {
                        k: v
                        for k, v in verdict.witness.items()
                        if k in ("field", "galpha_order_histogram", "witness_element")
                    },
                },
            )
        )
    elif args.action == "bicyclic":
        ring = _load_ring(_load_json_arg(args.ring))
        top = ring.group.order - 1
        g, h = _in_range(args.g, 0, top, "--g"), _in_range(args.h, 0, top, "--h")
        u = units.minimal_twisted_bicyclic(ring, g, h)
        inc = u - ring.one()
        report.add(
            check(
                "twisted bicyclic unit",
                True,
                {
                    "element": u.to_json(),
                    "increment_square_zero": (inc * inc) == ring.zero(),
                },
            )
        )
    elif args.action == "obstruct":
        psi = d8_case.build_d8_psi(_in_range(args.n, 0, d8_case.MAX_N, "--n"))
        x = rings.element_from_json(psi.target, _load_json_arg(args.element))
        cert = units.parity_obstruction(psi, x)
        report.add(
            check(
                "cokernel obstruction",
                cert.certified,
                {"certified": cert.certified, "checks": cert.checks},
                note=cert.reason,
                failed="inconclusive",
            )
        )


def _cmd_tower(args, report: Report) -> None:
    if args.ring:
        base = _load_ring(_load_json_arg(args.ring))
    else:
        base = rings.anticommuting_ring(0)
    _in_range(args.n, 1, None, "--n")
    if args.action != "scan":
        _in_range(args.level, 1, args.n, "--level")
    ctx = tower.build_tower(base, args.n)
    rng = random.Random(args.seed)
    if args.action == "scan":
        failures = 0
        for _ in range(args.samples):
            level = 1 + rng.randrange(args.n)
            u = tower.random_unit(ctx, level, rng)
            k, s = tower.split_unit(ctx, level, u)
            image = tower.kernel_embed(ctx, level, k)
            if not tower.u_group_membership(ctx, 1, level - 1, image):
                failures += 1
        report.add(
            check(
                f"split and embed on {args.samples} random units",
                failures == 0,
                {"failures": failures},
            )
        )
    elif args.action == "split":
        level = args.level
        u = tower.random_unit(ctx, level, rng)
        k, s = tower.split_unit(ctx, level, u)
        report.add(
            check(
                "split trace",
                True,
                {
                    "unit": u.to_json(),
                    "kernel_part": k.to_json(),
                    "complement_part": s.to_json(),
                },
            )
        )
    elif args.action == "usplit":
        level = args.level
        u = tower.random_unit(ctx, level, rng)
        # squares of units congruent to 1 mod 2 land in depth 1
        x = u * u if tower.u_group_membership(ctx, 1, level, u * u) else None
        if x is None:
            report.add(
                check(
                    "usplit trace",
                    False,
                    "sample missed the congruence class",
                    failed="inconclusive",
                )
            )
        else:
            a, b = tower.u_split(ctx, 1, level, x)
            report.add(
                check(
                    "usplit trace",
                    True,
                    {"deep": a.to_json(), "shallow": b.to_json()},
                )
            )


def _cmd_case(args, report: Report) -> None:
    if args.case == "c2c2":
        report.items.extend(d8_case.c2c2_audit())
    elif args.case == "d8":
        _in_range(args.n, 0, d8_case.MAX_N, "--n")
        report.items.extend(d8_case.d8_case_study(args.n).items)
    elif args.case == "congruence":
        i, depth = _in_range(args.i, 1, None, "--i"), _in_range(args.depth, 0, None, "--depth")
        report.items.extend(d8_case.congruence_audit(i, depth))


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    # shared options are accepted before or after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values already parsed up front
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--seed", type=int, help="seed for sampled suites")
    common.add_argument(
        "--cap-group-order", type=int, help="largest accepted group order"
    )
    common.add_argument(
        "--cap-conductor", type=int, help="largest accepted coefficient conductor"
    )
    common.add_argument(
        "--cap-coboundary", type=int, help="largest coboundary search space"
    )
    common.add_argument(
        "--cap-word-length", type=int, help="longest enumerated free word"
    )
    common.add_argument(
        "--cap-scan-candidates", type=int, help="most candidates of a torsion-unit scan"
    )
    parser = argparse.ArgumentParser(
        prog="twisted-rings",
        description="Exact audits of twisted group rings and their unit groups.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p = add_command("group", "group table utilities", _cmd_group_validate)
    p.add_argument("action", choices=["validate"])
    p.add_argument("file")

    p = add_command("cocycle", "cocycle utilities", _cmd_cocycle)
    p.add_argument("action", choices=["validate", "order", "galpha", "cohomologous"])
    p.add_argument("file")
    p.add_argument("--other", help="second cocycle for the class comparison")
    p.add_argument("--modulus", type=int, default=2)

    p = add_command("ring", "twisted ring arithmetic", _cmd_ring)
    p.add_argument("action", choices=["mul", "unit", "torsion", "scan"])
    p.add_argument("ring")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--support", type=int, default=0)

    p = add_command("ext", "extension and projection maps", _cmd_ext)
    p.add_argument("action", choices=["build", "psi", "kernel", "components"])
    p.add_argument("group")
    p.add_argument("--normal", type=int, nargs="+", required=True)
    p.add_argument("--section", type=int, nargs="+", help="explicit section map")
    p.add_argument("--chi", type=int, default=0, help="character index")
    p.add_argument("--chi-modulus", type=int, default=2)
    p.add_argument("--conductor", type=int, default=1)

    p = add_command("units", "unit-group structure", _cmd_units)
    p.add_argument("action", choices=["finiteness", "bicyclic", "obstruct"])
    p.add_argument("ring", nargs="?")
    p.add_argument("--g", type=int)
    p.add_argument("--h", type=int)
    p.add_argument(
        "--n", type=int, default=0,
        help="level of the dihedral-family projection used by 'obstruct'",
    )
    p.add_argument("--element")

    p = add_command("tower", "tower splittings over extra involutions", _cmd_tower)
    p.add_argument("action", choices=["split", "usplit", "scan"])
    p.add_argument("--ring", help="base ring (default: the anticommuting model)")
    p.add_argument("--n", type=int, default=2, help="number of involutions")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--samples", type=int, default=50)

    p = add_command("case", "case-study audits", _cmd_case)
    p.add_argument("case", choices=["c2c2", "d8", "congruence"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--i", type=int, default=2)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument(
        "--check-all", action="store_true", help="no effect: 'case c2c2' runs every check"
    )

    return parser


_GLOBAL_DEFAULTS = {"json": False, "seed": 0}


def _caps(args) -> Caps:
    """The caps the flags ask for.  The group-order, conductor and word-length
    caps can only be lowered: the dense tables stop at their defaults."""
    top = Caps()
    asked = {k[4:]: v for k, v in vars(args).items() if k.startswith("cap_")}
    for name in ("group_order", "conductor", "word_length"):
        if name in asked:
            asked[name] = min(asked[name], getattr(top, name))
    return Caps(**asked)


# built on the first run, not at import; parsing leaves the parser as it was
_parser = functools.cache(build_parser)


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    handler = vars(args).pop("handler")  # not an input, so not echoed
    echoed = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in _GLOBAL_DEFAULTS and not k.startswith("cap_") and v is not None
    }
    report = Report(
        command=" ".join(argv if argv is not None else sys.argv[1:]),
        inputs=echoed,
        seed=args.seed,
    )
    token = CAPS.set(_caps(args))
    start = time.monotonic()
    try:
        handler(args, report)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        CAPS.reset(token)
    if args.json:
        print(report.to_json())
    else:
        report.timing = time.monotonic() - start
        print(report.to_text())
    return EXIT_OK if report.ok() else EXIT_REFUTED


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
