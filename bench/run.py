"""Benchmark of the twisted-rings CLI audits.

Usage (from the repository root):

    python3 bench/run.py --workload tower-split --seed 1 --seconds 25 --trace 0

One process, no threads.  Each workload is a list of CLI calls generated
from --seed (see workloads.py); the calls go to ``twisted_rings.cli.run``
in-process with ``--json``, and every report is checked by checkers.py.
A run repeats whole rounds of the list for as long as they fit in --seconds
(at least two rounds, so that repeated calls can be compared byte for byte).
Every timed call is scaled to the host's reference speed, measured by bursts
of a fixed computation around it (see hostspeed.py).
With --trace 1 it runs one untraced and one traced round and reports the
per-layer figures instead.  The last line of standard output is the JSON
result; the lines before it give the sha256 of each call's output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from hostspeed import Sampler
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPAN_DIR = HERE / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
PACKAGE = "twisted_rings"


class OpTimeout(Exception):
    """Raised by the alarm of an op's time limit.

    Deliberately not an OSError, ValueError, KeyError or TypeError: cli.run
    turns those into exit code 2, and a limit must surface as a failure.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def setup(workload: str, seed: int):
    """Import twisted_rings afresh and generate the workload's inputs."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module(PACKAGE + ".cli")
    ops = WORKLOADS[workload](random.Random(seed))
    return cli, ops, (start, time.perf_counter())


def run_op(cli, op):
    """One timed call: (seconds, exit code or None when cut off, stdout, start)."""
    out = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        if op.limit_s:
            signal.setitimer(signal.ITIMER_REAL, op.limit_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(op.argv + ["--json"])
    except OpTimeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, code, out.getvalue(), start


def run_round(cli, ops, tracer=None):
    calls = []
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        calls.append(run_op(cli, op))
        if tracer:
            tracer.close_open(first, time.perf_counter())
    return calls


def timed_rounds(cli, ops, seconds, sampler):
    """Untraced rounds, each call's time scaled to the reference speed.

    A new round starts only while it should end within ``seconds``, taking it
    to last as long as the one before; there are at least MIN_ROUNDS.
    Returns the rounds and their scaled times.
    """
    rounds = []
    start = time.perf_counter()
    elapsed = round_s = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed + round_s <= seconds:
        rounds.append(run_round(cli, ops))
        now = time.perf_counter() - start
        round_s, elapsed = now - elapsed, now
    scaled = [[sampler.scaled(c[3], c[3] + c[0]) for c in calls] for calls in rounds]
    return rounds, scaled


def evaluate(ops, rounds):
    """Failed-call count, each call's output digest, and the problems found."""
    failed = 0
    problems = []
    digests = [None] * len(ops)
    for calls in rounds:
        for i, (op, (_, code, text, _)) in enumerate(zip(ops, calls)):
            if code != 0:
                failed += 1
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digests[i] is None:
                digests[i] = digest
            elif digests[i] != digest:
                problems.append(f"{op.label}: output bytes differ between rounds")
            try:
                found = op.check(json.loads(text))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found = [f"malformed report: {exc!r}"]
            problems += [f"{op.label}: {p}" for p in found]
    return failed, digests, problems


def _p90(values):
    """Nearest-rank 90th percentile: ten samples lie beyond it from N = 100."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(ops, times, setup_s):
    """The end-to-end metrics from ``times[round][call]``, in seconds."""
    audit_s = statistics.median(sum(calls) for calls in times)
    # where a percentile has no samples of one kind to be taken over, the
    # metric reads the mean per-call time of the workload instead
    mean_ms = audit_s / len(ops) * 1e3
    # each call's time is its median over the rounds; percentiles are over
    # calls, so they do not depend on how many rounds fitted in the run
    per_call = [statistics.median(r[i] for r in times) for i in range(len(ops))]
    kinds = {op.kind for op in ops}
    uniform = len(kinds) == 1 and "" not in kinds

    def kind_p50(kind):
        times = [t for op, t in zip(ops, per_call) if op.kind == kind]
        return statistics.median(times) * 1e3 if times else mean_ms

    return {
        "audit_s": (audit_s, "s"),
        "op_p50_ms": (statistics.median(per_call) * 1e3 if uniform else mean_ms, "ms"),
        "op_p90_ms": (_p90(per_call) * 1e3 if uniform else mean_ms, "ms"),
        "witness_p50_ms": (kind_p50("witness"), "ms"),
        "refute_p50_ms": (kind_p50("refute"), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# layers reported by call count, and by self time
CALL_LAYERS = (
    "intmat.mat_mul", "intmat.mat_pow", "intmat.solve_exact", "intmat.det_bareiss",
    "rings.regular_rep", "rings.is_unit", "rings.torsion_order", "rings.conj_character",
    "rings.TwElement.mul", "cyclotomic.CycInt.mul", "groups.build_group",
    "cocycles.are_cohomologous", "extensions.apply_psi", "units.parity_obstruction",
    "gl2.sanov_membership",
)
SELF_LAYERS = (
    "cli.run", "intmat.mat_mul", "intmat.solve_exact", "intmat.det_bareiss",
    "rings.regular_rep", "rings.is_unit", "rings.torsion_order", "rings.conj_character",
    "rings.TwElement.mul", "cyclotomic.CycInt.mul", "groups.build_group",
    "tower.random_unit", "tower.split_unit", "cocycles.are_cohomologous",
    "extensions.kernel_torsion_scan", "extensions.apply_psi", "units.parity_obstruction",
    "gl2.unit_index_audit", "gl2.depth_index_audit", "d8_case.d8_case_study",
)


def per_layer(tracer: Tracer, untraced_s: float, traced_s: float):
    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    metrics = {f"{name}.calls": (calls[name], "count") for name in CALL_LAYERS}
    metrics.update({f"{name}.self_s": (self_s[name], "s") for name in SELF_LAYERS})
    for dim in (4, 8, 16, 32):
        key = f"rings.is_unit.calls.dim{dim}"
        metrics[key] = (counts[key], "count")
    is_unit_calls = calls["rings.is_unit"]
    metrics["rings.is_unit.unit_share"] = (
        counts["rings.is_unit.units"] / is_unit_calls if is_unit_calls else 0.0, "ratio"
    )
    candidates = counts["extensions.kernel_torsion_scan.candidates"]
    tested = tracer.children_of("extensions.kernel_torsion_scan", "extensions.apply_psi")
    metrics["extensions.kernel_torsion_scan.admit_share"] = (
        tested / candidates if candidates else 0.0, "ratio"
    )
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = Sampler()
    with sampler:
        setups = []
        for _ in range(SETUP_REPEATS):
            cli, ops, span = setup(args.workload, args.seed)
            setups.append(span)
        if not args.trace:
            rounds, scaled = timed_rounds(cli, ops, args.seconds, sampler)

    tracer = None
    if args.trace:
        rounds = [run_round(cli, ops)]
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(run_round(cli, ops, tracer))
        finally:
            tracer.uninstall()

    failed, digests, problems = evaluate(ops, rounds)
    if tracer:
        untraced_s, traced_s = (sum(c[0] for c in calls) for calls in rounds)
        metrics = per_layer(tracer, untraced_s, traced_s)
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    else:
        setup_s = statistics.median(sampler.scaled(*span) for span in setups)
        metrics = end_to_end(ops, scaled, setup_s)
        raw = [[c[0] for c in calls] for calls in rounds]
        unscaled = end_to_end(ops, raw, statistics.median(b - a for a, b in setups))
        print(f"host speed {sampler.speed():.3f} of the reference "
              f"(median of {len(sampler.durations)} samples)")
        print("wall-clock, unscaled: " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in unscaled.items() if u != "MB"))

    for i, calls in enumerate(rounds, 1):
        print(f"round {i}: {sum(c[0] for c in calls):.3f} s")
    for op, digest in zip(ops, digests):
        print(f"sha256 {digest or '-' * 64} {op.label}")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
