"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` replaces each traced function with a wrapper that records
one span per call (layer, start, end, parent span) in memory.  Modules that
imported a function with ``from ... import`` hold their own reference, so
every ``twisted_rings`` module namespace and the owning class are searched
for the original object and rebound.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path


def _is_unit(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts[f"rings.is_unit.calls.dim{bound.arguments['x'].ring.dim}"] += 1
    counts["rings.is_unit.units"] += result is not None


def _kernel_torsion_scan(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    n = bound.arguments["psi"].source.group.order
    values = len(bound.arguments["coeff_values"])
    cap = bound.arguments["support_cap"]
    counts["extensions.kernel_torsion_scan.candidates"] += sum(
        comb(n, size) * values**size for size in range(1, cap + 1)
    )


# (layer name, module, attribute path, observer of arguments and result)
LAYERS = (
    ("cli.run", "cli", "run", None),
    ("d8_case.d8_case_study", "d8_case", "d8_case_study", None),
    ("gl2.unit_index_audit", "gl2", "unit_index_audit", None),
    ("gl2.sanov_membership", "gl2", "sanov_membership", None),
    ("gl2.depth_index_audit", "gl2", "depth_index_audit", None),
    ("units.parity_obstruction", "units", "parity_obstruction", None),
    ("extensions.kernel_torsion_scan", "extensions", "kernel_torsion_scan", _kernel_torsion_scan),
    ("extensions.apply_psi", "extensions", "apply_psi", None),
    ("cocycles.are_cohomologous", "cocycles", "are_cohomologous", None),
    ("tower.random_unit", "tower", "random_unit", None),
    ("tower.split_unit", "tower", "split_unit", None),
    ("rings.torsion_order", "rings", "torsion_order", None),
    ("rings.is_unit", "rings", "is_unit", _is_unit),
    ("rings.regular_rep", "rings", "regular_rep", None),
    ("rings.conj_character", "rings", "conj_character", None),
    ("rings.TwElement.mul", "rings", "TwElement.__mul__", None),
    ("groups.build_group", "groups", "build_group", None),
    ("intmat.mat_pow", "intmat", "mat_pow", None),
    ("intmat.mat_mul", "intmat", "mat_mul", None),
    ("intmat.det_bareiss", "intmat", "det_bareiss", None),
    ("intmat.solve_exact", "intmat", "solve_exact", None),
    ("cyclotomic.CycInt.mul", "cyclotomic", "CycInt.__mul__", None),
)

PACKAGE = "twisted_rings"


class Tracer:
    def __init__(self) -> None:
        self.names = [layer[0] for layer in LAYERS]
        # one [layer index, start, end, parent span index] per call
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.counts
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(counts, bound, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for index, (_, module_name, path, observe) in enumerate(LAYERS):
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(index, original, observe)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def close_open(self, first: int, end: float) -> None:
        """Close the spans an interrupted call left open, from index first."""
        for record in self.spans[first:]:
            if record[2] == 0.0:
                record[2] = end
        del self.stack[1:]

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self time per layer.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (index, start, end, _) in enumerate(self.spans):
            name = self.names[index]
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def children_of(self, parent_layer: str, child_layer: str) -> int:
        """Number of child_layer spans directly under a parent_layer span."""
        p = self.names.index(parent_layer)
        c = self.names.index(child_layer)
        spans = self.spans
        return sum(
            1 for index, _, _, parent in spans
            if index == c and parent >= 0 and spans[parent][0] == p
        )

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart_s\tend_s\tparent\n")
            for i, (index, start, end, parent) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{self.names[index]}\t{start - origin:.9f}"
                    f"\t{end - origin:.9f}\t{parent}\n"
                )
