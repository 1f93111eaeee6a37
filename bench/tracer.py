"""Outside-in layer tracing: runtime wrappers around swigcheck's public API.

The tracer replaces each traced function at every place it is bound: the
defining module, every ``swigcheck`` module that imported it by name (for
example ``family.depends_only_on``), and the package namespace. Methods are
replaced on their class, which covers every caller. Spans are recorded only
while an op is open, so input generation and correctness checks in the
benchmark never show up as program work. Spans stay in memory as
``[name, start_ns, end_ns, parent, op]`` until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _cells(args, kwargs, result):
    dag, cards = args[0], args[1]
    size = 1
    for v in dag.order:
        size *= int(cards[v])
    return {"cells": size, "nonzero": len(result.support())}


def _mass_cells(args, kwargs, result):
    mass = args[2] if len(args) > 2 else kwargs["mass"]
    return {"cells": len(mass)}


def _table_rows(args, kwargs, result):
    rows = result.rows
    return {"rows": len(rows), "defined": sum(1 for r in rows.values() if r is not None)}


def _dependence_rows(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"rows": len(rows), "skipped": result.skipped}


# (span name, module, attribute path, counter, per-layer metric fields). The
# span name is the module-relative path, with ``__init__`` spelled ``init``.
TRACED = (
    ("graph.parse_dag", "graph", "parse_dag", None, ("calls", "self_s")),
    ("dist.FiniteDistribution.init", "dist", "FiniteDistribution.__init__", _mass_cells, ("calls", "cells", "self_s")),
    ("dist.FiniteDistribution.reorder", "dist", "FiniteDistribution.reorder", None, ("calls", "self_s")),
    (
        "dist.FiniteDistribution.conditional", "dist", "FiniteDistribution.conditional", _table_rows,
        ("calls", "rows", "defined_ratio", "self_s"),
    ),
    ("dist.FiniteDistribution.from_json", "dist", "FiniteDistribution.from_json", None, ("self_s",)),
    ("dist.depends_only_on", "dist", "depends_only_on", _dependence_rows, ("calls", "rows", "skipped_ratio", "self_s")),
    ("swig.split", "swig", "split", None, ("calls", "self_s")),
    ("swig.SplitGraph.query", "swig", "SplitGraph.query", None, ("calls", "self_s")),
    ("swig.local_markov_statements", "swig", "local_markov_statements", None, ("self_s",)),
    ("family.CounterfactualFamily.init", "family", "CounterfactualFamily.__init__", None, ("self_s",)),
    ("family.CounterfactualFamily.from_json", "family", "CounterfactualFamily.from_json", None, ("self_s",)),
    ("family.check_distributional_consistency", "family", "check_distributional_consistency", None, ("self_s",)),
    ("family.check_swig_local_markov", "family", "check_swig_local_markov", None, ("self_s",)),
    ("family.check_complete_graph_markov", "family", "check_complete_graph_markov", None, ("self_s",)),
    ("family.check_observed_markov", "family", "check_observed_markov", None, ("self_s",)),
    ("family.observational_cpts", "family", "observational_cpts", None, ("self_s",)),
    ("family.gformula_member", "family", "gformula_member", _cells, ("calls", "cells", "nonzero_ratio", "self_s")),
    ("family.build_ffrcistg", "family", "build_ffrcistg", None, ("self_s",)),
    ("decision.augment", "decision", "augment", None, ("self_s",)),
    ("decision.instantiate_regime", "decision", "instantiate_regime", None, ("self_s",)),
    ("decision.augmented_markov_statements", "decision", "augmented_markov_statements", None, ("self_s",)),
    ("decision.RegimeKernel.init", "decision", "RegimeKernel.__init__", None, ("self_s",)),
    ("decision.RegimeKernel.from_json", "decision", "RegimeKernel.from_json", None, ("self_s",)),
    ("decision.family_to_kernel", "decision", "family_to_kernel", None, ("self_s",)),
    ("decision.check_kernel_consistency", "decision", "check_kernel_consistency", None, ("self_s",)),
    ("decision.check_augmented_markov", "decision", "check_augmented_markov", None, ("self_s",)),
    ("reporting.CheckReport.to_json", "reporting", "CheckReport.to_json", None, ("self_s",)),
    ("cli.main", "cli", "main", None, ("calls", "self_s")),
)


class Tracer:
    """Span recorder that can be installed into and removed from swigcheck."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op = None
        self._stack: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            parent = self._stack[-2] if len(self._stack) > 1 else -1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = [name, start, end, parent, self.op]
            if counter is not None:
                bucket = self.counts[name]
                for key, value in counter(args, kwargs, result).items():
                    bucket[key] += value
            return result

        return traced

    def begin(self, op_id) -> None:
        self.op = op_id

    def end(self) -> None:
        self.op = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for entry in TRACED:
            importlib.import_module(f"swigcheck.{entry[1]}")
        modules = [m for n, m in list(sys.modules.items()) if n == "swigcheck" or n.startswith("swigcheck.")]
        for name, module_name, path, counter, _ in TRACED:
            module = sys.modules[f"swigcheck.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    replacement = self._wrap(name, raw, counter)
                self._patch(cls, attr, raw, replacement)
                continue
            original = getattr(module, path)
            replacement = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, replacement)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def summary(self, scale=None) -> dict:
        """Per span name: ``calls``, ``self_ns`` and every recorded count.

        ``scale``, indexed by op id, multiplies the durations of that op's
        spans (the runner passes its speed factors).
        """
        out = defaultdict(lambda: defaultdict(int))
        for name, start, end, parent, op in self.spans:
            duration = (end - start) * (scale[op] if scale else 1)
            out[name]["calls"] += 1
            out[name]["self_ns"] += duration
            if parent >= 0:
                out[self.spans[parent][0]]["self_ns"] -= duration
        for name, bucket in self.counts.items():
            out[name].update(bucket)
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that ran inside a span called ``ancestor``."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent >= 0
        return total
