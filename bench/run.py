"""swigcheck benchmark: one seeded workload per run, every verdict checked.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload build --seed 1 --seconds 25 --trace 0

Workloads are ``build``, ``check-files`` and ``graph-queries`` (see
``bench/DESIGN.json`` for why each exists and what it should move). The
program under test is the ``swigcheck`` package in ``src/`` of the same
checkout; nothing is installed. Each run is one single-threaded closed-loop
client: the next op starts only after the previous one has finished and
been checked. Ops run in whole cycles until their summed time reaches
``--seconds`` and the latency percentiles have at least ten samples beyond
them. A shared host's speed can drift by up to 2x within seconds (seen on a
shared 2-vCPU VM), so every reported time is scaled to a fixed reference
speed measured by an interleaved calibration loop (see ``calibrate``); the
text report prints each time as measured next to it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced, prints the per-layer metrics (normalized per
traced op) and the tracing overhead, and writes the spans to
``.bench_out/spans-<workload>.json``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
CALIBRATE_EVERY_S = 0.02
# Every reported time is scaled to the speed at which calibrate() takes this
# long: its median on a shared 2-vCPU VM with Python 3.11.7 at full speed.
REFERENCE_CALIBRATION_S = 0.0032

# Per-layer fields come from tracer.TRACED. Counts and self time are
# normalized per traced op; a ratio is its summed numerator over its summed
# denominator.
RATIOS = {"nonzero_ratio": ("nonzero", "cells"), "defined_ratio": ("defined", "rows"), "skipped_ratio": ("skipped", "rows")}
UNITS = {"calls": "calls/op", "cells": "cells/op", "rows": "rows/op", "self_s": "s/op"}


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The work (exact fractions, tuple-keyed dicts) resembles the engine's hot
    loops but calls nothing in swigcheck, so no change to the program moves
    it; only the speed of the machine does.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, 10)
    table = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Scale that converts times measured between two calibrations into
    times at the reference speed."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing the package, at the
    reference speed and as measured. The first start is discarded: it may
    compile the bytecode cache."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import swigcheck, swigcheck.cli"
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        before = calibrate()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
        elapsed = time.perf_counter() - start
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * speed_factor(before, calibrate()))
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """Latencies and failures of one timed pass.

    ``latencies`` are scaled to the reference speed; ``raw`` are as measured.
    """

    def __init__(self):
        # arrays, not lists of floats, so that a long run's bookkeeping does
        # not show up in peak_rss_mb
        self.latencies = array("d")
        self.raw = array("d")
        self.cycles: list[tuple[int, int]] = []  # (first op, end) per cycle
        self.failed = 0
        self.kinds: Counter = Counter()

    @property
    def busy(self) -> float:
        return sum(self.raw)

    def ops_per_s(self, raw=False) -> float:
        """Median over cycles, so a burst of load from elsewhere on the
        machine moves one cycle rather than the whole figure."""
        times = self.raw if raw else self.latencies
        return statistics.median((end - first) / sum(times[first:end]) for first, end in self.cycles)


def timed_pass(cycles, seconds: float, min_ops: int, tracer=None) -> Pass:
    """Run whole cycles until ``seconds`` of op time and ``min_ops`` ops.

    A calibration runs whenever CALIBRATE_EVERY_S of op time has passed
    since the last one; the ops in between are scaled by the mean of the
    calibrations on either side.
    """
    result = Pass()
    while result.busy < seconds or len(result.latencies) < min_ops:
        ops = next(cycles)
        gc.collect()
        first = len(result.raw)
        last_speed, pending, since = calibrate(), first, 0.0
        for op in ops:
            if tracer is not None:
                tracer.begin(len(result.raw))
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an op that raises is a failed op, not a crash
                out, ok = None, False
                error = traceback.format_exc()
            else:
                ok = True
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
            if ok:
                try:
                    ok = bool(op.check(out))
                    error = "output differs from the expected answer"
                except Exception:
                    ok = False
                    error = traceback.format_exc()
            result.raw.append(elapsed)
            result.kinds[op.kind] += 1
            if not ok:
                if not result.failed:
                    print(f"bench: op {op.kind!r} failed:\n{error}", file=sys.stderr)
                result.failed += 1
            since += elapsed
            if since >= CALIBRATE_EVERY_S or len(result.raw) == first + len(ops):
                speed = calibrate()
                factor = speed_factor(last_speed, speed)
                result.latencies.extend(t * factor for t in result.raw[pending:])
                last_speed, pending, since = speed, len(result.raw), 0.0
        result.cycles.append((first, len(result.raw)))
    return result


def percentile(latencies, q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def end_to_end(timed: Pass, setup: tuple[float, float], workload: str):
    # read first: the sorted copies the percentiles make are bookkeeping
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [t * 1000 for t in timed.latencies]
    raw_ms = [t * 1000 for t in timed.raw]
    n = len(lat_ms)
    rows = [
        ("setup_s", "s", *setup, f"median of {SETUP_RUNS} interpreter starts"),
        ("ops_per_s", "1/s", timed.ops_per_s(), timed.ops_per_s(raw=True), f"median of {len(timed.cycles)} cycles"),
        ("op_ms.p50", "ms", percentile(lat_ms, 50), percentile(raw_ms, 50), f"{n} samples"),
        ("op_ms.p90", "ms", percentile(lat_ms, 90), percentile(raw_ms, 90), f"{n} samples"),
    ]
    if workload == "graph-queries":
        rows.append(("op_ms.p99", "ms", percentile(lat_ms, 99), percentile(raw_ms, 99), f"{n} samples"))
    lines = [f"{name:<12} {value:10.6g} {unit:<4} (as measured {raw:.6g}; {note})" for name, unit, value, raw, note in rows]
    lines.append(f"{'peak_rss_mb':<12} {peak:10.6g} MB")
    lines.append(f"{'failed_ratio':<12} {timed.failed / n:10.6g}      ({timed.failed} of {n} ops)")
    metrics = {name: {"value": value, "unit": unit} for name, unit, value, _, _ in rows if name != "op_ms.p99"}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics, lines


def per_layer(tracer, plain: Pass, traced: Pass):
    summary = tracer.summary([t / r for t, r in zip(traced.latencies, traced.raw)])
    n = len(traced.latencies)
    metrics = {}
    for span, _, _, _, fields in TRACED:
        row = summary.get(span, {})
        for field in fields:
            if field in RATIOS:
                num, den = RATIOS[field]
                value, unit = (row.get(num, 0) / row[den] if row.get(den) else 0.0), "ratio"
            elif field == "self_s":
                value, unit = row.get("self_ns", 0) / 1e9 / n, UNITS[field]
            else:
                value, unit = row.get(field, 0) / n, UNITS[field]
            metrics[f"{span}.{field}"] = {"value": value, "unit": unit}
    overhead = plain.ops_per_s() / traced.ops_per_s()
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    lines = [f"{name:<48} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"({n} traced ops, {len(plain.latencies)} untraced ops, {len(tracer.spans)} spans)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "check-files", "graph-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swigcheck" / "__init__.py").is_file():
        die(f"no swigcheck sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import swigcheck

    if Path(swigcheck.__file__).resolve().parent != SRC / "swigcheck":
        die(f"imported swigcheck from {swigcheck.__file__}, not from {SRC}")
    import workloads

    make_cycles, min_ops = workloads.WORKLOADS[args.workload]
    setup = measure_setup() if not args.trace else None
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cycles = make_cycles(args.seed, workdir)
        if not args.trace:
            timed = timed_pass(cycles, args.seconds, min_ops)
            passes = [timed]
            metrics, lines = end_to_end(timed, setup, args.workload)
        else:
            plain = timed_pass(cycles, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_pass(cycles, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            metrics, lines = per_layer(tracer, plain, traced)
            spans_path = OUT / f"spans-{args.workload}.json"
            spans_path.write_text(json.dumps(tracer.spans, separators=(",", ":")), encoding="utf-8")
            lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    mix = Counter()
    for p in passes:
        mix.update(p.kinds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("op mix: " + ", ".join(f"{kind} x{count}" for kind, count in sorted(mix.items())))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
