"""The three benchmark workloads as endless streams of op cycles.

A cycle is a list of ops with a fixed mix; the runner only stops between
cycles, so every run measures the same mix. Each op is ``(kind, run,
check)``: ``run`` is the timed call into swigcheck and ``check`` compares
its result with the answer known from construction, outside the timer.
Every call goes through a module attribute (``family.build_ffrcistg``, not
a name imported into this file) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import NamedTuple

from swigcheck import cli, decision, dist, family, graph, swig

import generate


class Op(NamedTuple):
    kind: str
    run: object
    check: object


# -- build ----------------------------------------------------------------------

# (copies per cycle, (n, |A|, cardinality, parents per vertex)). Mostly small
# binary models so that a run collects over a hundred ops. The copies are
# chosen so that op_ms.p50 falls inside the (7, 2) rung and op_ms.p90 inside
# the (8, 3) rung, never on the edge between two rungs of different cost.
BUILD_LADDER = (
    (5, (6, 2, 2, 2)),
    (5, (7, 2, 2, 2)),
    (2, (8, 2, 2, 2)),
    (1, (8, 2, 2, 3)),
    (1, (5, 2, 3, 2)),
    (3, (8, 3, 2, 2)),
    (1, (10, 2, 2, 2)),
)


def _build_op(m: generate.Model) -> Op:
    dag = graph.Dag(m.names, m.edges, m.targets, m.names)
    law = dist.FiniteDistribution([(v, m.card) for v in m.names], m.joint())

    def run():
        fam = family.build_ffrcistg(dag, None, law)
        return fam, decision.family_to_kernel(fam)

    def check(result):
        fam, kernel = result
        interventions = list(m.interventions())
        if not fam.observed_markov.holds or len(fam.members) != len(interventions):
            return False
        for iv in interventions:
            member = fam.member(iv)
            expected = m.member(iv)
            support = member.support()
            if member.names != tuple(m.names) or len(support) != len(expected):
                return False
            for cell, p in support:
                e = expected.get(cell)
                if e is None or p.numerator * e[1] != e[0] * p.denominator:
                    return False
            if kernel.member(tuple(iv.get(t) for t in m.targets)) != member:
                return False
        return True

    return Op(f"build n={len(m.names)} A={len(m.targets)} k={m.card}", run, check)


def build_cycles(seed: int, workdir: Path):
    """Fresh models every cycle; no two ops see the same law."""
    rng = random.Random(seed)
    while True:
        yield [
            _build_op(generate.random_model(rng, n, a, card, pa))
            for copies, (n, a, card, pa) in BUILD_LADDER
            for _ in range(copies)
        ]


# -- check-files ----------------------------------------------------------------

# (document, variant, n, |A|, cardinality, parents per vertex); the pool holds
# CHECK_POOL independent draws of the ladder.
CHECK_LADDER = tuple(
    (doc, *rung)
    for doc in ("family", "kernel")
    for rung in (
        ("holds", 5, 2, 2, 2),
        ("holds", 7, 2, 2, 3),
        ("holds", 4, 2, 3, 2),
        ("fails", 6, 2, 2, 2),
        ("fails", 6, 3, 2, 1),
        ("zeros", 6, 2, 2, 2),
        ("zeros", 7, 2, 2, 2),
    )
)
CHECK_POOL = 6


def _verdicts_match(code: int, text: str, expected: dict) -> bool:
    lines = [json.loads(line) for line in text.splitlines()]
    if code != expected["exit"] or lines[0]["verdict"] != ("violated" if code else "holds"):
        return False
    reports = {r["check"]: r for r in lines[1:]}
    if set(reports) != set(expected["verdicts"]):
        return False
    for name, holds in expected["verdicts"].items():
        report = reports[name]
        if report["holds"] != holds or (not holds and not report["witnesses"]):
            return False
        if name in expected["skips"] and report["skipped"] == 0:
            return False
    return True


def _check_op(doc_kind: str, variant: str, path: Path, expected: dict) -> Op:
    argv = ["check", f"--{doc_kind}", str(path), "--mode", "all"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(f"check {doc_kind} {variant}", run, lambda result: _verdicts_match(*result, expected))


def check_files_cycles(seed: int, workdir: Path):
    """Every file is written before the first op; cycles replay the pool."""
    rng = random.Random(seed)
    ops = []
    for copy in range(CHECK_POOL):
        for i, (doc_kind, variant, n, a, card, pa) in enumerate(CHECK_LADDER):
            document, expected = generate.check_case(rng, doc_kind, variant, n, a, card, pa)
            path = workdir / f"{doc_kind}-{variant}-{copy}-{i}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            ops.append(_check_op(doc_kind, variant, path, expected))
    while True:
        yield ops


# -- graph-queries ------------------------------------------------------------

# (vertices, targets, parents per vertex); the pool holds GRAPH_POOL draws of
# the ladder, each with QUERIES_PER_SIDE d-separation queries on the split
# graph and as many spread over three regimes of the augmented diagram.
GRAPH_LADDER = ((20, 4, 1), (30, 5, 2), (40, 7, 2), (50, 8, 3), (60, 10, 2))
GRAPH_POOL = 8
QUERIES_PER_SIDE = 100


def _edge_names(split_graph) -> set:
    return {(a.display(), b.display()) for a, b in split_graph.edges}


def _graph_ops(case: generate.GraphCase) -> list:
    dag = graph.Dag(case.names, [(u, v) for v in case.names for u in case.parents[v]], case.targets, case.names)
    made = {}
    ops = []

    def split_op(scheme):
        def run():
            sw = swig.split(dag, case.assignment, scheme)
            made["swig"] = sw.graph
            return sw

        def check(sw):
            labels = {v: [t for t, _ in sw.labels[v]] for v in case.names}
            return (
                dict(sw.assignment) == case.assignment
                and labels == case.labels[scheme]
                and len(sw.graph.nodes) == len(case.names) + len(case.targets)
                and _edge_names(sw.graph) == case.split_edges
            )

        return Op(f"split {scheme}", run, check)

    ops += [split_op(scheme) for scheme in ("uniform", "temporal", "ancestral")]

    def augment():
        made["diag"] = decision.augment(dag)
        return made["diag"]

    out_edges = sum(len(given_fixed) for _, given_fixed in case.statements)
    ops.append(Op(
        "augment",
        augment,
        lambda diag: diag.regime_nodes == tuple(f"F_{t}" for t in case.targets) and len(diag.contextual_edges) == out_edges,
    ))

    def instantiate_op(r, regime, edges):
        def run():
            made[r] = decision.instantiate_regime(made["diag"], regime)
            return made[r]

        return Op("instantiate", run, lambda g: _edge_names(g) == edges)

    ops += [instantiate_op(r, regime, edges) for r, (regime, edges) in enumerate(case.regimes)]

    def listing_op(kind, call, row_ok):
        def check(statements):
            return len(statements) == len(case.names) and all(
                st["vertex"] == v and row_ok(st, gr, gf)
                for st, v, (gr, gf) in zip(statements, case.names, case.statements)
            )

        return Op(kind, call, check)

    ops.append(listing_op(
        "markov d-separation",
        lambda: swig.local_markov_statements(dag, "d-separation"),
        lambda st, gr, gf: st["given_random"] == gr and st["given_fixed"] == gf,
    ))
    ops.append(listing_op(
        "markov factorization",
        lambda: swig.local_markov_statements(dag, "factorization"),
        lambda st, gr, gf: st["dependence_set"] == sorted(gr + [t.lower() for t in gf]),
    ))
    ops.append(listing_op(
        "markov augmented",
        lambda: decision.augmented_markov_statements(dag),
        lambda st, gr, gf: st["given_random"] == gr and st["given_indicators"] == [f"F_{t}" for t in gf],
    ))

    def query_op(side, r, x, y, z, separated):
        key = "swig" if side == "swig" else r
        nodes = [tuple(swig.parse_node(v) for v in sorted(s)) for s in (x, y, z)]
        return Op(
            f"dsep {side}",
            lambda: made[key].d_separated(*nodes),
            lambda result: result.separated == separated,
        )

    ops += [query_op(*q) for q in case.queries]
    return ops


def graph_queries_cycles(seed: int, workdir: Path):
    rng = random.Random(seed)
    ops = []
    for _ in range(GRAPH_POOL):
        for n, a, pa in GRAPH_LADDER:
            ops += _graph_ops(generate.graph_case(rng, n, a, QUERIES_PER_SIDE, pa))
    while True:
        yield ops


# name -> (cycle stream, minimum ops per timed pass). A reported percentile
# needs ten samples beyond it: 100 ops for p90, 1000 for p99.
WORKLOADS = {
    "build": (build_cycles, 100),
    "check-files": (check_files_cycles, 100),
    "graph-queries": (graph_queries_cycles, 1000),
}
