"""Self-test of the benchmark tracer against closed-form counts.

Run with ``python3 -m pytest bench/tests`` from the root of the checkout.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import swigcheck  # noqa: E402
from swigcheck import cli, decision, dist, family, graph, swig  # noqa: E402

import generate  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny_model() -> generate.Model:
    """V0 -> V1 -> V2 -> V3 plus V0 -> V2; binary; targets V0, V1, V2."""
    parents = {"V0": [], "V1": ["V0"], "V2": ["V0", "V1"], "V3": ["V2"]}
    m = generate.Model(["V0", "V1", "V2", "V3"], parents, ["V0", "V1", "V2"], 2)
    m.cpt = {
        "V0": {(): ([3, 7], 10)},
        "V1": {(0,): ([2, 8], 10), (1,): ([6, 4], 10)},
        "V2": {(0, 0): ([1, 9], 10), (0, 1): ([5, 5], 10), (1, 0): ([7, 3], 10), (1, 1): ([4, 6], 10)},
        "V3": {(0,): ([9, 1], 10), (1,): ([2, 8], 10)},
    }
    return m


def program_inputs(m: generate.Model):
    dag = graph.Dag(m.names, m.edges, m.targets, m.names)
    return dag, dist.FiniteDistribution([(v, m.card) for v in m.names], m.joint())


@contextmanager
def traced_op():
    tracer = Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        yield tracer
    finally:
        tracer.end()
        tracer.uninstall()


def test_gformula_member_calls_are_three_to_the_targets():
    m = tiny_model()
    dag, law = program_inputs(m)
    with traced_op() as tracer:
        fam = family.build_ffrcistg(dag, None, law)
    summary = tracer.summary()
    assert summary["family.gformula_member"]["calls"] == 3 ** len(m.targets)
    assert summary["family.gformula_member"]["cells"] == 3 ** len(m.targets) * 2 ** len(m.names)
    assert summary["family.build_ffrcistg"]["calls"] == 1
    for iv in m.interventions():
        expected = {cell: Fraction(n, d) for cell, (n, d) in m.member(iv).items()}
        assert dict(fam.member(iv).support()) == expected


def test_conditional_calls_inside_swig_markov():
    m = tiny_model()
    dag, law = program_inputs(m)
    fam = family.build_ffrcistg(dag, None, law)
    with traced_op() as tracer:
        report = family.check_swig_local_markov(fam)
    assert report.holds
    inside = tracer.calls_within("dist.FiniteDistribution.conditional", "family.check_swig_local_markov")
    assert inside == len(m.names) * 2 ** len(m.targets)
    assert tracer.summary()["dist.depends_only_on"]["calls"] == len(m.names)


def test_query_calls_equal_queries_issued():
    m = tiny_model()
    dag, _ = program_inputs(m)
    sw = swig.split(dag, {t: 0 for t in m.targets}, "uniform")
    nodes = [swig.Node(v) for v in m.names] + [swig.Node(t, fixed=True) for t in m.targets]
    queries = [(a, b) for a in nodes for b in nodes if a != b]
    with traced_op() as tracer:
        for a, b in queries:
            sw.d_separated([a], [b])
    assert tracer.summary()["swig.SplitGraph.query"]["calls"] == len(queries)


def test_every_binding_is_wrapped_and_restored():
    original, original_main = dist.depends_only_on, cli.main
    owners = (dist, family, decision, swigcheck)
    methods = (
        (dist.FiniteDistribution, "conditional"),
        (swig.SplitGraph, "query"),
        (decision.RegimeKernel, "from_json"),
    )
    before = [vars(cls)[name] for cls, name in methods]
    with traced_op():
        wrapped = {owner.depends_only_on for owner in owners}
        assert len(wrapped) == 1 and original not in wrapped
        for (cls, name), raw in zip(methods, before):
            assert vars(cls)[name] is not raw
        assert isinstance(vars(decision.RegimeKernel)["from_json"], classmethod)
        assert cli.main is not original_main
    assert all(owner.depends_only_on is original for owner in owners)
    assert cli.main is original_main
    assert [vars(cls)[name] for cls, name in methods] == before


def test_spans_nest_and_self_time_partitions_the_op():
    m = tiny_model()
    dag, law = program_inputs(m)
    fam = family.build_ffrcistg(dag, None, law)
    with traced_op() as tracer:
        family.check_complete_graph_markov(fam)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "family.check_complete_graph_markov"
    assert tracer.spans[names.index("family.check_swig_local_markov")][3] == 0
    assert all(span[4] == 0 for span in tracer.spans)
    root = tracer.spans[0]
    total_self = sum(row["self_ns"] for row in tracer.summary().values())
    assert total_self == root[2] - root[1]


def test_nothing_is_recorded_outside_an_op():
    m = tiny_model()
    dag, law = program_inputs(m)
    tracer = Tracer()
    tracer.install()
    try:
        family.build_ffrcistg(dag, None, law)
    finally:
        tracer.uninstall()
    assert tracer.spans == []
