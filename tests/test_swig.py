import random

import pytest
from hypothesis import given, settings

from helpers import (
    all_query_triples,
    moral_dsep,
    random_dag,
    small_dags,
    split_dsep_via_conditioning,
    two_stage_dag,
)
from swigcheck.errors import InvalidDocument, InvalidQuery, NotATarget, UnknownNode
from swigcheck.graph import Dag, serialize_dag
from swigcheck.swig import (
    Node,
    local_markov_statements,
    emit_dot,
    parse_node_set,
    split,
    swig_from_json,
    swig_to_json,
)


def labels_of(sw):
    return {v: tuple(t for t, _ in sw.labels[v]) for v in sw.dag.order}


class TestSplit:
    def test_temporal_labels_on_chain(self, chain):
        sw = split(chain, {"A": 0, "B": 1}, "temporal")
        assert labels_of(sw) == {"A": (), "B": ("A",), "C": ("A", "B")}

    def test_ancestral_labels_on_chain(self, chain):
        sw = split(chain, {"A": 0, "B": 1}, "ancestral")
        assert labels_of(sw) == {"A": (), "B": ("A",), "C": ("B",)}

    def test_uniform_labels_on_chain(self, chain):
        sw = split(chain, {"A": 0, "B": 1}, "uniform")
        assert labels_of(sw) == {v: ("A", "B") for v in "ABC"}

    def test_no_targets_gives_isomorphic_graph(self):
        dag = Dag(["A", "B"], [("A", "B")])
        sw = split(dag, {}, "temporal")
        assert sw.assignment == ()
        assert sw.graph.edges == frozenset({(Node("A"), Node("B"))})
        assert labels_of(sw) == {"A": (), "B": ()}

    def test_non_integer_assignment_rejected(self, chain):
        with pytest.raises(InvalidDocument, match="state of 'A' must be an integer"):
            split(chain, {"A": 1.9, "B": 0}, "uniform")

    def test_assignment_must_cover_targets_exactly(self, chain):
        with pytest.raises(NotATarget):
            split(chain, {"A": 0}, "uniform")
        with pytest.raises(NotATarget):
            split(chain, {"A": 0, "B": 0, "C": 0}, "uniform")

    def test_edges_rewire_through_fixed_halves(self, two_stage):
        sw = split(two_stage, {"X0": 0, "X1": 1}, "uniform")
        assert (Node("X0", fixed=True), Node("Z")) in sw.graph.edges
        assert (Node("X1", fixed=True), Node("Y")) in sw.graph.edges
        assert (Node("H"), Node("X1")) in sw.graph.edges
        assert len(sw.graph.edges) == len(two_stage.edges)

    @given(small_dags(require_target=True))
    @settings(max_examples=60, deadline=None)
    def test_label_monotonicity_and_edge_conservation(self, dag):
        assign = {t: 0 for t in dag.targets}
        uniform = split(dag, assign, "uniform")
        temporal = split(dag, assign, "temporal")
        ancestral = split(dag, assign, "ancestral")
        assert len(uniform.graph.edges) == len(dag.edges)
        for v in dag.order:
            u = set(labels_of(uniform)[v])
            t = set(labels_of(temporal)[v])
            a = set(labels_of(ancestral)[v])
            assert a <= t <= u
            assert u == set(dag.targets)


class TestDSeparation:
    def test_outcome_row_of_two_stage_graph(self, two_stage):
        sw = split(two_stage, {"X0": 0, "X1": 1}, "uniform")
        res = sw.d_separated(
            [Node("Y")],
            [Node("X0"), Node("X1"), Node("H"), Node("X0", fixed=True)],
            [Node("Z"), Node("X1", fixed=True)],
        )
        assert res.separated

    def test_mid_row_of_two_stage_graph(self, two_stage):
        sw = split(two_stage, {"X0": 0, "X1": 1}, "uniform")
        res = sw.d_separated(
            [Node("Z")],
            [Node("X0"), Node("X1", fixed=True)],
            [Node("H"), Node("X0", fixed=True)],
        )
        assert res.separated

    def test_disconnected_nodes_are_separated(self):
        dag = Dag(["A", "B"], [])
        sw = split(dag, {}, "uniform")
        assert sw.d_separated([Node("A")], [Node("B")]).separated

    def test_connected_query_returns_witness_path(self, chain):
        sw = split(chain, {"A": 0, "B": 0}, "uniform")
        res = sw.d_separated([Node("fixed:B" == "x") if False else Node("B", fixed=True)], [Node("C")])
        assert not res.separated
        assert res.witness[0] == "fixed:B" and res.witness[-1] == "C"

    def test_fixed_node_blocks_as_interior(self):
        # after splitting, the only trail between the two children runs
        # through the fixed half, which is implicitly conditioned
        fork = Dag(["B", "C", "D"], [("B", "C"), ("B", "D")], targets=["B"])
        sw = split(fork, {"B": 0}, "uniform")
        assert sw.d_separated([Node("C")], [Node("D")]).separated
        assert not sw.d_separated([Node("C")], [Node("B", fixed=True)]).separated

    def test_unknown_node_and_overlap_errors(self, chain):
        sw = split(chain, {"A": 0, "B": 0}, "uniform")
        with pytest.raises(UnknownNode):
            sw.d_separated([Node("Q")], [Node("C")])
        with pytest.raises(InvalidQuery):
            sw.d_separated([Node("A")], [Node("A")])
        with pytest.raises(InvalidQuery):
            sw.d_separated([Node("A")], [Node("C")], [Node("A")])

    def test_plain_dsep_agrees_with_moral_oracle_exhaustively(self):
        rng = random.Random(7)
        dags = [random_dag(rng, max_vertices=5, require_target=False) for _ in range(8)]
        dags.append(two_stage_dag())
        for dag in dags:
            plain = Dag(dag.vertices, sorted(dag.edges), targets=(), order=dag.order)
            sw = split(plain, {}, "uniform")
            for x, y, z in all_query_triples(plain.vertices):
                if x & y or x & z or y & z:
                    continue
                got = sw.d_separated(
                    [Node(v) for v in x], [Node(v) for v in y], [Node(v) for v in z]
                ).separated
                assert got == moral_dsep(plain, x, y, z), (dag, x, y, z)

    def test_symmetry_and_fixed_conditioning_noop(self):
        rng = random.Random(11)
        for _ in range(40):
            dag = random_dag(rng, require_target=True)
            assign = {t: 0 for t in dag.targets}
            sw = split(dag, assign, "uniform")
            names = list(dag.order)
            rng.shuffle(names)
            x = {Node(names[0])}
            y = {Node(names[1])}
            z = {Node(v) for v in names[2 : 2 + rng.randint(0, len(names) - 2)]}
            base = sw.d_separated(x, y, z).separated
            assert sw.d_separated(y, x, z).separated == base
            fixed = {Node(t, fixed=True) for t in dag.targets}
            assert sw.d_separated(x, y, z | fixed).separated == base

    def test_fixed_node_semantics_agree_with_conditioning_reduction(self):
        # second independent route for the full query space, fixed endpoints
        # included: exhaustive over eight seeded graphs
        rng = random.Random(77)
        for _ in range(8):
            dag = random_dag(rng, max_vertices=4, require_target=True)
            sw = split(dag, {t: 0 for t in dag.targets}, "uniform")
            nodes = [Node(v) for v in dag.order]
            nodes += [Node(t, fixed=True) for t in dag.targets]
            for x, y, z in all_query_triples(nodes):
                if x & y or x & z or y & z:
                    continue
                got = sw.d_separated(x, y, z).separated
                want = split_dsep_via_conditioning(sw, x, y, z)
                assert got == want, (dag, x, y, z)

    def test_symmetry_with_fixed_endpoints(self):
        rng = random.Random(19)
        for _ in range(30):
            dag = random_dag(rng, require_target=True)
            sw = split(dag, {t: 0 for t in dag.targets}, "uniform")
            pool = [Node(v) for v in dag.order]
            pool += [Node(t, fixed=True) for t in dag.targets]
            rng.shuffle(pool)
            x, y = {pool[0]}, {pool[1]}
            z = set(pool[2 : 2 + rng.randint(0, len(pool) - 2)])
            assert (
                sw.d_separated(x, y, z).separated
                == sw.d_separated(y, x, z).separated
            )


class TestMarkovStatements:
    def test_dsep_statement_sets_for_two_stage_graph(self, two_stage):
        rows = local_markov_statements(two_stage, "d-separation")
        got = {
            r["vertex"]: (
                frozenset(r["other_random"]),
                frozenset(r["other_fixed"]),
                frozenset(r["given_random"]),
                frozenset(r["given_fixed"]),
            )
            for r in rows
        }
        f = frozenset
        assert got == {
            "H": (f(), f({"X0", "X1"}), f(), f()),
            "X0": (f({"H"}), f({"X0", "X1"}), f(), f()),
            "Z": (f({"X0"}), f({"X1"}), f({"H"}), f({"X0"})),
            "X1": (f({"X0"}), f({"X0", "X1"}), f({"H", "Z"}), f()),
            "Y": (f({"H", "X0", "X1"}), f({"X0"}), f({"Z"}), f({"X1"})),
        }

    def test_factorization_dependence_sets_for_two_stage_graph(self, two_stage):
        rows = local_markov_statements(two_stage, "factorization")
        assert [r["dependence_set"] for r in rows] == [
            [],
            [],
            ["H", "x0"],
            ["H", "Z"],
            ["Z", "x1"],
        ]

    def test_single_vertex_graph_has_one_unconditional_statement(self):
        dag = Dag(["A"], [])
        rows = local_markov_statements(dag, "factorization")
        assert len(rows) == 1
        assert rows[0]["dependence_set"] == []

    @given(small_dags(require_target=True))
    @settings(max_examples=40, deadline=None)
    def test_statement_count_equals_vertex_count(self, dag):
        assert len(local_markov_statements(dag, "d-separation")) == len(dag.vertices)

    def test_statements_are_actual_separations(self, two_stage):
        sw = split(two_stage, {"X0": 1, "X1": 0}, "uniform")
        for row in local_markov_statements(two_stage, "d-separation"):
            x = [Node(row["vertex"])]
            y = [Node(v) for v in row["other_random"]]
            y += [Node(t, fixed=True) for t in row["other_fixed"]]
            z = [Node(v) for v in row["given_random"]]
            z += [Node(t, fixed=True) for t in row["given_fixed"]]
            assert sw.d_separated(x, y, z).separated, row["text"]


class TestSerialization:
    def test_dot_contains_scheme_labels(self, chain):
        dot = emit_dot(split(chain, {"A": 0, "B": 1}, "temporal"))
        for needle in ('label="A"', 'label="B(a)"', 'label="C(a,b)"', 'label="a=0"', 'label="b=1"'):
            assert needle in dot

    def test_dot_is_deterministic(self, two_stage):
        a = emit_dot(split(two_stage, {"X0": 0, "X1": 1}, "ancestral"))
        b = emit_dot(split(two_stage, {"X0": 0, "X1": 1}, "ancestral"))
        assert a == b

    def test_json_dump_roundtrip(self, two_stage):
        sw = split(two_stage, {"X0": 0, "X1": 1}, "temporal")
        doc = swig_to_json(sw)
        back = swig_from_json(doc)
        assert swig_to_json(back) == doc

    def test_json_dump_without_graph_is_invalid(self):
        with pytest.raises(InvalidDocument):
            swig_from_json({})

    def test_json_dump_with_a_list_assignment_is_invalid(self, chain):
        with pytest.raises(InvalidDocument, match="'assignment' must be an object"):
            swig_from_json({"graph": serialize_dag(chain), "assignment": ["A", "B"]})

    def test_parse_node_set(self):
        nodes = parse_node_set("Y, fixed:X0 ,Z")
        assert nodes == (Node("Y"), Node("X0", fixed=True), Node("Z"))
