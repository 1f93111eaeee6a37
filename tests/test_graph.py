import pytest
from hypothesis import given

from helpers import small_dags, two_stage_dag
from swigcheck.errors import CyclicGraph, InvalidDocument, UnknownVertex
from swigcheck.graph import (
    Dag,
    parse_assignment,
    parse_dag,
    serialize_dag,
    validate_assignment,
)


def test_parse_chain_computes_lexicographic_topological_order():
    dag = parse_dag({"vertices": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]], "targets": ["A", "B"]})
    assert dag.order == ("A", "B", "C")
    assert dag.targets == ("A", "B")


def test_parse_two_cycle_raises():
    with pytest.raises(CyclicGraph) as exc:
        parse_dag({"vertices": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]})
    assert "A" in exc.value.cycle and "B" in exc.value.cycle


def test_parse_two_stage_graph_order():
    dag = parse_dag(
        {
            "vertices": ["H", "X0", "Z", "X1", "Y"],
            "edges": [["H", "Z"], ["H", "X1"], ["X0", "Z"], ["Z", "X1"], ["Z", "Y"], ["X1", "Y"]],
            "targets": ["X0", "X1"],
        }
    )
    assert dag.order == ("H", "X0", "Z", "X1", "Y")
    assert len(dag.edges) == 6


def test_relatives_on_two_stage_graph():
    dag = two_stage_dag()
    assert dag.parents("Y") == {"Z", "X1"}
    assert dag.ancestors("X1") == {"H", "X0", "Z"}
    assert dag.children("H") == {"Z", "X1"}


def test_predecessors_of_first_vertex_is_empty():
    dag = parse_dag({"vertices": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]]})
    assert dag.predecessors("A") == frozenset()


def test_unknown_vertex_in_edges_and_queries():
    with pytest.raises(UnknownVertex):
        parse_dag({"vertices": ["A"], "edges": [["A", "B"]]})
    with pytest.raises(UnknownVertex):
        parse_dag({"vertices": ["A"], "targets": ["Q"]})
    dag = parse_dag({"vertices": ["A"]})
    with pytest.raises(UnknownVertex):
        dag.parents("Z")


def test_explicit_order_must_be_linear_extension():
    with pytest.raises(InvalidDocument):
        parse_dag({"vertices": ["A", "B"], "edges": [["A", "B"]], "order": ["B", "A"]})


def test_self_loop_is_a_cycle():
    with pytest.raises(CyclicGraph):
        Dag(["A"], [("A", "A")])


def test_three_cycle_is_reported_as_a_walk():
    with pytest.raises(CyclicGraph) as exc:
        Dag(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
    assert len(exc.value.cycle) >= 3


@pytest.mark.parametrize(
    "field, value", [("vertices", 5), ("vertices", "AB"), ("edges", {"A": "B"}), ("targets", 1.5), ("order", "BA")]
)
def test_parse_dag_rejects_fields_that_are_not_lists(field, value):
    with pytest.raises(InvalidDocument, match=f"'{field}' must be a list"):
        parse_dag({"vertices": ["A", "B"], "edges": [["A", "B"]], field: value})


def test_serialize_parse_roundtrip(two_stage):
    assert parse_dag(serialize_dag(two_stage)) == two_stage


@given(small_dags())
def test_roundtrip_and_order_properties(dag):
    assert parse_dag(serialize_dag(dag)) == dag
    rank = {v: i for i, v in enumerate(dag.order)}
    for tail, head in dag.edges:
        assert rank[tail] < rank[head]
    for v in dag.vertices:
        assert dag.parents(v) <= dag.predecessors(v)


def test_complete_supergraph_contains_all_forward_edges(two_stage):
    comp = two_stage.complete_supergraph()
    assert len(comp.edges) == 10
    assert two_stage.edges <= comp.edges
    assert comp.order == two_stage.order
    assert comp.targets == two_stage.targets


def test_parse_assignment_and_validation():
    assert parse_assignment("X0=0, X1=1") == {"X0": 0, "X1": 1}
    assert parse_assignment("") == {}
    with pytest.raises(InvalidDocument):
        parse_assignment("X0")
    with pytest.raises(InvalidDocument):
        parse_assignment("X0=0,X0=1")
    with pytest.raises(InvalidDocument):
        validate_assignment({"X0": 5}, {"X0": 2})


@pytest.mark.parametrize("state", [1.5, True])
def test_validate_assignment_rejects_non_integer_states(state):
    with pytest.raises(InvalidDocument, match="state of 'A' must be an integer"):
        validate_assignment({"A": state}, {"A": 2})


@pytest.mark.parametrize(
    "vertices, edges, targets, order",
    [
        ([1, 2], [(1, 2)], [1], None),
        (["A", None], [], [], None),
        (["A", "B"], [("A", 2)], [], None),
        (["A", "B"], [("A", "B")], [("A",)], None),
        (["A", "B"], [("A", "B")], [], ["A", 2]),
    ],
)
def test_non_string_vertex_names_are_rejected(vertices, edges, targets, order):
    with pytest.raises(InvalidDocument, match="vertex name must be a string"):
        Dag(vertices, edges, targets, order)


def test_parse_dag_rejects_numeric_vertex_names():
    with pytest.raises(InvalidDocument, match="vertex name must be a string, got 1"):
        parse_dag({"vertices": [1, 2], "edges": [[1, 2]]})
