"""Every guard in the package raises its structured error.

One row per guard: the call that trips it, the exception type, and a
fragment of the message. The rows are grouped by module in source order.
"""

from fractions import Fraction

import pytest

from helpers import bernoulli_pair, chain_dag, chain_joint
from swigcheck.cli import main
from swigcheck.decision import (
    EciStatement,
    RegimeKernel,
    augment,
    build_intersection_counterexample,
    check_augmented_markov,
    check_dawid_AB,
    check_kernel_consistency,
    check_move_to_idle,
    derive_joint_independence,
    family_to_kernel,
    kernel_to_family,
    materialize_applied,
    natural_value_regime,
    solid_ecis,
    validate_eci,
)
from swigcheck.dist import (
    FiniteDistribution,
    cell_bound,
    depends_only_on,
    rows_equal,
)
from swigcheck.errors import (
    IllFormedEci,
    InvalidDocument,
    InvalidQuery,
    NoIdleRegime,
    NotConvertible,
    UnknownNode,
    UnknownVertex,
)
from swigcheck.family import (
    CounterfactualFamily,
    build_ffrcistg,
    check_conditional_consistency,
    check_no_future_effect,
    check_observed_markov,
    check_vector_consistency,
    intervention_key,
    kernel_chain_check,
    reduce_interventions,
)
from swigcheck.graph import Dag, parse_dag
from swigcheck.swig import (
    Node,
    SeparationQuery,
    SplitGraph,
    local_markov_statements,
    split,
    swig_from_json,
    swig_to_json,
)

HALF = Fraction(1, 2)
CHAIN = chain_dag()  # A -> B -> C, targets A and B
LAW = chain_joint()
CARDS = LAW.cards
TABLE = LAW.conditional(("B",), ("A",))
FAMILY = build_ffrcistg(CHAIN, CHAIN.targets, LAW)
KERNEL = family_to_kernel(FAMILY)
PAIR = bernoulli_pair(HALF, Fraction(3, 10))
# indicators A and B tied to no variable, over the laws of X and Y
FREE_KERNEL, _ = build_intersection_counterexample(PAIR, bernoulli_pair(HALF, Fraction(7, 10)))
SWIG = split(CHAIN, {"A": 0, "B": 1})
OTHER_PAIR = bernoulli_pair(HALF, HALF, ("U", "V"))
ALL_INDICATORS = ("F_A", "F_B")
FIXED_B = Node("B", fixed=True)
# a Fraction is not a JSON value, so a document cannot hold one
FRACTION_DOCUMENT = {"variables": {"A": 1}, "entries": [{"cell": [0], "p": Fraction(1)}]}


def tampered_swig_dump():
    dump = swig_to_json(SWIG)
    dump["edges"] = dump["edges"][:-1]
    return dump


GUARDS = [
    # decision
    ("augmented-diagram-immutable", lambda: setattr(augment(CHAIN), "dag", CHAIN),
     AttributeError, "AugmentedDiagram instances are immutable"),
    ("kernel-indicators-misaligned", lambda: RegimeKernel(CHAIN, CARDS, ("F_A",), (), [(None,)], {}),
     InvalidDocument, "indicators and tied_targets must align"),
    ("kernel-tied-to-unknown-vertex", lambda: RegimeKernel(CHAIN, CARDS, ("F_Z",), ("Z",), [(None,)], {}),
     UnknownVertex, "'Z'"),
    ("kernel-regime-out-of-range", lambda: RegimeKernel.for_targets(CHAIN, CARDS, {}, [(None, None), (5, None)]),
     InvalidDocument, "regime value 5 out of range for 'A'"),
    ("kernel-duplicate-regime", lambda: RegimeKernel.for_targets(CHAIN, CARDS, {}, [(None, None), (None, None)]),
     InvalidDocument, "duplicate regime (None, None)"),
    ("kernel-immutable", lambda: setattr(KERNEL, "roles", {}),
     AttributeError, "RegimeKernel instances are immutable"),
    ("kernel-target-index-of-non-target", lambda: KERNEL.target_index("C"), UnknownVertex, "'C'"),
    ("free-kernel-to-json", lambda: FREE_KERNEL.to_json(),
     NotConvertible, "kernels with free indicators have no file form"),
    ("free-kernel-to-family", lambda: kernel_to_family(FREE_KERNEL),
     NotConvertible, "free indicators cannot be expressed as interventions"),
    ("free-kernel-consistency", lambda: check_kernel_consistency(FREE_KERNEL),
     InvalidQuery, "kernel consistency needs target-tied indicators"),
    ("free-kernel-natural-value", lambda: natural_value_regime(FREE_KERNEL, "X"),
     InvalidQuery, "natural-value regimes need target-tied indicators"),
    ("natural-value-context-misaligned", lambda: natural_value_regime(KERNEL, "A", ("B",), ()),
     InvalidQuery, "C and c must align"),
    ("free-kernel-augmented-markov", lambda: check_augmented_markov(FREE_KERNEL),
     InvalidQuery, "augmented Markov check needs target-tied indicators"),
    ("eci-unknown-name", lambda: validate_eci(KERNEL, EciStatement(("Z",), ALL_INDICATORS)),
     UnknownVertex, "'Z'"),
    ("eci-empty-left", lambda: validate_eci(KERNEL, EciStatement((), ALL_INDICATORS)),
     IllFormedEci, "left side is empty"),
    ("eci-non-idle-not-indicator", lambda: validate_eci(KERNEL, EciStatement(("C",), ALL_INDICATORS, (), ("A",))),
     IllFormedEci, "non_idle names must be indicators"),
    ("eci-left-overlaps", lambda: validate_eci(KERNEL, EciStatement(("C",), ("C", *ALL_INDICATORS))),
     IllFormedEci, "left side overlaps the right or conditioning side"),
    ("eci-right-overlaps-given", lambda: validate_eci(KERNEL, EciStatement(("C",), ("B", *ALL_INDICATORS), ("B",))),
     IllFormedEci, "right side overlaps the conditioning side"),
    ("dawid-unknown-variable", lambda: check_dawid_AB(KERNEL, "Z", "A", "F_A"), UnknownVertex, "'Z'"),
    ("dawid-unknown-indicator", lambda: check_dawid_AB(KERNEL, "A", "B", "F_Z"), UnknownVertex, "'F_Z'"),
    ("dawid-itt-is-applied", lambda: check_dawid_AB(KERNEL, "A", "A", "F_A"),
     InvalidQuery, "ITT and applied-treatment variables must differ"),
    ("dawid-no-outcome", lambda: check_dawid_AB(FREE_KERNEL, "X", "Y", "A"),
     InvalidQuery, "no outcome variables besides the treatment pair"),
    ("intersection-different-variables", lambda: build_intersection_counterexample(PAIR, OTHER_PAIR),
     InvalidDocument, "expected two laws over the same pair of variables"),
    ("move-to-idle-empty-space", lambda: check_move_to_idle([]), NoIdleRegime, "regime space is empty"),
    ("move-to-idle-mixed-arity", lambda: check_move_to_idle([(None,), (None, None)]),
     InvalidDocument, "regimes have inconsistent arity"),
    ("joint-independence-empty-w", lambda: derive_joint_independence(KERNEL, []),
     InvalidQuery, "W must be non-empty"),
    ("materialize-free-kernel", lambda: materialize_applied(FREE_KERNEL, "X", "Xs", "Xa"),
     InvalidQuery, "materialization needs target-tied indicators"),
    ("materialize-non-target", lambda: materialize_applied(KERNEL, "C", "Cs", "Ca"), UnknownVertex, "'C'"),
    ("materialize-name-collision", lambda: materialize_applied(KERNEL, "A", "B", "Aa"),
     InvalidDocument, "materialized names collide with existing variables"),
    # dist
    ("law-duplicate-variable", lambda: FiniteDistribution([("A", 2), ("A", 2)], {}),
     InvalidDocument, "duplicate variable names"),
    ("law-duplicate-cell", lambda: FiniteDistribution([("A", 2), ("B", 2)], {(0, 1): HALF, range(2): HALF}),
     InvalidDocument, "duplicate cell (0, 1)"),
    ("law-immutable", lambda: setattr(LAW, "den", 1),
     AttributeError, "FiniteDistribution instances are immutable"),
    ("conditional-duplicate-target", lambda: LAW.conditional(["A", "A"], []),
     InvalidQuery, "duplicate variable names in ['A', 'A']"),
    ("law-document-unknown-field", lambda: FiniteDistribution.from_json({"variables": {"A": 2}, "extra": 1}),
     InvalidDocument, "unexpected distribution fields: ['extra']"),
    ("law-document-fraction-value", lambda: FiniteDistribution.from_json(FRACTION_DOCUMENT),
     InvalidDocument, "bad probability value Fraction(1, 1)"),
    ("table-immutable", lambda: setattr(TABLE, "row_keys", {}),
     AttributeError, "ConditionalTable instances are immutable"),
    ("table-row-outside", lambda: TABLE.row((5,)), InvalidQuery, "no row for given-cell (5,)"),
    ("dependence-unknown-projection", lambda: depends_only_on({}, ("a",), {"b"}),
     InvalidQuery, "projection names unknown context variables: ['b']"),
    ("rows-equal-different-cells", lambda: rows_equal({(0,): None}, {(1,): None}),
     InvalidQuery, "row maps are indexed by different given-cells"),
    # family
    ("intervention-unknown-vertex", lambda: intervention_key(CHAIN.order, {"Z": 1}), UnknownVertex, "'Z'"),
    ("family-immutable", lambda: setattr(FAMILY, "observed_markov", None),
     AttributeError, "CounterfactualFamily instances are immutable"),
    ("family-member-wrong-variables", lambda: CounterfactualFamily(CHAIN, CARDS, [({}, PAIR)]),
     InvalidDocument, "member {} is not a law over all model variables"),
    ("family-document-unknown-field", lambda: CounterfactualFamily.from_json({"extra": 1}),
     InvalidDocument, "unexpected family fields: ['extra']"),
    ("vector-consistency-non-target", lambda: check_vector_consistency(FAMILY, ["C"], []),
     InvalidQuery, "B and C must be subsets of the targets"),
    ("conditional-consistency-y-in-b", lambda: check_conditional_consistency(FAMILY, ["A"], [], ["A"], []),
     InvalidQuery, "Y and W must avoid B"),
    ("conditional-consistency-y-in-w", lambda: check_conditional_consistency(FAMILY, ["A"], [], ["C"], ["C"]),
     InvalidQuery, "Y and W must be disjoint"),
    ("reduce-unknown-mode", lambda: reduce_interventions(FAMILY, ["A"], [], ["A"], "bogus"),
     InvalidQuery, "unknown mode 'bogus'"),
    ("reduce-w-outside-vertices", lambda: reduce_interventions(FAMILY, ["A"], [], ["A", "Z"]),
     InvalidQuery, "W must be a subset of the vertices"),
    ("reduce-conditional-without-y", lambda: reduce_interventions(FAMILY, ["A"], [], ["A"], "conditional"),
     InvalidQuery, "conditional mode requires a non-empty Y"),
    ("reduce-conditional-y-in-w", lambda: reduce_interventions(FAMILY, ["A"], [], ["A", "C"], "conditional", ["C"]),
     InvalidQuery, "Y and W must be disjoint"),
    ("no-future-effect-unknown-vertex", lambda: check_no_future_effect(FAMILY, "Z"), UnknownVertex, "'Z'"),
    ("kernel-chain-unknown-vertex", lambda: kernel_chain_check(FAMILY, CHAIN, "Z", {"A": 0, "B": 0}),
     UnknownVertex, "'Z'"),
    ("observed-markov-wrong-variables", lambda: check_observed_markov(PAIR, CHAIN),
     InvalidQuery, "law is not over the graph vertices"),
    ("build-retarget", lambda: build_ffrcistg(CHAIN, ["A"], LAW),
     InvalidQuery, "targets must be None or the graph's targets ['A', 'B']"),
    ("build-wrong-variables", lambda: build_ffrcistg(CHAIN, None, PAIR),
     InvalidQuery, "law is not over the graph vertices"),
    # graph
    ("dag-duplicate-vertex", lambda: Dag(["A", "A"]), InvalidDocument, "duplicate vertex names"),
    ("dag-immutable", lambda: setattr(CHAIN, "order", ()), AttributeError, "Dag instances are immutable"),
    ("dag-unhashable", lambda: hash(CHAIN), TypeError, "unhashable type: 'Dag'"),
    ("graph-document-unknown-field", lambda: parse_dag({"vertices": [], "extra": 1}),
     InvalidDocument, "unexpected graph spec fields: ['extra']"),
    # swig
    ("query-empty-endpoint", lambda: SeparationQuery([], [Node("A")]),
     InvalidQuery, "both endpoint sets must be non-empty"),
    ("split-graph-duplicate-node", lambda: SplitGraph([Node("A"), Node("A")], []),
     InvalidDocument, "duplicate split-graph nodes"),
    ("split-graph-unknown-node", lambda: SplitGraph([Node("A")], [(Node("A"), Node("B"))]),
     UnknownNode, "unknown node: Node(name='B'"),
    ("split-graph-edge-into-fixed", lambda: SplitGraph([Node("A"), FIXED_B], [(Node("A"), FIXED_B)]),
     InvalidDocument, "fixed node fixed:B cannot have in-edges"),
    ("split-graph-immutable", lambda: setattr(SWIG.graph, "nodes", ()),
     AttributeError, "SplitGraph instances are immutable"),
    ("swig-immutable", lambda: setattr(SWIG, "scheme", "temporal"),
     AttributeError, "Swig instances are immutable"),
    ("split-unknown-scheme", lambda: split(CHAIN, {"A": 0, "B": 0}, "bogus"),
     InvalidDocument, "scheme must be one of"),
    ("markov-unknown-format", lambda: local_markov_statements(CHAIN, "bogus"),
     InvalidDocument, "unknown statement format 'bogus'"),
    ("swig-dump-not-object", lambda: swig_from_json([]), InvalidDocument, "swig dump must be a JSON object"),
    ("swig-dump-tampered", lambda: swig_from_json(tampered_swig_dump()),
     InvalidDocument, "swig dump is inconsistent with its own graph spec"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_guard_raises(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


@pytest.mark.parametrize("raw, message", [("many", "must be an integer, got 'many'"), ("0", "must be positive")])
def test_cell_bound_setting_must_be_a_positive_integer(monkeypatch, raw, message):
    monkeypatch.setenv("SWIGCHECK_MAX_CELLS", raw)
    with pytest.raises(InvalidDocument, match=message):
        cell_bound()
    with pytest.raises(InvalidDocument, match=message):
        FiniteDistribution([("A", 2)], {(0,): 1})


@pytest.mark.parametrize("value", [LAW, TABLE, CHAIN], ids=["law", "table", "dag"])
def test_equality_with_another_type_is_not_implemented(value):
    assert value.__eq__("text") is NotImplemented
    assert value != "text"


@pytest.mark.parametrize(
    "value, text",
    [
        (LAW, "FiniteDistribution(('A', 'B', 'C'), 8 nonzero cells)"),
        (TABLE, "ConditionalTable(('B',) | ('A',))"),
        (CHAIN, "Dag(vertices=['A', 'B', 'C'], edges=[('A', 'B'), ('B', 'C')], targets=['A', 'B'])"),
    ],
    ids=["law", "table", "dag"],
)
def test_repr(value, text):
    assert repr(value) == text


def test_solid_ecis_skip_a_vertex_with_nothing_on_the_right():
    # T's one indicator is its parent, and it has no predecessors
    assert solid_ecis(Dag(["T"], targets=["T"]), {"F_T": ("T",)}) == []


@pytest.mark.parametrize("argv, code, stream", [(["--bogus"], 2, "err"), (["--help"], 0, "out")])
def test_argument_errors_and_help_return_without_running_a_command(capsys, argv, code, stream):
    assert main(argv) == code
    assert "usage: swigcheck" in getattr(capsys.readouterr(), stream)
