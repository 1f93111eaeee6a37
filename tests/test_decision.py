import random
from fractions import Fraction

import pytest

from helpers import (
    all_query_triples,
    bernoulli_pair,
    mutate_family,
    random_dag,
    random_positive_joint,
    two_stage_dag,
)
from swigcheck.decision import (
    EciStatement,
    RegimeKernel,
    augment,
    augmented_markov_statements,
    build_intersection_counterexample,
    check_augmented_markov,
    check_dawid_AB,
    check_eci,
    check_kernel_consistency,
    check_move_to_idle,
    derive_joint_independence,
    family_to_kernel,
    frontdoor_demo,
    indicator_name,
    instantiate_regime,
    kernel_to_family,
    materialize_applied,
    natural_value_regime,
    solid_ecis,
    validate_eci,
)
from swigcheck.dist import FiniteDistribution
from swigcheck.errors import (
    IllFormedEci,
    IncompleteKernel,
    InvalidDocument,
    InvalidQuery,
    NoIdleRegime,
    NotACounterexample,
    NotATarget,
    NotConvertible,
    UnknownVertex,
)
from swigcheck.family import (
    build_ffrcistg,
    check_distributional_consistency,
    check_swig_local_markov,
)
from swigcheck.graph import Dag
from swigcheck.swig import Node, split

F = Fraction
HALF = F(1, 2)


@pytest.fixture(scope="module")
def two_stage_kernel():
    dag = two_stage_dag()
    p = random_positive_joint(random.Random(99), dag)
    return family_to_kernel(build_ffrcistg(dag, dag.targets, p))


class TestAugment:
    def test_two_stage_diagram_edges(self, two_stage):
        diag = augment(two_stage)
        assert diag.regime_nodes == ("F_X0", "F_X1")
        assert set(diag.indicator_edges) == {("F_X0", "Z"), ("F_X1", "Y")}
        assert set(diag.contextual_edges) == {("X0", "Z"), ("X1", "Y")}

    def test_no_targets_is_bare_graph(self):
        dag = Dag(["A", "B"], [("A", "B")])
        diag = augment(dag)
        assert diag.regime_nodes == () and diag.contextual_edges == ()

    def test_frontdoor_diagram(self, frontdoor):
        diag = augment(frontdoor)
        assert set(diag.indicator_edges) == {("F_T", "M")}
        assert set(diag.contextual_edges) == {("T", "M")}


class TestInstantiate:
    def test_frontdoor_non_idle_regime_separates_outcome_from_indicator(self, frontdoor):
        graph = instantiate_regime(augment(frontdoor), {"T": 1})
        res = graph.d_separated([Node("Y")], [Node("F_T", fixed=True)], [Node("M")])
        assert res.separated
        # with the contextual edge kept (idle), the collider trail opens
        idle = instantiate_regime(augment(frontdoor), {})
        assert idle.d_separated([Node("Y")], [Node("F_T", fixed=True)], [Node("M")]).separated

    def test_all_idle_keeps_base_edges_and_isolates_indicators(self, two_stage):
        graph = instantiate_regime(augment(two_stage), {})
        random_edges = {(a.name, b.name) for a, b in graph.edges}
        assert random_edges == set(two_stage.edges)
        for t in two_stage.targets:
            f = Node(indicator_name(t), fixed=True)
            assert graph.has_node(f)
            assert all(f not in e for e in graph.edges)

    @pytest.mark.parametrize("regime", [{"Y": 1}, {"Q": 1}, {"X0": 0, "Z": None}])
    def test_names_outside_the_targets_are_rejected(self, two_stage, regime):
        with pytest.raises(NotATarget):
            instantiate_regime(augment(two_stage), regime)

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_non_idle_values_must_be_integers(self, two_stage, value):
        with pytest.raises(InvalidDocument):
            instantiate_regime(augment(two_stage), {"X0": value, "X1": 0})

    def test_none_and_missing_targets_are_idle(self, two_stage):
        diag = augment(two_stage)
        explicit = instantiate_regime(diag, {"X0": 1, "X1": None})
        assert explicit.edges == instantiate_regime(diag, {"X0": 1}).edges
        assert instantiate_regime(diag, {"X0": None, "X1": None}).edges == instantiate_regime(diag, {}).edges
        fixed_tails = {a.name for a, _ in explicit.edges if a.fixed}
        assert fixed_tails == {"F_X0"}

    def test_two_stage_statements_hold_as_separations(self, two_stage):
        graph = instantiate_regime(augment(two_stage), {"X0": 0, "X1": 1})
        for row in augmented_markov_statements(two_stage):
            x = [Node(row["vertex"])]
            y = [Node(v) for v in row["other_random"]]
            y += [Node(f, fixed=True) for f in row["other_indicators"]]
            z = [Node(v) for v in row["given_random"]]
            z += [Node(f, fixed=True) for f in row["given_indicators"]]
            assert graph.d_separated(x, y, z).separated, row["text"]

    def test_statement_sets_match_expected_rows(self, two_stage):
        rows = {r["vertex"]: r for r in augmented_markov_statements(two_stage)}
        assert set(rows["H"]["other_indicators"]) == {"F_X0", "F_X1"}
        assert rows["H"]["other_random"] == [] and rows["H"]["given_random"] == []
        assert set(rows["X0"]["other_random"]) == {"H"}
        assert set(rows["Z"]["other_random"]) == {"X0"}
        assert set(rows["Z"]["other_indicators"]) == {"F_X1"}
        assert set(rows["Z"]["given_random"]) == {"H"}
        assert set(rows["Z"]["given_indicators"]) == {"F_X0"}
        assert set(rows["X1"]["other_random"]) == {"X0"}
        assert set(rows["X1"]["other_indicators"]) == {"F_X0", "F_X1"}
        assert set(rows["X1"]["given_random"]) == {"H", "Z"}
        assert set(rows["Y"]["other_random"]) == {"H", "X0", "X1"}
        assert set(rows["Y"]["other_indicators"]) == {"F_X0"}
        assert set(rows["Y"]["given_random"]) == {"Z"}
        assert set(rows["Y"]["given_indicators"]) == {"F_X1"}

    def test_correspondence_with_split_graphs_exhaustive(self):
        rng = random.Random(23)
        dags = [random_dag(rng, require_target=True) for _ in range(6)]
        dags.append(two_stage_dag())
        for dag in dags:
            assign = {t: 0 for t in dag.targets}
            sw = split(dag, assign, "uniform")
            inst = instantiate_regime(augment(dag), assign)
            rename = {
                Node(t, fixed=True): Node(indicator_name(t), fixed=True) for t in dag.targets
            }
            nodes = [Node(v) for v in dag.order] + [Node(t, fixed=True) for t in dag.targets]
            for x, y, z in all_query_triples(nodes):
                if x & y or x & z or y & z:
                    continue
                lhs = sw.d_separated(x, y, z).separated
                rhs = inst.d_separated(
                    {rename.get(n, n) for n in x},
                    {rename.get(n, n) for n in y},
                    {rename.get(n, n) for n in z},
                ).separated
                assert lhs == rhs, (dag, x, y, z)


class TestTransport:
    def test_member_correspondence(self, two_stage_kernel):
        fam = kernel_to_family(two_stage_kernel)
        assert fam.member({"X0": 1}) == two_stage_kernel.member((1, None))
        assert fam.member({}) == two_stage_kernel.member((None, None))

    def test_round_trip_identity(self, small_corpus):
        for dag, p in small_corpus[:5]:
            fam = build_ffrcistg(dag, dag.targets, p)
            back = kernel_to_family(family_to_kernel(fam))
            assert set(back.members) == set(fam.members)
            assert all(back.members[k] == fam.members[k] for k in fam.members)

    def test_constrained_space_is_not_convertible(self):
        dag = Dag(["T", "Y"], [("T", "Y")], targets=["T"])
        p = bernoulli_pair(HALF, F(1, 3), names=("T", "Y"))
        members = {(None,): p, (0,): p}
        kernel = RegimeKernel.for_targets(dag, {"T": 2, "Y": 2}, members, [(None,), (0,)])
        with pytest.raises(NotConvertible):
            kernel_to_family(kernel)

    def test_kernel_json_round_trip(self, two_stage_kernel):
        doc = two_stage_kernel.to_json()
        back = RegimeKernel.from_json(doc)
        assert back.regime_space == tuple(sorted(two_stage_kernel.regime_space, key=lambda f: tuple((0, 0) if v is None else (1, v) for v in f)))
        assert set(back.members) == set(two_stage_kernel.members)
        for f in two_stage_kernel.members:
            assert back.members[f] == two_stage_kernel.members[f]
        assert back.to_json() == doc

    @pytest.mark.parametrize("value", [0.7, True, "1"])
    def test_kernel_json_rejects_non_integer_regime_values(self, two_stage_kernel, value):
        doc = two_stage_kernel.to_json()
        doc["members"][-1]["regime"]["X0"] = value
        with pytest.raises(InvalidDocument, match="regime value must be an integer"):
            RegimeKernel.from_json(doc)
        doc = two_stage_kernel.to_json()
        doc["regime_space"][-1][0] = value
        with pytest.raises(InvalidDocument, match="regime value must be an integer"):
            RegimeKernel.from_json(doc)

    def test_mismatched_member_names_expected_cardinalities(self):
        dag = Dag(["T", "Y"], [("T", "Y")], targets=["T"])
        p = bernoulli_pair(HALF, F(1, 3), names=("T", "Y"))
        with pytest.raises(InvalidDocument, match=r"expected \(\('T', 2\), \('Y', 3\)\)"):
            RegimeKernel.for_targets(dag, {"T": 2, "Y": 3}, {(None,): p, (0,): p, (1,): p})

    def test_checker_verdicts_agree_across_representations(self, small_corpus):
        rng = random.Random(31)
        for dag, p in small_corpus[:3]:
            fam = build_ffrcistg(dag, dag.targets, p)
            mutant, _ = mutate_family(rng, fam)
            for f in (fam, mutant):
                k = family_to_kernel(f)
                assert (
                    check_distributional_consistency(f).holds
                    == check_kernel_consistency(k).holds
                )
                assert check_swig_local_markov(f).holds == check_augmented_markov(k).holds


class TestKernelConsistency:
    def test_transported_family_holds(self, two_stage_kernel):
        assert check_kernel_consistency(two_stage_kernel).holds

    def test_mistargeted_intervention_fails(self):
        dag = Dag(["T", "Y"], [("T", "Y")], targets=["T"])
        obs = FiniteDistribution(
            [("T", 2), ("Y", 2)], {(0, 0): HALF, (1, 1): HALF}
        )
        hit = FiniteDistribution(
            [("T", 2), ("Y", 2)],
            {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)},
        )
        members = {(None,): obs, (0,): hit, (1,): hit}
        kernel = RegimeKernel.for_targets(dag, {"T": 2, "Y": 2}, members)
        report = check_kernel_consistency(kernel)
        assert not report.holds
        w = report.witnesses[0]
        assert w["indicator"] == "F_T"

    def test_identical_members_hold(self):
        dag = Dag(["B"], [], targets=["B"])
        b = FiniteDistribution([("B", 2)], {(0,): HALF, (1,): HALF})
        members = {(None,): b, (0,): b, (1,): b}
        kernel = RegimeKernel.for_targets(dag, {"B": 2}, members)
        assert check_kernel_consistency(kernel).holds

    def test_constrained_space_counts_untestable_pairs(self):
        dag = Dag(["B"], [], targets=["B"])
        b = FiniteDistribution([("B", 2)], {(0,): HALF, (1,): HALF})
        kernel = RegimeKernel.for_targets(dag, {"B": 2}, {(0,): b}, [(0,)])
        report = check_kernel_consistency(kernel)
        assert report.holds and report.notes


class TestNaturalValueRegime:
    def test_consistent_kernel_stitches_to_idle_member(self, two_stage_kernel):
        stitched, report = natural_value_regime(two_stage_kernel, "X0")
        assert report.holds
        assert stitched == two_stage_kernel.member((None, None))

    def test_off_diagonal_freedom_preserves_the_verdict(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["B"])
        uniform = FiniteDistribution(
            [("A", 2), ("B", 2)], {c: F(1, 4) for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
        )
        skew0 = FiniteDistribution(
            [("A", 2), ("B", 2)],
            {(0, 0): F(1, 4), (1, 0): F(1, 4), (0, 1): F(3, 8), (1, 1): F(1, 8)},
        )
        skew1 = FiniteDistribution(
            [("A", 2), ("B", 2)],
            {(0, 1): F(1, 4), (1, 1): F(1, 4), (0, 0): F(1, 8), (1, 0): F(3, 8)},
        )
        kernel = RegimeKernel.for_targets(
            dag, {"A": 2, "B": 2}, {(None,): uniform, (0,): skew0, (1,): skew1}
        )
        stitched, report = natural_value_regime(kernel, "B")
        assert report.holds and stitched == uniform
        assert check_kernel_consistency(kernel).holds

    def test_perturbed_diagonal_is_detected(self):
        dag = Dag(["B"], [], targets=["B"])
        b = FiniteDistribution([("B", 2)], {(0,): HALF, (1,): HALF})
        shifted = FiniteDistribution([("B", 2)], {(0,): F(1, 4), (1,): F(3, 4)})
        kernel = RegimeKernel.for_targets(dag, {"B": 2}, {(None,): b, (0,): shifted, (1,): b})
        stitched, report = natural_value_regime(kernel, "B")
        assert not report.holds

    def test_missing_member_raises(self):
        dag = Dag(["B"], [], targets=["B"])
        b = FiniteDistribution([("B", 2)], {(0,): HALF, (1,): HALF})
        kernel = RegimeKernel.for_targets(dag, {"B": 2}, {(None,): b, (0,): b}, [(None,), (0,)])
        with pytest.raises(IncompleteKernel):
            natural_value_regime(kernel, "B")

    def test_non_integer_context_value_rejected(self, two_stage_kernel):
        with pytest.raises(InvalidDocument, match="state index must be an integer"):
            natural_value_regime(two_stage_kernel, "X0", ["X1"], [1.0])

    @pytest.mark.parametrize("C, c", [(["A"], [1]), (["B", "B"], [0, 1])])
    def test_context_must_name_distinct_targets_other_than_i(self, chain, chain_law, C, c):
        # the chain kernel is consistent, yet with A also in C the stitched
        # law was compared with the member that intervenes on A
        kernel = family_to_kernel(build_ffrcistg(chain, chain.targets, chain_law))
        assert natural_value_regime(kernel, "A")[1].holds
        with pytest.raises(InvalidQuery, match="C must name distinct targets"):
            natural_value_regime(kernel, "A", C, c)

    @pytest.mark.parametrize("value", [0.5, True])
    def test_regime_space_rejects_non_integer_values(self, value):
        dag = Dag(["B"], [], targets=["B"])
        b = FiniteDistribution([("B", 2)], {(0,): HALF, (1,): HALF})
        with pytest.raises(InvalidDocument, match="regime value must be an integer"):
            RegimeKernel.for_targets(dag, {"B": 2}, {(None,): b}, [(None,), (value,)])

    def test_deterministic_natural_value_uses_one_member_per_cell(self):
        # idle law is a point mass, so only one interventional diagonal is
        # ever consulted; the other member may put all its mass off-diagonal
        dag = Dag(["B"], [], targets=["B"])
        point = FiniteDistribution([("B", 2)], {(0,): F(1)})
        members = {(None,): point, (0,): point, (1,): point}
        kernel = RegimeKernel.for_targets(dag, {"B": 2}, members)
        stitched, report = natural_value_regime(kernel, "B")
        assert report.holds and stitched == point


class TestAugmentedMarkov:
    def test_two_stage_kernel_passes(self, two_stage_kernel):
        assert check_augmented_markov(two_stage_kernel).holds

    def test_ignorability_violation_is_labeled(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"])
        members = {}
        for f in ((None,), (0,), (1,)):
            mass = {(w, w): HALF for w in (0, 1)}  # B copies the natural value
            members[f] = FiniteDistribution([("A", 2), ("B", 2)], mass)
        kernel = RegimeKernel.for_targets(dag, {"A": 2, "B": 2}, members)
        report = check_augmented_markov(kernel)
        assert not report.holds
        failing = [d for d in report.details if not d["holds"]]
        assert failing[0]["vertex"] == "B"
        assert failing[0]["components"] == ["ignorability"]

    def test_own_intervention_leak_is_labeled_time_order(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"])
        def member(p1):
            mass = {}
            for a in (0, 1):
                pa = p1 if a == 1 else 1 - p1
                for b in (0, 1):
                    mass[(a, b)] = pa * HALF
            return FiniteDistribution([("A", 2), ("B", 2)], mass)
        members = {(None,): member(HALF), (0,): member(F(1, 4)), (1,): member(F(3, 4))}
        kernel = RegimeKernel.for_targets(dag, {"A": 2, "B": 2}, members)
        report = check_augmented_markov(kernel)
        failing = {d["vertex"]: d for d in report.details if not d["holds"]}
        assert set(failing) == {"A"}
        assert failing["A"]["components"] == ["time-order"]

    def test_complete_graph_projection_passes_for_gformula_kernels(self, small_corpus):
        for dag, p in small_corpus[:3]:
            complete = dag.complete_supergraph()
            fam = build_ffrcistg(complete, complete.targets, p)
            kernel = family_to_kernel(fam)
            assert check_augmented_markov(kernel, complete).holds
            assert check_augmented_markov(kernel, dag).holds

    def test_missing_non_idle_regime_raises(self):
        dag = Dag(["T", "Y"], [("T", "Y")], targets=["T"])
        p = bernoulli_pair(HALF, F(1, 3), names=("T", "Y"))
        kernel = RegimeKernel.for_targets(
            dag, {"T": 2, "Y": 2}, {(None,): p, (0,): p}, [(None,), (0,)]
        )
        with pytest.raises(IncompleteKernel):
            check_augmented_markov(kernel)


class TestEci:
    def test_left_side_indicator_is_ill_formed(self, two_stage_kernel):
        with pytest.raises(IllFormedEci):
            validate_eci(two_stage_kernel, EciStatement(("F_X0",), ("Y",), ("F_X1",)))

    def test_unplaced_indicator_is_ill_formed(self, two_stage_kernel):
        with pytest.raises(IllFormedEci):
            validate_eci(two_stage_kernel, EciStatement(("Y",), ("F_X0",), ()))

    def test_simple_eci_evaluation(self, two_stage_kernel):
        # the source vertex is independent of everything under full control
        stmt = EciStatement(("H",), ("F_X0", "F_X1"), ())
        assert check_eci(two_stage_kernel, stmt).holds


class TestDawidConditions:
    def make_honest_kernel(self):
        dag = Dag(["T", "Y"], [("T", "Y")], targets=["T"])
        p = FiniteDistribution(
            [("T", 2), ("Y", 2)],
            {(0, 0): F(2, 5), (0, 1): F(1, 10), (1, 0): F(1, 5), (1, 1): F(3, 10)},
        )
        fam = build_ffrcistg(dag, dag.targets, p)
        return materialize_applied(family_to_kernel(fam), "T", "Tstar", "T")

    def test_honest_kernel_satisfies_everything(self):
        kernel = self.make_honest_kernel()
        report = check_dawid_AB(kernel, "Tstar", "T", "F_T")
        assert report.holds
        assert all(d["holds"] for d in report.details)

    def test_spurious_agreement_kernel(self):
        # confounded and mis-targeted, tuned so that the observable margins
        # agree across regimes; the confounder is integrated out before the
        # conditions are read off
        order = ("Tstar", "T", "Y")
        dag = Dag(order, [("Tstar", "T"), ("T", "Y")], targets=["T"], order=order)
        ph = HALF
        pt = {0: F(1, 4), 1: F(3, 4)}
        py = {(0, 0): F(1, 4), (0, 1): HALF, (1, 0): HALF, (1, 1): F(3, 4)}
        c = {1: F(11, 16), 0: F(5, 16)}
        e = F(1, 8)
        members = {}
        for regime in (None, 0, 1):
            mass = {}
            for h in (0, 1):
                for tstar in (0, 1):
                    base = (ph if h else 1 - ph) * (pt[h] if tstar else 1 - pt[h])
                    if regime is None:
                        t = tstar
                        py1 = py[(t, h)]
                    else:
                        t = regime
                        py1 = c[t] - e if h == 0 else c[t] + e
                    for y in (0, 1):
                        p = base * (py1 if y == 1 else 1 - py1)
                        if p:
                            mass[(tstar, t, y)] = mass.get((tstar, t, y), F(0)) + p
            members[(regime,)] = FiniteDistribution([(v, 2) for v in order], mass)
        kernel = RegimeKernel.for_targets(dag, {v: 2 for v in order}, members)
        report = check_dawid_AB(kernel, "Tstar", "T", "F_T")
        verdicts = {d["condition"]: d["holds"] for d in report.details}
        assert verdicts["A"] is True
        assert verdicts["B_no_itt"] is True  # the spurious agreement
        assert verdicts["B_ignorability"] is False
        assert verdicts["B"] is False
        assert not report.holds

    def test_degenerate_single_state_treatment(self):
        order = ("Tstar", "T", "Y")
        dag = Dag(order, [("Tstar", "T"), ("T", "Y")], targets=["T"], order=order)
        mass = {(0, 0, 0): F(1, 3), (0, 0, 1): F(2, 3)}
        member = FiniteDistribution([("Tstar", 1), ("T", 1), ("Y", 2)], mass)
        kernel = RegimeKernel.for_targets(
            dag, {"Tstar": 1, "T": 1, "Y": 2}, {(None,): member, (0,): member}
        )
        report = check_dawid_AB(kernel, "Tstar", "T", "F_T")
        assert report.holds


class TestIntersectionCounterexample:
    def test_reference_construction(self):
        pm = bernoulli_pair(HALF, F(3, 10))
        pp = bernoulli_pair(HALF, F(7, 10))
        kernel, report = build_intersection_counterexample(pm, pp)
        assert report.holds
        assert len(kernel.regime_space) == 8
        single = [d for d in report.details if d["statement"].startswith("Y _||_ A |")]
        assert single[0]["holds"]
        w = report.witnesses[0]
        assert w["first_row"] == {(0,): F(7, 10), (1,): F(3, 10)}
        assert w["second_row"] == {(0,): F(3, 10), (1,): F(7, 10)}

    def test_equal_laws_are_rejected(self):
        pm = bernoulli_pair(HALF, F(3, 10))
        with pytest.raises(NotACounterexample):
            build_intersection_counterexample(pm, pm)

    def test_structure_holds_for_random_pairs(self):
        rng = random.Random(41)
        for _ in range(10):
            py1, py2 = F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10)
            px1, px2 = F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10)
            if py1 == py2:
                continue
            pm = bernoulli_pair(px1, py1)
            pp = bernoulli_pair(px2, py2)
            _, report = build_intersection_counterexample(pm, pp)
            assert report.holds


class TestMoveToIdle:
    def test_full_product_space_holds(self):
        space = [(a, b) for a in (None, 0, 1) for b in (None, 0, 1)]
        assert check_move_to_idle(space).holds

    def test_treatment_completion_space_holds_with_sequences(self):
        report = check_move_to_idle([(None, None), (1, None), (2, None), (1, 1), (2, 2)])
        assert report.holds
        sequences = {tuple(map(tuple, (d["regime"],))): d["reduction"] for d in report.details}
        assert [tuple(r) for r in sequences[((1, 1),)]] == [(1, 1), (1, "idle"), ("idle", "idle")]

    def test_sign_locked_pair_fails(self):
        report = check_move_to_idle([(None, None), (1, 1)])
        assert not report.holds
        assert report.witnesses[0]["blocking"] == [1, 1]

    def test_missing_idle_regime_raises(self):
        with pytest.raises(NoIdleRegime):
            check_move_to_idle([(1, 1), (1, None)])


class TestJointIndependence:
    def completion_kernel(self, shift=False):
        dag = Dag(["X"], [], targets=[])
        x = FiniteDistribution([("X", 2)], {(0,): F(1, 3), (1,): F(2, 3)})
        other = FiniteDistribution([("X", 2)], {(0,): F(1, 2), (1,): F(1, 2)})
        space = [(None, None), (1, None), (2, None), (1, 1), (2, 2)]
        members = {f: x for f in space}
        if shift:
            members[(2, 2)] = other
        return RegimeKernel(dag, {"X": 2}, ("F1", "F2"), (None, None), space, members)

    def test_constant_kernel_holds(self):
        report = derive_joint_independence(self.completion_kernel(), ["X"])
        assert report.holds
        assert report.details[-1]["conclusion"] == "holds"

    def test_premise_failure_is_reported(self):
        report = derive_joint_independence(self.completion_kernel(shift=True), ["X"])
        assert not report.holds
        assert any(d.get("premise") == "failed" for d in report.details)

    def test_unknown_names_in_w_are_rejected(self):
        with pytest.raises(UnknownVertex, match="'Zzz'"):
            derive_joint_independence(self.completion_kernel(), ["X", "Zzz"])

    def test_sign_locked_space_propagates_no_idle(self):
        pm = bernoulli_pair(HALF, F(3, 10))
        pp = bernoulli_pair(HALF, F(7, 10))
        kernel, _ = build_intersection_counterexample(pm, pp)
        with pytest.raises(NoIdleRegime):
            derive_joint_independence(kernel, ["Y"])


class TestFrontdoorDemo:
    def test_pattern_reproduced(self):
        result = frontdoor_demo()
        assert result["pattern_reproduced"]
        assert result["d_separation"].separated
        assert result["sharp"]["context_specific"].holds
        assert not result["leaky"]["context_specific"].holds
        for report in result["sharp"]["solid"] + result["leaky"]["solid"]:
            assert report.holds

    def test_solid_statement_shapes(self, frontdoor):
        order = ("H", "Tstar", "T", "M", "Y")
        dag5 = Dag(
            order,
            [("H", "Tstar"), ("Tstar", "T"), ("T", "M"), ("M", "Y"), ("H", "Y")],
            targets=("T",),
            order=order,
        )
        stmts = solid_ecis(dag5, {"F_T": ("T",)})
        texts = [s.describe() for s in stmts]
        assert texts == [
            "H _||_ F_T",
            "Tstar _||_ F_T | H",
            "T _||_ H | Tstar, F_T",
            "M _||_ H, Tstar, F_T | T",
            "Y _||_ Tstar, T, F_T | H, M",
        ]
