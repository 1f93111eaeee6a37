import itertools
import random
from fractions import Fraction

import pytest

from helpers import mutate_family, random_positive_joint, two_stage_dag
from swigcheck.dist import ConditionalTable, FiniteDistribution, product_cells
from swigcheck.errors import (
    IncompleteFamily,
    InvalidDocument,
    InvalidQuery,
    NotATarget,
    NotIdentified,
    UnknownVertex,
)
from swigcheck.family import (
    CounterfactualFamily,
    build_ffrcistg,
    check_complete_graph_markov,
    check_conditional_consistency,
    check_distributional_consistency,
    check_no_future_effect,
    check_observed_markov,
    check_swig_local_markov,
    check_vector_consistency,
    gformula_member,
    kernel_chain_check,
    observational_cpts,
    reduce_interventions,
)
from swigcheck.graph import Dag

F = Fraction
HALF = F(1, 2)


def bern(name, p1):
    return FiniteDistribution([(name, 2)], {(0,): 1 - p1, (1,): p1})


def single_target_family(members):
    dag = Dag(["B"], [], targets=["B"])
    return CounterfactualFamily(dag, {"B": 2}, members)


@pytest.fixture
def chain_family(chain, chain_law):
    return build_ffrcistg(chain, chain.targets, chain_law)


@pytest.fixture(scope="module")
def two_stage_family():
    dag = two_stage_dag()
    p = random_positive_joint(random.Random(99), dag)
    return build_ffrcistg(dag, dag.targets, p)


class TestDistributionalConsistency:
    def test_matching_marginals_hold(self):
        fam = single_target_family(
            [({}, bern("B", HALF)), ({"B": 0}, bern("B", HALF)), ({"B": 1}, bern("B", HALF))]
        )
        assert check_distributional_consistency(fam).holds

    def test_point_mass_members_violate(self):
        fam = single_target_family(
            [({}, bern("B", HALF)), ({"B": 0}, bern("B", F(0))), ({"B": 1}, bern("B", F(1)))]
        )
        report = check_distributional_consistency(fam)
        assert not report.holds
        w = report.witnesses[0]
        assert w["target"] == "B" and w["lhs"] == F(1) and w["rhs"] == HALF

    def test_gformula_families_hold(self, small_corpus):
        for dag, p in small_corpus[:6]:
            fam = build_ffrcistg(dag, dag.targets, p)
            assert check_distributional_consistency(fam).holds

    def test_missing_member_raises_with_name(self, chain_family):
        members = {k: v for k, v in chain_family.members.items() if k != (("A", 1),)}
        fam = CounterfactualFamily(chain_family.dag, chain_family.cards, members)
        with pytest.raises(IncompleteFamily) as exc:
            check_distributional_consistency(fam)
        assert exc.value.intervention == {"A": 1}


class TestVectorAndConditionalConsistency:
    def test_empty_b_is_trivial(self, chain_family):
        assert check_vector_consistency(chain_family, [], []).holds

    def test_chain_family_pair_holds(self, chain_family):
        assert check_vector_consistency(chain_family, ["A", "B"], []).holds

    def test_pointwise_violation_shows_in_vector_form(self):
        fam = single_target_family(
            [({}, bern("B", HALF)), ({"B": 0}, bern("B", F(0))), ({"B": 1}, bern("B", F(1)))]
        )
        assert not check_vector_consistency(fam, ["B"], []).holds

    def test_degenerate_w_reduces_to_vector_form(self, chain_family):
        assert check_conditional_consistency(chain_family, ["A"], [], ["B", "C"], []).holds

    def test_two_stage_conditional_consistency(self, two_stage_family):
        assert check_conditional_consistency(
            two_stage_family, ["X0"], ["X1"], ["Y"], ["Z"]
        ).holds

    def test_empty_y_rejected(self, chain_family):
        with pytest.raises(InvalidQuery):
            check_conditional_consistency(chain_family, ["A"], [], [], ["B"])

    def test_overlapping_b_c_rejected(self, chain_family):
        with pytest.raises(InvalidQuery):
            check_vector_consistency(chain_family, ["A"], ["A"])


class TestReduceInterventions:
    def test_childless_target_premise_and_conclusion_hold(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], targets=["A", "C"])
        p = random_positive_joint(random.Random(3), dag)
        fam = build_ffrcistg(dag, dag.targets, p)
        report = reduce_interventions(fam, ["C"], [], ["A", "B", "C"], mode="joint")
        assert report.holds
        assert all(d["premise"] == "holds" and d["conclusion"] == "holds" for d in report.details)

    def test_target_with_children_fails_premise_without_conclusion(self, chain_family):
        report = reduce_interventions(chain_family, ["A"], [], ["A", "B", "C"], mode="joint")
        assert report.holds  # premise-failed is not a violation of the implication
        assert all(d["premise"] == "failed" and d["conclusion"] is None for d in report.details)

    def test_b_outside_w_rejected(self, chain_family):
        with pytest.raises(InvalidQuery):
            reduce_interventions(chain_family, ["A"], [], ["B", "C"], mode="conditional", Y=["C"])

    def test_conditional_mode_childless_target(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], targets=["A", "C"])
        p = random_positive_joint(random.Random(4), dag)
        fam = build_ffrcistg(dag, dag.targets, p)
        report = reduce_interventions(fam, ["C"], [], ["B", "C"], mode="conditional", Y=["A"])
        assert report.holds
        assert all(d["conclusion"] == "holds" for d in report.details)


class TestSwigLocalMarkov:
    def test_two_stage_family_passes_with_expected_dependence_sets(self, two_stage_family):
        report = check_swig_local_markov(two_stage_family)
        assert report.holds
        deps = {d["vertex"]: d["dependence_set"] for d in report.details}
        assert deps == {
            "H": [],
            "X0": [],
            "Z": ["H", "x0"],
            "X1": ["H", "Z"],
            "Y": ["Z", "x1"],
        }

    def test_outcome_mechanism_varying_with_first_treatment_fails_at_outcome(self, two_stage_family):
        fam = two_stage_family
        key = (("X0", 1), ("X1", 0))
        member = fam.members[key]
        y_pos = fam.dag.order.index("Y")
        flipped = {}
        for cell, p in member.support():
            new_cell = list(cell)
            new_cell[y_pos] = 1 - new_cell[y_pos]
            flipped[tuple(new_cell)] = p
        members = dict(fam.members)
        members[key] = FiniteDistribution(member.variables, flipped)
        report = check_swig_local_markov(CounterfactualFamily(fam.dag, fam.cards, members))
        assert not report.holds
        failing = [d for d in report.details if not d["holds"]]
        assert [d["vertex"] for d in failing] == ["Y"]
        first, second = failing[0]["witness"]
        diffs = {k for k in first if first[k] != second[k]}
        assert diffs == {"a:X0"}

    def test_no_targets_reduces_to_observed_markov(self, chain_law):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], targets=[])
        fam = CounterfactualFamily(dag, {"A": 2, "B": 2, "C": 2}, [({}, chain_law)])
        assert check_swig_local_markov(fam).holds
        empty = Dag(["A", "B", "C"], [], targets=[])
        fam2 = CounterfactualFamily(empty, {"A": 2, "B": 2, "C": 2}, [({}, chain_law)])
        assert not check_swig_local_markov(fam2).holds


class TestNoFutureEffect:
    def test_last_vertex_is_identity(self, chain_family):
        assert check_no_future_effect(chain_family, "C").holds

    def test_all_prefixes_on_chain(self, chain_family):
        for k in "ABC":
            assert check_no_future_effect(chain_family, k).holds

    def test_violating_family_reports_first_witness(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["B"])
        p = random_positive_joint(random.Random(5), dag)
        fam = build_ffrcistg(dag, dag.targets, p)
        members = dict(fam.members)
        # make the upstream marginal depend on the later intervention
        members[(("B", 1),)] = FiniteDistribution(
            [("A", 2), ("B", 2)],
            {(0, 0): F(1, 8), (0, 1): F(1, 8), (1, 0): F(2, 8), (1, 1): F(4, 8)},
        )
        broken = CounterfactualFamily(fam.dag, fam.cards, members)
        report = check_no_future_effect(broken, "A")
        assert not report.holds
        assert report.witnesses[0]["a"] == {"B": 0} or report.witnesses[0]["a"] == {"B": 1}


class TestKernelChain:
    def test_gformula_family_passes_all_steps(self, chain_family, chain):
        for i in chain.order:
            for a in product_cells([2, 2]):
                report = kernel_chain_check(chain_family, chain, i, dict(zip(chain.targets, a)))
                assert report.holds, (i, a)

    def test_complete_graph_steps_are_identities(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"]).complete_supergraph()
        p = random_positive_joint(random.Random(6), dag)
        fam = build_ffrcistg(dag, dag.targets, p)
        report = kernel_chain_check(fam, dag, "B", {"A": 1})
        assert report.holds

    def test_natural_value_dependence_fails_at_parent_drop(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"])
        copy_members = []
        for iv in ({}, {"A": 0}, {"A": 1}):
            # B copies the natural value of A regardless of the intervention
            mass = {(w, w): HALF for w in (0, 1)}
            copy_members.append((iv, FiniteDistribution([("A", 2), ("B", 2)], mass)))
        fam = CounterfactualFamily(dag, {"A": 2, "B": 2}, copy_members)
        report = kernel_chain_check(fam, dag, "B", {"A": 1})
        assert not report.holds
        failing = [d["step"] for d in report.details if not d["holds"]]
        assert failing == ["drop-intervened-parents"]


class TestObservedMarkov:
    def test_product_of_independents_vs_empty_graph(self):
        p = FiniteDistribution(
            [("A", 2), ("B", 2)],
            {(a, b): (HALF if a else HALF) * (F(1, 3) if b else F(2, 3)) for a in (0, 1) for b in (0, 1)},
        )
        assert check_observed_markov(p, Dag(["A", "B"], [])).holds

    def test_chain_law_markov_to_chain_not_to_empty_graph(self, chain_law, chain):
        assert check_observed_markov(chain_law, chain).holds
        report = check_observed_markov(chain_law, Dag(["A", "B", "C"], []))
        assert not report.holds
        assert [d["vertex"] for d in report.details if not d["holds"]][0] == "B"

    def test_observed_member_of_sound_family_is_markov(self, small_corpus):
        for dag, p in small_corpus[:4]:
            fam = build_ffrcistg(dag, dag.targets, p)
            assert check_observed_markov(fam.observed(), dag).holds


class TestBuilder:
    def test_chain_intervention_marginal_frozen_value(self, chain_family):
        # independent oracle: sum_b p(B=b|A=1) p(C=1|B=b) with the hand CPTs
        oracle = F(3, 4) * F(2, 3) + F(1, 4) * F(1, 3)
        assert oracle == F(7, 12)
        member = chain_family.member({"A": 1})
        assert member.marginal({"C"}).p((1,)) == F(7, 12)

    def test_empty_intervention_member_equals_input(self, chain_family, chain_law):
        assert chain_family.member({}) == chain_law

    def test_every_member_is_a_distribution(self, chain_family):
        for key, member in chain_family.members.items():
            assert member.total() == 1

    def test_forced_positivity_failure(self, chain):
        pB = {1: F(3, 4)}
        pC = {0: F(1, 3), 1: F(2, 3)}
        mass = {}
        for b in (0, 1):
            for c in (0, 1):
                p = (pB[1] if b == 1 else 1 - pB[1]) * (pC[b] if c == 1 else 1 - pC[b])
                mass[(1, b, c)] = p
        p_degenerate = FiniteDistribution([("A", 2), ("B", 2), ("C", 2)], mass)
        with pytest.raises(NotIdentified) as exc:
            build_ffrcistg(chain, chain.targets, p_degenerate)
        assert exc.value.vertex == "B" and exc.value.cell == {"A": 0}

    def test_non_markov_input_recorded_not_rejected(self):
        dag = Dag(["A", "B"], [], targets=["B"])
        correlated = FiniteDistribution(
            [("A", 2), ("B", 2)],
            {(0, 0): F(3, 8), (0, 1): F(1, 8), (1, 0): F(1, 8), (1, 1): F(3, 8)},
        )
        fam = build_ffrcistg(dag, dag.targets, correlated)
        assert fam.observed_markov is not None and not fam.observed_markov.holds
        assert fam.member({}) != correlated  # the empty member got factorized

    @pytest.mark.parametrize("value", [0.7, True, "1"])
    def test_json_rejects_non_integer_intervention_values(self, chain_family, value):
        doc = chain_family.to_json()
        doc["members"][-1]["intervention"]["A"] = value
        with pytest.raises(InvalidDocument, match="state index of 'A' must be an integer"):
            CounterfactualFamily.from_json(doc)

    @pytest.mark.parametrize("value", [0.7, True])
    def test_member_lookup_rejects_non_integer_states(self, chain_family, value):
        with pytest.raises(InvalidDocument, match="state index of 'A' must be an integer"):
            chain_family.member({"A": value})

    def test_kernel_chain_rejects_non_integer_states(self, chain_family, chain):
        with pytest.raises(InvalidDocument, match="state index of 'A' must be an integer"):
            kernel_chain_check(chain_family, chain, "C", {"A": 0.5, "B": 1})

    @pytest.mark.parametrize("a", [{"A": 1}, {"A": 1, "B": 0, "C": 0}])
    def test_kernel_chain_assignment_must_cover_exactly_the_targets(self, chain_family, chain, a):
        with pytest.raises(NotATarget, match="assignment must cover exactly the targets"):
            kernel_chain_check(chain_family, chain, "C", a)


def random_cpt_model(rng, cards, zero_rate=0.0):
    """DAG over 4-5 vertices with 2-3 targets and seeded CPTs (parents in
    order -> cell -> state -> probability); entries are zero with the given
    rate, though never a whole row."""
    n = rng.randint(4, 5)
    names = [f"V{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    dag = Dag(names, edges, rng.sample(names, rng.randint(2, 3)))
    card = {v: cards for v in names}
    cpts = {}
    for v in names:
        pa = [u for u in names if u in dag.parents(v)]
        table = {}
        for cell in product_cells([card[u] for u in pa]):
            weights = [0 if rng.random() < zero_rate else rng.randint(1, 9) for _ in range(card[v])]
            if not any(weights):
                weights[rng.randrange(card[v])] = 1
            table[cell] = [F(w, sum(weights)) for w in weights]
        cpts[v] = (pa, table)
    return dag, card, cpts


def truncated_factorization(dag, card, cpts, intervention):
    """Member mass from the generating CPTs, parents taking assigned values."""
    names = list(dag.order)
    mass = {}
    for cell in product_cells([card[v] for v in names]):
        value = dict(zip(names, cell))
        p = F(1)
        for v in names:
            pa, table = cpts[v]
            p *= table[tuple(intervention.get(u, value[u]) for u in pa)][value[v]]
        if p:
            mass[cell] = p
    return mass


def per_cell_gformula(dag, cards, cpts, intervention):
    """Reference: the g-formula product cell by cell, first failure raising."""
    order = dag.order
    mass = {}
    for cell in product_cells([cards[v] for v in order]):
        value = dict(zip(order, cell))
        acc = F(1)
        for v in order:
            pa = [u for u in order if u in dag.parents(v)]
            parent_cell = tuple(intervention.get(u, value[u]) for u in pa)
            row = cpts[v].row(parent_cell)
            if row is None:
                raise NotIdentified(v, dict(zip(pa, parent_cell)))
            acc *= row.get((value[v],), F(0))
            if not acc:
                break
        if acc:
            mass[cell] = acc
    return mass


def every_intervention(dag, cards):
    for r in range(len(dag.targets) + 1):
        for D in itertools.combinations(dag.targets, r):
            for d in product_cells([cards[t] for t in D]):
                yield dict(zip(D, d))


class TestGformulaSweep:
    @pytest.mark.parametrize("cards", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_members_equal_the_truncated_factorization(self, cards, seed):
        dag, card, gen = random_cpt_model(random.Random(1000 * cards + seed), cards)
        law = FiniteDistribution(
            [(v, card[v]) for v in dag.order], truncated_factorization(dag, card, gen, {})
        )
        cpts = observational_cpts(law, dag)
        for iv in every_intervention(dag, card):
            member = gformula_member(dag, card, cpts, iv)
            assert dict(member.support()) == truncated_factorization(dag, card, gen, iv), iv

    def test_non_positive_laws_match_the_per_cell_loop(self):
        outcomes = set()
        for seed in range(12):
            cards = 2 + seed % 2
            dag, card, gen = random_cpt_model(random.Random(seed), cards, zero_rate=0.4)
            law = FiniteDistribution(
                [(v, card[v]) for v in dag.order], truncated_factorization(dag, card, gen, {})
            )
            cpts = observational_cpts(law, dag)
            for iv in every_intervention(dag, card):
                try:
                    expected = per_cell_gformula(dag, card, cpts, iv)
                except NotIdentified as exc:
                    with pytest.raises(NotIdentified) as got:
                        gformula_member(dag, card, cpts, iv)
                    assert (got.value.vertex, got.value.cell) == (exc.vertex, exc.cell), (seed, iv)
                    outcomes.add("not identified")
                else:
                    assert dict(gformula_member(dag, card, cpts, iv).support()) == expected, (seed, iv)
                    outcomes.add("identified")
        assert outcomes == {"identified", "not identified"}

    def test_mixed_denominators_and_explicit_zeros_match_the_per_cell_loop(self):
        # rows in thirds, halves and sixths, with zero entries written out
        dag = Dag(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")], targets=["A", "B"])
        a, b, c = ("A", 2), ("B", 2), ("C", 2)
        sixths = lambda n: {(0,): F(n, 6), (1,): F(6 - n, 6)}
        cpts = {
            "A": ConditionalTable((a,), (), {(): {(0,): F(1, 3), (1,): F(2, 3)}}),
            "B": ConditionalTable((b,), (a,), {(0,): sixths(3), (1,): {(0,): F(1), (1,): F(0)}}),
            "C": ConditionalTable(
                (c,), (a, b), {(0, 0): sixths(1), (0, 1): sixths(0), (1, 0): sixths(5), (1, 1): sixths(2)}
            ),
        }
        cards = {"A": 2, "B": 2, "C": 2}
        for iv in every_intervention(dag, cards):
            member = gformula_member(dag, cards, cpts, iv)
            assert dict(member.support()) == per_cell_gformula(dag, cards, cpts, iv), iv

    def test_edited_rows_do_not_reach_the_product(self, chain, chain_law):
        cpts = observational_cpts(chain_law, chain)
        before = gformula_member(chain, chain_law.cards, cpts, {"A": 1})
        cpts["B"].rows[(1,)][(0,)] = F(9, 10)
        cpts["B"].row((1,))[(1,)] = F(9, 10)
        assert gformula_member(chain, chain_law.cards, cpts, {"A": 1}) == before

    @pytest.mark.parametrize(
        "intervention, error",
        [
            ({"A": 0.7}, InvalidDocument),
            ({"A": True}, InvalidDocument),
            ({"A": "1"}, InvalidDocument),
            ({"Z": 1}, UnknownVertex),
        ],
    )
    def test_intervention_states_are_not_coerced(self, intervention, error):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"])
        law = FiniteDistribution(
            [("A", 2), ("B", 2)], {(0, 0): F(1, 8), (0, 1): F(3, 8), (1, 0): F(3, 8), (1, 1): F(1, 8)}
        )
        with pytest.raises(error):
            gformula_member(dag, law.cards, observational_cpts(law, dag), intervention)

    @pytest.mark.parametrize(
        "b_row, message",
        [
            # row keys as FiniteDistribution.conditional builds them; the
            # public constructor would reject these rows itself
            ((2, ((0,), 3), ((1,), -1)), "negative mass"),
            ((2, ((0.5,), 1), ((1,), 1)), "state index must be an integer"),
        ],
    )
    def test_members_of_hand_built_tables_are_checked(self, b_row, message):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"])
        a, b = ("A", 2), ("B", 2)
        cpts = {
            "A": ConditionalTable((a,), (), {(): {(0,): HALF, (1,): HALF}}),
            "B": ConditionalTable((b,), (a,), None, _keys={(0,): b_row, (1,): b_row}),
        }
        with pytest.raises(InvalidDocument, match=message):
            gformula_member(dag, {"A": 2, "B": 2}, cpts, {})

    def test_first_failing_full_cell_names_the_vertex(self):
        # B is undefined after A=1 and C after (A, B) = (0, 0); the full cell
        # (0, 0, 0) precedes (1, 0, 0), so C is named although B comes first
        dag = Dag(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])
        a, b, c = ("A", 2), ("B", 2), ("C", 2)
        half = {(0,): HALF, (1,): HALF}
        cpts = {
            "A": ConditionalTable((a,), (), {(): half}),
            "B": ConditionalTable((b,), (a,), {(0,): half, (1,): None}),
            "C": ConditionalTable((c,), (a, b), {(0, 0): None, (0, 1): half, (1, 0): half, (1, 1): half}),
        }
        cards = {"A": 2, "B": 2, "C": 2}
        with pytest.raises(NotIdentified) as reference:
            per_cell_gformula(dag, cards, cpts, {})
        with pytest.raises(NotIdentified) as exc:
            gformula_member(dag, cards, cpts, {})
        assert exc.value.vertex == reference.value.vertex == "C"
        assert exc.value.cell == reference.value.cell == {"A": 0, "B": 0}


class TestCompleteGraph:
    def test_gformula_family_passes(self, two_stage_family):
        assert check_complete_graph_markov(two_stage_family).holds

    def test_single_variable_family_trivially_passes(self):
        fam = single_target_family(
            [({}, bern("B", HALF)), ({"B": 0}, bern("B", HALF)), ({"B": 1}, bern("B", HALF))]
        )
        assert check_complete_graph_markov(fam).holds

    def test_ignorability_violation_fails(self):
        dag = Dag(["A", "B"], [("A", "B")], targets=["A"])
        members = []
        for iv in ({}, {"A": 0}, {"A": 1}):
            mass = {(w, w): HALF for w in (0, 1)}
            members.append((iv, FiniteDistribution([("A", 2), ("B", 2)], mass)))
        fam = CounterfactualFamily(dag, {"A": 2, "B": 2}, members)
        report = check_complete_graph_markov(fam)
        # B still depends on the natural value of its intervened parent
        assert not report.holds
        assert [d["vertex"] for d in report.details if not d["holds"]] == ["B"]


class TestBuilderGuarantees:
    def test_soundness_chain_on_corpus(self, small_corpus):
        for dag, p in small_corpus[:5]:
            fam = build_ffrcistg(dag, dag.targets, p)
            assert check_distributional_consistency(fam).holds
            assert check_swig_local_markov(fam).holds
            for k in dag.order:
                assert check_no_future_effect(fam, k).holds
            for i in dag.order:
                for a in product_cells([2] * len(dag.targets)):
                    assert kernel_chain_check(fam, dag, i, dict(zip(dag.targets, a))).holds
            assert check_observed_markov(fam.observed(), dag).holds

    def test_identification_uses_only_observed_conditionals(self, small_corpus):
        for dag, p in small_corpus[:5]:
            fam = build_ffrcistg(dag, dag.targets, p)
            cpts = observational_cpts(fam.observed(), dag)
            for iv_key, member in fam.members.items():
                rebuilt = gformula_member(dag, fam.cards, cpts, dict(iv_key))
                assert rebuilt == member

    def test_two_graph_construction(self, small_corpus):
        for dag, p in small_corpus[:5]:
            complete = dag.complete_supergraph()
            fam_c = build_ffrcistg(complete, complete.targets, p)
            assert check_complete_graph_markov(fam_c).holds
            assert check_swig_local_markov(fam_c, dag).holds
            assert check_distributional_consistency(fam_c).holds

    def test_consistency_implies_derived_lemmas_exhaustively(self, small_corpus):
        fam = None
        for dag, p in small_corpus:
            if len(dag.vertices) <= 4 and 1 <= len(dag.targets):
                fam = build_ffrcistg(dag, dag.targets, p)
                break
        assert fam is not None
        assert check_distributional_consistency(fam).holds
        dag = fam.dag
        A = dag.targets
        V = dag.vertices
        for b_size in range(len(A) + 1):
            for B in itertools.combinations(A, b_size):
                rest = [t for t in A if t not in B]
                for c_size in range(len(rest) + 1):
                    for C in itertools.combinations(rest, c_size):
                        assert check_vector_consistency(fam, B, C).holds
                        pool = [v for v in V if v not in B]
                        for y_size in range(1, len(pool) + 1):
                            for Y in itertools.combinations(pool, y_size):
                                left = [v for v in pool if v not in Y]
                                for w_size in range(len(left) + 1):
                                    for W in itertools.combinations(left, w_size):
                                        assert check_conditional_consistency(fam, B, C, Y, W).holds

    def test_reduction_implication_never_violated_on_sound_families(self, small_corpus):
        # whenever the premise holds on a consistent family the conclusion
        # must hold too, for arbitrary target splits and conditioning sets
        rng = random.Random(53)
        for dag, p in small_corpus[:4]:
            fam = build_ffrcistg(dag, dag.targets, p)
            A, V = list(dag.targets), list(dag.order)
            for _ in range(12):
                rng.shuffle(A)
                cut = rng.randint(0, len(A))
                B, C = A[:cut], A[cut:]
                rest = [v for v in V if v not in B]
                rng.shuffle(rest)
                W = B + rest[: rng.randint(0, len(rest))]
                report = reduce_interventions(fam, B, C, W, mode="joint")
                assert report.holds, (dag, B, C, W)
                Y = [v for v in V if v not in W]
                if Y:
                    report = reduce_interventions(fam, B, C, W, mode="conditional", Y=Y)
                    assert report.holds, (dag, B, C, W, Y)

    def test_single_mutation_is_detected(self, small_corpus):
        rng = random.Random(17)
        dag, p = small_corpus[0]
        fam = build_ffrcistg(dag, dag.targets, p)
        for _ in range(8):
            mutant, info = mutate_family(rng, fam)
            verdicts = [
                check_distributional_consistency(mutant).holds,
                check_swig_local_markov(mutant).holds,
                check_observed_markov(mutant.observed(), dag).holds,
            ]
            verdicts += [check_no_future_effect(mutant, k).holds for k in dag.order]
            assert not all(verdicts), info
