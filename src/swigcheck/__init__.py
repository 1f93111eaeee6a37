"""Exact engine for split intervention graphs and regime-indexed kernels.

The package builds split graphs and augmented decision diagrams from a DAG
with intervention targets, answers d-separation queries that respect fixed
nodes, verifies consistency and local Markov properties of counterfactual
families and regime kernels by exhaustive enumeration over exact rationals,
and computes interventional laws through the extended g-formula.
"""

from .graph import Dag, parse_dag, serialize_dag
from .dist import ConditionalTable, FiniteDistribution, depends_only_on
from .swig import (
    Node,
    SeparationQuery,
    SeparationResult,
    SplitGraph,
    Swig,
    emit_dot,
    local_markov_statements,
    split,
)
from .family import (
    CounterfactualFamily,
    build_ffrcistg,
    check_complete_graph_markov,
    check_conditional_consistency,
    check_distributional_consistency,
    check_no_future_effect,
    check_observed_markov,
    check_swig_local_markov,
    check_vector_consistency,
    kernel_chain_check,
    reduce_interventions,
)
from .decision import (
    AugmentedDiagram,
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
    instantiate_regime,
    kernel_to_family,
    natural_value_regime,
)

__version__ = "0.1.0"
