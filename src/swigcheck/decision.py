"""Regime-indexed decision diagrams and their exact checkers.

The augmented diagram adds one non-stochastic regime indicator per
intervention target, with solid edges into the target's children; the
target's own out-edges become contextual (dashed) and are deleted whenever
that indicator is non-idle. Kernels index joint laws by regime assignments,
where an idle coordinate means no intervention. Extended conditional
independence (ECI) statements mix stochastic variables and indicators; they
are well formed only when no indicator appears on the left and every
indicator appears on the right or in the conditioning set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dist import (
    ZERO,
    FiniteDistribution,
    depends_only_on,
    diagonal_mismatches,
    document_int,
    product_cells,
    rows_equal,
)
from .errors import (
    IllFormedEci,
    IncompleteKernel,
    InvalidDocument,
    InvalidQuery,
    NoIdleRegime,
    NotACounterexample,
    NotConvertible,
    UnknownVertex,
)
from .family import (
    CounterfactualFamily,
    _as_dict,
    build_ffrcistg,
    graph_cardinalities,
    graph_member,
    markov_report,
    markov_rows,
    read_spec,
    sub_interventions,
)
from .graph import Dag, serialize_dag
from .reporting import CheckReport
from .swig import Node, SplitGraph, independence_text, markov_statement, require_targets, split_graph

IDLE = None


def indicator_name(target: str) -> str:
    return f"F_{target}"


# -- augmented diagrams ----------------------------------------------------


class AugmentedDiagram:
    """Base DAG plus regime indicators and contextual (dashed) edges."""

    __slots__ = ("dag", "regime_nodes", "contextual_edges", "indicator_edges")

    def __init__(self, dag: Dag):
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "regime_nodes", tuple(indicator_name(t) for t in dag.targets))
        contextual = tuple(
            (tail, head) for tail, head in sorted(dag.edges) if tail in set(dag.targets)
        )
        object.__setattr__(self, "contextual_edges", contextual)
        object.__setattr__(
            self,
            "indicator_edges",
            tuple(
                (indicator_name(t), child)
                for t in dag.targets
                for child in sorted(dag.children(t))
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("AugmentedDiagram instances are immutable")


def augment(dag: Dag) -> AugmentedDiagram:
    """Attach one regime indicator per target, wired to the target's children."""
    return AugmentedDiagram(dag)


def instantiate_regime(diag: AugmentedDiagram, regime: Mapping[str, int | None]) -> SplitGraph:
    """Graph under one regime assignment, ready for d-separation queries.

    This is the split graph at the non-idle targets, with each fixed node
    named by its indicator: a non-idle indicator takes over its target's
    out-edges, and an idle one (``None`` or absent) stays disconnected.
    """
    dag = diag.dag
    require_targets(dag, set(regime) | set(dag.targets))
    for t, value in regime.items():
        if value is not IDLE:
            document_int(value, f"state of {t!r}")
    return split_graph(dag, [t for t in dag.targets if regime.get(t) is not IDLE], indicator_name)


def augmented_markov_statements(dag: Dag) -> list[dict]:
    """Per-vertex defining independences of the augmented diagram.

    Each statement is read in the context where every indicator is non-idle;
    intervened parents appear through their indicators in the conditioning
    set and their natural values move to the independent side.
    """
    out = []
    for v in dag.order:
        st = markov_statement(dag, v)
        right = list(st.other_random) + [indicator_name(t) for t in st.other_fixed]
        given = list(st.given_random) + [indicator_name(t) for t in st.given_fixed]
        out.append(
            {
                "vertex": v,
                "other_random": list(st.other_random),
                "other_indicators": [indicator_name(t) for t in st.other_fixed],
                "given_random": list(st.given_random),
                "given_indicators": [indicator_name(t) for t in st.given_fixed],
                "context": "all-non-idle",
                "text": independence_text(v, right, given) + " [all indicators non-idle]",
            }
        )
    return out


# -- regime kernels ----------------------------------------------------------


Regime = tuple  # one coordinate per indicator; None is the idle regime


class RegimeKernel:
    """Joint laws over the model variables indexed by regime assignments.

    Indicators are usually tied one-to-one to intervention targets, in which
    case coordinate values are states of the tied variable or idle. Free
    indicators (tied to nothing) carry arbitrary integer levels and support
    constrained, non-product regime spaces.
    """

    __slots__ = ("dag", "cards", "indicators", "tied_targets", "regime_space", "members", "roles")

    def __init__(
        self,
        dag: Dag,
        cardinalities: Mapping[str, int],
        indicators: Sequence[str],
        tied_targets: Sequence[str | None],
        regime_space: Sequence[Regime],
        members: Mapping[Regime, FiniteDistribution] | Iterable[tuple[Regime, FiniteDistribution]],
        roles: Mapping[str, str] | None = None,
    ):
        cards = graph_cardinalities(dag, cardinalities)
        indicators = tuple(indicators)
        tied = tuple(tied_targets)
        if len(indicators) != len(tied):
            raise InvalidDocument("indicators and tied_targets must align")
        for t in tied:
            if t is not None and t not in set(dag.vertices):
                raise UnknownVertex(t)
        space = []
        seen = set()
        for f in regime_space:
            f = tuple(f)
            if len(f) != len(indicators):
                raise InvalidDocument(f"regime {f} has wrong arity")
            for value, t in zip(f, tied):
                if value is IDLE:
                    continue
                if t is not None and not 0 <= document_int(value, "regime value") < cards[t]:
                    raise InvalidDocument(f"regime value {value} out of range for {t!r}")
            if f in seen:
                raise InvalidDocument(f"duplicate regime {f}")
            seen.add(f)
            space.append(f)
        canon: dict[Regime, FiniteDistribution] = {}
        for f, dist in (members.items() if isinstance(members, Mapping) else members):
            f = tuple(f)
            if f not in seen:
                raise InvalidDocument(f"member for regime {f} outside the regime space")
            if f in canon:
                raise InvalidDocument(f"duplicate member for regime {f}")
            canon[f] = graph_member(dag, cards, f, dist)
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "indicators", indicators)
        object.__setattr__(self, "tied_targets", tied)
        object.__setattr__(self, "regime_space", tuple(space))
        object.__setattr__(self, "members", canon)
        object.__setattr__(self, "roles", dict(roles or {}))

    def __setattr__(self, name, value):
        raise AttributeError("RegimeKernel instances are immutable")

    @classmethod
    def for_targets(
        cls,
        dag: Dag,
        cardinalities: Mapping[str, int],
        members: Mapping[Regime, FiniteDistribution] | Iterable[tuple[Regime, FiniteDistribution]],
        regime_space: Sequence[Regime] | None = None,
        roles: Mapping[str, str] | None = None,
    ) -> "RegimeKernel":
        """Kernel whose indicators are the target indicators of ``dag``."""
        indicators = [indicator_name(t) for t in dag.targets]
        if regime_space is None:
            regime_space = full_regime_space(dag, graph_cardinalities(dag, cardinalities))
        return cls(dag, cardinalities, indicators, dag.targets, regime_space, members, roles)

    @property
    def tied(self) -> bool:
        return all(t is not None for t in self.tied_targets)

    def target_index(self, target: str) -> int:
        for j, t in enumerate(self.tied_targets):
            if t == target:
                return j
        raise UnknownVertex(target)

    def member(self, regime: Regime) -> FiniteDistribution:
        f = tuple(regime)
        if f not in self.members:
            raise IncompleteKernel(f)
        return self.members[f]

    def idle_regime(self) -> Regime:
        return tuple(IDLE for _ in self.indicators)

    def to_json(self) -> dict:
        if not self.tied:
            raise NotConvertible("kernels with free indicators have no file form")
        # IDLE is None, so regimes are written as they are stored
        doc = {
            "graph": serialize_dag(self.dag),
            "cardinalities": dict(self.cards),
            "regime_space": [list(f) for f in sorted(self.regime_space, key=_regime_sort_key)],
            "members": [
                {"regime": dict(zip(self.tied_targets, f)), "dist": self.members[f].to_json()}
                for f in sorted(self.members, key=_regime_sort_key)
            ],
        }
        if self.roles:
            doc["roles"] = dict(self.roles)
        return doc

    @classmethod
    def from_json(cls, document, base_dir=None) -> "RegimeKernel":
        document, dag, members = read_spec(
            document, base_dir, "kernel", "regime", _read_regime, ("regime_space", "roles")
        )
        space = document.get("regime_space")
        if space is not None:
            if not isinstance(space, (list, tuple)) or not all(isinstance(f, (list, tuple)) for f in space):
                raise InvalidDocument(f"'regime_space' must be a list of regimes, got {space!r}")
        roles = document.get("roles", {})
        if not isinstance(roles, Mapping) or not all(isinstance(r, str) for r in roles.values()):
            raise InvalidDocument(f"'roles' must map role names to names, got {roles!r}")
        return cls.for_targets(dag, document.get("cardinalities"), members, space, roles)


def _read_regime(dag: Dag, regime_map: Mapping) -> Regime:
    extra = set(regime_map) - set(dag.targets)
    if extra:
        raise InvalidDocument(f"regime names non-targets: {sorted(extra)}")
    return tuple(_regime_value(regime_map.get(t)) for t in dag.targets)


def _regime_value(value):
    return IDLE if value is None else document_int(value, "regime value")


def _regime_sort_key(f: Regime):
    return tuple((0, 0) if v is IDLE else (1, v) for v in f)


def full_regime_space(dag: Dag, cards: Mapping[str, int]) -> list[Regime]:
    axes = [[IDLE] + list(range(int(cards[t]))) for t in dag.targets]
    return [tuple(f) for f in itertools.product(*axes)] if axes else [()]


# -- transport between families and kernels ---------------------------------


def family_to_kernel(fam: CounterfactualFamily) -> RegimeKernel:
    """Each intervention member becomes the member of the matching regime."""
    dag = fam.dag
    regime = lambda iv: tuple(iv.get(t, IDLE) for t in dag.targets)
    members = {regime(iv): fam.member(iv) for iv in sub_interventions(dag.targets, fam.cards)}
    return RegimeKernel.for_targets(dag, fam.cards, members)


def kernel_to_family(k: RegimeKernel) -> CounterfactualFamily:
    """Inverse transport; only defined for full product regime spaces."""
    if not k.tied:
        raise NotConvertible("free indicators cannot be expressed as interventions")
    expected = set(full_regime_space(k.dag, k.cards))
    if set(k.regime_space) != expected:
        missing = sorted(expected - set(k.regime_space), key=_regime_sort_key)
        raise NotConvertible(f"regime space is not the full product; missing {missing[:3]}")
    members = [
        ({t: v for t, v in zip(k.dag.targets, f) if v is not IDLE}, k.member(f)) for f in k.regime_space
    ]
    return CounterfactualFamily(k.dag, k.cards, members)


# -- kernel checkers ---------------------------------------------------------


def check_kernel_consistency(k: RegimeKernel) -> CheckReport:
    """Setting one indicator to the value its variable takes anyway is idle.

    For every regime with a non-idle coordinate whose single-coordinate
    idling stays inside the regime space, the two members must agree on all
    cells where the tied variable equals the intervened value. Pairs whose
    idled regime is missing are counted as untested.
    """
    if not k.tied:
        raise InvalidQuery("kernel consistency needs target-tied indicators")
    report = CheckReport("kernel-consistency", True)
    untested = 0
    space = set(k.regime_space)
    order = k.dag.order
    for f in sorted(k.regime_space, key=_regime_sort_key):
        for j, value in enumerate(f):
            if value is IDLE:
                continue
            idled = f[:j] + (IDLE,) + f[j + 1 :]
            if idled not in space:
                untested += 1
                continue
            pos = order.index(k.tied_targets[j])
            with_iv, without = k.member(f), k.member(idled)
            for cell, lhs, rhs in diagonal_mismatches(with_iv, without, {pos: value}):
                report.holds = False
                report.witnesses.append(
                    {
                        "indicator": k.indicators[j],
                        "regime": _regime_json(k, f),
                        "cell": _as_dict(order, cell),
                        "lhs": lhs,
                        "rhs": rhs,
                    }
                )
    if untested:
        report.notes.append(f"{untested} regime pairs untestable under the constrained space")
    return report


def natural_value_regime(k: RegimeKernel, i: str, C: Sequence[str] = (), c: Sequence[int] = ()):
    """Law under the regime that sets ``i`` to its own natural value.

    Stitches interventional members along their diagonal: the mass of a cell
    is taken from the member that intervenes at exactly the cell's value of
    ``i``. Consistency of the kernel is the statement that this equals the
    member where ``i`` is idle; the comparison verdict is returned alongside
    the stitched law.
    """
    if not k.tied:
        raise InvalidQuery("natural-value regimes need target-tied indicators")
    j = k.target_index(i)
    C = tuple(C)
    c = tuple(document_int(v, "state index") for v in c)
    if len(C) != len(c):
        raise InvalidQuery("C and c must align")
    if i in C or len(set(C)) != len(C):
        raise InvalidQuery(f"C must name distinct targets other than {i!r}")
    base = [IDLE] * len(k.indicators)
    for t, v in zip(C, c):
        base[k.target_index(t)] = v
    pos = k.dag.order.index(i)
    variables = tuple((v, k.cards[v]) for v in k.dag.order)
    mass = {}
    for b in range(k.cards[i]):
        regime = tuple(base[:j] + [b] + base[j + 1 :])
        member = k.member(regime)
        for cell, p in member.support():
            if cell[pos] == b:
                mass[cell] = p
    stitched = FiniteDistribution._raw(variables, mass)
    mismatch = next(diagonal_mismatches(stitched, k.member(tuple(base)), {}), None)
    report = CheckReport("natural-value-regime", mismatch is None)
    if mismatch is not None:
        cell, lhs, rhs = mismatch
        report.witnesses.append(
            {
                "cell": _as_dict(k.dag.order, cell),
                "stitched": lhs,
                "idle": rhs,
            }
        )
    return stitched, report


AUGMENTED_COMPONENTS = ("time-order", "causal-markov", "associational-markov", "ignorability")


def check_augmented_markov(k: RegimeKernel, dag: Dag | None = None) -> CheckReport:
    """Local Markov property of the augmented diagram over non-idle regimes.

    For each vertex, its conditional law given all predecessors under a fully
    non-idle regime may depend only on the indicator values of intervened
    parents and the natural values of non-intervened parents. Failing
    vertices are annotated with the decomposition component that fails:
    later interventions (time order), non-parent interventions (causal
    Markov), earlier non-parents (associational Markov), or natural values of
    intervened parents (ignorability).
    """
    if not k.tied:
        raise InvalidQuery("augmented Markov check needs target-tied indicators")
    dag = dag or k.dag
    Aset = set(dag.targets)

    def components(v, rows, context_vars, pre):
        pa = dag.parents(v)
        groups = {
            "time-order": {f"f:{t}" for t in Aset if dag.rank(t) >= dag.rank(v)},
            "causal-markov": {
                f"f:{t}" for t in Aset if dag.rank(t) < dag.rank(v) and t not in pa
            },
            "associational-markov": {f"w:{u}" for u in set(pre) - pa},
            "ignorability": {f"w:{u}" for u in pa & Aset},
        }
        failing = []
        for name in AUGMENTED_COMPONENTS:
            group = groups[name]
            if not group:
                continue
            sub = depends_only_on(rows, context_vars, set(context_vars) - group)
            if not sub.holds:
                failing.append(name)
        return {"components": failing or ["joint"]}

    rows_of = lambda v: markov_rows(dag, k.cards, k.member, v, "f")
    return markov_report("augmented-markov", dag, rows_of, diagnose=components)


# -- extended conditional independence ---------------------------------------


@dataclass(frozen=True)
class EciStatement:
    """Independence of ``left`` from ``right`` given ``given``.

    ``right`` and ``given`` may mix stochastic variables and regime
    indicators; ``non_idle`` restricts evaluation to regimes where the listed
    indicators are non-idle.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    given: tuple[str, ...] = ()
    non_idle: tuple[str, ...] = ()

    def describe(self) -> str:
        given = [*self.given, *(f"{f}!=idle" for f in self.non_idle)]
        return independence_text(", ".join(self.left), self.right, given)


def validate_eci(k: RegimeKernel, stmt: EciStatement) -> None:
    stoch = set(k.dag.vertices)
    inds = set(k.indicators)
    names = set(stmt.left) | set(stmt.right) | set(stmt.given) | set(stmt.non_idle)
    for n in names:
        if n not in stoch and n not in inds:
            raise UnknownVertex(n)
    if not stmt.left:
        raise IllFormedEci("left side is empty")
    bad = set(stmt.left) & inds
    if bad:
        raise IllFormedEci(f"non-stochastic variables on the left: {sorted(bad)}")
    placed = set(stmt.right) | set(stmt.given)
    missing = inds - placed
    if missing:
        raise IllFormedEci(
            f"all regime indicators must appear on the right or in the conditioning set; missing {sorted(missing)}"
        )
    if set(stmt.non_idle) - inds:
        raise IllFormedEci("non_idle names must be indicators")
    if set(stmt.left) & (set(stmt.right) | set(stmt.given)):
        raise IllFormedEci("left side overlaps the right or conditioning side")
    if set(stmt.right) & set(stmt.given):
        raise IllFormedEci("right side overlaps the conditioning side")


def check_eci(k: RegimeKernel, stmt: EciStatement) -> CheckReport:
    """Evaluate an ECI statement over every regime in the kernel's space.

    The conditional law of the left set must not vary as the right side
    moves, holding the conditioning side fixed. Indicator coordinates in the
    conditioning set are held per group; indicator coordinates on the right
    vary within a group. Rows with zero conditioning probability are skipped.
    """
    validate_eci(k, stmt)
    stoch = set(k.dag.vertices)
    given_s = tuple(v for v in k.dag.order if v in set(stmt.given) & stoch)
    right_s = tuple(v for v in k.dag.order if v in set(stmt.right) & stoch)
    given_f = tuple(f for f in k.indicators if f in set(stmt.given))
    left = tuple(v for v in k.dag.order if v in set(stmt.left))
    report = CheckReport("eci", True)
    report.notes.append(stmt.describe())
    reference: dict[tuple, tuple] = {}
    idx = {f: j for j, f in enumerate(k.indicators)}
    for f in sorted(k.regime_space, key=_regime_sort_key):
        if any(f[idx[n]] is IDLE for n in stmt.non_idle):
            continue
        table = k.member(f).conditional(left, given_s + right_s)
        f_given = tuple(("idle" if f[idx[g]] is IDLE else f[idx[g]]) for g in given_f)
        for cell, row_key in table.row_keys.items():
            if row_key is None:
                report.skipped += 1
                continue
            g_cell = cell[: len(given_s)]
            r_cell = cell[len(given_s):]
            key = (f_given, g_cell)
            varying = {"regime": _regime_json(k, f), "right_cell": _as_dict(right_s, r_cell)}
            first_table, first_cell, first = reference.setdefault(key, (table, cell, varying))
            if first_table.row_keys[first_cell] != row_key:
                report.holds = False
                report.witnesses.append(
                    {
                        "given_regime": dict(zip(given_f, f_given)),
                        "given_cell": _as_dict(given_s, g_cell),
                        "first": first,
                        "second": varying,
                        "first_row": first_table.row(first_cell),
                        "second_row": table.row(cell),
                    }
                )
    return report


def _regime_json(k: RegimeKernel, f: Regime) -> dict:
    return {name: ("idle" if v is IDLE else v) for name, v in zip(k.indicators, f)}


# -- named condition sets -----------------------------------------------------


def check_dawid_AB(k: RegimeKernel, itt: str, applied: str, indicator: str) -> CheckReport:
    """Defining independences of the treatment diagram with an ITT variable.

    A: the natural value of treatment is independent of the regime.
    B: the outcome block is independent of the natural value and the regime
    given the applied treatment. B decomposes into a consistency part
    (idle versus matching intervention) and an ignorability part (natural
    value irrelevant inside a fixed intervention); the agreement condition
    with the natural value marginalized out is reported as well, since it can
    hold spuriously while ignorability fails.
    """
    for name in (itt, applied):
        if name not in set(k.dag.vertices):
            raise UnknownVertex(name)
    if indicator not in k.indicators:
        raise UnknownVertex(indicator)
    if itt == applied:
        raise InvalidQuery("ITT and applied-treatment variables must differ")
    outcome = tuple(v for v in k.dag.order if v not in {itt, applied})
    if not outcome:
        raise InvalidQuery("no outcome variables besides the treatment pair")
    others = tuple(f for f in k.indicators if f != indicator)
    statements = {
        "A": EciStatement((itt,), (indicator,), others),
        "B": EciStatement(outcome, (itt, indicator), (applied,) + others),
        "B_consistency": EciStatement(outcome, (indicator,), (itt, applied) + others),
        "B_ignorability": EciStatement(outcome, (itt,), (applied, indicator) + others, (indicator,)),
        "B_no_itt": EciStatement(outcome, (indicator,), (applied,) + others),
    }
    report = CheckReport("dawid-ab", True)
    for name in ("A", "B", "B_consistency", "B_ignorability", "B_no_itt"):
        sub = check_eci(k, statements[name])
        report.skipped += sub.skipped
        report.details.append(
            {
                "condition": name,
                "statement": statements[name].describe(),
                "holds": sub.holds,
                "witnesses": sub.witnesses[:1],
            }
        )
        if name in ("A", "B") and not sub.holds:
            report.holds = False
            report.witnesses.extend({"condition": name, **w} for w in sub.witnesses[:1])
    return report


def bernoulli_pair(px: Fraction, py: Fraction, names=("X", "Y")) -> FiniteDistribution:
    """Law of two independent binary variables with P(X=1)=px and P(Y=1)=py."""
    mass = {
        (x, y): (px if x == 1 else 1 - px) * (py if y == 1 else 1 - py)
        for x in (0, 1)
        for y in (0, 1)
    }
    return FiniteDistribution([(names[0], 2), (names[1], 2)], mass)


def build_intersection_counterexample(
    p_minus: FiniteDistribution, p_plus: FiniteDistribution
) -> tuple[RegimeKernel, CheckReport]:
    """Two sign-locked indicators defeat the intersection implication.

    The regime pair ranges over the eight same-sign value pairs; negative
    pairs select one law, positive pairs the other. Each single-indicator
    independence given the other holds because the conditioning pins the
    sign, yet the joint independence fails whenever the two conditional laws
    differ.
    """
    if p_minus.variables != p_plus.variables or len(p_minus.variables) != 2:
        raise InvalidDocument("expected two laws over the same pair of variables")
    x_name, y_name = p_minus.names
    t_minus = p_minus.conditional((y_name,), (x_name,))
    t_plus = p_plus.conditional((y_name,), (x_name,))
    if rows_equal(t_minus.row_keys, t_plus.row_keys)[0]:
        raise NotACounterexample("the conditional laws agree on every defined row")
    dag = Dag([x_name, y_name], [(x_name, y_name)])
    space = [(-2, -2), (-2, -1), (-1, -2), (-1, -1), (1, 1), (1, 2), (2, 1), (2, 2)]
    members = {f: (p_minus if f[0] < 0 else p_plus) for f in space}
    kernel = RegimeKernel(dag, p_minus.cards, ("A", "B"), (None, None), space, members)
    single_a = check_eci(kernel, EciStatement((y_name,), ("A",), ("B", x_name)))
    single_b = check_eci(kernel, EciStatement((y_name,), ("B",), ("A", x_name)))
    joint = check_eci(kernel, EciStatement((y_name,), ("A", "B"), (x_name,)))
    report = CheckReport(
        "intersection-counterexample",
        single_a.holds and single_b.holds and not joint.holds,
    )
    report.details = [
        {"statement": "Y _||_ A | B, X", "holds": single_a.holds},
        {"statement": "Y _||_ B | A, X", "holds": single_b.holds},
        {"statement": "Y _||_ A, B | X", "holds": joint.holds, "witnesses": joint.witnesses[:1]},
    ]
    if joint.witnesses:
        report.witnesses = joint.witnesses[:1]
    return kernel, report


# -- constrained regime spaces ------------------------------------------------


def check_move_to_idle(space: Sequence[Regime]) -> CheckReport:
    """Every non-idle regime can idle one coordinate and stay in the space.

    When the condition holds, a full idle-reduction sequence is emitted for
    each regime; otherwise the first blocking regime is reported.
    """
    space = [tuple(f) for f in space]
    if not space:
        raise NoIdleRegime("regime space is empty")
    arity = len(space[0])
    if any(len(f) != arity for f in space):
        raise InvalidDocument("regimes have inconsistent arity")
    idle = tuple(IDLE for _ in range(arity))
    if idle not in set(space):
        raise NoIdleRegime("the all-idle regime is missing from the space")
    members = set(space)

    def step(f: Regime):
        for j, value in enumerate(f):
            if value is IDLE:
                continue
            idled = f[:j] + (IDLE,) + f[j + 1 :]
            if idled in members:
                return idled
        return None

    report = CheckReport("move-to-idle", True)
    for f in sorted(members, key=_regime_sort_key):
        if f == idle:
            continue
        seq = [f]
        cur = f
        while cur != idle:
            nxt = step(cur)
            if nxt is None:
                report.holds = False
                report.witnesses.append({"blocking": _regime_text(cur)})
                seq = None
                break
            seq.append(nxt)
            cur = nxt
        if seq is not None:
            report.details.append(
                {"regime": _regime_text(f), "reduction": [_regime_text(g) for g in seq]}
            )
        if not report.holds:
            break
    return report


def _regime_text(f: Regime) -> list:
    return ["idle" if v is IDLE else v for v in f]


def derive_joint_independence(k: RegimeKernel, W: Iterable[str]) -> CheckReport:
    """Per-coordinate regime independence implies joint regime independence.

    Requires the move-to-idle condition on the regime space. The premise is
    one statement per indicator (the law of W does not move when only that
    coordinate changes); when every premise holds the joint claim is verified
    exhaustively across the whole space.
    """
    W = tuple(sorted(dict.fromkeys(W), key=k.dag.rank))  # rank raises UnknownVertex
    if not W:
        raise InvalidQuery("W must be non-empty")
    mti = check_move_to_idle(k.regime_space)
    report = CheckReport("joint-regime-independence", True)
    if not mti.holds:
        report.holds = False
        report.notes.append("move-to-idle precondition fails")
        report.details.append({"precondition": "failed", "witnesses": mti.witnesses})
        return report
    space = sorted(k.regime_space, key=_regime_sort_key)
    marg = {f: k.member(f).marginal(W) for f in space}
    for j, name in enumerate(k.indicators):
        moved = next(
            (
                (f, g)
                for f, g in itertools.combinations(space, 2)
                if f[:j] + f[j + 1 :] == g[:j] + g[j + 1 :] and f[j] != g[j] and marg[f] != marg[g]
            ),
            None,
        )
        if moved is not None:
            report.details.append(
                {
                    "indicator": name,
                    "premise": "failed",
                    "pair": [_regime_text(f) for f in moved],
                }
            )
            report.holds = False
            report.notes.append("a per-coordinate premise fails; no joint claim is made")
            return report
        report.details.append({"indicator": name, "premise": "holds"})
    reference = marg[space[0]]
    for f in space:
        if marg[f] != reference:
            report.holds = False
            report.witnesses.append(
                {"pair": [_regime_text(space[0]), _regime_text(f)]}
            )
            return report
    report.details.append({"conclusion": "holds", "statement": f"{', '.join(W)} _||_ all indicators"})
    return report


# -- front-door demonstration --------------------------------------------


def solid_ecis(dag: Dag, indicator_children: Mapping[str, Sequence[str]]) -> list[EciStatement]:
    """Per-vertex independences of the diagram with every edge kept solid.

    Indicators behave as roots preceding every stochastic vertex: a vertex's
    statement conditions on its parents (stochastic plus indicator) and
    asserts independence from every other predecessor and indicator.
    """
    inds = tuple(indicator_children)
    out = []
    for v in dag.order:
        pa = dag.parents(v)
        pre = dag.predecessors(v)
        ind_parents = tuple(f for f in inds if v in set(indicator_children[f]))
        ind_other = tuple(f for f in inds if f not in ind_parents)
        right = tuple(u for u in dag.order if u in pre - pa) + ind_other
        given = tuple(u for u in dag.order if u in pa) + ind_parents
        if not right:
            continue
        out.append(EciStatement((v,), right, given))
    return out


def materialize_applied(k: RegimeKernel, target: str, itt_name: str, applied_name: str) -> RegimeKernel:
    """Add the applied-treatment column as an explicit deterministic variable.

    The natural-value variable is renamed to ``itt_name``; the new column
    equals it under the idle regime and equals the intervened value
    otherwise. The indicator is re-tied to the applied column.
    """
    if not k.tied:
        raise InvalidQuery("materialization needs target-tied indicators")
    if target not in set(k.dag.targets):
        raise UnknownVertex(target)
    collisions = (set(k.dag.vertices) - {target}) & {applied_name, itt_name}
    if collisions or applied_name == itt_name:
        raise InvalidDocument("materialized names collide with existing variables")
    j = k.target_index(target)
    dag = k.dag
    rename = {v: (itt_name if v == target else v) for v in dag.vertices}
    order = []
    for v in dag.order:
        order.append(rename[v])
        if v == target:
            order.append(applied_name)
    edges = [(rename[a], rename[b]) for a, b in sorted(dag.edges) if a != target]
    edges += [(itt_name, applied_name)]
    edges += [(applied_name, rename[b]) for a, b in sorted(dag.edges) if a == target]
    targets = [applied_name if t == target else t for t in dag.targets]
    dag5 = Dag(order, edges, targets, order)
    cards = {rename[v]: k.cards[v] for v in dag.vertices}
    cards[applied_name] = k.cards[target]
    t_pos = dag.order.index(target)
    members = {}
    for f in k.regime_space:
        src = k.member(f)
        mass = {}
        for cell, p in src.support():
            applied = cell[t_pos] if f[j] is IDLE else f[j]
            new_cell = []
            for v, s in zip(dag.order, cell):
                new_cell.append(s)
                if v == target:
                    new_cell.append(applied)
            mass[tuple(new_cell)] = p
        members[f] = FiniteDistribution(tuple((v, cards[v]) for v in dag5.order), mass)
    return RegimeKernel(
        dag5,
        cards,
        k.indicators,
        tuple(applied_name if t == target else t for t in k.tied_targets),
        k.regime_space,
        members,
        {"itt": itt_name, "applied": applied_name, "indicator": k.indicators[j]},
    )


def _frontdoor_kernel(
    h_weight: Fraction,
    itt_rows: Mapping[int, Fraction],
    med_rows: Mapping[int, Fraction],
    out_rows: Mapping[tuple[int, int], Fraction],
) -> RegimeKernel:
    """Five-variable sharp treatment kernel written out mechanism by mechanism.

    The applied treatment equals the natural value under the idle regime and
    the intervened value otherwise; all other mechanisms are shared across
    regimes.
    """
    order = ("H", "Tstar", "T", "M", "Y")
    dag = Dag(
        order,
        [("H", "Tstar"), ("Tstar", "T"), ("T", "M"), ("M", "Y"), ("H", "Y")],
        targets=("T",),
        order=order,
    )
    cards = {v: 2 for v in order}
    members = {}
    for regime in (IDLE, 0, 1):
        mass = {}
        for h, tstar, m, y in product_cells([2, 2, 2, 2]):
            t = tstar if regime is IDLE else regime
            ph = h_weight if h == 1 else 1 - h_weight
            pt = itt_rows[h] if tstar == 1 else 1 - itt_rows[h]
            pm = med_rows[t] if m == 1 else 1 - med_rows[t]
            py = out_rows[(m, h)] if y == 1 else 1 - out_rows[(m, h)]
            mass[(h, tstar, t, m, y)] = ph * pt * pm * py
        members[(regime,)] = FiniteDistribution(tuple((v, 2) for v in order), mass)
    return RegimeKernel.for_targets(dag, cards, members, roles={"itt": "Tstar", "applied": "T", "indicator": "F_T"})


def _leaky_kernel(sharp: RegimeKernel, eps: Fraction) -> RegimeKernel:
    """Intervention that misses with probability ``eps``, leaving the natural
    value applied: each member is ``(1 - eps) * sharp + eps * idle``."""
    idle = sharp.member(sharp.idle_regime())
    members = {}
    for f in sharp.regime_space:
        mass = {cell: (1 - eps) * p for cell, p in sharp.member(f).support()}
        for cell, p in idle.support():
            mass[cell] = mass.get(cell, ZERO) + eps * p
        members[f] = FiniteDistribution(idle.variables, mass)
    return RegimeKernel.for_targets(sharp.dag, sharp.cards, members, sharp.regime_space, sharp.roles)


def frontdoor_demo() -> dict:
    """Contrast a sharp treatment kernel with a leaky-intervention variant.

    Both kernels share the mediator structure (treatment affects the outcome
    only through the mediator, with an unobserved common cause of treatment
    and outcome) and both satisfy every independence read off the diagram
    with all edges solid. Only the sharp kernel, where the applied value is a
    deterministic function of the natural value and the regime, satisfies the
    context-specific independence of the outcome from the regime given the
    mediator under non-idle regimes. The leaky mixing weight is found by a
    small deterministic search and verified by enumeration.
    """
    h_weight = Fraction(2, 5)
    itt_rows = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    med_rows = {0: Fraction(1, 5), 1: Fraction(4, 5)}
    out_rows = {
        (0, 0): Fraction(1, 6),
        (0, 1): Fraction(1, 2),
        (1, 0): Fraction(1, 3),
        (1, 1): Fraction(5, 6),
    }
    base = Dag(
        ("H", "T", "M", "Y"),
        [("H", "T"), ("H", "Y"), ("T", "M"), ("M", "Y")],
        targets=("T",),
    )
    direct = _frontdoor_kernel(h_weight, itt_rows, med_rows, out_rows)
    # under the idle regime the applied column copies the natural one
    p4 = direct.member((IDLE,)).marginal(base.order)
    sharp = materialize_applied(
        family_to_kernel(build_ffrcistg(base, base.targets, p4)), "T", "Tstar", "T"
    )
    if any(sharp.member(f) != direct.member(f) for f in sharp.regime_space):
        raise InvalidQuery("transported kernel disagrees with its direct construction")
    solid = solid_ecis(sharp.dag, {"F_T": ("T",)})
    context_stmt = EciStatement(("Y",), ("F_T",), ("M",), ("F_T",))

    def evaluate(kernel):
        solid_reports = [check_eci(kernel, s) for s in solid]
        context = check_eci(kernel, context_stmt)
        return solid_reports, context

    sharp_solid, sharp_context = evaluate(sharp)

    for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        leaky = _leaky_kernel(sharp, eps)
        leaky_solid, leaky_context = evaluate(leaky)
        if all(r.holds for r in leaky_solid) and not leaky_context.holds:
            break
    else:
        raise InvalidQuery("no leaky mechanism found in the search grid")

    graph = instantiate_regime(augment(base), {"T": 1})
    separation = graph.d_separated(
        [Node("Y")], [Node(indicator_name("T"), fixed=True)], [Node("M")]
    )

    pattern = (
        separation.separated
        and all(r.holds for r in sharp_solid)
        and sharp_context.holds
        and all(r.holds for r in leaky_solid)
        and not leaky_context.holds
    )
    return {
        "pattern_reproduced": pattern,
        "d_separation": separation,
        "sharp": {"solid": sharp_solid, "context_specific": sharp_context, "kernel": sharp},
        "leaky": {
            "solid": leaky_solid,
            "context_specific": leaky_context,
            "kernel": leaky,
            "mix_weight": eps,
        },
    }
