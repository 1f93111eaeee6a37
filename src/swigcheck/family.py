"""Counterfactual families and their exact checkers.

A counterfactual family maps interventions (a target subset together with an
assignment of values) to joint laws over all model variables. The member for
the empty intervention is the observational law. Checkers verify, by full
enumeration over exact rationals:

* distributional consistency: intervening on a variable at the value it was
  about to take anyway leaves the joint law of everything else unchanged;
* the split-graph local Markov property: after intervening everywhere, each
  variable given its predecessors depends only on its parents, with
  intervened parents entering through their assigned values;
* derived consequences (vector and conditional forms of consistency,
  irrelevance of future interventions, the conditioning-chain reductions);
* the ordinary ordered local Markov property for a single law.

``build_ffrcistg`` constructs the unique family compatible with a positive
observational law via the extended g-formula.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .dist import (
    ConditionalTable,
    FiniteDistribution,
    depends_only_on,
    diagonal_mismatches,
    document_int,
    product_cells,
    rows_equal,
)
from .errors import (
    IncompleteFamily,
    InvalidDocument,
    InvalidQuery,
    NotIdentified,
    UnknownVertex,
)
from .graph import Dag, parse_dag, serialize_dag, validate_assignment
from .reporting import CheckReport
from .swig import markov_statement, require_targets

InterventionKey = tuple[tuple[str, int], ...]


def intervention_key(order: Sequence[str], intervention: Mapping[str, int]) -> InterventionKey:
    """Canonical key: assigned pairs sorted by the vertex order."""
    rank = {v: i for i, v in enumerate(order)}
    for v in intervention:
        if v not in rank:
            raise UnknownVertex(v)
    pairs = ((v, document_int(s, f"state index of {v!r}")) for v, s in intervention.items())
    return tuple(sorted(pairs, key=lambda kv: rank[kv[0]]))


class CounterfactualFamily:
    """Map from interventions on subsets of the targets to joint laws."""

    __slots__ = ("dag", "cards", "members", "observed_markov")

    def __init__(self, dag: Dag, cardinalities: Mapping[str, int], members):
        cards = graph_cardinalities(dag, cardinalities)
        canon: dict[InterventionKey, FiniteDistribution] = {}
        for intervention, dist in (members.items() if isinstance(members, Mapping) else members):
            key = intervention_key(dag.order, dict(intervention))
            for v, s in key:
                if v not in set(dag.targets):
                    raise InvalidDocument(f"intervention on non-target {v!r}")
                if not 0 <= s < cards[v]:
                    raise InvalidDocument(f"state {s} out of range for target {v!r}")
            dist = graph_member(dag, cards, dict(key), dist)
            if key in canon:
                raise InvalidDocument(f"duplicate member for intervention {dict(key)}")
            canon[key] = dist
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "members", canon)
        object.__setattr__(self, "observed_markov", None)

    def __setattr__(self, name, value):
        raise AttributeError("CounterfactualFamily instances are immutable")

    def member(self, intervention: Mapping[str, int]) -> FiniteDistribution:
        key = intervention_key(self.dag.order, intervention)
        if key not in self.members:
            raise IncompleteFamily(dict(key))
        return self.members[key]

    def observed(self) -> FiniteDistribution:
        return self.member({})

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        entries = sorted(self.members.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {
            "graph": serialize_dag(self.dag),
            "cardinalities": dict(self.cards),
            "members": [
                {"intervention": {v: s for v, s in key}, "dist": dist.to_json()}
                for key, dist in entries
            ],
        }

    @classmethod
    def from_json(cls, document, base_dir=None) -> "CounterfactualFamily":
        document, dag, members = read_spec(document, base_dir, "family", "intervention", lambda dag, iv: iv)
        return cls(dag, document.get("cardinalities"), members)


# -- helpers -------------------------------------------------------------


def graph_cardinalities(dag: Dag, cardinalities) -> dict[str, int]:
    """Cardinality of every vertex in graph order; each must be a positive integer."""
    if not isinstance(cardinalities, Mapping):
        raise InvalidDocument("'cardinalities' must be an object naming every vertex")
    missing = set(dag.vertices) - set(cardinalities)
    if missing:
        raise InvalidDocument(f"cardinalities missing for {sorted(missing)}")
    cards = {v: document_int(cardinalities[v], f"cardinality of {v!r}") for v in dag.order}
    if any(k < 1 for k in cards.values()):
        raise InvalidDocument(f"cardinalities must be positive: {cards}")
    return cards


def graph_member(dag: Dag, cards: Mapping[str, int], label, dist: FiniteDistribution) -> FiniteDistribution:
    """Member law over all model variables, reordered to the graph order and
    checked against the declared cardinalities."""
    if set(dist.names) != set(dag.vertices):
        raise InvalidDocument(f"member {label} is not a law over all model variables")
    dist = dist.reorder(dag.order)
    expected = tuple((v, cards[v]) for v in dag.order)
    if dist.variables != expected:
        raise InvalidDocument(f"member {label} has cardinalities {dist.variables}, expected {expected}")
    return dist


def read_json_file(path):
    """JSON document stored at ``path``; a file that cannot be read, or is
    not UTF-8 JSON text, is an invalid document."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from None


def load_graph_field(value, base_dir=None):
    """Inline graph documents pass through; strings are paths to one."""
    if value is None:
        raise InvalidDocument("spec lacks 'graph'")
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return read_json_file(path)
    return value


def read_spec(document, base_dir, kind: str, key: str, read_key, extra_fields=()):
    """Body shared by the family and kernel ``from_json`` readers.

    Returns the document object, its graph, and one ``(read_key(dag, key
    object), law)`` pair per member entry. Each entry must hold exactly
    ``key`` and ``dist``, with an object under ``key``.
    """
    if not isinstance(document, Mapping):
        raise InvalidDocument(f"{kind} spec must be a JSON object")
    unknown = set(document) - {"graph", "cardinalities", "members", *extra_fields}
    if unknown:
        raise InvalidDocument(f"unexpected {kind} fields: {sorted(unknown)}")
    dag = parse_dag(load_graph_field(document.get("graph"), base_dir))
    entries = document.get("members", [])
    if not isinstance(entries, (list, tuple)):
        raise InvalidDocument(f"'members' must be a list, got {entries!r}")
    members = []
    for entry in entries:
        if not isinstance(entry, Mapping) or set(entry) != {key, "dist"} or not isinstance(entry[key], Mapping):
            raise InvalidDocument(f"bad {kind} member entry: {entry!r}")
        members.append((read_key(dag, entry[key]), FiniteDistribution.from_json(entry["dist"])))
    return document, dag, members


def sub_interventions(targets: Sequence[str], cards: Mapping[str, int]) -> Iterable[dict[str, int]]:
    """Every assignment to every subset of ``targets``, smallest subset first."""
    for r in range(len(targets) + 1):
        for D in itertools.combinations(targets, r):
            for values in _value_cells(cards, D):
                yield _as_dict(D, values)


def _value_cells(cards: Mapping[str, int], names: Sequence[str]):
    return product_cells([cards[n] for n in names])


def _as_dict(names: Sequence[str], values: Sequence[int]) -> dict[str, int]:
    return dict(zip(names, values))


def _check_disjoint_targets(fam: CounterfactualFamily, B, C):
    A = set(fam.dag.targets)
    B, C = tuple(B), tuple(C)
    if not set(B) <= A or not set(C) <= A:
        raise InvalidQuery("B and C must be subsets of the targets")
    if set(B) & set(C):
        raise InvalidQuery("B and C must be disjoint")
    return B, C


# -- checkers -------------------------------------------------------------


def _consistency_mismatches(fam: CounterfactualFamily, B: Sequence[str], contexts):
    """``(context, b, cell, lhs, rhs)`` for every context intervention, every
    assignment ``b`` to ``B`` and every cell where B takes ``b`` naturally yet
    the member that also sets B to ``b`` (``lhs``) differs from the context
    member (``rhs``), in that order."""
    order = fam.dag.order
    b_pos = [order.index(v) for v in B]
    for ctx in contexts:
        base = fam.member(ctx)
        for b in _value_cells(fam.cards, B):
            joint = fam.member({**ctx, **_as_dict(B, b)})
            for cell, lhs, rhs in diagonal_mismatches(joint, base, dict(zip(b_pos, b))):
                yield ctx, b, cell, lhs, rhs


def check_distributional_consistency(fam: CounterfactualFamily) -> CheckReport:
    """Intervening on one target at its natural value changes nothing.

    For every target, every context intervention on other targets, and every
    joint cell whose natural value of the target equals the intervened value,
    the two member laws must agree exactly.
    """
    report = CheckReport("distributional-consistency", True)
    A = fam.dag.targets
    for b_i in A:
        contexts = sub_interventions([t for t in A if t != b_i], fam.cards)
        for ctx, (b,), cell, lhs, rhs in _consistency_mismatches(fam, (b_i,), contexts):
            report.holds = False
            report.witnesses.append(
                {
                    "target": b_i,
                    "context": ctx,
                    "value": b,
                    "cell": _as_dict(fam.dag.order, cell),
                    "lhs": lhs,
                    "rhs": rhs,
                }
            )
    return report


def check_vector_consistency(fam: CounterfactualFamily, B, C) -> CheckReport:
    """Joint form of consistency for a whole target subset at once."""
    B, C = _check_disjoint_targets(fam, B, C)
    report = CheckReport("vector-consistency", True)
    contexts = (_as_dict(C, c) for c in _value_cells(fam.cards, C))
    for ctx, b, cell, lhs, rhs in _consistency_mismatches(fam, B, contexts):
        report.holds = False
        report.witnesses.append(
            {
                "B": _as_dict(B, b),
                "context": ctx,
                "cell": _as_dict(fam.dag.order, cell),
                "lhs": lhs,
                "rhs": rhs,
            }
        )
    return report


def check_conditional_consistency(fam: CounterfactualFamily, B, C, Y, W) -> CheckReport:
    """Conditional law of Y given (B at its natural values, W) is invariant
    to additionally intervening on B at those same values."""
    B, C = _check_disjoint_targets(fam, B, C)
    Y, W = tuple(Y), tuple(W)
    V = set(fam.dag.vertices)
    if not Y:
        raise InvalidQuery("Y must be non-empty")
    if (set(Y) | set(W)) - (V - set(B)):
        raise InvalidQuery("Y and W must avoid B")
    if set(Y) & set(W):
        raise InvalidQuery("Y and W must be disjoint")
    report = CheckReport("conditional-consistency", True)
    given = tuple(v for v in fam.dag.order if v in set(B) | set(W))
    for c in _value_cells(fam.cards, C):
        ctx = _as_dict(C, c)
        base_table = fam.member(ctx).conditional(Y, given)
        for b in _value_cells(fam.cards, B):
            joint_table = fam.member({**ctx, **_as_dict(B, b)}).conditional(Y, given)
            picked = _as_dict(B, b)
            # only given-cells where B takes the intervened values
            axes = [(picked[v],) if v in picked else range(fam.cards[v]) for v in given]
            for gcell in itertools.product(*axes):
                k1, k2 = joint_table.row_keys[gcell], base_table.row_keys[gcell]
                if k1 is None or k2 is None:
                    report.skipped += 1
                    continue
                if k1 != k2:
                    report.holds = False
                    report.witnesses.append(
                        {
                            "B": picked,
                            "context": ctx,
                            "given_cell": _as_dict(given, gcell),
                            "lhs": joint_table.row(gcell),
                            "rhs": base_table.row(gcell),
                        }
                    )
    return report


def reduce_interventions(fam: CounterfactualFamily, B, C, W, mode: str = "joint", Y=()) -> CheckReport:
    """Premise-then-conclusion test for dropping an intervention on B.

    Premise: the law indexed by the B-assignment does not actually vary with
    it. Conclusion: the law then equals the member where B is not intervened
    on at all. In conditional mode the compared objects are conditional
    tables of Y given W with B inside the conditioning set.
    """
    B, C = _check_disjoint_targets(fam, B, C)
    W = tuple(W)
    if mode not in ("joint", "conditional"):
        raise InvalidQuery(f"unknown mode {mode!r}")
    if not set(B) <= set(W):
        raise InvalidQuery("B must be contained in W")
    if set(W) - set(fam.dag.vertices):
        raise InvalidQuery("W must be a subset of the vertices")
    Y = tuple(Y)
    if mode == "conditional":
        if not Y:
            raise InvalidQuery("conditional mode requires a non-empty Y")
        if set(Y) & set(W):
            raise InvalidQuery("Y and W must be disjoint")
    report = CheckReport(f"reduce-interventions-{mode}", True)
    w_ordered = tuple(v for v in fam.dag.order if v in set(W))
    # each mode's compared object, and its comparison as (equal, witness
    # keys, skipped rows)
    if mode == "joint":
        law = lambda member: member.marginal(w_ordered)
        compare = lambda x, y: (x == y, {}, 0)
    else:
        law = lambda member: member.conditional(Y, w_ordered)

        def compare(x, y):
            eq, cell, skipped = rows_equal(x.row_keys, y.row_keys)
            return eq, {} if eq else {"given_cell": _as_dict(w_ordered, cell)}, skipped

    for c in _value_cells(fam.cards, C):
        ctx = _as_dict(C, c)
        entry = {"context": ctx, "premise": "holds", "conclusion": None}
        laws = {b: law(fam.member({**ctx, **_as_dict(B, b)})) for b in _value_cells(fam.cards, B)}
        first, *others = sorted(laws)
        for b in others:
            eq, why, skipped = compare(laws[first], laws[b])
            report.skipped += skipped
            if not eq:
                entry["premise"] = "failed"
                entry["witness"] = {"b": _as_dict(B, first), "b_other": _as_dict(B, b), **why}
                break
        else:
            eq, why, skipped = compare(laws[first], law(fam.member(ctx)))
            report.skipped += skipped
            entry["conclusion"] = "holds" if eq else "violated"
            if why:
                entry["witness"] = why
            report.holds = report.holds and eq
        report.details.append(entry)
    return report


def markov_rows(dag: Dag, cards: Mapping[str, int], member, v: str, prefix: str):
    """Row keys of ``v`` given its predecessors across every full assignment.

    ``member`` maps an assignment tuple (target order) to its law. Context
    cells run over the assignment (coordinates ``<prefix>:T``), then the
    predecessors' natural values (``w:U``). Also returns the context names,
    the predecessors, and the projection the graph allows.
    """
    A = dag.targets
    pre = [u for u in dag.order if u in dag.predecessors(v)]
    context_vars = [f"{prefix}:{t}" for t in A] + [f"w:{u}" for u in pre]
    rows: dict[tuple, object] = {}
    for a in _value_cells(cards, A):
        rows.update((a + w, row) for w, row in member(a).conditional((v,), pre).row_keys.items())
    pa = dag.parents(v)
    projection = {f"{prefix}:{t}" for t in pa & set(A)} | {f"w:{u}" for u in pa - set(A)}
    return rows, context_vars, pre, projection


def markov_report(check: str, dag: Dag, rows_of, annotate=None, diagnose=None) -> CheckReport:
    """One local-Markov pass: each vertex's rows must depend only on the
    projection the graph allows.

    ``rows_of(v)`` returns ``(rows, context_vars, pre, projection)`` as
    :func:`markov_rows` does. ``annotate(v)`` returns keys added to every
    vertex detail after its verdict; ``diagnose(v, rows, context_vars, pre)``
    returns keys added to a failing vertex's detail and witness after its
    witness pair.
    """
    report = CheckReport(check, True)
    for v in dag.order:
        rows, context_vars, pre, projection = rows_of(v)
        dep = depends_only_on(rows, context_vars, projection)
        report.skipped += dep.skipped
        detail = {"vertex": v, "holds": dep.holds, **(annotate(v) if annotate else {})}
        if not dep.holds:
            report.holds = False
            pair = [dict(w) for w in dep.witness]
            why = diagnose(v, rows, context_vars, pre) if diagnose else {}
            detail.update(witness=pair, **why)
            report.witnesses.append({"vertex": v, "pair": pair, **why})
        report.details.append(detail)
    return report


def check_swig_local_markov(fam: CounterfactualFamily, dag: Dag | None = None) -> CheckReport:
    """Local Markov property over the fully intervened members.

    For each vertex, the conditional law given its predecessors may depend
    only on the assigned values of intervened parents and the natural values
    of non-intervened parents.
    """
    dag = dag or fam.dag
    member = lambda a: fam.member(_as_dict(dag.targets, a))
    return markov_report(
        "swig-local-markov", dag, lambda v: markov_rows(dag, fam.cards, member, v, "a"),
        annotate=lambda v: {"dependence_set": sorted(markov_statement(dag, v).dependence_set())},
    )


def check_complete_graph_markov(fam: CounterfactualFamily) -> CheckReport:
    """Local Markov property against the complete graph over the order.

    Equivalent to requiring only a time order (no dependence on later
    interventions) and ignorability (no dependence on the natural values of
    intervened predecessors).
    """
    report = check_swig_local_markov(fam, fam.dag.complete_supergraph())
    report.check = "complete-graph-markov"
    return report


def check_no_future_effect(fam: CounterfactualFamily, k: str) -> CheckReport:
    """Interventions on targets at or after ``k`` do not move the law of the
    variables up to ``k``."""
    dag = fam.dag
    if k not in set(dag.vertices):
        raise UnknownVertex(k)
    report = CheckReport("no-future-effect", True)
    A = dag.targets
    prefix = [u for u in dag.order if dag.rank(u) <= dag.rank(k)]
    early = [t for t in A if dag.rank(t) < dag.rank(k)]
    for a in _value_cells(fam.cards, A):
        full = _as_dict(A, a)
        lhs = fam.member(full).marginal(prefix)
        sub = {t: full[t] for t in early}
        rhs = fam.member(sub).marginal(prefix)
        mismatch = next(diagonal_mismatches(lhs, rhs, {}), None)
        if mismatch is not None:
            cell, p, q = mismatch
            report.holds = False
            report.witnesses.append(
                {
                    "a": full,
                    "cell": _as_dict(prefix, cell),
                    "lhs": p,
                    "rhs": q,
                }
            )
            break
    return report


KERNEL_CHAIN_STEPS = (
    "drop-future-targets",
    "drop-nonparent-targets",
    "shrink-to-parents",
    "drop-intervened-parents",
)


def kernel_chain_check(fam: CounterfactualFamily, dag: Dag, i: str, a: Mapping[str, int]) -> CheckReport:
    """Chain of conditional-law reductions for one vertex and intervention.

    Successively: forget interventions after ``i``; forget interventions on
    non-parents; shrink the conditioning set from all predecessors to the
    parents; drop intervened parents from the random conditioning set. Each
    step is an exact equality of conditional tables on commonly defined rows.
    """
    if i not in set(dag.vertices):
        raise UnknownVertex(i)
    A = dag.targets
    require_targets(dag, a)
    a = {t: document_int(a[t], f"state index of {t!r}") for t in A}
    pre = [u for u in dag.order if u in dag.predecessors(i)]
    pa = [u for u in dag.order if u in dag.parents(i)]
    pa_minus_A = [u for u in pa if u not in set(A)]
    report = CheckReport("kernel-chain", True)

    pre_targets = {t: a[t] for t in A if dag.rank(t) < dag.rank(i)}
    pa_targets = {t: a[t] for t in A if t in set(pa)}
    t_full = fam.member(a).conditional((i,), pre)
    t_pre = fam.member(pre_targets).conditional((i,), pre)
    t_pa = fam.member(pa_targets).conditional((i,), pre)
    t_pa_cond = fam.member(pa_targets).conditional((i,), pa)
    t_pa_reduced = fam.member(pa_targets).conditional((i,), pa_minus_A)

    # (wide table, narrow table, positions of the wide given-cell the narrow one keeps)
    same = range(len(pre))
    chain = (
        (t_full, t_pre, same),
        (t_pre, t_pa, same),
        (t_pa, t_pa_cond, [pre.index(u) for u in pa]),
        (t_pa_cond, t_pa_reduced, [pa.index(u) for u in pa_minus_A]),
    )
    for step, (wide, narrow, kept) in zip(KERNEL_CHAIN_STEPS, chain):
        narrowed = {w: narrow.row_keys[tuple(w[j] for j in kept)] for w in wide.row_keys}
        eq, cell, sk = rows_equal(wide.row_keys, narrowed)
        report.skipped += sk
        entry = {"step": step, "holds": eq}
        if not eq:
            entry["witness"] = {"given_cell": _as_dict(wide.given_names, cell)}
            report.holds = False
            report.witnesses.append(entry)
        report.details.append(entry)
    return report


def check_observed_markov(p: FiniteDistribution, dag: Dag) -> CheckReport:
    """Ordered local Markov property of a single law with respect to a DAG."""
    if set(p.names) != set(dag.vertices):
        raise InvalidQuery("law is not over the graph vertices")

    def rows_of(v):
        pre = [u for u in dag.order if u in dag.predecessors(v)]
        return p.conditional((v,), pre).row_keys, pre, pre, dag.parents(v)

    return markov_report("observed-markov", dag, rows_of)


# -- construction ---------------------------------------------------------


def observational_cpts(p: FiniteDistribution, dag: Dag) -> dict[str, ConditionalTable]:
    return {v: p.conditional((v,), [u for u in dag.order if u in dag.parents(v)]) for v in dag.order}


def gformula_member(
    dag: Dag,
    cards: Mapping[str, int],
    cpts: Mapping[str, ConditionalTable],
    intervention: Mapping[str, int],
) -> FiniteDistribution:
    """One interventional law assembled from observational conditionals.

    Cell mass is the product over vertices of the conditional probability of
    the cell value given the parent context, where intervened parents
    contribute their assigned values instead of the cell's. The product is
    built in one sweep of the order: each nonzero prefix cell carries its
    partial product and is extended only by the states its conditional row
    gives nonzero probability, so zero-mass prefixes are pruned. Products
    are integers over the product of each vertex's lcm of row denominators.
    A needed-but-undefined conditional row aborts with the offending vertex
    and conditioning cell, for the lexicographically first full cell that
    needs it.
    """
    validate_assignment(intervention, cards)
    order = dag.order
    pos = {v: j for j, v in enumerate(order)}
    prefixes, den = {(): 1}, 1
    # (prefix, vertex, parent names, parent cell) of the least failing prefix:
    # every full cell through a failing prefix fails there, and no failing
    # prefix extends another, so the least one holds the first failing full
    # cell however deep in the sweep it is met
    failure = None
    for v in order:
        parents = [u for u in order if u in dag.parents(v)]
        slots = [(True, intervention[u]) if u in intervention else (False, pos[u]) for u in parents]
        keys = cpts[v].row_keys
        d_v = math.lcm(*(key[0] for key in keys.values() if key is not None))
        den *= d_v
        extended = {}
        for prefix, acc in prefixes.items():
            parent_cell = tuple(x if is_fixed else prefix[x] for is_fixed, x in slots)
            key = keys.get(parent_cell)
            if key is None:
                if failure is None or prefix < failure[0]:
                    failure = (prefix, v, parents, parent_cell)
                continue
            acc *= d_v // key[0]
            for (s,), n in key[1:]:
                extended[prefix + (s,)] = acc * n
        prefixes = extended
    if failure is not None:
        _, v, parents, parent_cell = failure
        cpts[v].row(parent_cell)  # a given-cell outside the table raises InvalidQuery
        raise NotIdentified(v, _as_dict(parents, parent_cell))
    variables = tuple((v, cards[v]) for v in order)
    return FiniteDistribution(variables, {cell: (n, den) for cell, n in prefixes.items()}, _parsed=True)


def build_ffrcistg(dag: Dag, targets, p: FiniteDistribution) -> CounterfactualFamily:
    """Family over every target subset defined by the extended g-formula.

    The observational law should be strictly positive; when it is not, any
    intervention that needs an undefined conditional row raises
    :class:`NotIdentified`. If ``p`` fails the ordinary Markov property for
    the graph the construction still runs; the failure is attached to the
    returned family as ``observed_markov``.
    """
    if targets is not None and set(targets) != set(dag.targets):
        raise InvalidQuery(f"targets must be None or the graph's targets {list(dag.targets)}")
    if set(p.names) != set(dag.vertices):
        raise InvalidQuery("law is not over the graph vertices")
    p = p.reorder(dag.order)
    cards = p.cards
    cpts = observational_cpts(p, dag)
    members = [(iv, gformula_member(dag, cards, cpts, iv)) for iv in sub_interventions(dag.targets, cards)]
    fam = CounterfactualFamily(dag, cards, members)
    object.__setattr__(fam, "observed_markov", check_observed_markov(p, dag))
    return fam
