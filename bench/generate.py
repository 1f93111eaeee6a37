"""Seeded benchmark inputs whose correct answers are known by construction.

Every law is generated from explicit conditional probability tables (CPTs)
that the generator keeps. Interventional members come from the truncated
factorization of those CPTs, never from swigcheck, so the construction
soundness of the extended g-formula fixes what every checker must answer.
Graph workloads carry their own d-separation oracle (moralized ancestral
graph) and the expected shape of every split graph and listing.

Nothing here imports swigcheck; the workloads turn these plain structures
into program inputs.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction


def product_cells(cards):
    return itertools.product(*(range(k) for k in cards))


def subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# -- random DAGs ---------------------------------------------------------------


def random_graph(rng: random.Random, n: int, n_targets: int, max_parents: int):
    """Vertices V0..V{n-1} in topological order; vertex j draws exactly
    min(j, max_parents) parents among earlier vertices, so the work a model
    costs depends on its dimensions, not on the luck of the draw."""
    names = [f"V{i}" for i in range(n)]
    parents = {v: [] for v in names}
    for j in range(1, n):
        for i in sorted(rng.sample(range(j), min(j, max_parents))):
            parents[names[j]].append(names[i])
    # targets exclude the last vertex, which could have no children to affect
    targets = sorted(rng.sample(range(n - 1), n_targets))
    return names, parents, [names[i] for i in targets]


# -- models with known CPTs ------------------------------------------------------


@dataclass
class Model:
    """A DAG with per-vertex CPTs stored as integer weights over a row total."""

    names: list
    parents: dict
    targets: list
    card: int
    cpt: dict = field(default_factory=dict)  # v -> {parent cell: (weights, total)}

    @property
    def edges(self):
        return [(u, v) for v in self.names for u in self.parents[v]]

    @property
    def cards(self):
        return {v: self.card for v in self.names}

    def interventions(self):
        """Every assignment to every subset of the targets, smallest first."""
        for D in subsets(self.targets):
            for d in product_cells([self.card] * len(D)):
                yield dict(zip(D, d))

    def member(self, intervention) -> dict:
        """Truncated factorization: cell -> (numerator, denominator), nonzero only.

        Every vertex keeps its own natural-value factor; intervened parents
        enter the factors of their children through the assigned value.
        """
        idx = {v: i for i, v in enumerate(self.names)}
        slots = [
            (self.cpt[v], i, [(intervention[u], None) if u in intervention else (None, idx[u]) for u in self.parents[v]])
            for i, v in enumerate(self.names)
        ]
        out = {}
        for cell in product_cells([self.card] * len(self.names)):
            num, den = 1, 1
            for table, i, sources in slots:
                pcell = tuple(c if c is not None else cell[j] for c, j in sources)
                weights, total = table[pcell]
                num *= weights[cell[i]]
                if not num:
                    break
                den *= total
            if num:
                out[cell] = (num, den)
        return out

    def joint(self) -> dict:
        return {cell: Fraction(n, d) for cell, (n, d) in self.member({}).items()}


ZERO_ROWS = 2


def random_row(rng: random.Random, card: int, zero: bool):
    if card == 2:
        k = rng.randint(1, 9)
        weights = [10 - k, k]
        if zero:
            weights = [10, 0] if rng.random() < 0.5 else [0, 10]
        return weights, 10
    weights = [rng.randint(1, 9) for _ in range(card)]
    if zero:
        weights[rng.randrange(card)] = 0
    return weights, sum(weights)


def random_model(rng, n, n_targets, card=2, max_parents=2, zeros=False) -> Model:
    """Random law factorizing along a random DAG.

    Without ``zeros`` every CPT entry is positive, so the law is strictly
    positive. With ``zeros`` the row p(V1 | V0 = 0) puts no mass on V1 = 1
    and ZERO_ROWS more rows of early vertices get a zero entry, so
    conditioning events of probability zero, and hence skipped rows, are
    guaranteed while the support density stays comparable across seeds.
    """
    names, parents, targets = random_graph(rng, n, n_targets, max_parents)
    m = Model(names, parents, targets, card)
    for v in names:
        m.cpt[v] = {pcell: random_row(rng, card, False) for pcell in product_cells([card] * len(parents[v]))}
    if zeros:
        # V1 always has V0 as its only parent (see random_graph)
        row = [1] * card
        row[1] = 0
        m.cpt["V1"][(0,)] = (row, card - 1)
        early = [(v, pcell) for v in names[2 : n // 2 + 1] for pcell in m.cpt[v]]
        for v, pcell in rng.sample(early, min(ZERO_ROWS, len(early))):
            m.cpt[v][pcell] = random_row(rng, card, True)
    return m


def varying_edge(rng: random.Random, m: Model):
    """An edge u->v whose CPT of v differs across u, forcing one if needed."""
    candidates = [(u, v) for v in m.names for u in m.parents[v]]
    u, v = candidates[rng.randrange(len(candidates))]
    slot = m.parents[v].index(u)
    table = m.cpt[v]
    pcell = next(iter(table))
    other = pcell[:slot] + (1 - pcell[slot],) + pcell[slot + 1 :]
    while table[pcell] == table[other]:
        table[other] = random_row(rng, m.card, False)
    return u, v


# -- documents ----------------------------------------------------------------


def graph_doc(m: Model, drop=None) -> dict:
    edges = [[u, v] for u, v in m.edges if (u, v) != drop]
    return {"vertices": list(m.names), "edges": edges, "targets": list(m.targets), "order": list(m.names)}


def dist_doc(m: Model, member: dict) -> dict:
    return {
        "variables": {v: m.card for v in m.names},
        "entries": [{"cell": list(cell), "p": str(Fraction(n, d))} for cell, (n, d) in sorted(member.items())],
    }


def family_doc(m: Model, drop=None) -> dict:
    return {
        "graph": graph_doc(m, drop),
        "cardinalities": m.cards,
        "members": [{"intervention": iv, "dist": dist_doc(m, m.member(iv))} for iv in m.interventions()],
    }


def kernel_doc(m: Model, drop=None) -> dict:
    return {
        "graph": graph_doc(m, drop),
        "cardinalities": m.cards,
        "members": [
            {"regime": {t: iv.get(t) for t in m.targets}, "dist": dist_doc(m, m.member(iv))}
            for iv in m.interventions()
        ],
    }


FAMILY_CHECKS = ("distributional-consistency", "swig-local-markov", "observed-markov", "complete-graph-markov")
KERNEL_CHECKS = ("kernel-consistency", "augmented-markov", "observed-markov")
MARKOV_CHECKS = {"swig-local-markov", "augmented-markov", "observed-markov"}


def check_case(rng, doc_kind, variant, n, n_targets, card, max_parents):
    """One model file and the verdicts it must produce under ``--mode all``.

    ``holds`` and ``zeros`` files satisfy every check by construction
    soundness. A ``fails`` file drops an edge u->v whose CPT of v varies with
    u, so the Markov checks must fail with a witness while consistency and
    the complete-graph check, which ignore the missing edge, still hold.
    """
    m = random_model(rng, n, n_targets, card, max_parents, zeros=variant == "zeros")
    drop = varying_edge(rng, m) if variant == "fails" else None
    make, names = (family_doc, FAMILY_CHECKS) if doc_kind == "family" else (kernel_doc, KERNEL_CHECKS)
    verdicts = {name: not (drop and name in MARKOV_CHECKS) for name in names}
    expected = {
        "exit": 1 if drop else 0,
        "verdicts": verdicts,
        "skips": {"observed-markov"} if variant == "zeros" else set(),
    }
    return make(m, drop), expected


# -- graph queries --------------------------------------------------------------


def moral_separated(parents: dict, x: set, y: set, z: set) -> bool:
    """Plain d-separation through the moralized ancestral graph."""
    anc = set()
    stack = list(x | y | z)
    while stack:
        v = stack.pop()
        if v not in anc:
            anc.add(v)
            stack.extend(parents[v])
    adj = {v: set() for v in anc}
    for v in anc:
        ps = parents[v]
        for p in ps:
            adj[v].add(p)
            adj[p].add(v)
        for a, b in itertools.combinations(ps, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = set(x)
    queue = deque(x)
    while queue:
        v = queue.popleft()
        if v in y:
            return False
        for u in adj[v]:
            if u not in seen and u not in z:
                seen.add(u)
                queue.append(u)
    return True


def split_separated(parents: dict, fixed_nodes: set, x, y, z) -> bool:
    """d-separation on a split graph read as an ordinary DAG: fixed nodes
    that are not endpoints count as conditioned (they are sources, so they
    can never be colliders and the reduction is exact)."""
    x, y = set(x), set(y)
    return moral_separated(parents, x, y, set(z) | (fixed_nodes - x - y))


def fixed(name: str) -> str:
    return "fixed:" + name


def indicator(t: str) -> str:
    return "fixed:F_" + t


@dataclass
class GraphCase:
    """One DAG with every expected answer the graph-queries workload checks."""

    names: list
    parents: dict
    targets: list
    assignment: dict
    labels: dict  # scheme -> {vertex: [target, ...]}
    split_edges: set
    regimes: list  # [(regime, expected edge set)]
    statements: list  # per vertex: (given_random, given_fixed)
    queries: list  # [(side, regime index or None, x, y, z, separated)]


def _ancestral_labels(names, parents, targets):
    children = {v: [] for v in names}
    for v in names:
        for p in parents[v]:
            children[p].append(v)
    tset = set(targets)
    labels = {v: [] for v in names}
    for t in targets:
        seen, stack = set(), list(children[t])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                if v not in tset:
                    stack.extend(children[v])
        for v in seen:
            labels[v].append(t)
    return {v: [t for t in targets if t in labels[v]] for v in names}


def _draw_query(rng, randoms, fixeds):
    pool_x = fixeds if fixeds and rng.random() < 0.3 else randoms
    x = {rng.choice(pool_x)}
    y, size = set(), rng.randint(1, 2)
    while len(y) < size:
        pool = fixeds if fixeds and rng.random() < 0.2 else randoms
        y.add(rng.choice(pool))
        y -= x
    free = [v for v in randoms if v not in x | y]
    z = set(rng.sample(free, min(len(free), rng.randint(0, 5))))
    if fixeds and rng.random() < 0.2:
        z.add(rng.choice(fixeds))
        z -= x | y
    return x, y, z


def graph_case(rng, n, n_targets, queries_per_side, max_parents) -> GraphCase:
    names, parents, targets = random_graph(rng, n, n_targets, max_parents)
    tset = set(targets)
    assignment = {t: rng.randint(0, 1) for t in targets}
    rank = {v: i for i, v in enumerate(names)}
    labels = {
        "uniform": {v: list(targets) for v in names},
        "temporal": {v: [t for t in targets if rank[t] < rank[v]] for v in names},
        "ancestral": _ancestral_labels(names, parents, targets),
    }
    split_parents = {v: [fixed(p) if p in tset else p for p in parents[v]] for v in names}
    split_parents.update({fixed(t): [] for t in targets})
    split_edges = {(p, v) for v in names for p in split_parents[v]}

    regimes = []
    regime_parents = []
    half = set(rng.sample(targets, len(targets) // 2))
    for choice in ("non-idle", "half", "idle"):
        regime = {
            t: (rng.randint(0, 1) if choice == "non-idle" or (choice == "half" and t in half) else None)
            for t in targets
        }
        active = {t for t, value in regime.items() if value is not None}
        rp = {v: [indicator(p) if p in active else p for p in parents[v]] for v in names}
        rp.update({indicator(t): [] for t in targets})
        regimes.append((regime, {(p, v) for v in names for p in rp[v]}))
        regime_parents.append(rp)

    statements = [
        ([p for p in parents[v] if p not in tset], [p for p in parents[v] if p in tset]) for v in names
    ]

    queries = []
    split_fixed = [fixed(t) for t in targets]
    for _ in range(queries_per_side):
        x, y, z = _draw_query(rng, names, split_fixed)
        queries.append(("swig", None, x, y, z, split_separated(split_parents, set(split_fixed), x, y, z)))
    indicators = [indicator(t) for t in targets]
    for q in range(queries_per_side):
        r = q % len(regimes)
        x, y, z = _draw_query(rng, names, indicators)
        sep = split_separated(regime_parents[r], set(indicators), x, y, z)
        queries.append(("augmented", r, x, y, z, sep))
    return GraphCase(names, parents, targets, assignment, labels, split_edges, regimes, statements, queries)
