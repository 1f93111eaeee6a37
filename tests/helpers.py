"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction

from hypothesis import strategies as st

from swigcheck.decision import bernoulli_pair  # noqa: F401  (re-exported for the tests)
from swigcheck.dist import FiniteDistribution, product_cells
from swigcheck.family import CounterfactualFamily
from swigcheck.graph import Dag

# -- canonical graphs -----------------------------------------------------


def chain_dag() -> Dag:
    return Dag(["A", "B", "C"], [("A", "B"), ("B", "C")], targets=["A", "B"])


def two_stage_dag() -> Dag:
    """Sequential-treatment graph with an unobserved common cause.

    Order (H, X0, Z, X1, Y); treatments X0 and X1; H confounds Z and Y's
    ancestors while X0 only affects Z.
    """
    return Dag(
        ["H", "X0", "Z", "X1", "Y"],
        [("H", "Z"), ("H", "X1"), ("X0", "Z"), ("Z", "X1"), ("Z", "Y"), ("X1", "Y")],
        targets=["X0", "X1"],
    )


def frontdoor_dag() -> Dag:
    return Dag(
        ["H", "T", "M", "Y"],
        [("H", "T"), ("H", "Y"), ("T", "M"), ("M", "Y")],
        targets=["T"],
    )


def chain_joint() -> FiniteDistribution:
    """Binary chain law with hand-picked conditionals.

    p(A=1)=1/2, p(B=1|A=0)=1/4, p(B=1|A=1)=3/4, p(C=1|B=0)=1/3, p(C=1|B=1)=2/3.
    """
    pB = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    pC = {0: Fraction(1, 3), 1: Fraction(2, 3)}
    mass = {}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                p = Fraction(1, 2)
                p *= pB[a] if b == 1 else 1 - pB[a]
                p *= pC[b] if c == 1 else 1 - pC[b]
                mass[(a, b, c)] = p
    return FiniteDistribution([("A", 2), ("B", 2), ("C", 2)], mass)


# -- random models ---------------------------------------------------------


def random_dag(rng: random.Random, max_vertices=5, require_target=True) -> Dag:
    n = rng.randint(2, max_vertices)
    names = [f"V{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    low = 1 if require_target else 0
    k = rng.randint(low, min(3, n))
    targets = rng.sample(names, k)
    return Dag(names, edges, targets)


def random_positive_joint(rng: random.Random, dag: Dag) -> FiniteDistribution:
    """Strictly positive binary law that factorizes along the graph."""
    order = dag.order
    idx = {v: i for i, v in enumerate(order)}
    cpts = {}
    for v in order:
        pa = [u for u in order if u in dag.parents(v)]
        cpts[v] = (
            pa,
            {
                cell: Fraction(rng.randint(1, 9), 10)
                for cell in product_cells([2] * len(pa))
            },
        )
    mass = {}
    for cell in product_cells([2] * len(order)):
        p = Fraction(1)
        for v in order:
            pa, table = cpts[v]
            p1 = table[tuple(cell[idx[u]] for u in pa)]
            p *= p1 if cell[idx[v]] == 1 else 1 - p1
        mass[cell] = p
    return FiniteDistribution([(v, 2) for v in order], mass)


def mutate_family(rng: random.Random, fam: CounterfactualFamily) -> tuple[CounterfactualFamily, dict]:
    """Copy of the family with one member's mass shifted at one cell."""
    keys = sorted(fam.members)
    key = keys[rng.randrange(len(keys))]
    member = fam.members[key]
    cells = list(member.cells())
    cell = cells[rng.randrange(len(cells))]
    delta = Fraction(rng.randint(1, 4), 64)
    mass = dict(member.support())
    current = mass.get(cell, Fraction(0))
    if current >= delta and rng.random() < 0.5:
        mass[cell] = current - delta
    else:
        mass[cell] = current + delta
    mutated = FiniteDistribution._raw(member.variables, mass)
    members = dict(fam.members)
    members[key] = mutated
    out = CounterfactualFamily(fam.dag, fam.cards, members)
    return out, {"member": dict(key), "cell": cell, "delta": str(delta)}


@st.composite
def small_dags(draw, max_vertices=5, require_target=False):
    n = draw(st.integers(2, max_vertices))
    names = [f"V{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    low = 1 if require_target else 0
    k = draw(st.integers(low, min(3, n)))
    targets = names[:k]
    return Dag(names, edges, targets)


@st.composite
def small_distributions(draw, max_vars=3, max_card=3):
    n = draw(st.integers(1, max_vars))
    variables = [(f"X{i}", draw(st.integers(2, max_card))) for i in range(n)]
    cells = list(product_cells([k for _, k in variables]))
    weights = draw(
        st.lists(st.integers(0, 6), min_size=len(cells), max_size=len(cells)).filter(
            lambda ws: sum(ws) > 0
        )
    )
    total = sum(weights)
    mass = {c: Fraction(w, total) for c, w in zip(cells, weights) if w}
    return FiniteDistribution(variables, mass)


# -- independent d-separation oracle ----------------------------------------


def moral_dsep(dag: Dag, x, y, z) -> bool:
    """Plain d-separation decided through the moralized ancestral subgraph."""
    x, y, z = set(x), set(y), set(z)
    relevant = x | y | z
    anc = set(relevant)
    for v in relevant:
        anc |= dag.ancestors(v)
    adj = defaultdict(set)
    for a, b in dag.edges:
        if a in anc and b in anc:
            adj[a].add(b)
            adj[b].add(a)
    for v in anc:
        ps = sorted(p for p in dag.parents(v) if p in anc)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                adj[ps[i]].add(ps[j])
                adj[ps[j]].add(ps[i])
    seen = set(x) - z
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        if v in y:
            return False
        for u in adj[v]:
            if u not in seen and u not in z:
                seen.add(u)
                frontier.append(u)
    return True


def split_dsep_via_conditioning(sw, x, y, z) -> bool:
    """Independent route: plain d-separation over the split graph.

    Treating the split graph as an ordinary DAG, the fixed-node semantics
    reduce to conditioning on every fixed node that is not a query endpoint
    (fixed nodes cannot be colliders or collider ancestors, so this is an
    exact reduction). Decided through the moralization oracle.
    """
    nodes = [n.display() for n in sw.graph.nodes]
    edges = [(a.display(), b.display()) for a, b in sw.graph.edges]
    plain = Dag(nodes, edges)
    endpoints = set(x) | set(y)
    zz = {n.display() for n in z if not n.fixed}
    zz |= {n.display() for n in sw.graph.nodes if n.fixed and n not in endpoints}
    return moral_dsep(plain, {n.display() for n in x}, {n.display() for n in y}, zz)


def all_query_triples(vertices):
    """Every assignment of vertices to (x, y, z, unused) with x and y non-empty."""
    vertices = list(vertices)
    n = len(vertices)
    for code in range(4**n):
        x, y, z = set(), set(), set()
        c = code
        for v in vertices:
            bucket = c % 4
            c //= 4
            if bucket == 1:
                x.add(v)
            elif bucket == 2:
                y.add(v)
            elif bucket == 3:
                z.add(v)
        if x and y:
            yield x, y, z
