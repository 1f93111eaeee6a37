"""Split intervention graphs: node splitting, labels, and d-separation.

Splitting a DAG at its intervention targets yields a graph with two node
kinds. Random nodes keep the incoming edges of their source vertex; each
target additionally contributes a fixed node carrying the intervened value
and inheriting the outgoing edges. Fixed nodes have no incoming edges, are
never colliders, and behave as implicitly conditioned: they may appear as
endpoints of d-connecting paths but never as interior vertices.

Node identity is always the base vertex plus the full intervention context;
the labeling scheme only changes the display label.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dist import document_int
from .errors import InvalidDocument, InvalidQuery, NotATarget, UnknownNode
from .graph import Dag, parse_dag, serialize_dag

SCHEMES = ("uniform", "temporal", "ancestral")

FIXED_PREFIX = "fixed:"


@dataclass(frozen=True, order=True)
class Node:
    """A node of a split graph: a base name plus the random/fixed kind."""

    name: str
    fixed: bool = False

    def display(self) -> str:
        return FIXED_PREFIX + self.name if self.fixed else self.name


def parse_node(text: str) -> Node:
    text = text.strip()
    if text.startswith(FIXED_PREFIX):
        return Node(text[len(FIXED_PREFIX):], fixed=True)
    return Node(text)


def parse_node_set(text: str) -> tuple[Node, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_node(chunk) for chunk in text.split(","))


@dataclass(frozen=True)
class SeparationQuery:
    """Three pairwise-disjoint node sets; nodes may be random or fixed."""

    x: frozenset[Node]
    y: frozenset[Node]
    z: frozenset[Node] = frozenset()

    def __init__(self, x, y, z=()):
        object.__setattr__(self, "x", frozenset(x))
        object.__setattr__(self, "y", frozenset(y))
        object.__setattr__(self, "z", frozenset(z))
        if self.x & self.y or self.x & self.z or self.y & self.z:
            raise InvalidQuery("query node sets must be pairwise disjoint")
        if not self.x or not self.y:
            raise InvalidQuery("both endpoint sets must be non-empty")


@dataclass(frozen=True)
class SeparationResult:
    separated: bool
    witness: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        out = {"separated": self.separated}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


class SplitGraph:
    """Directed graph over random and fixed nodes supporting d-separation."""

    __slots__ = ("nodes", "edges", "_parents", "_children")

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[Node, Node]]):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise InvalidDocument("duplicate split-graph nodes")
        node_set = set(nodes)
        parents: dict[Node, set[Node]] = {n: set() for n in nodes}
        children: dict[Node, set[Node]] = {n: set() for n in nodes}
        norm = set()
        for tail, head in edges:
            if tail not in node_set or head not in node_set:
                raise UnknownNode(tail if tail not in node_set else head)
            if head.fixed:
                raise InvalidDocument(f"fixed node {head.display()} cannot have in-edges")
            parents[head].add(tail)
            children[tail].add(head)
            norm.add((tail, head))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

    def __setattr__(self, name, value):
        raise AttributeError("SplitGraph instances are immutable")

    def has_node(self, node: Node) -> bool:
        return node in self._parents

    def d_separated(self, x: Iterable[Node], y: Iterable[Node], z: Iterable[Node] = ()) -> SeparationResult:
        """d-separation with fixed nodes treated as always blocked interiors.

        Conditioning on a fixed node is a no-op (it is already implicitly
        conditioned); fixed nodes may still serve as path endpoints. On
        failure the witness is a d-connecting path in display form.
        """
        return self.query(SeparationQuery(x, y, z))

    def query(self, q: SeparationQuery) -> SeparationResult:
        x, y, z = q.x, q.y, q.z
        for node in x | y | z:
            if not self.has_node(node):
                raise UnknownNode(node.display())
        cond = {n for n in z if not n.fixed}
        # collider openers: conditioned nodes and their ancestors
        anc = set(cond)
        stack = list(cond)
        while stack:
            v = stack.pop()
            for p in self._parents[v]:
                if p not in anc:
                    anc.add(p)
                    stack.append(p)

        # states are (node, entered_via_incoming_edge)
        start = [(s, False) for s in sorted(x)]
        prev: dict[tuple[Node, bool], tuple[Node, bool] | None] = {st: None for st in start}
        queue = deque(start)
        while queue:
            state = queue.popleft()
            node, came_down = state
            if node in y:
                return SeparationResult(False, _trail(prev, state))
            moves: list[tuple[Node, bool]] = []
            if node.fixed:
                # interior fixed nodes block every trail; sources may emit
                if node in x:
                    moves = [(c, True) for c in self._children[node]]
            elif node not in cond:
                moves = [(c, True) for c in self._children[node]]
                if not came_down:
                    moves += [(p, False) for p in self._parents[node]]
                elif node in anc:
                    moves += [(p, False) for p in self._parents[node]]
            else:
                # conditioned random node: only an open collider lets the
                # trail bounce back toward parents
                if came_down:
                    moves = [(p, False) for p in self._parents[node]]
            for nxt in sorted(moves):
                if nxt not in prev:
                    prev[nxt] = state
                    queue.append(nxt)
        return SeparationResult(True, None)


def _trail(prev, state) -> tuple[str, ...]:
    path = []
    cur = state
    while cur is not None:
        path.append(cur[0].display())
        cur = prev[cur]
    return tuple(reversed(path))


class Swig:
    """A split graph together with its intervention context and labels."""

    __slots__ = ("dag", "scheme", "assignment", "graph", "labels")

    def __init__(self, dag: Dag, scheme: str, assignment, graph: SplitGraph, labels):
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "assignment", tuple(assignment))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", dict(labels))

    def __setattr__(self, name, value):
        raise AttributeError("Swig instances are immutable")

    def d_separated(self, x, y, z=()) -> SeparationResult:
        return self.graph.d_separated(x, y, z)

    def display_label(self, v: str) -> str:
        return _ulabel(v, [t for t, _ in self.labels[v]])


def symbol(vertex: str) -> str:
    """Lower-case value symbol associated with a vertex name."""
    return vertex.lower()


def split(dag: Dag, assignment: Mapping[str, int], scheme: str = "uniform") -> Swig:
    """Split every target of ``dag`` under the given intervention assignment.

    In-edges of a target attach to its random half; out-edges leave from its
    fixed half, which carries the assigned value. Labels follow the chosen
    scheme: ``uniform`` lists the whole intervention context on every random
    node, ``temporal`` only the targets strictly earlier in the vertex order,
    and ``ancestral`` only the fixed nodes that remain ancestors after the
    split.
    """
    if scheme not in SCHEMES:
        raise InvalidDocument(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    require_targets(dag, assignment)
    assign = tuple((t, document_int(assignment[t], f"state of {t!r}")) for t in dag.targets)
    graph = split_graph(dag, dag.targets, lambda t: t)

    labels: dict[str, tuple[tuple[str, int], ...]] = {}
    if scheme == "ancestral":
        reach = {t: _fixed_descendants(graph, Node(t, fixed=True)) for t in dag.targets}
    for v in dag.order:
        if scheme == "uniform":
            labels[v] = assign
        elif scheme == "temporal":
            labels[v] = tuple((t, a) for t, a in assign if dag.rank(t) < dag.rank(v))
        else:
            labels[v] = tuple((t, a) for t, a in assign if v in reach[t])
    return Swig(dag, scheme, assign, graph, labels)


def require_targets(dag: Dag, names: Iterable[str]) -> None:
    """Raise :class:`NotATarget` unless ``names`` are exactly the targets."""
    extra = set(names) - set(dag.targets)
    missing = set(dag.targets) - set(names)
    if extra or missing:
        raise NotATarget(
            f"assignment must cover exactly the targets; extra={sorted(extra)}, missing={sorted(missing)}"
        )


def split_graph(dag: Dag, split_at: Iterable[str], fixed_name) -> SplitGraph:
    """One random node per vertex and one fixed node ``fixed_name(t)`` per
    target; the out-edges of each target in ``split_at`` leave from its
    fixed node, and the other fixed nodes stay isolated."""
    split_at = set(split_at)
    nodes = [Node(v) for v in dag.order] + [Node(fixed_name(t), fixed=True) for t in dag.targets]
    tail = lambda v: Node(fixed_name(v), fixed=True) if v in split_at else Node(v)
    return SplitGraph(nodes, [(tail(u), Node(v)) for u, v in sorted(dag.edges)])


def _fixed_descendants(graph: SplitGraph, start: Node) -> set[str]:
    seen: set[Node] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for child in graph._children[node]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return {n.name for n in seen if not n.fixed}


# -- local Markov statement listings ----------------------------------


@dataclass(frozen=True)
class MarkovStatement:
    """Per-vertex conditional-independence content of the local property.

    The conditional law of ``vertex`` given its predecessors depends exactly
    on its parents: intervened parents enter through their fixed values
    (``given_fixed``) and the rest through their random values
    (``given_random``). Everything else is asserted independent: earlier
    random variables outside that set (``other_random``, which includes the
    natural values of intervened parents) and the remaining intervention
    values (``other_fixed``).
    """

    vertex: str
    given_random: tuple[str, ...]
    given_fixed: tuple[str, ...]
    other_random: tuple[str, ...]
    other_fixed: tuple[str, ...]
    context_random: tuple[str, ...]

    def dependence_set(self) -> frozenset[str]:
        return frozenset(self.given_random) | {symbol(t) for t in self.given_fixed}


def markov_statement(dag: Dag, v: str) -> MarkovStatement:
    pa = dag.parents(v)
    pre = dag.predecessors(v)
    targets = set(dag.targets)
    ordered = lambda names: tuple(u for u in dag.order if u in names)
    given_random = pa - targets
    given_fixed = pa & targets
    return MarkovStatement(
        vertex=v,
        given_random=ordered(given_random),
        given_fixed=ordered(given_fixed),
        other_random=ordered(pre - given_random),
        other_fixed=ordered(targets - pa),
        context_random=ordered(pre),
    )


def local_markov_statements(dag: Dag, format: str = "d-separation") -> list[dict]:
    """One statement per vertex, in order, as data plus a rendered form."""
    if format not in ("d-separation", "factorization"):
        raise InvalidDocument(f"unknown statement format {format!r}")
    out = []
    for v in dag.order:
        st = markov_statement(dag, v)
        if format == "d-separation":
            out.append(_render_dsep(st, dag.targets))
        else:
            out.append(_render_factorization(st, dag.targets))
    return out


def _ulabel(v: str, targets: Sequence[str]) -> str:
    args = ",".join(symbol(t) for t in targets)
    return f"{v}({args})" if args else v


def independence_text(v: str, right: Sequence[str], given: Sequence[str]) -> str:
    """``"v _||_ right | given"``; an empty right side reads ``(nothing)``."""
    text = f"{v} _||_ {', '.join(right) if right else '(nothing)'}"
    return text + f" | {', '.join(given)}" if given else text


def _render_dsep(st: MarkovStatement, targets: Sequence[str]) -> dict:
    label = lambda v: _ulabel(v, targets)
    right = [label(v) for v in st.other_random] + [symbol(t) for t in st.other_fixed]
    given = [label(v) for v in st.given_random] + [symbol(t) for t in st.given_fixed]
    text = independence_text(label(st.vertex), right, given)
    return {
        "vertex": st.vertex,
        "other_random": list(st.other_random),
        "other_fixed": list(st.other_fixed),
        "given_random": list(st.given_random),
        "given_fixed": list(st.given_fixed),
        "dependence_set": sorted(st.dependence_set()),
        "text": text,
    }


def _render_factorization(st: MarkovStatement, targets: Sequence[str]) -> dict:
    label = lambda v: _ulabel(v, targets)
    ctx = ", ".join(label(u) for u in st.context_random)
    term = f"p({label(st.vertex)}" + (f" | {ctx})" if ctx else ")")
    deps = sorted(st.dependence_set())
    text = f"{term} depends only on: {{{', '.join(deps)}}}"
    return {
        "vertex": st.vertex,
        "term": term,
        "context": list(st.context_random),
        "dependence_set": deps,
        "ignorable_random": list(st.other_random),
        "ignorable_fixed": list(st.other_fixed),
        "text": text,
    }


# -- serialization ------------------------------------------------------


def emit_dot(swig: Swig) -> str:
    """Deterministic DOT text: random nodes as ellipses, fixed nodes as boxes."""
    lines = ["digraph swig {", "  rankdir=LR;"]
    fixed_value = dict(swig.assignment)
    for v in swig.dag.order:
        lines.append(f'  "{v}" [shape=ellipse, label="{swig.display_label(v)}"];')
        if v in fixed_value:
            lines.append(
                f'  "fixed:{v}" [shape=box, label="{symbol(v)}={fixed_value[v]}"];'
            )
    for tail, head in sorted(swig.graph.edges):
        lines.append(f'  "{tail.display()}" -> "{head.display()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def swig_to_json(swig: Swig) -> dict:
    return {
        "graph": serialize_dag(swig.dag),
        "assignment": {t: a for t, a in swig.assignment},
        "scheme": swig.scheme,
        "random_nodes": [
            {"vertex": v, "label": [[t, a] for t, a in swig.labels[v]]}
            for v in swig.dag.order
        ],
        "fixed_nodes": [[t, a] for t, a in swig.assignment],
        "edges": sorted(
            [tail.display(), head.display()] for tail, head in swig.graph.edges
        ),
    }


def swig_from_json(document) -> Swig:
    """Rebuild a split graph from its dump, cross-checking the node lists."""
    if not isinstance(document, Mapping):
        raise InvalidDocument("swig dump must be a JSON object")
    dag = parse_dag(document.get("graph"))
    assignment = document.get("assignment", {})
    if not isinstance(assignment, Mapping):
        raise InvalidDocument(f"'assignment' must be an object, got {assignment!r}")
    rebuilt = split(dag, assignment, document.get("scheme", "uniform"))
    if swig_to_json(rebuilt) != dict(document):
        raise InvalidDocument("swig dump is inconsistent with its own graph spec")
    return rebuilt
