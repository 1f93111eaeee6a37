"""Directed acyclic graphs with intervention targets and a total vertex order.

Vertex names are opaque strings. State spaces are declared alongside
distributions, not here. The stored order is always a linear extension of
the edge relation; when the caller does not supply one it is computed
deterministically (Kahn's algorithm, lexicographic tie-break) so that
derived listings are reproducible.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from .dist import document_int
from .errors import CyclicGraph, InvalidDocument, UnknownVertex


def _vertex_name(v) -> str:
    if not isinstance(v, str):
        raise InvalidDocument(f"vertex name must be a string, got {v!r}")
    return v


class Dag:
    """Immutable DAG over named vertices with a designated target subset."""

    __slots__ = ("vertices", "edges", "targets", "order", "_parents", "_children", "_rank")

    def __init__(self, vertices, edges=(), targets=(), order=None):
        vertices = tuple(_vertex_name(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise InvalidDocument("duplicate vertex names")
        vset = set(vertices)
        norm_edges = set()
        for pair in edges:
            tail, head = pair
            tail, head = _vertex_name(tail), _vertex_name(head)
            for end in (tail, head):
                if end not in vset:
                    raise UnknownVertex(end)
            if tail == head:
                raise CyclicGraph([tail, head])
            norm_edges.add((tail, head))
        targets = tuple(_vertex_name(t) for t in targets)
        for t in targets:
            if t not in vset:
                raise UnknownVertex(t)

        parents: dict[str, set[str]] = {v: set() for v in vertices}
        children: dict[str, set[str]] = {v: set() for v in vertices}
        for tail, head in norm_edges:
            parents[head].add(tail)
            children[tail].add(head)

        if order is None:
            order = _kahn_order(vertices, parents, children)
        else:
            order = tuple(_vertex_name(v) for v in order)
            if sorted(order) != sorted(vertices):
                raise InvalidDocument("order must be a permutation of the vertices")
            rank = {v: i for i, v in enumerate(order)}
            for tail, head in norm_edges:
                if rank[tail] >= rank[head]:
                    raise InvalidDocument(
                        f"order is not a linear extension: edge {tail}->{head}"
                    )

        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(norm_edges))
        object.__setattr__(self, "order", tuple(order))
        rank = {v: i for i, v in enumerate(self.order)}
        object.__setattr__(self, "_rank", rank)
        tset = set(targets)
        object.__setattr__(self, "targets", tuple(v for v in self.order if v in tset))
        object.__setattr__(self, "_parents", {v: frozenset(parents[v]) for v in vertices})
        object.__setattr__(self, "_children", {v: frozenset(children[v]) for v in vertices})

    def __setattr__(self, name, value):
        raise AttributeError("Dag instances are immutable")

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.targets == other.targets
            and self.order == other.order
        )

    def __repr__(self):
        return f"Dag(vertices={list(self.vertices)}, edges={sorted(self.edges)}, targets={list(self.targets)})"

    def _check_vertex(self, v: str) -> str:
        if v not in self._parents:
            raise UnknownVertex(v)
        return v

    def rank(self, v: str) -> int:
        return self._rank[self._check_vertex(v)]

    def parents(self, v: str) -> frozenset[str]:
        return self._parents[self._check_vertex(v)]

    def children(self, v: str) -> frozenset[str]:
        return self._children[self._check_vertex(v)]

    def predecessors(self, v: str) -> frozenset[str]:
        """Vertices strictly earlier than ``v`` under the stored order."""
        r = self.rank(v)
        return frozenset(u for u in self.order[:r])

    def ancestors(self, v: str) -> frozenset[str]:
        """Proper ancestors of ``v`` (transitive closure of parenthood)."""
        self._check_vertex(v)
        seen: set[str] = set()
        stack = list(self._parents[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._parents[u])
        return frozenset(seen)

    def complete_supergraph(self) -> "Dag":
        """Complete DAG over the same order and targets."""
        edges = [
            (self.order[i], self.order[j])
            for i in range(len(self.order))
            for j in range(i + 1, len(self.order))
        ]
        return Dag(self.vertices, edges, self.targets, self.order)


def _kahn_order(vertices, parents, children) -> tuple[str, ...]:
    indegree = {v: len(parents[v]) for v in vertices}
    ready = [v for v in vertices if indegree[v] == 0]
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in sorted(children[v]):
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != len(vertices):
        remaining = {v for v in vertices if v not in set(out)}
        raise CyclicGraph(_find_cycle(remaining, parents))
    return tuple(out)


def _find_cycle(remaining, parents):
    # every remaining vertex has a remaining parent, so walking parents must loop
    start = sorted(remaining)[0]
    path = [start]
    seen = {start}
    v = start
    while True:
        v = sorted(p for p in parents[v] if p in remaining)[0]
        if v in seen:
            idx = path.index(v)
            return list(reversed(path[idx:])) + [v]
        seen.add(v)
        path.append(v)


def parse_dag(document) -> Dag:
    """Build a validated :class:`Dag` from a graph spec document.

    The document is a parsed JSON object with fields ``vertices``,
    ``edges``, ``targets`` and optionally ``order``.
    """
    if not isinstance(document, Mapping):
        raise InvalidDocument("graph spec must be a JSON object")
    unknown = set(document) - {"vertices", "edges", "targets", "order"}
    if unknown:
        raise InvalidDocument(f"unexpected graph spec fields: {sorted(unknown)}")
    if "vertices" not in document:
        raise InvalidDocument("graph spec lacks 'vertices'")
    for field in ("vertices", "edges", "targets", "order"):
        value = document.get(field, [])
        if not isinstance(value, (list, tuple)) and not (field == "order" and value is None):
            raise InvalidDocument(f"'{field}' must be a list, got {value!r}")
    norm_edges = []
    for pair in document.get("edges", []):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidDocument(f"bad edge entry: {pair!r}")
        norm_edges.append((pair[0], pair[1]))
    return Dag(
        document["vertices"],
        norm_edges,
        document.get("targets", ()),
        document.get("order"),
    )


def serialize_dag(dag: Dag) -> dict:
    """Graph spec document for ``dag``; ``parse_dag`` inverts it exactly."""
    return {
        "vertices": list(dag.vertices),
        "edges": [list(e) for e in sorted(dag.edges)],
        "targets": list(dag.targets),
        "order": list(dag.order),
    }


def parse_assignment(text: str) -> dict[str, int]:
    """Parse ``"X0=0,X1=1"`` into a name-to-state mapping."""
    out: dict[str, int] = {}
    text = text.strip()
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise InvalidDocument(f"bad assignment entry: {chunk!r}")
        name, _, value = chunk.partition("=")
        name = name.strip()
        try:
            state = int(value)
        except ValueError as exc:
            raise InvalidDocument(f"bad state index in {chunk!r}") from exc
        if name in out:
            raise InvalidDocument(f"duplicate assignment for {name!r}")
        out[name] = state
    return out


def validate_assignment(assignment: Mapping[str, int], cardinalities: Mapping[str, int]):
    """Check that every assigned state index is within its declared cardinality."""
    for name, state in assignment.items():
        if name not in cardinalities:
            raise UnknownVertex(name)
        if not 0 <= document_int(state, f"state of {name!r}") < cardinalities[name]:
            raise InvalidDocument(
                f"state {state} out of range for {name!r} (cardinality {cardinalities[name]})"
            )
