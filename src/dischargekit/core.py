"""Graphs, plane embeddings, orientations, and their serializations.

Vertices are dense integer indices 0..n-1.  Edges are canonical (min, max)
pairs.  A plane embedding is a rotation system: for each vertex, the cyclic
order of its neighbors.  Faces are extracted by next-edge traversal with a
fixed successor convention, so face lists are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import (
    DanglingVertexIndexError,
    DisconnectedEmbeddingError,
    DuplicateEdgeError,
    InvalidRotationError,
    LoopEdgeError,
)

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: Tuple[Edge, ...]
    adjacency: Tuple[frozenset, ...] = field(compare=False)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> List[int]:
        return [len(a) for a in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def build_graph(edge_list: Iterable[Sequence[int]], n: int | None = None) -> Graph:
    """Validate an edge list and return a Graph.

    ``n`` defaults to max endpoint + 1.  Loops, duplicate edges, and
    out-of-range endpoints are rejected.
    """
    edges: List[Edge] = []
    seen = set()
    max_v = -1
    for e in edge_list:
        u, v = int(e[0]), int(e[1])
        if u < 0 or v < 0:
            raise DanglingVertexIndexError(f"negative vertex index in edge ({u}, {v})")
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u}")
        ce = canonical_edge(u, v)
        if ce in seen:
            raise DuplicateEdgeError(f"edge {ce} listed twice")
        seen.add(ce)
        edges.append(ce)
        max_v = max(max_v, u, v)
    if n is None:
        n = max_v + 1
    elif max_v >= n:
        raise DanglingVertexIndexError(f"edge endpoint {max_v} >= n = {n}")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n=n, edges=tuple(sorted(edges)), adjacency=tuple(frozenset(a) for a in adj))


@dataclass(frozen=True)
class Face:
    """A face boundary walk; vertices may repeat when the graph has bridges."""

    boundary: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    def vertex_set(self) -> frozenset:
        return frozenset(self.boundary)


class PlaneGraph:
    """A graph together with a rotation system (cyclic neighbor orders)."""

    def __init__(self, graph: Graph, rotation: Sequence[Sequence[int]]):
        if len(rotation) != graph.n:
            raise InvalidRotationError("rotation must list every vertex")
        rot = tuple(tuple(r) for r in rotation)
        for v in range(graph.n):
            if set(rot[v]) != set(graph.adjacency[v]) or len(rot[v]) != graph.degree(v):
                raise InvalidRotationError(
                    f"rotation at vertex {v} is not a permutation of its neighbors"
                )
        self.graph = graph
        self.rotation = rot
        self._faces: Tuple[Face, ...] | None = None
        if graph.is_connected():
            f = len(self.faces())
            if graph.n - len(graph.edges) + f != 2:
                raise InvalidRotationError(
                    f"embedding is not planar: V-E+F = {graph.n - len(graph.edges) + f}"
                )

    def faces(self) -> Tuple[Face, ...]:
        """All faces by next-edge traversal.

        Arriving at v along edge {u, v}, the next edge leaves v toward the
        successor of u in v's rotation.  Each directed edge-side belongs to
        exactly one face.
        """
        if self._faces is not None:
            return self._faces
        rot = self.rotation
        index = [{u: i for i, u in enumerate(r)} for r in rot]
        seen = set()
        faces: List[Face] = []
        for v in range(self.graph.n):
            if not rot[v] and self.graph.n == 1:
                faces.append(Face(boundary=()))
                continue
            for u in rot[v]:
                if (v, u) in seen:
                    continue
                walk: List[int] = []
                cur = (v, u)
                while cur not in seen:
                    seen.add(cur)
                    walk.append(cur[0])
                    a, b = cur
                    nxt = rot[b][(index[b][a] + 1) % len(rot[b])]
                    cur = (b, nxt)
                faces.append(Face(boundary=tuple(walk)))
        self._faces = tuple(faces)
        return self._faces


def faces_of(embedding: PlaneGraph) -> List[Face]:
    """Faces of a connected plane graph; raises on disconnected input."""
    if not embedding.graph.is_connected():
        raise DisconnectedEmbeddingError("face traversal requires a connected embedding")
    return list(embedding.faces())


@dataclass(frozen=True)
class Orientation:
    """An assignment of a direction (tail, head) to every edge of a graph."""

    base: Graph
    arcs: Tuple[Edge, ...]

    def __post_init__(self):
        covered = sorted(canonical_edge(t, h) for t, h in self.arcs)
        if covered != sorted(self.base.edges):
            raise DanglingVertexIndexError("arcs do not cover the base edges exactly once")

    def outdegrees(self) -> List[int]:
        out = [0] * self.base.n
        for t, _ in self.arcs:
            out[t] += 1
        return out

    def indegrees(self) -> List[int]:
        ind = [0] * self.base.n
        for _, h in self.arcs:
            ind[h] += 1
        return ind

    def reversed(self) -> "Orientation":
        return Orientation(self.base, tuple((h, t) for t, h in self.arcs))


def orientations_with_max_outdegree(graph: Graph, bound: int) -> Iterator[Orientation]:
    """Yield every orientation whose maximum outdegree is at most ``bound``.

    Enumeration is lexicographic over the canonical edge order with
    direction 0 = (min -> max), so the stream order is reproducible.
    """
    edges = graph.edges
    out = [0] * graph.n
    arcs: List[Edge] = []

    def rec(i: int) -> Iterator[Orientation]:
        if i == len(edges):
            yield Orientation(graph, tuple(arcs))
            return
        u, v = edges[i]
        for tail, head in ((u, v), (v, u)):
            if out[tail] < bound:
                out[tail] += 1
                arcs.append((tail, head))
                yield from rec(i + 1)
                arcs.pop()
                out[tail] -= 1

    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return rec(0)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (optional '>>graph6<<' header tolerated).

    The line must hold exactly as many data bytes as its vertex count needs.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    # n is one byte, or '~' and three bytes, or '~~' and six bytes.
    skip, width = (2, 6) if data[:2] == [63, 63] else (1, 3) if data[:1] == [63] else (0, 1)
    head, data = data[skip:skip + width], data[skip + width:]
    if len(head) < width:
        raise ValueError("graph6 line ends inside its vertex count")
    n = 0
    for b in head:
        n = (n << 6) | b
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) != need:
        raise ValueError(f"graph6 line has {len(data)} data bytes, {need} expected for n = {n}")
    bits = []
    for b in data:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(edges, n=n)


def write_graph6(graph: Graph) -> str:
    """Encode a graph as a graph6 line (no header)."""
    n = graph.n
    if n <= 62:
        prefix = [n]
    elif n <= 258047:
        prefix = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        prefix = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if graph.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        byte = 0
        for b in bits[k:k + 6]:
            byte = (byte << 1) | b
        body.append(byte)
    return "".join(chr(63 + b) for b in prefix + body)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def embedding_from_json(obj: dict | str) -> PlaneGraph:
    """Load {"n": int, "rotation": [[neighbor, ...] per vertex]}.

    Rejects asymmetric adjacency: u may list v only if v lists u.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    n = int(obj["n"])
    rotation = [list(map(int, r)) for r in obj["rotation"]]
    if len(rotation) != n:
        raise InvalidRotationError("rotation length differs from n")
    edges = set()
    for v, nbrs in enumerate(rotation):
        if len(set(nbrs)) != len(nbrs):
            raise InvalidRotationError(f"repeated neighbor in rotation at vertex {v}")
        for u in nbrs:
            if not 0 <= u < n:
                raise DanglingVertexIndexError(f"rotation at vertex {v} names vertex {u}, outside 0..{n - 1}")
            edges.add(canonical_edge(u, v))
    for u, v in edges:
        if u not in rotation[v] or v not in rotation[u]:
            raise InvalidRotationError(f"asymmetric adjacency between {u} and {v}")
    graph = build_graph(sorted(edges), n=n)
    return PlaneGraph(graph, rotation)


def embedding_to_json(embedding: PlaneGraph) -> dict:
    return {"n": embedding.graph.n, "rotation": [list(r) for r in embedding.rotation]}


def orientation_from_json(obj: dict | str) -> Orientation:
    """Load {"n": int, "arcs": [[tail, head], ...]}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    n = int(obj["n"])
    arcs = tuple((int(a[0]), int(a[1])) for a in obj["arcs"])
    base = build_graph([canonical_edge(t, h) for t, h in arcs], n=n)
    return Orientation(base, arcs)


def orientation_to_json(orientation: Orientation) -> dict:
    return {"n": orientation.base.n, "arcs": [list(a) for a in orientation.arcs]}
