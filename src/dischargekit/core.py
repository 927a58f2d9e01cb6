"""Graphs, plane embeddings, orientations, and their serializations.

Vertices are dense integer indices 0..n-1.  Edges are canonical (min, max)
pairs.  A plane embedding is a rotation system: for each vertex, the cyclic
order of its neighbors.  Faces are extracted by next-edge traversal with a
fixed successor convention, so face lists are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, List, Sequence, Tuple

from .errors import (
    DanglingVertexIndexError,
    DisconnectedEmbeddingError,
    DuplicateEdgeError,
    InvalidRotationError,
    LoopEdgeError,
    MalformedInputError,
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

    ``n`` defaults to max endpoint + 1.  A negative ``n``, loops,
    duplicate edges, and out-of-range endpoints are rejected.
    """
    if n is not None and n < 0:
        raise MalformedInputError(f"vertex count n = {n} is negative")
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


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (optional '>>graph6<<' header tolerated).

    The line must hold exactly as many data bytes as its vertex count needs,
    and the bits that pad the last byte to six must be zero.
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
    padding = 6 * need - n * (n - 1) // 2
    if data and data[-1] & ((1 << padding) - 1):
        raise ValueError("graph6 line sets padding bits after its last edge bit")
    # Bit k, high bit first, stands for the k-th pair i < j in the order
    # (0,1), (0,2), (1,2), (0,3), ...: j is the largest with j(j-1)/2 <= k.
    edges = []
    for at, b in enumerate(data):
        if b:
            for p in range(6):
                if b & (32 >> p):
                    k = 6 * at + p
                    j = (1 + isqrt(1 + 8 * k)) // 2
                    edges.append((k - j * (j - 1) // 2, j))
    return build_graph(edges, n=n)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def expect_json(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, so that a boolean is not
    taken for an int, else MalformedInputError."""
    if type(value) is not kind:
        raise MalformedInputError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    return value


def expect_int_list(value, what: str, length: int | None = None) -> List[int]:
    """``value`` if it is a list of ints, of ``length`` items when given,
    else MalformedInputError."""
    if type(value) is not list or not all(type(x) is int for x in value):
        raise MalformedInputError(f"{what} must be a list of integers")
    if length is not None and len(value) != length:
        raise MalformedInputError(f"{what} must hold {length} integers, not {len(value)}")
    return value


def load_json(text: str, what: str):
    """Decode JSON ``text`` read from outside the program; nesting too deep
    for the decoder raises MalformedInputError, as a wrong shape does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedInputError(f"{what} is nested too deeply") from None


def embedding_from_json(obj: dict | str) -> PlaneGraph:
    """Load {"n": int, "rotation": [[neighbor, ...] per vertex]}.

    Rejects asymmetric adjacency: u may list v only if v lists u.
    """
    if isinstance(obj, str):
        obj = load_json(obj, "embedding")
    obj = expect_json(obj, dict, "embedding")
    n = expect_json(obj["n"], int, "n")
    rotation = expect_json(obj["rotation"], list, "rotation")
    rotation = [expect_int_list(r, f"rotation[{v}]") for v, r in enumerate(rotation)]
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


def orientation_from_json(obj: dict | str) -> Orientation:
    """Load {"n": int, "arcs": [[tail, head], ...]}.

    Every vertex costs work and a place in the report, so ``n`` is bounded
    by the arcs given: at most two vertices per arc, plus one."""
    if isinstance(obj, str):
        obj = load_json(obj, "orientation")
    obj = expect_json(obj, dict, "orientation")
    n = expect_json(obj["n"], int, "n")
    arcs = expect_json(obj["arcs"], list, "arcs")
    if n > 2 * len(arcs) + 1:
        raise MalformedInputError(f"n = {n} exceeds {2 * len(arcs) + 1}, two vertices per arc plus one")
    arcs = tuple(tuple(expect_int_list(a, f"arcs[{i}]", 2)) for i, a in enumerate(arcs))
    base = build_graph([canonical_edge(t, h) for t, h in arcs], n=n)
    return Orientation(base, arcs)


def orientation_to_json(orientation: Orientation) -> dict:
    return {"n": orientation.base.n, "arcs": [list(a) for a in orientation.arcs]}
