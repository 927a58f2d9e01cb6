"""Graphs, plane embeddings, orientations, and their serializations.

Vertices are dense integer indices 0..n-1.  Edges are canonical (min, max)
pairs.  A plane embedding is a rotation system: for each vertex, the cyclic
order of its neighbors.  Faces are extracted by next-edge traversal with a
fixed successor convention, so face lists are reproducible; the traversal
records the face of each rotation sector, for the rules that read faces
around a vertex.
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
    """A graph together with a rotation system (cyclic neighbor orders).

    The rotation is checked in one pass, which builds for each vertex the
    position of each neighbour in its rotation; the face traversal walks
    the same maps.  ``sectors[v][k]`` is the index in ``faces()`` of the
    face at v between ``rotation[v][k - 1]`` and ``rotation[v][k]``, the
    face whose walk leaves v towards ``rotation[v][k]``.
    """

    def __init__(self, graph: Graph, rotation: Sequence[Sequence[int]]):
        n, adj = graph.n, graph.adjacency
        if not n:
            raise InvalidRotationError("embedding has no vertices")
        if len(rotation) != n:
            raise InvalidRotationError("rotation must list every vertex")
        rot = tuple(tuple(r) for r in rotation)
        position = []
        for v, r in enumerate(rot):
            at = {u: i for i, u in enumerate(r)}
            if len(at) != len(r):
                raise InvalidRotationError(f"repeated neighbor in rotation at vertex {v}")
            if at.keys() != adj[v]:
                raise InvalidRotationError(f"rotation at vertex {v} is not a permutation of its neighbors")
            # range, loops and symmetry, which only a graph read off the
            # rotation (embedding_from_json) can fail
            for u in r:
                if not 0 <= u < n:
                    raise DanglingVertexIndexError(f"rotation at vertex {v} names vertex {u}, outside 0..{n - 1}")
                if u == v:
                    raise LoopEdgeError(f"loop at vertex {v}")
                if v not in adj[u]:
                    raise InvalidRotationError(f"asymmetric adjacency between {min(u, v)} and {max(u, v)}")
            position.append(at)
        self.graph = graph
        self.rotation = rot
        self.connected = graph.is_connected()
        self._faces, self.sectors = self._traverse(position)
        if self.connected:
            f = len(self._faces)
            if n - len(graph.edges) + f != 2:
                raise InvalidRotationError(f"embedding is not planar: V-E+F = {n - len(graph.edges) + f}")
        else:
            for v, chi in self._component_euler():
                if chi != 2:
                    raise InvalidRotationError(f"embedding is not planar: V-E+F = {chi} on the component of vertex {v}")

    def _component_euler(self) -> List[Tuple[int, int]]:
        """V - E + F of each component with an edge, with its least vertex.

        Each face walk stays in one component, so each component traces
        faces of its own; an isolated vertex traces none and is plane.
        """
        adj = self.graph.adjacency
        root = [-1] * len(adj)
        counts = {}
        for s, nbrs in enumerate(adj):
            if root[s] >= 0 or not nbrs:
                continue
            root[s], stack, vertices, degrees = s, [s], 0, 0
            while stack:
                v = stack.pop()
                vertices += 1
                degrees += len(adj[v])
                for w in adj[v]:
                    if root[w] < 0:
                        root[w] = s
                        stack.append(w)
            counts[s] = vertices - degrees // 2
        for face in self._faces:
            counts[root[face.boundary[0]]] += 1
        return list(counts.items())

    def _traverse(self, position: List[dict]) -> Tuple[Tuple[Face, ...], List[List[int]]]:
        """All faces by next-edge traversal, and the face of each sector.

        Arriving at v along edge {u, v}, the next edge leaves v toward the
        successor of u in v's rotation.  Each directed edge-side, and so
        each sector, belongs to exactly one face.
        """
        rot = self.rotation
        sectors = [[-1] * len(r) for r in rot]
        faces: List[Face] = []
        if len(rot) == 1 and not rot[0]:
            faces.append(Face(()))
        for v, at_v in enumerate(sectors):
            for k, fi in enumerate(at_v):
                if fi >= 0:
                    continue
                # sector j at a is the directed edge-side from a to rot[a][j]
                fi, walk, a, j, at_a = len(faces), [], v, k, at_v
                while at_a[j] < 0:
                    at_a[j] = fi
                    walk.append(a)
                    b = rot[a][j]
                    j, at_a = position[b][a] + 1, sectors[b]
                    if j == len(at_a):
                        j = 0
                    a = b
                faces.append(Face(tuple(walk)))
        return tuple(faces), sectors

    def faces(self) -> Tuple[Face, ...]:
        """All faces, in the order of their first directed edge-side."""
        return self._faces


def faces_of(embedding: PlaneGraph) -> List[Face]:
    """Faces of a connected plane graph; raises on disconnected input."""
    if not embedding.connected:
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


def expect_key(obj: dict, key: str, what: str):
    """``obj[key]``, else MalformedInputError naming the missing key."""
    if key not in obj:
        raise MalformedInputError(f'{what} has no "{key}" key')
    return obj[key]


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

    The graph is read off the rotation as given; ``PlaneGraph`` checks the
    rotation, and so the graph, in its one pass: u may list v only if v
    lists u.
    """
    if isinstance(obj, str):
        obj = load_json(obj, "embedding")
    obj = expect_json(obj, dict, "embedding")
    n = expect_json(expect_key(obj, "n", "embedding"), int, "n")
    rotation = expect_json(expect_key(obj, "rotation", "embedding"), list, "rotation")
    rotation = [expect_int_list(r, f"rotation[{v}]") for v, r in enumerate(rotation)]
    if len(rotation) != n:
        raise InvalidRotationError("rotation length differs from n")
    edges = tuple(sorted((v, u) for v, r in enumerate(rotation) for u in r if v < u))
    return PlaneGraph(Graph(n, edges, tuple(map(frozenset, rotation))), rotation)


def orientation_from_json(obj: dict | str) -> Orientation:
    """Load {"n": int, "arcs": [[tail, head], ...]}.

    Every vertex costs work and a place in the report, so ``n`` is bounded
    by the arcs given: at most two vertices per arc, plus one."""
    if isinstance(obj, str):
        obj = load_json(obj, "orientation")
    obj = expect_json(obj, dict, "orientation")
    n = expect_json(expect_key(obj, "n", "orientation"), int, "n")
    arcs = expect_json(expect_key(obj, "arcs", "orientation"), list, "arcs")
    if n > 2 * len(arcs) + 1:
        raise MalformedInputError(f"n = {n} exceeds {2 * len(arcs) + 1}, two vertices per arc plus one")
    arcs = tuple(tuple(expect_int_list(a, f"arcs[{i}]", 2)) for i, a in enumerate(arcs))
    base = build_graph([canonical_edge(t, h) for t, h in arcs], n=n)
    return Orientation(base, arcs)


def orientation_to_json(orientation: Orientation) -> dict:
    return {"n": orientation.base.n, "arcs": [list(a) for a in orientation.arcs]}
