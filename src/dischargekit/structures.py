"""Structural pattern detection: short cycles, trios, vertex roles, and the
cycle conditions that gate 4-choosability.

"Adjacent" for two cycles means sharing at least one edge.  Cycles are
sought in the abstract graph, not only among faces of an embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Sequence, Tuple

from .core import Edge, Face, Graph, PlaneGraph, build_graph, canonical_edge
from .errors import UnsupportedLengthError, WorkBudget

Cycle = Tuple[int, ...]

# Trio pattern on labels x,y,u,v,w: three triangles xuv, xyv, yvw around center v.
TRIO_EDGES = (("x", "y"), ("x", "u"), ("x", "v"), ("y", "v"), ("y", "w"), ("u", "v"), ("v", "w"))


# The steps ``detect`` may take on one graph, that is, the (x, y, u, w)
# tuples that the trio search tries plus the paths that the cycle searches
# extend: a fixed base plus a share for each edge.  A triangulated grid
# needs fewer than 100 steps per edge, so any such grid is answered, while
# K16 and up are refused.
DETECT_BASE_STEPS = 500_000
DETECT_STEPS_PER_EDGE = 200


class StepBudget(WorkBudget):
    """The steps left of one graph's ``detect`` budget."""

    def __init__(self, graph: Graph) -> None:
        limit = DETECT_BASE_STEPS + DETECT_STEPS_PER_EDGE * len(graph.edges)
        super().__init__(limit, "detect", "search steps")


def trio_graph() -> Graph:
    """The bare trio graph with vertices x=0, y=1, u=2, v=3, w=4."""
    idx = {lab: i for i, lab in enumerate(TrioOccurrence._fields)}
    return build_graph([(idx[a], idx[b]) for a, b in TRIO_EDGES], n=len(idx))


def enumerate_cycles(graph: Graph, length: int, budget: StepBudget) -> List[Cycle]:
    """All cycles of the given length, each once up to rotation/reflection.

    Canonical form: minimum vertex first, then the lexicographically smaller
    of the two traversal directions.  Each path extended spends a step of
    ``budget``.  A path spends the steps of its extensions once they have
    been searched, so the search stops at most ``length - 1`` times the
    largest degree of steps past the budget.
    """
    if length not in (3, 4, 5):
        raise UnsupportedLengthError(f"cycle length {length} not in {{3, 4, 5}}")
    cycles: List[Cycle] = []
    adj = graph.adjacency
    spend = budget.spend

    def extend(path: List[int]) -> None:
        first, last = path[0], path[-1]
        extended = 0
        if len(path) == length - 1:
            # each extension w is a last vertex: it closes a cycle if it
            # is a neighbour of the first
            closing = adj[first]
            for w in adj[last]:
                if w > first and w not in path:
                    extended += 1
                    if w in closing and path[1] < w:
                        cycles.append((*path, w))
        else:
            for w in adj[last]:
                if w > first and w not in path:
                    extended += 1
                    path.append(w)
                    extend(path)
                    path.pop()
        spend(extended)

    for r in range(graph.n):
        extend([r])
    return sorted(cycles)


def cycle_edges(cycle: Sequence[int]) -> FrozenSet[Tuple[int, int]]:
    k = len(cycle)
    return frozenset(canonical_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


class TrioOccurrence(NamedTuple):
    """An injective image of the trio pattern in a host graph: the three
    triangles xuv, xyv and yvw around the centre v."""

    x: int
    y: int
    u: int
    v: int
    w: int

    @property
    def triangles(self) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        x, y, u, v, w = self
        return frozenset((x, u, v)), frozenset((x, y, v)), frozenset((y, v, w))


def find_trios(graph: Graph) -> List[TrioOccurrence]:
    """All trio occurrences, deduplicated by vertex set plus center.

    Mirror symmetry (x<->y, u<->w) is quotiented out.  A trio centred at v
    is an edge xy of v's link (the subgraph on its neighbours) with a link
    neighbour u of x and a link neighbour w of y, all four distinct, so
    only those tuples are tried.
    """
    found: Dict[Tuple[FrozenSet[int], int], TrioOccurrence] = {}
    adj = graph.adjacency
    for v in range(graph.n):
        link = adj[v]
        if len(link) < 4:
            continue
        for x in link:
            near_x = adj[x] & link
            for y in near_x:
                near_y = adj[y] & link
                for u in near_x:
                    if u == y:
                        continue
                    for w in near_y:
                        if w == x or w == u:
                            continue
                        occ = TrioOccurrence(x, y, u, v, w)
                        key = (frozenset(occ), v)
                        if key not in found or occ < found[key]:
                            found[key] = occ
    return sorted(found.values())


def trio_tuples(graph: Graph) -> int:
    """The (x, y, u, w) tuples that ``find_trios`` tries, counted without
    trying them: for each x-y edge of a link, u is one of x's link
    neighbours other than y, and w one of y's other than x and u."""
    adj = graph.adjacency
    tuples = 0
    for v in range(graph.n):
        link = adj[v]
        if len(link) < 4:
            continue
        for x in link:
            near_x = adj[x] & link
            for y in near_x:
                near_y = adj[y] & link
                tuples += (len(near_x) - 1) * (len(near_y) - 1) - len(near_x & near_y)
    return tuples


def facial_trios(
    embedding: PlaneGraph, faces: Sequence[Face]
) -> List[Tuple[TrioOccurrence, Tuple[int, int, int]]]:
    """The trios of ``find_trios`` whose three triangles are 3-faces of the
    embedding, in the same order, each with the indices of its faces xuv,
    xyv and yvw in ``faces``.

    A 3-face at a centre v is one sector of v's rotation, between two
    neighbours in a row, so such a trio is a window of three 3-face sectors
    in a row, with neighbours u, x, y, w; each window is read once.
    ``find_trios`` keeps one trio per (vertex set, centre), the smallest
    link tuple.  If the window's four neighbours carry a link edge besides
    the path u-x-y-w (at a degree-4 centre with four triangular sectors,
    whose windows share one key, and where a separating triangle adds a
    chord), that may be another ordering of them, kept only if its
    triangles are 3-faces too.
    """
    adj = embedding.graph.adjacency
    # Arriving at q from p, a face walk leaves q towards the successor of
    # p in q's rotation.  A 3-face of a connected simple graph other than
    # a lone triangle is the only face on its triangle.
    face_after: Dict[Tuple[int, int], int] = {}
    for fi, f in enumerate(faces):
        if f.degree == 3:
            p, q, r = f.boundary
            face_after[q, p] = face_after[r, q] = face_after[p, r] = fi
    found = []
    for v, rot in enumerate(embedding.rotation):
        d = len(rot)
        if d < 4:
            continue
        # sector k lies between rot[k - 1] and rot[k]
        sector = [face_after.get((v, p)) for p in rot[-1:] + rot[:-1]]
        for k in range(d):
            keys = (sector[k], sector[(k + 1) % d], sector[(k + 2) % d])
            if None in keys:
                continue
            u, x, y, w = rot[k - 1], rot[k], rot[(k + 1) % d], rot[(k + 2) % d]
            if y not in adj[u] and w not in adj[x] and w not in adj[u]:
                # the window and its mirror are the only link tuples
                if x < y:
                    found.append((TrioOccurrence(x, y, u, v, w), keys))
                else:
                    found.append((TrioOccurrence(y, x, w, v, u), keys[::-1]))
                continue
            # the first link tuple in lexicographic order is the smallest
            x, y, u, w = next(
                t for t in permutations(sorted((u, x, y, w)))
                if t[1] in adj[t[0]] and t[2] in adj[t[0]] and t[3] in adj[t[1]]
            )
            # each triangle's sector, if its two neighbours are in a row
            at = {p: i for i, p in enumerate(rot)}
            keys = tuple(
                sector[j] if j == (i + 1) % d else sector[i] if i == (j + 1) % d else None
                for i, j in ((at[x], at[u]), (at[x], at[y]), (at[y], at[w]))
            )
            if None not in keys:
                found.append((TrioOccurrence(x, y, u, v, w), keys))
            if d == 4:
                # every window holds all four neighbours: one key
                break
    found.sort()
    return found


class VertexRole(Enum):
    GOOD = "good"
    BAD = "bad"
    WORSE = "worse"
    WORST = "worst"


def classify_role(
    trios: Iterable[Tuple[TrioOccurrence, Tuple[Hashable, Hashable, Hashable]]]
) -> Dict[Hashable, Dict[int, VertexRole]]:
    """The role of each vertex on each triangle of the given trios, built
    in one pass over their positions; a triangle in no trio has no entry,
    and its vertices are good.

    Each trio comes with the keys of its triangles xuv, xyv and yvw, and
    the index is keyed by them: ``detect`` passes the triangles
    themselves, ``apply_rules`` the indices of the 3-faces.

    A trio's centre v lies on all three of its triangles, x and y on two,
    u and w on one.  So each trio ranks v as worst on its three triangles,
    and on its own triangles x and y as worse and u and w as bad; a vertex
    keeps its highest rank.  That is: worst if it is the centre of some
    trio that holds the triangle, bad if it is u or w of every such trio,
    and worse otherwise.
    """
    worst, worse, bad = VertexRole.WORST, VertexRole.WORSE, VertexRole.BAD
    index: Dict[Hashable, Dict[int, VertexRole]] = {}
    for (x, y, u, v, w), (t_xuv, t_xyv, t_yvw) in trios:
        r_xuv = index.setdefault(t_xuv, {})
        r_xyv = index.setdefault(t_xyv, {})
        r_yvw = index.setdefault(t_yvw, {})
        r_xuv[v] = r_xyv[v] = r_yvw[v] = worst
        for roles, s in ((r_xuv, x), (r_xyv, x), (r_xyv, y), (r_yvw, y)):
            if roles.get(s) is not worst:
                roles[s] = worse
        r_xuv.setdefault(u, bad)
        r_yvw.setdefault(w, bad)
    return index


@dataclass(frozen=True)
class ConditionReport:
    """Result of one structural condition check; holds iff no witnesses."""

    condition: str
    witnesses: Tuple[Cycle, ...]

    @property
    def holds(self) -> bool:
        return not self.witnesses

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "witnesses": [list(w) for w in self.witnesses],
        }


CONDITIONS = ("Thm1", "Thm2", "Corollary")


def check_conditions(graph: Graph, budget: StepBudget) -> Tuple[ConditionReport, ...]:
    """Check the three 5-cycle conditions in one pass over the 3- and
    5-cycles; one report per condition, in ``CONDITIONS`` order, whose
    witnesses are the violating 5-cycles.

    Thm1: no 5-cycle has a hub vertex adjacent to all five of its vertices,
    and no 5-cycle shares exactly one edge with a 3-cycle.
    Thm2: no 5-cycle shares an edge with two distinct 3-cycles, and none
    shares an edge with a 4-cycle that has a chord.
    Corollary: no 5-cycle shares any edge with a 3-cycle.

    The cycle searches spend steps of ``budget``.
    """
    triangles_on: Dict[Edge, List[Cycle]] = {}
    for t in enumerate_cycles(graph, 3, budget):
        for e in cycle_edges(t):
            triangles_on.setdefault(e, []).append(t)
    # A 4-cycle a-b-c-d with chord ac is the two triangles abc and acd on
    # ac, and its edges are theirs other than ac.
    chorded_edges = set()
    for chord, triangles in triangles_on.items():
        if len(triangles) >= 2:
            chorded_edges.update(e for t in triangles for e in cycle_edges(t) if e != chord)
    witnesses: Tuple[List[Cycle], ...] = ([], [], [])
    for c in enumerate_cycles(graph, 5, budget):
        ce = cycle_edges(c)
        # Edges of c on each 3-cycle that shares one with c.
        shared = Counter(t for e in ce for t in triangles_on.get(e, ()))
        violated = (  # in CONDITIONS order
            # A hub h of c closes the 3-cycle (c[0], c[1], h), which shares
            # exactly one edge with c, so this test also finds every hub.
            1 in shared.values(),
            len(shared) >= 2 or not chorded_edges.isdisjoint(ce),
            bool(shared),
        )
        for found, bad in zip(witnesses, violated):
            if bad:
                found.append(c)
    return tuple(ConditionReport(condition=name, witnesses=tuple(w)) for name, w in zip(CONDITIONS, witnesses))
