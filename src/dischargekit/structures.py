"""Structural pattern detection: short cycles, trios, vertex roles, and the
cycle conditions that gate 4-choosability.

"Adjacent" for two cycles means sharing at least one edge.  Cycles are
sought in the abstract graph, not only among faces of an embedding.  The
conditions and the trios are triangle facts, so ``check_conditions`` reads
both off one triangle index: for each edge, the common neighbours of its
ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from typing import Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Tuple

from .core import Edge, Graph, PlaneGraph, build_graph, canonical_edge
from .errors import WorkBudget

Cycle = Tuple[int, ...]

# Trio pattern on labels x,y,u,v,w: three triangles xuv, xyv, yvw around center v.
TRIO_EDGES = (("x", "y"), ("x", "u"), ("x", "v"), ("y", "v"), ("y", "w"), ("u", "v"), ("v", "w"))


# The steps ``detect`` may take on one graph, those that
# ``check_conditions`` counts: a fixed base plus a share for each edge.  A
# triangulated grid needs fewer than 40 steps per edge, so any such grid
# is answered, while K16 and up are refused before any 5-cycle is sought.
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


class TrioOccurrence(NamedTuple):
    """An injective image of the trio pattern in a host graph: the three
    triangles xuv, xyv and yvw around the centre v.  ``check_conditions``
    finds them on its triangle index."""

    x: int
    y: int
    u: int
    v: int
    w: int

    @property
    def triangles(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
        """The triangles xuv, xyv and yvw, each as its sorted vertices."""
        x, y, u, v, w = self
        return tuple(sorted((x, u, v))), tuple(sorted((x, y, v))), tuple(sorted((y, v, w)))


def facial_trios(embedding: PlaneGraph) -> List[Tuple[TrioOccurrence, Tuple[int, int, int]]]:
    """The trios of ``check_conditions`` (read off its triangle index) whose
    three triangles are 3-faces of the embedding, in the same order, each
    with the indices of its faces xuv, xyv and yvw in ``embedding.faces()``,
    read off the embedding's sector index.

    A 3-face at a centre v is one sector of v's rotation, between two
    neighbours in a row, so such a trio is a window of three 3-face sectors
    in a row, with neighbours u, x, y, w; each window is read once.
    ``check_conditions`` keeps one trio per (vertex set, centre), the
    smallest link tuple.  If the window's four neighbours carry a link
    edge besides the path u-x-y-w (at a degree-4 centre with four
    triangular sectors, whose windows share one key, and where a
    separating triangle adds a chord), that may be another ordering of
    them, kept only if its triangles are 3-faces too.
    """
    adj = embedding.graph.adjacency
    # a sector whose face has degree 3 is the triangle of v and the
    # sector's two neighbours
    triangular = [f.degree == 3 for f in embedding.faces()]
    found = []
    for v, rot in enumerate(embedding.rotation):
        d = len(rot)
        if d < 4:
            continue
        # sector k lies between rot[k - 1] and rot[k]
        sector = [fi if triangular[fi] else None for fi in embedding.sectors[v]]
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


CONDITIONS = ("Thm1", "Thm2", "Corollary")


def _canonical(cycle: Cycle) -> Cycle:
    """The cycle from its smallest vertex, in the direction whose second
    vertex is the smaller."""
    i = cycle.index(min(cycle))
    c = cycle[i:] + cycle[:i]
    return c if c[1] < c[-1] else c[:1] + c[:0:-1]


def check_conditions(graph: Graph, budget: StepBudget) -> Tuple[Tuple[ConditionReport, ...], List[TrioOccurrence]]:
    """Check the three 5-cycle conditions and find the trios: one report
    per condition, in ``CONDITIONS`` order, whose witnesses are the
    violating 5-cycles, and the sorted trios, one per vertex set and centre
    (the smallest tuple).

    Thm1: no 5-cycle has a hub vertex adjacent to all five of its vertices,
    and no 5-cycle shares exactly one edge with a 3-cycle.
    Thm2: no 5-cycle shares an edge with two distinct 3-cycles, and none
    shares an edge with a 4-cycle that has a chord.
    Corollary: no 5-cycle shares any edge with a 3-cycle.

    Every witness shares an edge with a 3-cycle: a hub h of c closes the
    3-cycle (c[0], c[1], h), and a chorded 4-cycle is two triangles on its
    chord.  So the 5-cycles sought are the paths a-p-q-r-b closed by an
    edge ab of a triangle, read off one index: the common neighbours of
    the ends of each edge, the third vertices of its triangles.  Each is
    kept from the first of its triangle edges in walk order.  A trio is a
    triangle too, with more triangles on two of its edges, so the trios
    are read off the same index.

    Steps of ``budget``: one per edge and one per common neighbour of its
    ends; one per (x, y, u, w) tuple of a trio, counted from the index
    before any tuple is tried or any 5-cycle sought; one per walk a-p-q
    that avoids b, from the end of ab with fewer of them, each 2-path among
    them closed by the common neighbours r of q and b; and one per 5-cycle
    formed, kept or not.
    """
    adj = graph.adjacency
    spend = budget.spend
    common: Dict[Edge, FrozenSet[int]] = {}
    for a, b in graph.edges:
        common[a, b] = on_ab = adj[a] & adj[b]
        spend(1 + len(on_ab))
    # A trio centred at v on the triangle vxy takes u from the other
    # triangles on vx and w from the other triangles on vy, with w != u; a
    # vertex that could be both is adjacent to all of v, x and y.  Each
    # triangle abc is such a vxy six times: three centres, two orders of
    # the other two.  The triangles with a tuple are kept for the search.
    trio_triangles = []
    for (a, b), on_ab in common.items():
        for c in on_ab:
            if c > b:
                on_ac, on_bc = common[a, c], common[b, c]
                ab, ac, bc = len(on_ab) - 1, len(on_ac) - 1, len(on_bc) - 1
                tuples = 2 * (ab * ac + ab * bc + ac * bc) - 6 * len(on_ab & adj[c])
                if tuples:
                    spend(tuples)
                    trio_triangles.append((a, b, c, on_ab, on_ac, on_bc))
    # A 4-cycle a-b-c-d with chord ac is the two triangles abc and acd on
    # ac, and its edges are theirs other than ac.
    chorded_edges = set()
    for (a, b), on_ab in common.items():
        if len(on_ab) >= 2:
            for w in on_ab:
                chorded_edges.update((canonical_edge(a, w), canonical_edge(b, w)))
    # the walks v-p-q from each vertex v, q = v among them
    walks = [sum(len(adj[p]) for p in adj[v]) for v in range(graph.n)]
    fives = []
    # the triangle edges walked so far, both ways: a 5-cycle is formed once
    # from each of its triangle edges and kept from the first
    walked = set()
    for (a, b), on_ab in common.items():
        if not on_ab:
            continue
        # the walks a-p-q that avoid b, from the end with fewer of them: the
        # deg(a) - 1 with q = a, and the 2-paths a-p-q with p != b and q not
        # a or b
        from_a = walks[a] - len(adj[b]) - len(on_ab)
        from_b = walks[b] - len(adj[a]) - len(on_ab)
        if from_b < from_a:
            a, b = b, a
        spend(min(from_a, from_b))
        walked.update(((a, b), (b, a)))
        ends, near_b = {a, b}, adj[b]
        for p in adj[a]:
            if p == b:
                continue
            for q in adj[p] - ends:
                for r in adj[q] & near_b:
                    if r != a and r != p:
                        spend(1)
                        if walked.isdisjoint(((a, p), (p, q), (q, r), (r, b))):
                            fives.append(_canonical((a, p, q, r, b)))
    fives.sort()
    witnesses: Tuple[List[Cycle], ...] = ([], [], [])
    for c in fives:
        ce = [canonical_edge(c[i - 1], c[i]) for i in range(5)]
        # The triangles on the edges of c, once per edge they share with c.
        # One that shares two is c[i - 2], c[i - 1], c[i] on the chord
        # c[i - 2] c[i], and none shares three, so on - folded triangles
        # share an edge with c and on - 2 * folded share exactly one.
        on = sum(len(common[e]) for e in ce)
        folded = sum(c[i - 2] in adj[c[i]] for i in range(5))
        violated = (  # in CONDITIONS order
            # A hub h of c closes the 3-cycle (c[0], c[1], h), which shares
            # exactly one edge with c, so this test also finds every hub.
            on > 2 * folded,
            on - folded >= 2 or not chorded_edges.isdisjoint(ce),
            on > 0,
        )
        for found, bad in zip(witnesses, violated):
            if bad:
                found.append(c)
    reports = tuple(ConditionReport(condition=name, witnesses=tuple(w)) for name, w in zip(CONDITIONS, witnesses))
    # The trio tuples counted above, with x < y: the mirror (y, x, w, v, u)
    # of a tuple is in the same vertex set at the same centre, so a tuple
    # with x > y is never the smallest.
    smallest: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for a, b, c, on_ab, on_ac, on_bc in trio_triangles:
        for v, x, y, on_vx, on_vy in ((a, b, c, on_ab, on_ac), (b, a, c, on_ab, on_bc), (c, a, b, on_ac, on_bc)):
            if len(on_vx) > 1 and len(on_vy) > 1:
                for u, w in product(on_vx, on_vy):
                    if u != y and w != x and w != u:
                        t, key = (x, y, u, v, w), (v, *sorted((x, y, u, w)))
                        if smallest.setdefault(key, t) > t:
                            smallest[key] = t
    return reports, [TrioOccurrence._make(t) for t in sorted(smallest.values())]
