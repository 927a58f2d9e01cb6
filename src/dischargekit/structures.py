"""Structural pattern detection: short cycles, trios, vertex roles, and the
cycle conditions that gate 4-choosability.

"Adjacent" for two cycles means sharing at least one edge.  Cycles are
sought in the abstract graph, not only among faces of an embedding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .core import Graph, build_graph, canonical_edge
from .errors import UnsupportedLengthError, VertexNotOnCycleError

Cycle = Tuple[int, ...]

TRIO_LABELS = ("x", "y", "u", "v", "w")
# Trio pattern on labels x,y,u,v,w: three triangles xuv, xyv, yvw around center v.
TRIO_EDGES = (("x", "y"), ("x", "u"), ("x", "v"), ("y", "v"), ("y", "w"), ("u", "v"), ("v", "w"))


def trio_graph() -> Graph:
    """The bare trio graph with vertices x=0, y=1, u=2, v=3, w=4."""
    idx = {lab: i for i, lab in enumerate(TRIO_LABELS)}
    return build_graph([(idx[a], idx[b]) for a, b in TRIO_EDGES], n=len(TRIO_LABELS))


def enumerate_cycles(graph: Graph, length: int) -> List[Cycle]:
    """All cycles of the given length, each once up to rotation/reflection.

    Canonical form: minimum vertex first, then the lexicographically smaller
    of the two traversal directions.
    """
    if length not in (3, 4, 5):
        raise UnsupportedLengthError(f"cycle length {length} not in {{3, 4, 5}}")
    cycles: List[Cycle] = []
    adj = graph.adjacency

    def extend(path: List[int]) -> None:
        last = path[-1]
        if len(path) == length:
            if path[0] in adj[last] and path[1] < path[-1]:
                cycles.append(tuple(path))
            return
        for w in adj[last]:
            if w > path[0] and w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for r in range(graph.n):
        extend([r])
    return sorted(cycles)


def cycle_edges(cycle: Sequence[int]) -> FrozenSet[Tuple[int, int]]:
    k = len(cycle)
    return frozenset(canonical_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


@dataclass(frozen=True)
class TrioOccurrence:
    """An injective image of the trio pattern in a host graph."""

    vertex_map: Tuple[Tuple[str, int], ...]  # (label, vertex) pairs

    def __getitem__(self, label: str) -> int:
        return dict(self.vertex_map)[label]

    @property
    def center(self) -> int:
        return self["v"]

    @property
    def vertices(self) -> FrozenSet[int]:
        return frozenset(v for _, v in self.vertex_map)

    @property
    def triangles(self) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        m = dict(self.vertex_map)
        return (
            frozenset((m["x"], m["u"], m["v"])),
            frozenset((m["x"], m["y"], m["v"])),
            frozenset((m["y"], m["v"], m["w"])),
        )


def find_trios(graph: Graph) -> List[TrioOccurrence]:
    """All trio occurrences, deduplicated by vertex set plus center.

    Mirror symmetry (x<->y, u<->w) is quotiented out.
    """
    found: Dict[Tuple[FrozenSet[int], int], TrioOccurrence] = {}
    adj = graph.adjacency
    for v in range(graph.n):
        if graph.degree(v) < 4:
            continue
        nbrs = sorted(adj[v])
        for x, y, u, w in itertools.permutations(nbrs, 4):
            if y in adj[x] and u in adj[x] and w in adj[y]:
                occ = TrioOccurrence(vertex_map=(("x", x), ("y", y), ("u", u), ("v", v), ("w", w)))
                key = (occ.vertices, v)
                if key not in found or occ.vertex_map < found[key].vertex_map:
                    found[key] = occ
    return sorted(found.values(), key=lambda o: o.vertex_map)


class VertexRole(Enum):
    GOOD = "good"
    BAD = "bad"
    WORSE = "worse"
    WORST = "worst"


def classify_role(
    graph: Graph,
    s: int,
    triangle: Sequence[int],
    trios: List[TrioOccurrence] | None = None,
) -> VertexRole:
    """Role of vertex ``s`` on 3-cycle ``triangle``.

    Good if the triangle lies in no trio.  Otherwise, over all trios whose
    triangle list contains it: worst if ``s`` lies on all three triangles of
    some such trio; bad if in every such trio ``s`` lies only on this
    triangle; worse otherwise.  ``trios`` may be precomputed to avoid
    repeated pattern search.
    """
    t = frozenset(triangle)
    if s not in t:
        raise VertexNotOnCycleError(f"vertex {s} is not on triangle {sorted(t)}")
    if trios is None:
        trios = find_trios(graph)
    containing = [occ for occ in trios if t in occ.triangles]
    if not containing:
        return VertexRole.GOOD
    for occ in containing:
        if all(s in tri for tri in occ.triangles):
            return VertexRole.WORST
    if all(sum(s in tri for tri in occ.triangles) == 1 for occ in containing):
        return VertexRole.BAD
    return VertexRole.WORSE


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


def _chorded_4cycles(graph: Graph) -> List[Cycle]:
    out = []
    for c in enumerate_cycles(graph, 4):
        a, b, cc, d = c
        if graph.has_edge(a, cc) or graph.has_edge(b, d):
            out.append(c)
    return out


def check_condition(graph: Graph, which: str) -> ConditionReport:
    """Check one of the three 5-cycle conditions; witnesses are the violating
    5-cycles.

    Thm1: no 5-cycle has a hub vertex adjacent to all five of its vertices,
    and no 5-cycle shares exactly one edge with a 3-cycle.
    Thm2: no 5-cycle shares an edge with two distinct 3-cycles, and none
    shares an edge with a 4-cycle that has a chord.
    Corollary: no 5-cycle shares any edge with a 3-cycle.
    """
    if which not in CONDITIONS:
        raise ValueError(f"unknown condition {which!r}")
    five = enumerate_cycles(graph, 5)
    three = enumerate_cycles(graph, 3)
    witnesses: List[Cycle] = []
    chorded = _chorded_4cycles(graph) if which == "Thm2" else []
    for c in five:
        ce = cycle_edges(c)
        bad = False
        if which == "Thm1":
            cs = set(c)
            for h in range(graph.n):
                if h not in cs and cs <= graph.adjacency[h]:
                    bad = True
                    break
            if not bad:
                bad = any(len(ce & cycle_edges(t)) == 1 for t in three)
        elif which == "Thm2":
            adjacent3 = sum(1 for t in three if ce & cycle_edges(t))
            bad = adjacent3 >= 2 or any(ce & cycle_edges(q) for q in chorded)
        else:
            bad = any(ce & cycle_edges(t) for t in three)
        if bad:
            witnesses.append(c)
    return ConditionReport(condition=which, witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# Fixed configurations with drawn-degree constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedConfig:
    """A small pattern graph plus per-vertex host-degree constraints.

    ``exact_degrees[i]`` is the required host degree of pattern vertex i, or
    None when only an upper bound applies (``max_degrees``).
    """

    name: str
    pattern: Graph
    exact_degrees: Tuple[int | None, ...]
    max_degrees: Tuple[int | None, ...]


def _cfg(name: str, n: int, edges, exact, maxima=None) -> FixedConfig:
    return FixedConfig(
        name=name,
        pattern=build_graph(edges, n=n),
        exact_degrees=tuple(exact),
        max_degrees=tuple(maxima if maxima is not None else [None] * n),
    )


# H: trio shape, x=0 y=1 u=2 v=3 w=4; d(x) <= 5, others exactly 4.
CONFIG_H = _cfg(
    "H",
    5,
    trio_graph().edges,
    exact=[None, 4, 4, 4, 4],
    maxima=[5, None, None, None, None],
)

# Configuration 1: trio shape with drawn degrees x=4, y=4, u=5, v=4, w=4.
CONFIG_1 = _cfg(
    "config1",
    5,
    trio_graph().edges,
    exact=[4, 4, 5, 4, 4],
)

# Configuration 2: the 2x1 grid, bl=0 tl=1 tm=2 tr=3 br=4 bm=5, all degree 4.
CONFIG_2 = _cfg(
    "config2",
    6,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5)],
    exact=[4, 4, 4, 4, 4, 4],
)

# Configuration 3: square plus hanging triangle, a=0 b=1 c=2 d=3 e=4,
# degrees a=4, b=4, c=5, d=4, e=4.
CONFIG_3 = _cfg(
    "config3",
    5,
    [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (2, 4)],
    exact=[4, 4, 5, 4, 4],
)

ALL_CONFIGS = (CONFIG_H, CONFIG_1, CONFIG_2, CONFIG_3)


@dataclass(frozen=True)
class ConfigMatch:
    config: str
    mapping: Tuple[int, ...]  # pattern vertex i -> host vertex mapping[i]


def _pattern_automorphisms(pattern: Graph) -> List[Tuple[int, ...]]:
    n = pattern.n
    autos = []
    degs = pattern.degrees()
    for perm in itertools.permutations(range(n)):
        if any(degs[i] != degs[perm[i]] for i in range(n)):
            continue
        if all(pattern.has_edge(perm[u], perm[v]) for u, v in pattern.edges):
            autos.append(perm)
    return autos


def _match_pattern(host: Graph, config: FixedConfig) -> List[Tuple[int, ...]]:
    pat = config.pattern
    n = pat.n
    order = sorted(range(n), key=lambda v: -pat.degree(v))
    mapping: Dict[int, int] = {}
    used = set()
    results: List[Tuple[int, ...]] = []

    def feasible(pv: int, hv: int) -> bool:
        if host.degree(hv) < pat.degree(pv):
            return False
        exact = config.exact_degrees[pv]
        if exact is not None and host.degree(hv) != exact:
            return False
        mx = config.max_degrees[pv]
        if mx is not None and host.degree(hv) > mx:
            return False
        for u in pat.adjacency[pv]:
            if u in mapping and not host.has_edge(mapping[u], hv):
                return False
        return True

    def rec(i: int) -> None:
        if i == n:
            results.append(tuple(mapping[v] for v in range(n)))
            return
        pv = order[i]
        for hv in range(host.n):
            if hv not in used and feasible(pv, hv):
                mapping[pv] = hv
                used.add(hv)
                rec(i + 1)
                used.discard(hv)
                del mapping[pv]

    rec(0)
    return results


def find_fixed_configs(graph: Graph, configs: Sequence[FixedConfig] = ALL_CONFIGS) -> List[ConfigMatch]:
    """All embeddings of the fixed configurations, deduplicated up to pattern
    automorphism."""
    out: List[ConfigMatch] = []
    for cfg in configs:
        autos = _pattern_automorphisms(cfg.pattern)
        seen = set()
        for m in _match_pattern(graph, cfg):
            canon = min(tuple(m[a[i]] for i in range(len(m))) for a in autos)
            if canon not in seen:
                seen.add(canon)
                out.append(ConfigMatch(config=cfg.name, mapping=canon))
    return out
