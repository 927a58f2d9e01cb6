"""List coloring, k-choosability, and reducibility checks.

Exhaustive list-assignment quantification is done over canonical
assignments: an assignment is determined up to color renaming by the
multiset of "color types" (the set of vertices whose lists share a color),
so enumeration ranges over multisets of nonempty vertex subsets whose
per-vertex multiplicities equal the required list sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .alon_tarsi import DEFAULT_ARC_CAP, find_certificate
from .core import Graph, build_graph
from .errors import SizeLimitExceededError

Lists = Tuple[Tuple[int, ...], ...]

DEFAULT_N_LIMIT = 10


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex finite color lists over nonnegative integer colors."""

    lists: Lists

    def __post_init__(self):
        if any(not lst for lst in self.lists):
            raise ValueError("every vertex needs a nonempty list")
        if any(c < 0 for lst in self.lists for c in lst):
            raise ValueError("colors are nonnegative integers")

    def sizes(self) -> List[int]:
        return [len(lst) for lst in self.lists]

    def to_json(self) -> dict:
        return {"lists": [list(lst) for lst in self.lists]}

    @staticmethod
    def from_json(obj: dict) -> "ListAssignment":
        return ListAssignment(lists=tuple(tuple(int(c) for c in lst) for lst in obj["lists"]))


@dataclass(frozen=True)
class ReducibleConfig:
    """An inner graph, residual list sizes, and the vertices allowed re-choice."""

    inner: Graph
    residual_sizes: Tuple[int, ...]
    choice_set: Tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.residual_sizes) != self.inner.n:
            raise ValueError("residual_sizes must cover every inner vertex")
        if any(s < 1 for s in self.residual_sizes):
            raise ValueError("residual sizes are positive")
        if any(v < 0 or v >= self.inner.n for v in self.choice_set):
            raise ValueError("choice_set must be inner vertices")


def l_color(graph: Graph, lists: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """A proper coloring with each vertex colored from its own list, or None.

    Exhaustive backtracking; vertices are processed smallest-list-first.
    """
    if len(lists) != graph.n:
        raise ValueError("lists must cover every vertex")
    order = sorted(range(graph.n), key=lambda v: (len(lists[v]), -graph.degree(v)))
    coloring: Dict[int, int] = {}
    adj = graph.adjacency

    def rec(i: int) -> bool:
        if i == graph.n:
            return True
        v = order[i]
        for c in lists[v]:
            if all(coloring.get(u) != c for u in adj[v]):
                coloring[v] = c
                if rec(i + 1):
                    return True
                del coloring[v]
        return False

    if rec(0):
        return [coloring[v] for v in range(graph.n)]
    return None


def iter_canonical_assignments(sizes: Sequence[int]) -> Iterator[Lists]:
    """Canonical list assignments with the given sizes, one per intersection
    pattern (orbit under color permutation).

    Color types are visited largest-subset-first, so the first assignment
    yielded is the maximally shared one (all lists identical where sizes
    allow).  Colors are numbered in order of first use, which makes each
    yielded assignment the least representative of its orbit in signature
    order.
    """
    n = len(sizes)
    types = sorted(range(1, 1 << n), key=lambda mask: (-bin(mask).count("1"), mask))
    members = [[v for v in range(n) if t >> v & 1] for t in types]
    lists: List[List[int]] = [[] for _ in range(n)]
    next_color = [0]

    def rec(i: int, remaining: List[int]) -> Iterator[Lists]:
        if not any(remaining):
            yield tuple(tuple(lst) for lst in lists)
            return
        if i == len(types):
            return
        mem = members[i]
        cap = min(remaining[v] for v in mem)
        for mult in range(cap, -1, -1):
            if mult:
                base = next_color[0]
                for v in mem:
                    remaining[v] -= mult
                    lists[v].extend(range(base, base + mult))
                next_color[0] += mult
            yield from rec(i + 1, remaining)
            if mult:
                for v in mem:
                    remaining[v] += mult
                    del lists[v][-mult:]
                next_color[0] -= mult

    return rec(0, list(sizes))


@dataclass(frozen=True)
class ChoosabilityVerdict:
    choosable: bool
    witness: Optional[ListAssignment] = None
    method: str = "exhaustive"

    def to_json(self) -> dict:
        return {
            "choosable": self.choosable,
            "witness": self.witness.to_json() if self.witness else None,
            "method": self.method,
        }


def degeneracy(graph: Graph) -> int:
    degs = graph.degrees()
    alive = set(range(graph.n))
    best = 0
    while alive:
        v = min(alive, key=lambda u: (degs[u], u))
        best = max(best, degs[v])
        alive.discard(v)
        for u in graph.adjacency[v]:
            if u in alive:
                degs[u] -= 1
    return best


def is_k_choosable(
    graph: Graph,
    k: int,
    limit_n: int = DEFAULT_N_LIMIT,
    method: str = "auto",
    arc_cap: int = DEFAULT_ARC_CAP,
) -> ChoosabilityVerdict:
    """Decide whether every k-assignment admits a list coloring.

    ``method="auto"`` first tries two exact sufficient checks for a quick
    "yes" (degeneracy below k, then an even/odd orientation certificate)
    and falls back to exhaustive canonical enumeration, which also produces
    a witness assignment on "no".  ``method="exhaustive"`` skips the
    shortcuts.  Inputs beyond ``limit_n`` vertices are rejected, not
    approximated.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > limit_n:
        raise SizeLimitExceededError(f"n = {graph.n} exceeds guard {limit_n}")
    if method not in ("auto", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        if degeneracy(graph) <= k - 1:
            return ChoosabilityVerdict(choosable=True, method="degeneracy")
        if len(graph.edges) <= arc_cap:
            cert = find_certificate(graph, [k] * graph.n, arc_cap=arc_cap)
            if cert is not None:
                return ChoosabilityVerdict(choosable=True, method="alon-tarsi")
    for lists in iter_canonical_assignments([k] * graph.n):
        if l_color(graph, lists) is None:
            return ChoosabilityVerdict(
                choosable=False, witness=ListAssignment(lists=lists), method="exhaustive"
            )
    return ChoosabilityVerdict(choosable=True, method="exhaustive")


def check_extension(config: ReducibleConfig) -> bool:
    """True iff the inner graph is colorable from every assignment with the
    configured residual sizes; the choice set is ignored."""
    for lists in iter_canonical_assignments(config.residual_sizes):
        if l_color(config.inner, lists) is None:
            return False
    return True


def check_extension_with_rechoice(config: ReducibleConfig) -> bool:
    """True iff for every assignment of the residual sizes there exist color
    selections for the choice vertices (proper among adjacent choice
    vertices) whose removal from neighboring lists leaves the remaining
    vertices colorable."""
    if not config.choice_set:
        raise ValueError("choice_set must be nonempty")
    g = config.inner
    choice = list(config.choice_set)
    rest = [v for v in range(g.n) if v not in config.choice_set]
    rest_index = {v: i for i, v in enumerate(rest)}
    rest_graph = build_graph(
        [(rest_index[u], rest_index[v]) for u, v in g.edges if u in rest_index and v in rest_index],
        n=len(rest),
    )
    choice_edges = [
        (a, b) for a, b in itertools.combinations(choice, 2) if g.has_edge(a, b)
    ]
    for lists in iter_canonical_assignments(config.residual_sizes):
        extendable = False
        for picks in itertools.product(*[lists[v] for v in choice]):
            sel = dict(zip(choice, picks))
            if any(sel[a] == sel[b] for a, b in choice_edges):
                continue
            reduced = []
            for v in rest:
                lv = [c for c in lists[v] if not any(u in g.adjacency[v] and sel[u] == c for u in choice)]
                reduced.append(lv)
            if all(reduced) and l_color(rest_graph, reduced) is not None:
                extendable = True
                break
        if not extendable:
            return False
    return True


def verify_min_degree(graph: Graph) -> List[int]:
    """Vertices of degree at most 3; empty means the degree test passes."""
    return [v for v in range(graph.n) if graph.degree(v) <= 3]
