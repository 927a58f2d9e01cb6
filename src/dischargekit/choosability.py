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

from .alon_tarsi import find_certificate
from .core import Graph, build_graph
from .errors import SizeLimitExceededError

Lists = Tuple[Tuple[int, ...], ...]

DEFAULT_N_LIMIT = 10

# The most (assignment, pick) pairs one exhaustive check may try: one pair
# per list assignment, or per choice of colours for the re-choice vertices.
MAX_ASSIGNMENT_CHECKS = 100_000

# Graphs up to this many edges get an orientation certificate search before
# the exhaustive one.  This picks a method; it is not a guard: on a denser
# graph such as K10 at k = 6 the search would spend its whole DP-state
# budget and fail where the exhaustive check answers "no" at once.
_AT_MAX_EDGES = 30


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex finite color lists over nonnegative integer colors."""

    lists: Lists

    def __post_init__(self):
        if any(not lst for lst in self.lists):
            raise ValueError("every vertex needs a nonempty list")
        if any(c < 0 for lst in self.lists for c in lst):
            raise ValueError("colors are nonnegative integers")

    def to_json(self) -> dict:
        return {"lists": [list(lst) for lst in self.lists]}


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
        if len(set(self.choice_set)) != len(self.choice_set):
            raise ValueError("choice_set names a vertex more than once")


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


def _count_check(checked: int) -> int:
    """``checked + 1``, or ``SizeLimitExceededError`` past the budget."""
    if checked >= MAX_ASSIGNMENT_CHECKS:
        raise SizeLimitExceededError(
            f"exhaustive check needs more than {MAX_ASSIGNMENT_CHECKS} (assignment, pick) pairs"
        )
    return checked + 1


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
    # Singleton types would come last, in vertex order, and each could only
    # take all its vertex's remaining colours; so they are not enumerated,
    # and what the shared types leave becomes private colours at the end.
    shared = sorted((t for t in range(1, 1 << n) if t & (t - 1)), key=lambda t: (-bin(t).count("1"), t))
    members = [[v for v in range(n) if t >> v & 1] for t in shared]
    lists: List[List[int]] = [[] for _ in range(n)]
    next_color = [0]

    def rec(i: int, remaining: List[int]) -> Iterator[Lists]:
        if not any(remaining):
            yield tuple(tuple(lst) for lst in lists)
            return
        # Recurse only into types given a nonzero multiplicity, so the depth
        # is at most sum(sizes), not the number of types.
        for j in range(i, len(shared)):
            mem = members[j]
            for mult in range(min(remaining[v] for v in mem), 0, -1):
                base = next_color[0]
                for v in mem:
                    remaining[v] -= mult
                    lists[v].extend(range(base, base + mult))
                next_color[0] += mult
                yield from rec(j + 1, remaining)
                for v in mem:
                    remaining[v] += mult
                    del lists[v][-mult:]
                next_color[0] -= mult
        base = next_color[0]
        private = []
        for v in range(n):
            private.append(tuple(lists[v]) + tuple(range(base, base + remaining[v])))
            base += remaining[v]
        yield tuple(private)

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


def is_k_choosable(graph: Graph, k: int, limit_n: int = DEFAULT_N_LIMIT) -> ChoosabilityVerdict:
    """Decide whether every k-assignment admits a list coloring.

    First tries two exact sufficient checks for a quick "yes" (degeneracy
    below k, then, on graphs of at most ``_AT_MAX_EDGES`` edges, an
    even/odd orientation certificate) and falls back to exhaustive
    canonical enumeration, which also produces a witness assignment on
    "no".  Inputs beyond ``limit_n`` vertices are rejected, not
    approximated.  The certificate search raises
    ``SizeLimitExceededError`` past ``alon_tarsi.MAX_DP_STATES`` DP states,
    the enumeration past ``MAX_ASSIGNMENT_CHECKS`` assignments.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > limit_n:
        raise SizeLimitExceededError(f"n = {graph.n} exceeds guard {limit_n}")
    if degeneracy(graph) <= k - 1:
        return ChoosabilityVerdict(choosable=True, method="degeneracy")
    if len(graph.edges) <= _AT_MAX_EDGES and find_certificate(graph, [k] * graph.n) is not None:
        return ChoosabilityVerdict(choosable=True, method="alon-tarsi")
    checked = 0
    for lists in iter_canonical_assignments([k] * graph.n):
        checked = _count_check(checked)
        if l_color(graph, lists) is None:
            return ChoosabilityVerdict(
                choosable=False, witness=ListAssignment(lists=lists), method="exhaustive"
            )
    return ChoosabilityVerdict(choosable=True, method="exhaustive")


def check_extension(config: ReducibleConfig) -> bool:
    """True iff the inner graph is colorable from every assignment with the
    configured residual sizes; the choice set is ignored.  Raises
    ``SizeLimitExceededError`` past ``MAX_ASSIGNMENT_CHECKS`` assignments."""
    checked = 0
    for lists in iter_canonical_assignments(config.residual_sizes):
        checked = _count_check(checked)
        if l_color(config.inner, lists) is None:
            return False
    return True


def check_extension_with_rechoice(config: ReducibleConfig) -> bool:
    """True iff for every assignment of the residual sizes there exist color
    selections for the choice vertices (proper among adjacent choice
    vertices) whose removal from neighboring lists leaves the remaining
    vertices colorable.  Raises ``SizeLimitExceededError`` past
    ``MAX_ASSIGNMENT_CHECKS`` (assignment, selection) pairs."""
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
    checked = 0
    for lists in iter_canonical_assignments(config.residual_sizes):
        extendable = False
        for picks in itertools.product(*[lists[v] for v in choice]):
            checked = _count_check(checked)
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

