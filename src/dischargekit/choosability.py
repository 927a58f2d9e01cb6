"""List coloring, k-choosability, and reducibility checks.

Exhaustive list-assignment quantification is done over canonical
assignments: an assignment is determined up to color renaming by the
multiset of "color types" (the set of vertices whose lists share a color),
so enumeration ranges over multisets of nonempty vertex subsets whose
per-vertex multiplicities equal the required list sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .alon_tarsi import find_certificate
from .core import Graph
from .errors import SizeLimitExceededError

Lists = Tuple[Tuple[int, ...], ...]

DEFAULT_N_LIMIT = 10

# The most list assignments one exhaustive check may try.
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
    """An inner graph and the residual list sizes of its vertices."""

    inner: Graph
    residual_sizes: Tuple[int, ...]

    def __post_init__(self):
        if len(self.residual_sizes) != self.inner.n:
            raise ValueError("residual_sizes must cover every inner vertex")
        if any(s < 1 for s in self.residual_sizes):
            raise ValueError("residual sizes are positive")


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
    # Singleton types would come last, in vertex order, and each could only
    # take all its vertex's remaining colours; so they are not enumerated,
    # and what the shared types leave becomes private colours at the end.
    shared = sorted((t for t in range(1, 1 << n) if t & (t - 1)), key=lambda t: (-bin(t).count("1"), t))
    members = [[v for v in range(n) if t >> v & 1] for t in shared]
    all_full = (1 << n) - 1
    lists: List[List[int]] = [[] for _ in range(n)]
    next_color = [0]

    # ``full`` has a bit set for each vertex whose list is full; a type
    # containing one of them can take no colour.
    def rec(i: int, remaining: List[int], full: int) -> Iterator[Lists]:
        if full == all_full:
            yield tuple(tuple(lst) for lst in lists)
            return
        # Recurse only into types given a nonzero multiplicity, so the depth
        # is at most sum(sizes), not the number of types.
        for j in range(i, len(shared)):
            if shared[j] & full:
                continue
            mem = members[j]
            for mult in range(min(remaining[v] for v in mem), 0, -1):
                base = next_color[0]
                filled = full
                for v in mem:
                    remaining[v] -= mult
                    lists[v].extend(range(base, base + mult))
                    if not remaining[v]:
                        filled |= 1 << v
                next_color[0] += mult
                yield from rec(j + 1, remaining, filled)
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

    return rec(0, list(sizes), sum(1 << v for v in range(n) if not sizes[v]))


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


def is_k_choosable(graph: Graph, k: int) -> ChoosabilityVerdict:
    """Decide whether every k-assignment admits a list coloring.

    First tries two exact sufficient checks for a quick "yes" (degeneracy
    below k, then, on graphs of at most ``_AT_MAX_EDGES`` edges, an
    even/odd orientation certificate) and falls back to exhaustive
    canonical enumeration, which also produces a witness assignment on
    "no".  Inputs beyond ``DEFAULT_N_LIMIT`` vertices are rejected, not
    approximated.  The certificate search raises
    ``SizeLimitExceededError`` past ``alon_tarsi.MAX_DP_STATES`` DP states,
    the enumeration past ``MAX_ASSIGNMENT_CHECKS`` assignments.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > DEFAULT_N_LIMIT:
        raise SizeLimitExceededError(f"n = {graph.n} exceeds guard {DEFAULT_N_LIMIT}")
    if degeneracy(graph) <= k - 1:
        return ChoosabilityVerdict(choosable=True, method="degeneracy")
    if len(graph.edges) <= _AT_MAX_EDGES and find_certificate(graph, [k] * graph.n) is not None:
        return ChoosabilityVerdict(choosable=True, method="alon-tarsi")
    witness = _first_uncolourable(graph, [k] * graph.n)
    if witness is None:
        return ChoosabilityVerdict(choosable=True, method="exhaustive")
    return ChoosabilityVerdict(choosable=False, witness=ListAssignment(lists=witness), method="exhaustive")


def _first_uncolourable(graph: Graph, sizes: Sequence[int]) -> Optional[Lists]:
    """The first canonical assignment with these sizes that ``l_color``
    cannot colour, or None.  Raises ``SizeLimitExceededError`` past
    ``MAX_ASSIGNMENT_CHECKS`` assignments."""
    for checked, lists in enumerate(iter_canonical_assignments(sizes)):
        if checked >= MAX_ASSIGNMENT_CHECKS:
            raise SizeLimitExceededError(
                f"exhaustive check needs more than {MAX_ASSIGNMENT_CHECKS} assignments"
            )
        if l_color(graph, lists) is None:
            return lists
    return None


def check_extension(config: ReducibleConfig) -> bool:
    """True iff the inner graph is colorable from every assignment with the
    configured residual sizes.  Raises ``SizeLimitExceededError`` past
    ``MAX_ASSIGNMENT_CHECKS`` assignments."""
    return _first_uncolourable(config.inner, config.residual_sizes) is None
