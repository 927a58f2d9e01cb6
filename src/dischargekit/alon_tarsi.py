"""Even/odd spanning Eulerian subdigraph counting and orientation
certificates for list colorability.

A spanning Eulerian subdigraph is an arc subset with indegree equal to
outdegree at every vertex; it may be disconnected or empty, so the even
count is always at least 1.  An orientation whose even and odd counts
differ certifies colorability from lists of size outdegree + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Graph, Orientation, orientation_to_json, orientations_with_max_outdegree
from .errors import SizeLimitExceededError

DEFAULT_ARC_CAP = 30


@dataclass(frozen=True)
class EulerianCount:
    even: int
    odd: int

    def as_tuple(self) -> Tuple[int, int]:
        return (self.even, self.odd)


def count_eulerian(orientation: Orientation, arc_cap: int = DEFAULT_ARC_CAP) -> EulerianCount:
    """Exact (even, odd) counts of balanced arc subsets.

    Uses a frontier dynamic program over arcs grouped by vertex: the state
    is the out-minus-in balance of every vertex that still has unprocessed
    arcs.  Matches the definitional 2^m subset enumeration exactly.
    """
    arcs = orientation.arcs
    m = len(arcs)
    if m > arc_cap:
        raise SizeLimitExceededError(f"{m} arcs exceeds cap {arc_cap}")
    if m == 0:
        return EulerianCount(even=1, odd=0)
    # Process arcs ordered by their larger endpoint so vertices close early.
    order = sorted(range(m), key=lambda i: (max(arcs[i]), min(arcs[i]), i))
    last_touch: Dict[int, int] = {}
    for pos, i in enumerate(order):
        t, h = arcs[i]
        last_touch[t] = pos
        last_touch[h] = pos
    # state: tuple of (vertex, balance) with balance != 0 -> [even, odd]
    states: Dict[Tuple[Tuple[int, int], ...], List[int]] = {(): [1, 0]}
    for pos, i in enumerate(order):
        t, h = arcs[i]
        closing = [v for v in (t, h) if last_touch[v] == pos]
        new: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
        for state, (ev, od) in states.items():
            bal = dict(state)
            for take in (0, 1):
                b = dict(bal)
                if take:
                    b[t] = b.get(t, 0) + 1
                    b[h] = b.get(h, 0) - 1
                if any(b.get(v, 0) != 0 for v in closing):
                    continue
                key = tuple(sorted((v, x) for v, x in b.items() if x != 0))
                cell = new.setdefault(key, [0, 0])
                if take:
                    cell[0] += od
                    cell[1] += ev
                else:
                    cell[0] += ev
                    cell[1] += od
        states = new
    total = states.get((), [0, 0])
    return EulerianCount(even=total[0], odd=total[1])


@dataclass(frozen=True)
class AtCertificate:
    """An orientation witnessing colorability from lists of size outdeg+1."""

    orientation: Orientation
    counts: EulerianCount

    @property
    def list_size_bound(self) -> List[int]:
        return [d + 1 for d in self.orientation.outdegrees()]

    def to_json(self) -> dict:
        return {
            "orientation": orientation_to_json(self.orientation),
            "even": self.counts.even,
            "odd": self.counts.odd,
            "outdegrees": self.orientation.outdegrees(),
            "list_size_bound": self.list_size_bound,
        }


def verify_at_applicable(
    orientation: Orientation,
    list_sizes: Sequence[int],
    arc_cap: int = DEFAULT_ARC_CAP,
) -> bool:
    """True iff list_sizes[v] >= outdeg(v)+1 everywhere and even != odd."""
    if len(list_sizes) != orientation.base.n:
        raise ValueError("list_sizes must cover every vertex")
    if any(list_sizes[v] < d + 1 for v, d in enumerate(orientation.outdegrees())):
        return False
    counts = count_eulerian(orientation, arc_cap=arc_cap)
    return counts.even != counts.odd


def find_certificate(
    graph: Graph,
    list_sizes: Sequence[int],
    arc_cap: int = DEFAULT_ARC_CAP,
) -> Optional[AtCertificate]:
    """First orientation (in canonical enumeration order) with outdegrees
    below the list sizes and even != odd, or None after exhausting them."""
    if any(s < 1 for s in list_sizes):
        raise ValueError("list sizes must be positive")
    if len(graph.edges) > arc_cap:
        raise SizeLimitExceededError(f"{len(graph.edges)} edges exceeds cap {arc_cap}")
    bound = max((s - 1 for s in list_sizes), default=0)
    for orientation in orientations_with_max_outdegree(graph, bound):
        if any(d + 1 > list_sizes[v] for v, d in enumerate(orientation.outdegrees())):
            continue
        counts = count_eulerian(orientation, arc_cap=arc_cap)
        if counts.even != counts.odd:
            return AtCertificate(orientation=orientation, counts=counts)
    return None
