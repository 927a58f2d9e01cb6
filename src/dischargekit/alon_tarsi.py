"""Even/odd spanning Eulerian subdigraph counting and orientation
certificates for list colorability.

A spanning Eulerian subdigraph is an arc subset with indegree equal to
outdegree at every vertex; it may be disconnected or empty, so the even
count is always at least 1.  An orientation whose even and odd counts
differ certifies colorability from lists of size outdegree + 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Graph, Orientation, orientation_to_json, orientations_with_max_outdegree
from .errors import SizeLimitExceededError

# The most DP states one count, or one certificate search over all its
# orientations, may build before it gives up (about a second of work).
MAX_DP_STATES = 1_000_000


@dataclass(frozen=True)
class EulerianCount:
    even: int
    odd: int
    # DP states built to reach the counts: work done, not part of the answer.
    states: int = field(default=0, compare=False, repr=False)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.even, self.odd)


def _placement(graph: Graph) -> List[int]:
    """Position of each vertex when the next one placed is always the one
    with the most neighbours already placed (ties to the lowest index)."""
    placed = [0] * graph.n
    position = [-1] * graph.n
    heap = [(0, v) for v in range(graph.n)]
    for i in range(graph.n):
        while True:
            neg, v = heapq.heappop(heap)
            if position[v] < 0 and -neg == placed[v]:
                break
        position[v] = i
        for u in graph.adjacency[v]:
            if position[u] < 0:
                placed[u] += 1
                heapq.heappush(heap, (-placed[u], u))
    return position


def count_eulerian(orientation: Orientation) -> EulerianCount:
    """Exact (even, odd) counts of balanced arc subsets.

    A frontier dynamic program: arcs are taken in vertex placement order
    (``_placement``), and a state is the out-minus-in balance of every
    vertex with arcs still to come.  A state is dropped as soon as some
    |balance| exceeds that vertex's arcs still to come, since it can no
    longer close at 0.  Balances are packed into one integer, a field of
    ``width`` bits per frontier slot holding balance + ``bias``, so taking
    an arc adds a constant; a vertex's slot is reused once its arcs are
    done.  Raises ``SizeLimitExceededError`` past ``MAX_DP_STATES`` states.
    """
    arcs = orientation.arcs
    if not arcs:
        return EulerianCount(even=1, odd=0)
    pos = _placement(orientation.base)
    order = sorted(arcs, key=lambda a: (max(pos[a[0]], pos[a[1]]), min(pos[a[0]], pos[a[1]])))
    left = orientation.base.degrees()
    width = max(left).bit_length() + 1
    bias, mask = 1 << (width - 1), (1 << width) - 1
    slot: Dict[int, int] = {}
    free: List[int] = []
    slots = 0
    # per arc: the bit offsets of its tail's and head's fields, and the
    # arcs each of the two has still to come after this one
    plan = []
    for t, h in order:
        for v in (t, h):
            if v not in slot:
                if free:
                    slot[v] = free.pop()
                else:
                    slot[v], slots = slots, slots + 1
        left[t] -= 1
        left[h] -= 1
        plan.append((slot[t] * width, slot[h] * width, left[t], left[h]))
        for v in (t, h):
            if left[v] == 0:
                free.append(slot.pop(v))
    balanced = sum(bias << (s * width) for s in range(slots))
    # state -> (even, odd) counts of the arc subsets chosen so far
    states: Dict[int, Tuple[int, int]] = {balanced: (1, 0)}
    built = 0
    for st, sh, lt, lh in plan:
        delta = (1 << st) - (1 << sh)
        new: Dict[int, Tuple[int, int]] = {}
        get = new.get
        for key, (ev, od) in states.items():
            bt = (key >> st & mask) - bias
            bh = (key >> sh & mask) - bias
            if -lt <= bt <= lt and -lh <= bh <= lh:
                cell = get(key)
                new[key] = (ev, od) if cell is None else (cell[0] + ev, cell[1] + od)
            if -lt <= bt + 1 <= lt and -lh <= bh - 1 <= lh:
                taken = key + delta
                cell = get(taken)
                new[taken] = (od, ev) if cell is None else (cell[0] + od, cell[1] + ev)
        states = new
        built += len(new)
        if built > MAX_DP_STATES:
            raise SizeLimitExceededError(f"Eulerian count needs more than {MAX_DP_STATES} DP states")
    even, odd = states.get(balanced, (0, 0))
    return EulerianCount(even=even, odd=odd, states=built)


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


def find_certificate(graph: Graph, list_sizes: Sequence[int]) -> Optional[AtCertificate]:
    """First orientation (in canonical enumeration order) with outdegrees
    below the list sizes and even != odd, or None after exhausting them.

    Raises ``SizeLimitExceededError`` once the DPs of the orientations
    tried have built more than ``MAX_DP_STATES`` states together."""
    if any(s < 1 for s in list_sizes):
        raise ValueError("list sizes must be positive")
    if sum(s - 1 for s in list_sizes) < len(graph.edges):
        # the outdegrees of every orientation add up to the edge count
        return None
    bound = max((s - 1 for s in list_sizes), default=0)
    built = 0
    for orientation in orientations_with_max_outdegree(graph, bound):
        if any(d + 1 > list_sizes[v] for v, d in enumerate(orientation.outdegrees())):
            continue
        counts = count_eulerian(orientation)
        if counts.even != counts.odd:
            return AtCertificate(orientation=orientation, counts=counts)
        built += counts.states
        if built > MAX_DP_STATES:
            raise SizeLimitExceededError(f"certificate search needs more than {MAX_DP_STATES} DP states")
    return None
