"""Even/odd spanning Eulerian subdigraph counting and orientation
certificates for list colorability.

A spanning Eulerian subdigraph is an arc subset with indegree equal to
outdegree at every vertex; it may be disconnected or empty, so the even
count is always at least 1.  An orientation whose even and odd counts
differ certifies colorability from lists of size outdegree + 1, and the
certificate search takes a list size per vertex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import Graph, Orientation, orientation_to_json
from .errors import WorkBudget

# The most work one count or certificate search may do (about a second): the
# DP states built, plus in a search the orientation tree nodes visited.
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


def _plan(graph: Graph):
    """The DP schedule of ``graph``: ``(steps, balanced, bias, mask)``.

    Edges are taken in vertex placement order (``_placement``).  A state
    packs the balances into one integer, ``width`` bits per frontier slot
    holding balance + ``bias``; a vertex's slot is reused once its edges are
    done.  A step is an edge's index and, for its lower and then its upper
    end as tail: the bit offsets of tail and head, the arcs each has still
    to come, and the constant that taking the arc adds."""
    edges = graph.edges
    pos = _placement(graph)
    order = sorted(range(len(edges)), key=lambda e: sorted((pos[v] for v in edges[e]), reverse=True))
    left = graph.degrees()
    width = max(left, default=0).bit_length() + 1
    bias = 1 << (width - 1)
    slot: Dict[int, int] = {}
    free: List[int] = []
    steps = []
    for e in order:
        u, v = edges[e]
        for w in (u, v):
            if w not in slot:
                slot[w] = free.pop() if free else len(slot)
            left[w] -= 1
        su, sv = slot[u] * width, slot[v] * width
        forward = (su, sv, left[u], left[v], (1 << su) - (1 << sv))
        steps.append((e, (forward, (sv, su, left[v], left[u], -forward[4]))))
        for w in (u, v):
            if left[w] == 0:
                free.append(slot.pop(w))
    # every slot is free once all edges are done
    return steps, sum(bias << (s * width) for s in range(len(free))), bias, (1 << width) - 1


def _count(plan, flip: List[int], spend: Callable[[int], None]) -> EulerianCount:
    """(even, odd) counts of balanced arc subsets when edge e's tail is its
    lower end if ``flip[e]`` is 0, else its upper end.  A state is dropped
    once some |balance| exceeds that vertex's arcs still to come, as it can
    no longer close at 0.  Each step's states are spent."""
    steps, balanced, bias, mask = plan
    # state -> (even, odd) counts of the arc subsets chosen so far
    states: Dict[int, Tuple[int, int]] = {balanced: (1, 0)}
    built = 0
    for e, directed in steps:
        st, sh, lt, lh, delta = directed[flip[e]]
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
        spend(len(new))
    even, odd = states.get(balanced, (0, 0))
    return EulerianCount(even=even, odd=odd, states=built)


def count_eulerian(orientation: Orientation) -> EulerianCount:
    """Exact (even, odd) counts of balanced arc subsets, by the frontier DP
    of ``_plan`` and ``_count``; the arcs may come in any order.  Raises
    ``SizeLimitExceededError`` past ``MAX_DP_STATES`` DP states."""
    flipped = {(h, t) for t, h in orientation.arcs if t > h}
    flip = [int(e in flipped) for e in orientation.base.edges]
    spend = WorkBudget(MAX_DP_STATES, "Eulerian count", "DP states").spend
    return _count(_plan(orientation.base), flip, spend)


@dataclass(frozen=True)
class AtCertificate:
    """An orientation witnessing colorability from lists of size outdeg+1."""

    orientation: Orientation
    counts: EulerianCount

    def to_json(self) -> dict:
        outdegrees = self.orientation.outdegrees()
        return {
            "orientation": orientation_to_json(self.orientation),
            "even": self.counts.even,
            "odd": self.counts.odd,
            "outdegrees": outdegrees,
            "list_size_bound": [d + 1 for d in outdegrees],
        }


def find_certificate(graph: Graph, k: int) -> Optional[AtCertificate]:
    """First orientation with outdegrees below ``k`` and even != odd, or
    None: ``find_list_certificate`` with every list of size ``k``."""
    if k < 1:
        raise ValueError("k must be positive")
    return find_list_certificate(graph, [k] * graph.n)


def find_list_certificate(graph: Graph, sizes: Sequence[int]) -> Optional[AtCertificate]:
    """First orientation with each outdegree below its vertex's list size
    and even != odd, or None.  By the Alon–Tarsi theorem, such an
    orientation shows that the graph is colourable from every assignment
    of lists with these sizes.

    Orientations are the leaves of a tree walked depth first: the i-th step
    down directs edge i of ``graph.edges`` from its lower end first, and
    from an end v only while its outdegree is below ``sizes[v]`` - 1.
    Every leaf is counted along one plan.  Raises ``SizeLimitExceededError``
    once the tree nodes visited and the DP states built pass
    ``MAX_DP_STATES``."""
    if any(s < 1 for s in sizes):
        raise ValueError("list sizes must be positive")
    edges = graph.edges
    cap = [s - 1 for s in sizes]
    if sum(cap) < len(edges):
        # the outdegrees of every orientation add up to the edge count
        return None
    plan = _plan(graph)
    spend = WorkBudget(MAX_DP_STATES, "certificate search", "tree nodes and DP states").spend
    out = [0] * graph.n
    # per directed edge: 0 if its lower end is the tail, 1 if its upper end is
    flip: List[int] = []
    f = 0  # the end of edge len(flip) to try next as its tail
    while True:
        i = len(flip)
        if i == len(edges):
            counts = _count(plan, flip, spend)
            if counts.even != counts.odd:
                arcs = tuple((v, u) if d else (u, v) for (u, v), d in zip(edges, flip))
                return AtCertificate(orientation=Orientation(graph, arcs), counts=counts)
        elif f < 2:
            tail = edges[i][f]
            if out[tail] < cap[tail]:
                out[tail] += 1
                flip.append(f)
                spend(1)
                f = 0
            else:
                f += 1
            continue
        if not flip:
            return None
        f = flip.pop()
        out[edges[i - 1][f]] -= 1
        f += 1
