"""List coloring, k-choosability, and reducibility checks.

Exhaustive list-assignment quantification is done over canonical
assignments: an assignment is determined up to color renaming by the
multiset of "color types" (the set of vertices whose lists share a color),
so enumeration ranges over multisets of nonempty vertex subsets whose
per-vertex multiplicities equal the required list sizes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .alon_tarsi import find_list_certificate
from .core import Graph, build_graph
from .errors import SizeLimitExceededError, WorkBudget

Lists = Tuple[Tuple[int, ...], ...]

DEFAULT_N_LIMIT = 10

# The most steps one exhaustive walk may take: nodes entered, leaf checks
# and colourer backtrack steps.
MAX_WALK_STEPS = 100_000

# A core of at most this many edges, counted on the core that ``_peel``
# leaves, gets an orientation certificate search before the walk.  The cap
# picks a method, and so keeps the method labels of the reports; it bounds
# no work, as the search has a budget of its own, past which the walk
# decides.
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


def is_k_choosable(graph: Graph, k: int) -> ChoosabilityVerdict:
    """Decide whether every k-assignment admits a list coloring
    (``_decide``), with a witness assignment on "no".  Inputs beyond
    ``DEFAULT_N_LIMIT`` vertices are rejected, not approximated."""
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > DEFAULT_N_LIMIT:
        raise SizeLimitExceededError(f"n = {graph.n} exceeds guard {DEFAULT_N_LIMIT}")
    method, witness = _decide(graph, [k] * graph.n)
    if witness is None:
        return ChoosabilityVerdict(choosable=True, method=method)
    return ChoosabilityVerdict(choosable=False, witness=ListAssignment(lists=witness), method=method)


def check_extension(config: ReducibleConfig) -> bool:
    """True iff the inner graph is colorable from every assignment with the
    configured residual sizes (``_decide``).  A list longer than its
    vertex's degree is cut to one more: the vertex is peeled either way,
    and the witness that is thrown away stays small."""
    inner = config.inner
    sizes = [min(s, inner.degree(v) + 1) for v, s in enumerate(config.residual_sizes)]
    return _decide(inner, sizes)[1] is None


def _decide(graph: Graph, sizes: Sequence[int]) -> Tuple[str, Optional[Lists]]:
    """The method that decides whether ``graph`` colours from every
    assignment of lists with these sizes, and the first uncolourable
    assignment it finds, or None.

    First ``_peel`` drops every vertex with more colours than neighbours
    left, until none is: such a vertex can be coloured last, so the answer
    is that of the core that is left, and an empty core answers
    "degeneracy".  The core is then tested on the walk's first assignment,
    each list {0, ..., size - 1}: a core that fails it has no certificate,
    and those lists, on every vertex, are the witness.  Then, on a core of
    at most ``_AT_MAX_EDGES`` edges, an orientation certificate for its
    sizes answers "alon-tarsi".  The exhaustive walk
    (``_first_uncolourable``) decides the rest, also where the certificate
    search passes ``alon_tarsi.MAX_DP_STATES`` tree nodes and DP states.
    It lists colour types over the core only, so its witness gives each
    peeled vertex colours of its own.  Lists as long as the degrees of a
    connected graph that is not a Gallai tree always have a certificate
    (Hladký, Král' and Schauz, 2010).

    Raises ``SizeLimitExceededError`` past ``MAX_WALK_STEPS`` steps of the
    walk; the first assignment's test is not charged."""
    nbr = _neighbours(graph)
    core = _peel(nbr, sizes, (1 << graph.n) - 1)
    if not core:
        return "degeneracy", None
    if not _colourer(nbr, sizes, core, core)([(1 << s) - 1 for s in sizes]):
        return "exhaustive", tuple(tuple(range(s)) for s in sizes)
    edges = [(u, v) for u, v in graph.edges if core >> u & core >> v & 1]
    if len(edges) <= _AT_MAX_EDGES:
        keep = [v for v in range(graph.n) if core >> v & 1]
        if len(keep) < graph.n:
            index = {v: i for i, v in enumerate(keep)}
            graph = build_graph([(index[u], index[v]) for u, v in edges], n=len(keep))
        try:
            if find_list_certificate(graph, [sizes[v] for v in keep]) is not None:
                return "alon-tarsi", None
        except SizeLimitExceededError:
            pass
    return "exhaustive", _first_uncolourable(nbr, sizes)


def _colourer(
    nbr: Sequence[int], sizes: Sequence[int], core: int, part: int, spend: Callable[[int], None] = lambda work: None
) -> Callable[..., bool]:
    """A test of whether the vertices of ``part``, a nonempty bitmask within
    ``core``, can be coloured properly from lists given as one colour
    bitmask per vertex; ``nbr`` holds each vertex's neighbours as a
    bitmask.  They are coloured smallest list first, then highest degree
    within ``core``; each takes its lowest colour bit that no earlier
    neighbour took, and the search backtracks.

    A vertex v may also be left to ``fresh[v]`` fresh colours, which no
    list holds but which other vertices' fresh colours may repeat, so long
    as the vertices left so far peel away by their fresh colours
    (``_peel``): those take fresh colours last, in reverse order of their
    dropping.  So a True answer holds for every choice of fresh colours.
    The fresh option is tried after the list colours.  Each backtrack step
    is charged to ``spend``, one unit each."""
    vertices = [v for v in range(len(sizes)) if part >> v & 1]
    order = sorted(vertices, key=lambda v: (sizes[v], -(nbr[v] & core).bit_count()))
    n = len(order)
    earlier = [[j for j in range(i) if nbr[v] >> order[j] & 1] for i, v in enumerate(order)]
    # above every colour of the lists
    fresh_bit = 1 << sum(sizes)
    no_fresh = [0] * len(sizes)

    def colourable(masks: List[int], fresh: Sequence[int] = no_fresh) -> bool:
        taken = [0] * n
        free = [0] * n
        # the vertices left to fresh colours before each position
        left = [0] * (n + 1)
        i = 0
        while True:
            v = order[i]
            f = masks[v]
            for j in earlier[i]:
                f &= ~taken[j]
            if fresh[v] and not _peel(nbr, fresh, left[i] | 1 << v):
                f |= fresh_bit
            free[i] = f
            while not f:
                spend(1)
                i -= 1
                if i < 0:
                    return False
                f = free[i]
            c = f & -f
            free[i] = f ^ c
            taken[i] = c
            left[i + 1] = left[i] | 1 << order[i] if c == fresh_bit else left[i]
            i += 1
            if i == n:
                return True

    return colourable


def _neighbours(graph: Graph) -> List[int]:
    """The neighbours of each vertex, as a bitmask."""
    return [sum(1 << u for u in graph.adjacency[v]) for v in range(graph.n)]


def _peel(nbr: Sequence[int], colours: Sequence[int], alive: int) -> int:
    """The vertices of ``alive``, a bitmask, that are left once every vertex
    with more colours than neighbours left is dropped, until none is.  A
    dropped vertex can be coloured last whatever its neighbours took;
    ``nbr`` holds each vertex's neighbours as a bitmask."""
    while True:
        left = rest = alive
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if colours[v] > (nbr[v] & alive).bit_count():
                alive ^= bit
        if alive == left:
            return alive


def _first_uncolourable(nbr: Sequence[int], sizes: Sequence[int]) -> Optional[Lists]:
    """The first canonical assignment with these sizes that has no proper
    colouring of the graph whose neighbours, as bitmasks, ``nbr`` holds, or
    None.  Raises ``SizeLimitExceededError`` when the walk would take its
    (``MAX_WALK_STEPS`` + 1)-th step.

    The canonical assignments are the nodes of a tree: a child adds one
    shared colour type, a set of at least two vertices, with a multiplicity,
    to the lists of its parent, types being taken largest first and each at
    most once along a path.  Types are sets of vertices of the core that
    ``_peel`` leaves of the graph with the full list sizes: any other vertex
    has more colours than neighbours left in any assignment, so its lists
    decide nothing, and it keeps private colours only.  A node's assignment
    gives every vertex the rest of its list as private colours, and comes
    after those of its children.  Colours are numbered in order of first use
    and kept as one bitmask per vertex.

    A node with a child passes once that child has, so only the leaves
    are coloured.  A vertex with a private colour can take it last, so a
    leaf's check colours only its full vertices, and of those only the
    core that ``_peel`` leaves; an empty core passes without a search.

    Before the walk enters a node with a child, it tests whether every
    assignment in the node's subtree passes, and if so skips the subtree.
    Below the node each vertex v keeps its colours so far and gets
    ``remaining[v]`` fresh ones, which no vertex has yet but which may
    repeat among vertices in any way.  The test, ``_colourer`` with those
    fresh counts, seeks a proper colouring from the colours so far in
    which some vertices are left to fresh colours, so long as those peel
    away by their fresh colours: in every assignment below, the others
    keep their colours, and the vertices left take fresh ones in reverse
    order of their dropping.  It colours only the core.

    The walk is charged for the work it does: one step per node entered,
    one per leaf check and one per backtrack step of a colourer, in skip
    tests and leaf checks alike.  A skipped subtree costs only its test.
    """
    n = len(sizes)
    # the vertices that the types are sets of and that a subtree's test
    # colours
    core = _peel(nbr, sizes, (1 << n) - 1)
    # The shared colour types, kept as bitmasks, largest first, then by
    # value: the order in which the walk takes them.  Singleton types would
    # come last, in vertex order, and each could only take all its vertex's
    # remaining colours: those are the private ones.
    shared = sorted((t for t in range(core + 1) if t & (t - 1) and t | core == core), key=lambda t: (-t.bit_count(), t))
    members = [[v for v in range(n) if t >> v & 1] for t in shared]
    spend = WorkBudget(MAX_WALK_STEPS, "exhaustive check", "steps").spend
    masks = [0] * n
    remaining = list(sizes)
    # per mask of full vertices, the indices of the types that avoid them
    # and the core of a leaf's check
    opened: Dict[int, List[int]] = {}
    cores: Dict[int, int] = {}
    colourers: Dict[int, Callable[..., bool]] = {}

    # whether the vertices of ``part`` colour from the colours so far, and
    # from fresh ones if they are given
    def colourable(part: int, *fresh: Sequence[int]) -> bool:
        if not part:
            return True
        if part not in colourers:
            colourers[part] = _colourer(nbr, sizes, core, part, spend)
        return colourers[part](masks, *fresh)

    # A node with no child is checked where it is met; ``base`` is the next
    # unused colour.  Returns its lists if they are uncolourable.
    def leaf(full: int, base: int) -> Optional[List[int]]:
        spend(1)
        if full not in cores:
            cores[full] = _peel(nbr, sizes, full)
        if colourable(cores[full]):
            return None
        lists = []
        for v in range(n):
            lists.append(masks[v] | ((1 << remaining[v]) - 1) << base)
            base += remaining[v]
        return lists

    # The node whose children add the open types from ``i`` on, if any;
    # ``full`` has a bit set for each vertex whose list is full, and a type
    # containing one of them can take no colour.  Returns the first
    # uncolourable lists of the subtree.  A node with a child passes once
    # its children have: the colours of a child's type are private here,
    # and a private colour clashes with nothing.
    def visit(i: int, full: int, base: int) -> Optional[List[int]]:
        spend(1)
        if full not in opened:
            opened[full] = [j for j, t in enumerate(shared) if not t & full]
        types = opened[full]
        start = bisect_left(types, i)
        if start == len(types):
            return leaf(full, base)
        if colourable(core, remaining):
            return None
        for j in types[start:]:
            mem = members[j]
            for mult in range(min([remaining[v] for v in mem]), 0, -1):
                bits = ((1 << mult) - 1) << base
                filled = full
                for v in mem:
                    masks[v] |= bits
                    remaining[v] -= mult
                    if not remaining[v]:
                        filled |= 1 << v
                found = visit(j + 1, filled, base + mult)
                if found is not None:
                    return found
                for v in mem:
                    masks[v] ^= bits
                    remaining[v] += mult
        return None

    try:
        found = visit(0, sum(1 << v for v in range(n) if not sizes[v]), 0)
    finally:
        # ``visit`` calls itself through its closure; emptying that cell
        # frees the walk's tables on return, not at the next full collection
        del visit
    if found is None:
        return None
    return tuple(tuple(c for c in range(m.bit_length()) if m >> c & 1) for m in found)
