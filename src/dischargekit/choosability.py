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

from .alon_tarsi import find_certificate, find_list_certificate
from .core import Graph, build_graph
from .errors import SizeLimitExceededError, WorkBudget

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
    """Decide whether every k-assignment admits a list coloring.

    Degeneracy below k, that is, an empty core once ``_peel`` drops every
    vertex of degree below k, answers "yes" at once.  Otherwise the first
    canonical assignment, every list {0, ..., k-1}, is tested on the core:
    a graph that is not k-colourable fails it, has no certificate, and
    gets it as the witness.  Then, on graphs of at most ``_AT_MAX_EDGES``
    edges, an even/odd orientation certificate may answer "yes", and the
    exhaustive canonical enumeration decides the rest, with a witness
    assignment on "no".  Inputs beyond ``DEFAULT_N_LIMIT`` vertices are
    rejected, not approximated.  The certificate search raises
    ``SizeLimitExceededError`` past ``alon_tarsi.MAX_DP_STATES`` tree nodes
    and DP states, the enumeration past ``MAX_ASSIGNMENT_CHECKS`` assignments.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > DEFAULT_N_LIMIT:
        raise SizeLimitExceededError(f"n = {graph.n} exceeds guard {DEFAULT_N_LIMIT}")
    sizes = [k] * graph.n
    core = _peel(graph, sizes, (1 << graph.n) - 1)
    if not core:
        return ChoosabilityVerdict(choosable=True, method="degeneracy")
    if not _colourer(graph, sizes, core)([(1 << k) - 1] * graph.n):
        witness = ListAssignment(lists=(tuple(range(k)),) * graph.n)
        return ChoosabilityVerdict(choosable=False, witness=witness, method="exhaustive")
    if len(graph.edges) <= _AT_MAX_EDGES and find_certificate(graph, k) is not None:
        return ChoosabilityVerdict(choosable=True, method="alon-tarsi")
    witness = _first_uncolourable(graph, sizes)
    if witness is None:
        return ChoosabilityVerdict(choosable=True, method="exhaustive")
    return ChoosabilityVerdict(choosable=False, witness=ListAssignment(lists=witness), method="exhaustive")


def _colourer(graph: Graph, sizes: Sequence[int], core: int) -> Callable[[List[int]], bool]:
    """A test of whether the vertices of ``core``, a nonempty bitmask, can
    be coloured properly from lists given as one colour bitmask per vertex
    of ``graph``.  They are coloured smallest list first, then highest
    degree; each takes its lowest colour bit that no earlier neighbour
    took, and the search backtracks."""
    order = sorted((v for v in range(graph.n) if core >> v & 1), key=lambda v: (sizes[v], -graph.degree(v)))
    n = len(order)
    at = {v: i for i, v in enumerate(order)}
    earlier = [[at[u] for u in graph.adjacency[v] if at.get(u, n) < i] for i, v in enumerate(order)]

    def colourable(masks: List[int]) -> bool:
        taken = [0] * n
        free = [0] * n
        free[0] = masks[order[0]]
        i = 0
        while i >= 0:
            f = free[i]
            if not f:
                i -= 1
                continue
            c = f & -f
            free[i] = f ^ c
            taken[i] = c
            i += 1
            if i == n:
                return True
            f = masks[order[i]]
            for j in earlier[i]:
                f &= ~taken[j]
            free[i] = f
        return False

    return colourable


def _peel(graph: Graph, sizes: Sequence[int], alive: int) -> int:
    """The vertices of ``alive``, a bitmask, that are left once every vertex
    with more colours than neighbours left is dropped, until none is.  A
    dropped vertex can be coloured last whatever its neighbours took."""
    while True:
        left = alive
        for v in range(len(sizes)):
            if alive >> v & 1 and sizes[v] > sum(alive >> u & 1 for u in graph.adjacency[v]):
                alive ^= 1 << v
        if alive == left:
            return alive


def _first_uncolourable(graph: Graph, sizes: Sequence[int]) -> Optional[Lists]:
    """The first canonical assignment with these sizes that has no proper
    colouring, or None.  Raises ``SizeLimitExceededError`` when the
    (``MAX_ASSIGNMENT_CHECKS`` + 1)-th assignment would be checked.

    The canonical assignments are the nodes of a tree: a child adds one
    shared colour type, a set of at least two vertices, with a multiplicity,
    to the lists of its parent, types being taken largest first and each at
    most once along a path.  A node's assignment gives every vertex the rest
    of its list as private colours, and comes after those of its children.
    Colours are numbered in order of first use and kept as one bitmask per
    vertex.

    A node with a child passes once that child has, so only the leaves
    are coloured.  A vertex with a private colour can take it last, so a
    leaf's check colours only its full vertices, and of those only the
    core that ``_peel`` leaves; an empty core passes without a search.
    The types that avoid the full vertices, and the core's test, are built
    once per set of full vertices.  Every node spends one assignment.
    """
    n = len(sizes)
    # Singleton types would come last, in vertex order, and each could only
    # take all its vertex's remaining colours: those are the private ones.
    shared = sorted((t for t in range(1, 1 << n) if t & (t - 1)), key=lambda t: (-bin(t).count("1"), t))
    members = [[v for v in range(n) if t >> v & 1] for t in shared]
    spend = WorkBudget(MAX_ASSIGNMENT_CHECKS, "exhaustive check", "assignments").spend
    masks = [0] * n
    remaining = list(sizes)
    # per mask of full vertices: the open types and the core's test, if any
    known: Dict[int, tuple] = {}

    def node(full: int) -> tuple:
        if full not in known:
            core = _peel(graph, sizes, full)
            colourer = _colourer(graph, sizes, core) if core else None
            known[full] = [j for j, t in enumerate(shared) if not t & full], colourer
        return known[full]

    # A node with no child is checked where it is met; ``base`` is the next
    # unused colour.  Returns its lists if they are uncolourable.
    def leaf(colourable, base: int) -> Optional[List[int]]:
        spend(1)
        if not colourable or colourable(masks):
            return None
        lists = []
        for v in range(n):
            lists.append(masks[v] | ((1 << remaining[v]) - 1) << base)
            base += remaining[v]
        return lists

    # A node with a child, whose children add the open types from ``i`` on.
    # ``full`` has a bit set for each vertex whose list is full; a type
    # containing one of them can take no colour.  Returns the first
    # uncolourable lists of the subtree.  The node itself passes once its
    # children have: the colours of a child's type are private here, and a
    # private colour clashes with nothing.
    def walk(i: int, full: int, base: int) -> Optional[List[int]]:
        types = known[full][0]
        for j in types[bisect_left(types, i):]:
            mem = members[j]
            for mult in range(min([remaining[v] for v in mem]), 0, -1):
                bits = ((1 << mult) - 1) << base
                filled = full
                for v in mem:
                    masks[v] |= bits
                    remaining[v] -= mult
                    if not remaining[v]:
                        filled |= 1 << v
                below, colourable = node(filled)
                if below and below[-1] > j:
                    found = walk(j + 1, filled, base + mult)
                else:
                    found = leaf(colourable, base + mult)
                if found is not None:
                    return found
                for v in mem:
                    masks[v] ^= bits
                    remaining[v] += mult
        spend(1)
        return None

    root = sum(1 << v for v in range(n) if not sizes[v])
    types, colourable = node(root)
    found = walk(0, root, 0) if types else leaf(colourable, 0)
    if found is None:
        return None
    return tuple(tuple(c for c in range(m.bit_length()) if m >> c & 1) for m in found)


def check_extension(config: ReducibleConfig) -> bool:
    """True iff the inner graph is colorable from every assignment with the
    configured residual sizes.  Raises ``SizeLimitExceededError`` past
    ``MAX_ASSIGNMENT_CHECKS`` assignments.

    First ``_peel`` drops every vertex with more colours than neighbours
    left, which keeps the answer.  What is left is tested on the walk's
    first assignment, each list {0, ..., size - 1}: if it fails, it is the
    walk's answer, and no certificate exists.  Then, on a graph of at most
    ``_AT_MAX_EDGES`` edges, an orientation certificate for the sizes left
    answers True.  The walk decides the rest, also where the certificate
    search runs out of its budget.  Lists as long as the degrees of a
    connected graph that is not a Gallai tree always have a certificate
    (Hladký, Král' and Schauz, 2010)."""
    inner, sizes = config.inner, config.residual_sizes
    left = _peel(inner, sizes, (1 << inner.n) - 1)
    if not left:
        return True
    keep = [v for v in range(inner.n) if left >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    rest = build_graph([(index[u], index[v]) for u, v in inner.edges if u in index and v in index], n=len(keep))
    kept = [sizes[v] for v in keep]
    if not _colourer(rest, kept, (1 << rest.n) - 1)([(1 << s) - 1 for s in kept]):
        return False
    if len(rest.edges) <= _AT_MAX_EDGES:
        try:
            if find_list_certificate(rest, kept) is not None:
                return True
        except SizeLimitExceededError:
            pass
    return _first_uncolourable(rest, kept) is None
