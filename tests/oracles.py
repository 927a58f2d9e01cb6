"""Brute-force reference implementations that the tests compare the
package's fast paths against.  Each follows its definition directly and
is only viable on very small inputs."""

import itertools
from typing import List, Optional, Sequence

from dischargekit.alon_tarsi import EulerianCount
from dischargekit.choosability import ChoosabilityVerdict, ListAssignment, l_color
from dischargekit.core import Graph, Orientation
from dischargekit.errors import SizeLimitExceededError


def count_eulerian_brute(orientation: Orientation, arc_cap: int = 20) -> EulerianCount:
    """Definitional oracle: enumerate every arc subset."""
    arcs = orientation.arcs
    m = len(arcs)
    if m > arc_cap:
        raise SizeLimitExceededError(f"{m} arcs exceeds brute-force cap {arc_cap}")
    n = orientation.base.n
    even = odd = 0
    for mask in range(1 << m):
        bal = [0] * n
        size = 0
        for i in range(m):
            if mask >> i & 1:
                t, h = arcs[i]
                bal[t] += 1
                bal[h] -= 1
                size += 1
        if all(b == 0 for b in bal):
            if size % 2 == 0:
                even += 1
            else:
                odd += 1
    return EulerianCount(even=even, odd=odd)


def l_color_brute(graph: Graph, lists: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Oracle: try every member of the cartesian product of the lists."""
    for combo in itertools.product(*lists):
        if all(combo[u] != combo[v] for u, v in graph.edges):
            return list(combo)
    return None


def is_k_choosable_raw(graph: Graph, k: int) -> ChoosabilityVerdict:
    """Oracle: enumerate every k-assignment over universe {0..k*n-1} without
    canonicalization.  Only viable for very small graphs."""
    universe = range(k * graph.n)
    for combo in itertools.product(itertools.combinations(universe, k), repeat=graph.n):
        if l_color(graph, combo) is None:
            return ChoosabilityVerdict(choosable=False, witness=ListAssignment(lists=combo))
    return ChoosabilityVerdict(choosable=True)
