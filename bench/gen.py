"""Seeded input generators for the benchmark.

Everything here is independent of the package under test: graphs are
built as plain edge lists, embeddings get their rotation systems from
vertex coordinates, and graph6 is encoded by this module.  The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]


def grid_graph(side: int, share: float, rng: random.Random) -> Tuple[List[Tuple[int, int]], List[Edge]]:
    """A side x side grid in which round(share * squares) seeded unit
    squares get the diagonal from their top-left to bottom-right corner.

    A fixed count and direction keep the work per graph nearly the same
    across seeds; the seed only chooses which squares.  Returns vertex
    coordinates and the canonical (min, max) edge list; vertex (r, c) has
    index r * side + c.
    """
    coords = [(r, c) for r in range(side) for c in range(side)]
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    squares = [r * side + c for r in range(side - 1) for c in range(side - 1)]
    chosen = rng.sample(squares, round(share * len(squares)))
    edges += [(a, a + side + 1) for a in chosen]
    return coords, sorted(edges)


def rotation_by_angle(coords: Sequence[Tuple[int, int]], edges: Sequence[Edge]) -> List[List[int]]:
    """Neighbours of each vertex in counter-clockwise order of direction.

    Straight-line edges between lattice points never cross here, so the
    result is a plane embedding and V - E + F = 2 holds by construction.
    """
    nbrs: List[List[int]] = [[] for _ in coords]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def angle(v: int, w: int) -> float:
        (r0, c0), (r1, c1) = coords[v], coords[w]
        return math.atan2(r1 - r0, c1 - c0)

    return [sorted(ns, key=lambda w, v=v: angle(v, w)) for v, ns in enumerate(nbrs)]


def grid_embedding(side: int, p_diag: float, rng: random.Random) -> Dict:
    coords, edges = grid_graph(side, p_diag, rng)
    return {"n": len(coords), "rotation": rotation_by_angle(coords, edges)}


def cycle(n: int) -> List[Edge]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def wheel(rim: int) -> List[Edge]:
    """Hub 0 joined to every vertex of the rim cycle 1..rim."""
    spokes = [(0, i) for i in range(1, rim + 1)]
    rim_edges = [(i, i + 1) for i in range(1, rim)] + [(1, rim)]
    return spokes + rim_edges


def complete(n: int) -> List[Edge]:
    return [(i, j) for j in range(n) for i in range(j)]


def complete_bipartite(m: int, n: int) -> List[Edge]:
    return [(i, m + j) for i in range(m) for j in range(n)]


def to_graph6(n: int, edges: Sequence[Edge]) -> str:
    """graph6 line for a graph on 0..n-1 (n < 63 uses the short header)."""
    if n < 63:
        head = [n]
    elif n < 258048:
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    else:
        raise ValueError("graph too large for this encoder")
    bits = bytearray(b"0" * (n * (n - 1) // 2 + 5))
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = ord("1")  # column-major upper triangle
    body = [int(bits[k:k + 6], 2) for k in range(0, n * (n - 1) // 2, 6)]
    return "".join(chr(63 + b) for b in head + body)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
