"""Seeded triangulated grids: plane embeddings large enough to hold many
overlapping trios, for the cross-checks between fast paths and oracles."""

import math
import random

from dischargekit.core import PlaneGraph, build_graph


def triangulated_grid(side: int, share: float, seed: int) -> PlaneGraph:
    """A side x side lattice in which a seeded ``share`` of the unit squares
    get the diagonal from top-left to bottom-right.

    Vertex (r, c) is r * side + c.  Each rotation lists the neighbours by
    the angle of the straight edge to them; straight lattice edges never
    cross, so the embedding is plane.
    """
    squares = [r * side + c for r in range(side - 1) for c in range(side - 1)]
    chosen = random.Random(seed).sample(squares, round(share * len(squares)))
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    edges += [(v, v + side + 1) for v in chosen]
    graph = build_graph(edges, n=side * side)

    def angle(v: int, w: int) -> float:
        return math.atan2(w // side - v // side, w % side - v % side)

    rotation = [sorted(graph.adjacency[v], key=lambda w, v=v: angle(v, w)) for v in range(graph.n)]
    return PlaneGraph(graph, rotation)
