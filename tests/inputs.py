"""Test inputs built in code: seeded triangulated grids (plane embeddings
large enough to hold many overlapping trios), seeded stacked
triangulations (whose links have chords), wheels, the trio embedding,
a dense graph whose exhaustive walk runs out of steps, and the graph6 and
embedding-JSON writers that put graphs into files for the CLI."""

import math
import random

from dischargekit.core import Graph, PlaneGraph, build_graph, embedding_from_json


# A dense 10-vertex graph, 36 of the 45 edges, from a seeded sweep of such
# graphs.  With lists of 5 the peel drops nothing, no certificate is sought
# on more than choosability._AT_MAX_EDGES edges, and the exhaustive walk
# needs more than choosability.MAX_WALK_STEPS steps.
STEP_BUDGET_EXIT = [
    (0, 1), (0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7),
    (1, 8), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 9), (3, 4), (3, 6), (3, 7), (3, 9), (4, 5),
    (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
]


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


def wheel(spokes: int) -> PlaneGraph:
    """The wheel with hub 0 and rim 1..spokes, embedded with every spoke
    triangle as a face."""
    rim = range(1, spokes + 1)
    rotation = [list(rim)] + [[0, (i - 2) % spokes + 1, i % spokes + 1] for i in rim]
    return embedding_from_json({"n": spokes + 1, "rotation": rotation})


def stacked_triangulation(n: int, deletions: int, seed: int) -> PlaneGraph:
    """A seeded stacked triangulation on ``n`` >= 3 vertices, less up to
    ``deletions`` seeded edges, embedded by networkx's ``check_planarity``.

    From a triangle, each new vertex is joined to the three corners of a
    seeded one of the triangles made so far, which it splits in three, so
    the graph has separating triangles and its links have chords.  An edge
    is deleted only if the graph stays connected.  Labels are shuffled, so
    that the smallest link tuple of a trio is not the first one made.
    """
    import networkx as nx

    rng = random.Random(seed)
    g = nx.Graph([(0, 1), (1, 2), (0, 2)])
    triangles = [(0, 1, 2)]
    for new in range(3, n):
        a, b, c = triangles.pop(rng.randrange(len(triangles)))
        g.add_edges_from([(a, new), (b, new), (c, new)])
        triangles += [(a, b, new), (b, c, new), (a, c, new)]
    edges = sorted(g.edges)
    rng.shuffle(edges)
    for e in edges[:deletions]:
        g.remove_edge(*e)
        if not nx.is_connected(g):
            g.add_edge(*e)
    label = list(range(n))
    rng.shuffle(label)
    g = nx.relabel_nodes(g, dict(enumerate(label)))
    _, embedding = nx.check_planarity(g)
    return PlaneGraph(build_graph(g.edges, n=n), [list(embedding.neighbors_cw_order(v)) for v in range(n)])


def stacked_triangulations() -> list:
    """240 seeded stacked triangulations on 5-30 vertices, each less up to
    as many edges as it has vertices."""
    rng = random.Random(43)
    sizes = [rng.randint(5, 30) for _ in range(240)]
    return [stacked_triangulation(n, rng.randint(0, n), seed) for seed, n in enumerate(sizes)]


def trio_embedding() -> PlaneGraph:
    """The trio graph (x=0, y=1, u=2, v=3, w=4) embedded with its three
    triangles as faces."""
    return embedding_from_json({"n": 5, "rotation": [[1, 2, 3], [0, 3, 4], [3, 0], [1, 0, 2, 4], [3, 1]]})


def write_graph6(graph: Graph) -> str:
    """Encode a graph as a graph6 line (no header)."""
    n = graph.n
    if n <= 62:
        prefix = [n]
    elif n <= 258047:
        prefix = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        prefix = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if j in graph.adjacency[i] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        byte = 0
        for b in bits[k:k + 6]:
            byte = (byte << 1) | b
        body.append(byte)
    return "".join(chr(63 + b) for b in prefix + body)


def embedding_to_json(embedding: PlaneGraph) -> dict:
    return {"n": embedding.graph.n, "rotation": [list(r) for r in embedding.rotation]}
