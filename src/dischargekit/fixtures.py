"""Bundled fixtures: the trio graph and its plane embedding, the reducible
configurations with their residual list sizes, the three certified
orientations of those configurations, platonic-solid embeddings, random
plane graphs, and a demo set of sparse planar graphs whose 5-cycles avoid
3-cycles.

Everything is shipped as package data so checks run offline.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, List

from .choosability import ReducibleConfig
from .core import Graph, Orientation, PlaneGraph, build_graph, embedding_from_json, orientation_from_json, parse_graph6
from .structures import trio_graph

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
RANDOM_EMBEDDING_COUNT = 20

# Expected (even, odd) Eulerian counts for the bundled orientations, as
# published for the three configurations.  Note: the base graph of g2 is
# the 2x1 grid ``structures.CONFIG_2``, which is bipartite, so every
# Eulerian arc subset has even size and no orientation of it can reach an
# odd count of 1; the bundled orientation realizes (3, 0).  The published
# pair is kept on purpose.  tests/test_alon_tarsi.py
# (test_bundled_g2_attainable_counts, over all 128 orientations) and
# tests/test_acceptance.py (test_eulerian_counts_match_published_values,
# by a 2-colouring) prove the odd count is 0.
PUBLISHED_COUNTS = {"g1": (2, 1), "g2": (3, 1), "g3": (2, 1)}


def _data_text(name: str) -> str:
    return resources.files("dischargekit.data").joinpath(name).read_text()


def load_embedding(name: str) -> PlaneGraph:
    return embedding_from_json(_data_text(f"{name}.json"))


def solid_embeddings() -> Dict[str, PlaneGraph]:
    return {name: load_embedding(name) for name in SOLIDS}


def random_embeddings() -> List[PlaneGraph]:
    return [load_embedding(f"random_{i:02d}") for i in range(RANDOM_EMBEDDING_COUNT)]


def trio_embedding() -> PlaneGraph:
    """The trio graph embedded with its three triangles as faces."""
    return load_embedding("trio")


def fig_orientations() -> Dict[str, Orientation]:
    """The three certified configuration orientations, keyed g1/g2/g3."""
    return {k: orientation_from_json(_data_text(f"orientation_{k}.json")) for k in ("g1", "g2", "g3")}


def h_config() -> ReducibleConfig:
    """The trio-shaped subgraph H with residual sizes (x:2, y:3, u:2, v:4,
    w:2) and re-choice vertices {x, u}."""
    return ReducibleConfig(
        inner=trio_graph(),
        residual_sizes=(2, 3, 2, 4, 2),  # x, y, u, v, w
        choice_set=(0, 2),  # x and u
    )


def square_config() -> ReducibleConfig:
    """A 4-face whose residual lists all have size 2."""
    return ReducibleConfig(
        inner=build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], n=4),
        residual_sizes=(2, 2, 2, 2),
    )


def triangle_config() -> ReducibleConfig:
    """A 3-face with residual size 2 everywhere; not reducible."""
    return ReducibleConfig(
        inner=build_graph([(0, 1), (1, 2), (2, 0)], n=3),
        residual_sizes=(2, 2, 2),
    )


def demo_graphs() -> List[Graph]:
    """Fifty sparse planar graphs (n <= 10) in which no 5-cycle shares an
    edge with a 3-cycle."""
    lines = [ln for ln in _data_text("demo_graphs.g6").splitlines() if ln.strip()]
    return [parse_graph6(ln) for ln in lines]
