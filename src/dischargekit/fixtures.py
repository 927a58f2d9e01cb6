"""Bundled fixtures: the paper's reduce configurations and the built-in
reduce checks over them (residual list sizes derived from the drawn
degrees), the three certified orientations of the paper's configurations,
platonic-solid embeddings, random plane graphs, and a demo set of sparse
planar graphs whose 5-cycles avoid 3-cycles.

Everything is shipped as package data so checks run offline.
"""

from __future__ import annotations

from importlib import resources
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .choosability import ReducibleConfig
from .core import Graph, Orientation, PlaneGraph, build_graph, embedding_from_json, orientation_from_json, parse_graph6
from .structures import trio_graph

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
RANDOM_EMBEDDING_COUNT = 20

# Expected (even, odd) Eulerian counts for the bundled orientations, as
# published for the three configurations.  Note: the base graph of g2 is
# the 2x1 grid of configuration 2, which is bipartite, so every
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


def fig_orientations() -> Dict[str, Orientation]:
    """The three certified configuration orientations, keyed g1/g2/g3."""
    return {k: orientation_from_json(_data_text(f"orientation_{k}.json")) for k in ("g1", "g2", "g3")}


@dataclass(frozen=True)
class FixedConfig:
    """A small pattern graph plus per-vertex host-degree constraints.

    ``exact_degrees[i]`` is the required host degree of pattern vertex i, or
    None when only an upper bound applies (``max_degrees``).
    """

    name: str
    pattern: Graph
    exact_degrees: Tuple[int | None, ...]
    max_degrees: Tuple[int | None, ...]


# H: trio shape, x=0 y=1 u=2 v=3 w=4; d(x) <= 5, others exactly 4.
CONFIG_H = FixedConfig("H", trio_graph(), (None, 4, 4, 4, 4), (5, None, None, None, None))
# A 4-face and a 3-face with every vertex of drawn degree 4.
CONFIG_SQUARE = FixedConfig("square", build_graph([(0, 1), (1, 2), (2, 3), (0, 3)]), (4,) * 4, (None,) * 4)
CONFIG_TRIANGLE = FixedConfig("triangle", build_graph([(0, 1), (1, 2), (0, 2)]), (4,) * 3, (None,) * 3)


def reducible_config(config: FixedConfig) -> ReducibleConfig:
    """The extension problem of a fixed configuration: each vertex's residual
    list size is 4 minus its drawn neighbours outside the pattern, a degree
    bound counting as the drawn degree."""
    pat = config.pattern
    drawn = [m if e is None else e for e, m in zip(config.exact_degrees, config.max_degrees)]
    sizes = tuple(4 - (d - pat.degree(v)) for v, d in enumerate(drawn))
    return ReducibleConfig(inner=pat, residual_sizes=sizes)


# The built-in reduce checks: (name, configuration, expected verdict).
# H keeps the paper's name "with re-choice" because the reduce and
# repro-paper reports carry it; re-choice cannot change its verdict.
REDUCE_CHECKS = (
    ("H-with-rechoice", CONFIG_H, True),
    ("square-2222", CONFIG_SQUARE, True),
    ("triangle-222", CONFIG_TRIANGLE, False),
)


def demo_graphs() -> List[Graph]:
    """Fifty sparse planar graphs (n <= 10) in which no 5-cycle shares an
    edge with a 3-cycle."""
    lines = [ln for ln in _data_text("demo_graphs.g6").splitlines() if ln.strip()]
    return [parse_graph6(ln) for ln in lines]
