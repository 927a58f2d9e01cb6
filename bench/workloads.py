"""The benchmark's workloads: fixed, seeded request lists for the CLI.

``build(workload, seed, workdir, fixtures)`` writes the workload's input
files into ``workdir`` and returns its requests.  The package is used
here only to load its bundled fixtures (``fixtures`` is the package's
fixtures module); every generated graph and every known answer comes from
``gen`` and ``oracles``.  Requests pass only ``--input``, ``--format``,
``--k`` and ``--output``, so they stay valid while the CLI's guard flags
change.  The seed chooses the grids' diagonals and the order of the
requests; sizes are fixed, so run time barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import gen
import oracles

WORKLOADS = ("discharge-tri", "detect-sparse", "choose-small")

# discharge-tri: one r x r grid per side, 90% of squares split by a diagonal.
DISCHARGE_SIDES = tuple(range(8, 15))
DISCHARGE_P_DIAG = 0.9
# detect-sparse: larger grids with few diagonals; (side, share of squares).
# The share falls from 0.25 to 0.10 as the side grows, so the grids cost
# about the same and no single grid sets the tail latency.
DETECT_GRIDS = tuple((side, round(0.25 - 0.15 * (side - 16) / 8, 4)) for side in range(16, 25))
# choose-small: graphs with known 2- and 3-choosability.
CHOOSE_K = (2, 3)
AT_K = 5


@dataclass
class Request:
    name: str
    argv: List[str]
    check: Callable[[int, dict], List[str]]
    seeded: bool = False


def small_graphs() -> List[Tuple[str, int, List[gen.Edge]]]:
    graphs = [
        ("C5", 5, gen.cycle(5)),
        ("C6", 6, gen.cycle(6)),
        ("K2,3", 5, gen.complete_bipartite(2, 3)),
        ("K2,4", 6, gen.complete_bipartite(2, 4)),
        ("K3,3", 6, gen.complete_bipartite(3, 3)),
        ("K4", 4, gen.complete(4)),
    ]
    graphs += [(f"W{r}", r + 1, gen.wheel(r)) for r in range(4, 10)]
    return graphs


def known_choosable(name: str, n: int, edges: Sequence[gen.Edge], k: int) -> bool:
    if k == 2:
        return oracles.ert_two_choosable(n, edges)
    if name == "K4" or (name.startswith("W") and int(name[1:]) % 2):
        return False  # contains an odd wheel, which is not 3-colourable
    if name == "K3,3" or name.startswith("W"):
        return True  # K_{3,3} and even wheels are 3-choosable
    if oracles.degeneracy(n, edges) < k:
        return True
    raise ValueError(f"no known 3-choosability answer for {name}")


def _embedding_obj(emb) -> dict:
    return {"n": emb.graph.n, "rotation": [list(r) for r in emb.rotation]}


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _discharge(workdir: Path, seed: int, fixtures) -> List[Request]:
    rng = random.Random(f"discharge-tri:{seed}")
    inputs = []
    for side in DISCHARGE_SIDES:
        inputs.append((f"grid-{side:02d}", gen.grid_embedding(side, DISCHARGE_P_DIAG, rng), True))
    for name, emb in fixtures.solid_embeddings().items():
        inputs.append((f"solid-{name}", _embedding_obj(emb), False))
    for i, emb in enumerate(fixtures.random_embeddings()):
        inputs.append((f"random-{i:02d}", _embedding_obj(emb), False))
    requests = []
    for name, obj, seeded in inputs:
        path = _write(workdir / f"{name}.json", gen.dump_json(obj))
        rotation = obj["rotation"]
        requests.append(Request(
            name,
            ["discharge", "--input", path, "--format", "embedding-json"],
            lambda code, rep, rot=rotation: oracles.check_discharge(code, rep, rot),
            seeded,
        ))
    return requests


def _detect(workdir: Path, seed: int, fixtures) -> List[Request]:
    rng = random.Random(f"detect-sparse:{seed}")
    inputs = []
    for side, p in DETECT_GRIDS:
        coords, edges = gen.grid_graph(side, p, rng)
        inputs.append((f"grid-{side:02d}", len(coords), edges, True))
    for i, graph in enumerate(fixtures.demo_graphs()):
        inputs.append((f"demo-{i:02d}", graph.n, list(graph.edges), False))
    requests = []
    for name, n, edges, seeded in inputs:
        path = _write(workdir / f"{name}.g6", gen.to_graph6(n, edges) + "\n")
        requests.append(Request(
            name,
            ["detect", "--input", path, "--format", "graph6"],
            lambda code, rep, n=n, edges=edges: oracles.check_detect(code, rep, n, edges),
            seeded,
        ))
    return requests


def _choose(workdir: Path, seed: int, fixtures) -> List[Request]:
    requests = []
    for name, n, edges in small_graphs():
        path = _write(workdir / f"{name}.g6", gen.to_graph6(n, edges) + "\n")
        for k in CHOOSE_K:
            expected = known_choosable(name, n, edges, k)
            requests.append(Request(
                f"choosable-k{k}-{name}",
                ["choosable", "--input", path, "--format", "graph6", "--k", str(k)],
                lambda code, rep, n=n, edges=edges, k=k, want=expected: oracles.check_choosable(
                    code, rep, n, edges, k, want
                ),
            ))
    for name, emb in fixtures.solid_embeddings().items():
        path = _write(workdir / f"solid-{name}.json", gen.dump_json(_embedding_obj(emb)))
        edges = list(emb.graph.edges)
        requests.append(Request(
            f"alon-tarsi-k{AT_K}-{name}",
            ["alon-tarsi", "--input", path, "--format", "embedding-json", "--k", str(AT_K)],
            lambda code, rep, edges=edges: oracles.check_certificate(code, rep, edges, AT_K),
        ))
    for name, ori in fixtures.fig_orientations().items():
        obj = {"n": ori.base.n, "arcs": [list(a) for a in ori.arcs]}
        path = _write(workdir / f"orientation-{name}.json", gen.dump_json(obj))
        requests.append(Request(
            f"alon-tarsi-count-{name}",
            ["alon-tarsi", "--input", path, "--format", "orientation-json"],
            lambda code, rep, n=obj["n"], arcs=[tuple(a) for a in obj["arcs"]]: oracles.check_counts(
                code, rep, n, arcs
            ),
        ))
    requests.append(Request("reduce", ["reduce"], oracles.check_reduce))
    requests.append(Request("repro-paper", ["repro-paper"], oracles.check_repro))
    return requests


BUILDERS = {"discharge-tri": _discharge, "detect-sparse": _detect, "choose-small": _choose}


def build(workload: str, seed: int, workdir: Path, fixtures) -> List[Request]:
    """Write the inputs of one workload and return its requests in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    requests = BUILDERS[workload](workdir, seed, fixtures)
    random.Random(f"{workload}:order:{seed}").shuffle(requests)
    for req in requests:
        req.argv += ["--output", str(workdir / "report.json")]
    return requests
