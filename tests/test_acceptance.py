"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion before
asserting, so the suite output doubles as a checklist.
"""

import itertools
import random
import sys
import time

from dischargekit import fixtures
from dischargekit.alon_tarsi import count_eulerian
from dischargekit.choosability import check_extension, is_k_choosable
from dischargekit.core import Orientation, build_graph
from dischargekit.discharging import RuleSet, apply_rules
from dischargekit.structures import StepBudget, VertexRole, check_conditions
from oracles import count_eulerian_brute, find_trios_scan, initial_charges, l_color, l_color_brute, role_in


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def is_bipartite(graph):
    """True if ``graph`` has a proper 2-colouring, i.e. no odd cycle."""
    colour = [None] * graph.n
    for root in range(graph.n):
        if colour[root] is not None:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in graph.adjacency[u]:
                if colour[w] is None:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def test_eulerian_counts_match_published_values():
    # g1 and g3 reproduce the published pairs.  The published g2 pair (3, 1)
    # is out of reach: the bundled g2 is the 2x1 grid, which is bipartite, so
    # every directed cycle has even length, every Eulerian arc subset has even
    # size and the odd count is 0 for every orientation.  g2 is therefore
    # checked against the pair it attains, confirmed by the brute-force
    # oracle, and the published pair must stay in the table as unattainable.
    published = fixtures.PUBLISHED_COUNTS
    oris = fixtures.fig_orientations()
    got = {}
    secs = {}
    for name in ("g1", "g2", "g3"):
        start = time.perf_counter()
        got[name] = count_eulerian(oris[name]).as_tuple()
        secs[name] = time.perf_counter() - start
    brute_g2 = count_eulerian_brute(oris["g2"]).as_tuple()
    unattainable = is_bipartite(oris["g2"].base) and published["g2"][1] != 0
    ok = got["g1"] == published["g1"] and got["g3"] == published["g3"]
    ok = ok and got["g2"] == brute_g2 == (3, 0) and unattainable
    ok = ok and all(s < 1.0 for s in secs.values())
    detail = {
        "g1": f"expected {published['g1']} got {got['g1']}",
        "g2": f"published {published['g2']} {'unattainable' if unattainable else 'NOT shown unattainable'}"
        f" got {got['g2']} brute {brute_g2}",
        "g3": f"expected {published['g3']} got {got['g3']}",
    }
    report(
        "eulerian-counts",
        ok,
        "; ".join(f"{n}: {detail[n]} in {secs[n] * 1e3:.1f} ms" for n in sorted(got)),
    )


def test_charge_conservation_on_all_bundled_embeddings():
    start = time.perf_counter()
    embs = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
    ok = True
    for emb in embs:
        ok = ok and initial_charges(emb).total() == -12
        ok = ok and apply_rules(emb, RuleSet()).total() == -12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report("charge-conservation", ok, f"{len(embs)} embeddings in {elapsed:.2f}s")


def test_choosability_ground_truths():
    c3 = build_graph([(0, 1), (1, 2), (0, 2)])
    c4 = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    k4 = build_graph(list(itertools.combinations(range(4), 2)))
    k5 = build_graph(list(itertools.combinations(range(5), 2)))
    cases = [(c4, 2, True), (c3, 2, False), (k4, 3, False), (k4, 4, True), (k5, 4, False)]
    ok = True
    for graph, k, want in cases:
        start = time.perf_counter()
        verdict = is_k_choosable(graph, k)
        ok = ok and verdict.choosable == want and time.perf_counter() - start < 30.0
        if graph is c3:
            ok = ok and verdict.witness.lists == ((0, 1), (0, 1), (0, 1))
    report("choosability-ground-truths", ok)


def test_reducibility_of_builtin_configurations():
    ok = True
    for _, config, want in fixtures.REDUCE_CHECKS:
        start = time.perf_counter()
        ok = ok and check_extension(fixtures.reducible_config(config)) == want and time.perf_counter() - start < 60.0
    report("reducibility", ok)


def test_oracle_equivalence():
    rng = random.Random(20260823)
    mismatches = 0
    done = 0
    while done < 100:
        n = rng.randint(2, 6)
        arcs = []
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.6:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        if len(arcs) > 14:
            continue
        g = build_graph([(min(a), max(a)) for a in arcs], n=n)
        o = Orientation(g, tuple(arcs))
        if count_eulerian(o).as_tuple() != count_eulerian_brute(o).as_tuple():
            mismatches += 1
        done += 1
    for _ in range(100):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = build_graph(edges, n=n)
        lists = [
            tuple(sorted(rng.sample(range(6), rng.randint(1, 4)))) for _ in range(n)
        ]
        if (l_color(g, lists) is None) != (l_color_brute(g, lists) is None):
            mismatches += 1
    report("oracle-equivalence", mismatches == 0, f"{mismatches} mismatches")


def test_structure_detection():
    ok = True
    trio = fixtures.trio_graph()
    _, occs = check_conditions(trio, StepBudget(trio))
    ok = ok and len(occs) == 1 and occs == find_trios_scan(trio)
    expected_roles = {
        0: VertexRole.WORSE,
        1: VertexRole.WORSE,
        2: VertexRole.BAD,
        3: VertexRole.WORST,
        4: VertexRole.BAD,
    }
    for v, want in expected_roles.items():
        triangles = [t for t in occs[0].triangles if v in t]
        ok = ok and all(role_in(trio, v, t) is want for t in triangles)

    rim = [(i, (i + 1) % 5) for i in range(5)]
    wheel = build_graph(rim + [(i, 5) for i in range(5)])
    (thm1, _, _), _ = check_conditions(wheel, StepBudget(wheel))
    ok = ok and not thm1.holds

    glued = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 5)])
    (_, _, corollary), _ = check_conditions(glued, StepBudget(glued))
    ok = ok and not corollary.holds

    c5 = build_graph(rim)
    ok = ok and all(c.holds for c in check_conditions(c5, StepBudget(c5))[0])
    report("structure-detection", ok)


def test_demo_corpus_is_4_choosable():
    graphs = fixtures.demo_graphs()
    ok = len(graphs) == 50
    for g in graphs:
        ok = ok and g.n <= 10
        (_, _, corollary), _ = check_conditions(g, StepBudget(g))
        ok = ok and corollary.holds
        ok = ok and is_k_choosable(g, 4).choosable
    report("demo-4-choosable", ok, f"{len(graphs)} graphs")
