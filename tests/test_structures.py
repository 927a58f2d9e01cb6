import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest
from inputs import stacked_triangulations, triangulated_grid, wheel, write_graph6
from oracles import (
    ALL_CONFIGS,
    CONFIG_2,
    CONFIG_3,
    check_condition_scan,
    check_conditions_all_cycles,
    check_conditions_steps,
    classify_role_counting,
    cycle_edges,
    enumerate_cycles,
    find_fixed_configs,
    facial_trios_filtered,
    find_trios_scan,
    pattern_automorphisms,
    role_in,
    trio_tuples,
    trio_tuples_scan,
)

from dischargekit import fixtures, structures
from dischargekit.cli import main
from dischargekit.core import build_graph, faces_of
from dischargekit.errors import SizeLimitExceededError
from dischargekit.structures import (
    CONDITIONS,
    StepBudget,
    TrioOccurrence,
    VertexRole,
    check_conditions,
    classify_role,
    facial_trios,
    trio_graph,
)

TRIO_EDGES = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)]  # x y u v w = 0 1 2 3 4


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(outer + inner + spokes)


def cycles_oracle(graph, length):
    """Permutation-based enumeration, independent of the DFS path search."""
    found = set()
    for comb in itertools.combinations(range(graph.n), length):
        for perm in itertools.permutations(comb[1:]):
            cyc = (comb[0],) + perm
            if all(cyc[(i + 1) % length] in graph.adjacency[cyc[i]] for i in range(length)):
                found.add(frozenset(cycle_edges(cyc)))
    return found


def random_graph(rng, n, p):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(edges, n=n)


def detected_trios(graph):
    """The trios that ``check_conditions`` finds on the graph."""
    return check_conditions(graph, StepBudget(graph))[1]


def counting_reads(graph):
    """The graph with adjacency sets that count the elements read from
    them and from the sets that their intersections make, and the
    one-item list that holds the count."""
    read = [0]

    class Counted(frozenset):
        def __iter__(self):
            read[0] += len(self)
            return super().__iter__()

        def __sub__(self, other):
            read[0] += len(self)
            return super().__sub__(other)

        def __and__(self, other):
            read[0] += min(len(self), len(other))
            return Counted(super().__and__(other))

    return dataclasses.replace(graph, adjacency=tuple(Counted(a) for a in graph.adjacency)), read


class TestEnumerateCycles:
    def test_k4_triangles(self):
        g = build_graph(list(itertools.combinations(range(4), 2)))
        assert len(enumerate_cycles(g, 3)) == 4

    def test_c5_single_cycle(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert enumerate_cycles(g, 5) == [(0, 1, 2, 3, 4)]

    def test_petersen_twelve_5cycles(self):
        g = petersen()
        assert len(enumerate_cycles(g, 5)) == 12

    def test_unsupported_length(self):
        with pytest.raises(ValueError):
            enumerate_cycles(trio_graph(), 6)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 8), 0.45)
            for length in (3, 4, 5):
                got = {frozenset(cycle_edges(c)) for c in enumerate_cycles(g, length)}
                assert got == cycles_oracle(g, length)

    def test_matches_networkx_simple_cycles(self):
        nx = pytest.importorskip("networkx")

        def canonical(cycle):
            i = cycle.index(min(cycle))
            forward = tuple(cycle[i:] + cycle[:i])
            return min(forward, forward[:1] + forward[:0:-1])

        rng = random.Random(21)
        found = 0
        for _ in range(60):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, rng.uniform(0.2, 0.7))
            g_nx = nx.Graph(list(g.edges))
            g_nx.add_nodes_from(range(n))
            for length in (3, 4, 5):
                want = sorted(
                    canonical(c) for c in nx.simple_cycles(g_nx, length_bound=length) if len(c) == length
                )
                assert enumerate_cycles(g, length) == want
                found += len(want)
        # the comparison above also passes on graphs without cycles
        assert found > 1000

    def test_conditions_share_one_budget(self, monkeypatch):
        # Petersen has no triangle, so it spends its edges alone; on the
        # grid and most random graphs, the 5-cycle search crosses the
        # budget after the index and the trio tuples
        rng = random.Random(4)
        graphs = [petersen(), triangulated_grid(6, 0.9, 1).graph]
        graphs += [random_graph(rng, rng.randint(5, 9), rng.uniform(0.4, 0.8)) for _ in range(30)]
        monkeypatch.setattr(structures, "DETECT_STEPS_PER_EDGE", 0)
        searched = 0
        for g in graphs:
            steps = check_conditions_steps(g)
            monkeypatch.setattr(structures, "DETECT_BASE_STEPS", steps)
            budget = StepBudget(g)
            assert check_conditions(g, budget) == (check_conditions_all_cycles(g), find_trios_scan(g))
            assert budget.left == 0
            monkeypatch.setattr(structures, "DETECT_BASE_STEPS", steps - 1)
            with pytest.raises(SizeLimitExceededError, match=f"^detect needs more than {steps - 1} search steps$"):
                check_conditions(g, StepBudget(g))
            before_search = len(g.edges) + 3 * len(enumerate_cycles(g, 3)) + trio_tuples_scan(g)
            searched += before_search < steps
        assert check_conditions_steps(graphs[0]) == 15
        assert searched > 20 and check_conditions_steps(graphs[1]) > 1000

    def test_cliques_stop_before_the_search(self):
        # the index and the trio tuples alone cross K16's budget
        g = build_graph(list(itertools.combinations(range(16), 2)))
        assert len(g.edges) + 3 * len(enumerate_cycles(g, 3)) + trio_tuples(g) > StepBudget(g).limit

    @pytest.mark.parametrize("n", [16, 30])
    def test_cliques_stop_before_any_trio_is_tried(self, n):
        # the trio tuples are charged from the index before any is tried:
        # the budget ends while the elements read stay within a few per
        # index entry, fewer than the trio search reads on K16 alone
        g, read = counting_reads(build_graph(list(itertools.combinations(range(n), 2))))
        budget = StepBudget(g)
        with pytest.raises(SizeLimitExceededError, match=f"^detect needs more than {budget.limit} search steps$"):
            check_conditions(g, budget)
        entries = len(g.edges) + 3 * len(enumerate_cycles(g, 3))
        assert read[0] <= 8 * entries


    @pytest.mark.parametrize("n", [600, 5000])
    def test_set_work_stays_within_the_budget(self, n):
        # K2,n plus the hub edge, hubs first: the elements that the search's
        # set operations and loops read from the adjacency sets and the
        # triangle index stay within a few per step spent, both when it
        # answers (n = 600) and up to the budget exit (n = 5000), so the
        # budget bounds the work
        g, read = counting_reads(build_graph([(0, 1)] + [(h, 2 + i) for h in range(2) for i in range(n)]))
        budget = StepBudget(g)
        try:
            check_conditions(g, budget)
            assert n == 600
        except SizeLimitExceededError:
            assert n == 5000
        assert read[0] <= 4 * (budget.limit - budget.left)


class TestTrios:
    def test_trio_graph_single_occurrence(self):
        occs = detected_trios(trio_graph())
        assert len(occs) == 1
        occ = occs[0]
        assert occ == TrioOccurrence(x=0, y=1, u=2, v=3, w=4)
        assert frozenset(occ) == frozenset(range(5))
        assert occ.triangles == ((0, 2, 3), (0, 1, 3), (1, 3, 4))

    def test_c5_no_trios(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert detected_trios(g) == []

    def test_disjoint_union_additivity(self):
        two = TRIO_EDGES + [(a + 5, b + 5) for a, b in TRIO_EDGES]
        assert len(detected_trios(build_graph(two))) == 2

    def test_equals_permutation_scan(self):
        graphs = [emb.graph for emb in fixtures.solid_embeddings().values()]
        graphs += [emb.graph for emb in fixtures.random_embeddings()]
        graphs += fixtures.demo_graphs()
        graphs += [wheel(spokes).graph for spokes in range(3, 30)]
        graphs += [
            triangulated_grid(side, share, seed).graph
            for side in (6, 10, 14)
            for share in (0.9, 0.5, 0.2)
            for seed in (1, 2)
        ]
        rng = random.Random(29)
        graphs += [random_graph(rng, rng.randint(5, 11), rng.uniform(0.3, 0.7)) for _ in range(200)]
        found = 0
        for g in graphs:
            trios = detected_trios(g)
            scanned = find_trios_scan(g)
            assert trios == scanned
            assert all(type(o) is TrioOccurrence for o in trios + scanned)
            found += len(trios)
        # the comparison above also passes on graphs without trios
        assert found > 1000

    def test_tuple_count_equals_scan(self):
        graphs = [emb.graph for emb in fixtures.solid_embeddings().values()]
        graphs += [wheel(spokes).graph for spokes in range(3, 30)]
        graphs += [build_graph(list(itertools.combinations(range(n), 2))) for n in range(4, 10)]
        rng = random.Random(30)
        graphs += [random_graph(rng, rng.randint(5, 11), rng.uniform(0.3, 0.7)) for _ in range(100)]
        counted = [trio_tuples(g) for g in graphs]
        assert counted == [trio_tuples_scan(g) for g in graphs]
        # K9 tries every ordered 4-tuple of each vertex's 8 neighbours
        assert counted[-101] == 9 * 8 * 7 * 6 * 5


def facial_trio_embeddings():
    """The five solids, the random embeddings, seeded triangulated grids of
    sides 4-14 at five diagonal shares, the wheels W4-W8 and 240 seeded
    stacked triangulations less some edges."""
    embs = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
    embs += [
        triangulated_grid(side, share, side)
        for side in range(4, 15)
        for share in (0, 0.2, 0.5, 0.9, 1)
    ]
    embs += [wheel(spokes) for spokes in range(4, 9)]
    return embs + stacked_triangulations()


class TestFacialTrios:
    def test_matches_find_then_filter(self):
        # the same trios in the same order, with the same face triples, as
        # the trios of check_conditions whose triangles are 3-faces
        pytest.importorskip("networkx")
        found = 0
        for emb in facial_trio_embeddings():
            faces = faces_of(emb)
            trios = facial_trios(emb)
            assert trios == facial_trios_filtered(emb, faces), emb.rotation
            assert all(type(occ) is TrioOccurrence for occ, _ in trios)
            found += len(trios)
        # the comparison above also passes on embeddings without trios
        assert found > 10_000

    def test_octahedron_keeps_the_smallest_link_tuple(self):
        # Every centre has degree 4 and a 4-cycle as its link, so its four
        # windows share one (vertex set, centre) key of check_conditions, which
        # keeps the smallest link tuple of the four neighbours.
        emb = fixtures.load_embedding("octahedron")
        adj = emb.graph.adjacency
        faces = faces_of(emb)
        trios = facial_trios(emb)
        assert [occ.v for occ, _ in trios] == [2, 3, 1, 4, 0, 5]
        for occ, _ in trios:
            link_tuples = [
                TrioOccurrence(x, y, u, occ.v, w)
                for x, y, u, w in itertools.permutations(adj[occ.v], 4)
                if y in adj[x] and u in adj[x] and w in adj[y]
            ]
            assert occ == min(link_tuples)
        # the roles by face index are those the counting oracle gives over
        # the filtered trios that hold the face's triangle
        filtered = [occ for occ, _ in facial_trios_filtered(emb, faces)]
        by_face = classify_role(trios)
        for fi, roles in by_face.items():
            t = tuple(sorted(faces[fi].boundary))
            holding = [occ for occ in filtered if t in occ.triangles]
            assert roles == {s: classify_role_counting(s, t, holding) for s in t}
        assert len(by_face) == 7


def role_graphs():
    """Seeded triangulated grids, the five solids, the random embeddings
    and 100 seeded random graphs."""
    graphs = [triangulated_grid(side, 0.9, seed).graph for side in (6, 8) for seed in (1, 2, 3)]
    graphs += [emb.graph for emb in fixtures.solid_embeddings().values()]
    graphs += [emb.graph for emb in fixtures.random_embeddings()]
    rng = random.Random(41)
    return graphs + [random_graph(rng, rng.randint(5, 9), rng.uniform(0.4, 0.8)) for _ in range(100)]


class TestRoles:
    def test_roles_on_bare_trio(self):
        g = trio_graph()
        t_xuv, t_xyv, t_yvw = frozenset({0, 2, 3}), frozenset({0, 1, 3}), frozenset({1, 3, 4})
        for t in (t_xuv, t_xyv, t_yvw):
            assert role_in(g, 3, t) is VertexRole.WORST
        assert role_in(g, 0, t_xuv) is VertexRole.WORSE
        assert role_in(g, 0, t_xyv) is VertexRole.WORSE
        assert role_in(g, 1, t_xyv) is VertexRole.WORSE
        assert role_in(g, 1, t_yvw) is VertexRole.WORSE
        assert role_in(g, 2, t_xuv) is VertexRole.BAD
        assert role_in(g, 4, t_yvw) is VertexRole.BAD

    def test_good_without_trio(self):
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 minus one edge
        assert detected_trios(g) == []
        for t in enumerate_cycles(g, 3):
            for s in t:
                assert role_in(g, s, t) is VertexRole.GOOD

    def test_exactly_one_role_and_automorphism_invariance(self):
        g = trio_graph()
        rng = random.Random(5)
        perm = list(range(5))
        rng.shuffle(perm)
        relabeled = build_graph([(perm[a], perm[b]) for a, b in g.edges], n=5)
        for t in enumerate_cycles(g, 3):
            for s in t:
                role = role_in(g, s, t)
                assert role is role_in(relabeled, perm[s], frozenset(perm[v] for v in t))

    def test_positions_match_counting_oracle(self):
        # the index of all trios of the graph and of seeded random subsets
        # of them: one entry per triangle of the trios given, one role per
        # vertex of it, and each role that of the counting oracle over the
        # given trios that hold the triangle
        rng = random.Random(42)
        seen = Counter()
        for g in role_graphs():
            trios = detected_trios(g)
            subsets = [rng.sample(trios, rng.randint(0, len(trios))) for _ in range(3)]
            for given in [trios] + subsets:
                index = classify_role([(occ, occ.triangles) for occ in given])
                assert set(index) == {t for occ in given for t in occ.triangles}
                for t, roles in index.items():
                    assert set(roles) == set(t)
                    holding = [occ for occ in given if t in occ.triangles]
                    for s, role in roles.items():
                        assert role is classify_role_counting(s, t, holding), (g.edges, s, t, holding)
                        seen[role, given is trios] += 1
        assert all(seen[role, full] > 100 for role in VertexRole for full in (True, False) if role is not VertexRole.GOOD)


class TestTrioIndex:
    def test_indexed_roles_match_full_scan(self):
        # every vertex of every triangle of the graph, in a trio or not:
        # the index of all trios agrees with the counting oracle over the
        # trios that a full scan finds on the triangle
        seen = Counter()
        for g in role_graphs():
            index = classify_role([(occ, occ.triangles) for occ in detected_trios(g)])
            scanned = find_trios_scan(g)
            for t in (tuple(sorted(c)) for c in enumerate_cycles(g, 3)):
                holding = [occ for occ in scanned if t in occ.triangles]
                for s in t:
                    role = index[t][s] if t in index else VertexRole.GOOD
                    assert role is classify_role_counting(s, t, holding), (g.edges, s, t)
                    seen[role] += 1
        assert all(seen[role] > 10 for role in VertexRole)


class TestConditions:
    def test_c5_all_hold(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        reports, _ = check_conditions(g, StepBudget(g))
        assert [r.condition for r in reports] == list(CONDITIONS)
        assert all(r.holds for r in reports)

    def test_5wheel_violates_thm1(self):
        rim = [(i, (i + 1) % 5) for i in range(5)]
        g = build_graph(rim + [(i, 5) for i in range(5)])
        (thm1, _, _), _ = check_conditions(g, StepBudget(g))
        assert not thm1.holds
        assert (0, 1, 2, 3, 4) in thm1.witnesses

    def test_glued_triangle_pentagon(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 5)])
        (thm1, thm2, corollary), _ = check_conditions(g, StepBudget(g))
        assert not corollary.holds
        assert not thm1.holds
        assert thm2.holds

    def test_two_triangles_violate_thm2(self):
        g = build_graph(
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 5), (2, 6), (3, 6)]
        )
        (_, thm2, _), _ = check_conditions(g, StepBudget(g))
        assert not thm2.holds

    def test_chorded_4cycle_alone_violates_thm2(self):
        # Diamond 0-1-2-3 with chord 02; the 5-cycle 0-1-4-5-6 shares the
        # outer edge 01 with it and lies on no triangle but 012.
        diamond = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        g = build_graph(diamond + [(1, 4), (4, 5), (5, 6), (0, 6)])
        five = enumerate_cycles(g, 5)
        assert five == [(0, 1, 4, 5, 6)]
        assert sum(bool(cycle_edges(five[0]) & cycle_edges(t)) for t in enumerate_cycles(g, 3)) == 1
        (_, thm2, _), _ = check_conditions(g, StepBudget(g))
        assert thm2.witnesses == ((0, 1, 4, 5, 6),)
        assert thm2 == check_condition_scan(g, "Thm2")

    def test_report_json_shape(self, tmp_path):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 5)])
        path, out = tmp_path / "g.g6", tmp_path / "out.json"
        path.write_text(write_graph6(g) + "\n")
        assert main(["detect", "--input", str(path), "--output", str(out)]) == 1
        obj = json.loads(out.read_text())["graphs"][0]["conditions"][2]
        assert obj == {"condition": "Corollary", "holds": False, "witnesses": [[0, 1, 2, 3, 4]]}

    def test_corollary_implies_no_double_triangle_witness(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_graph(rng, rng.randint(5, 8), 0.35)
            (_, _, corollary), _ = check_conditions(g, StepBudget(g))
            if corollary.holds:
                # no 5-cycle shares an edge with any 3-cycle, so in particular
                # none is adjacent to two of them
                five = enumerate_cycles(g, 5)
                three = enumerate_cycles(g, 3)
                for c in five:
                    shared = sum(1 for t in three if cycle_edges(c) & cycle_edges(t))
                    assert shared == 0

    def test_matches_scan_oracle(self):
        graphs = [emb.graph for emb in fixtures.random_embeddings()] + fixtures.demo_graphs()
        for rim in range(4, 10):  # wheels W4-W9, hub = rim
            spokes = [(i, rim) for i in range(rim)]
            graphs.append(build_graph([(i, (i + 1) % rim) for i in range(rim)] + spokes))
        rng = random.Random(5)
        graphs += [random_graph(rng, rng.randint(5, 9), 0.4) for _ in range(40)]
        graphs += [triangulated_grid(6, share, seed).graph for share, seed in ((0.5, 1), (0.9, 2))]
        witnesses = Counter()
        others = Counter()
        for g in graphs:
            reports, _ = check_conditions(g, StepBudget(g))
            assert reports == tuple(check_condition_scan(g, which) for which in CONDITIONS)
            for report in reports:
                witnesses[report.condition] += len(report.witnesses)
                others[report.condition] += len(enumerate_cycles(g, 5)) - len(report.witnesses)
        # both outcomes occur, so a check that always or never fires fails
        for which in CONDITIONS:
            assert witnesses[which] and others[which], which


    def test_matches_all_cycles_oracle(self):
        # the 5-cycles through a triangle edge give the same witnesses, in
        # the same order, as a pass over every 5-cycle
        graphs = [emb.graph for emb in fixtures.solid_embeddings().values()]
        graphs += [emb.graph for emb in fixtures.random_embeddings()] + fixtures.demo_graphs()
        graphs += [triangulated_grid(side, share, side) for side in (5, 8, 11) for share in (0.2, 0.5, 0.9)]
        graphs = [getattr(g, "graph", g) for g in graphs]
        rng = random.Random(31)
        graphs += [random_graph(rng, rng.randint(1, 11), rng.uniform(0.1, 0.8)) for _ in range(400)]
        witnesses = Counter()
        for g in graphs:
            reports, _ = check_conditions(g, StepBudget(g))
            assert reports == check_conditions_all_cycles(g), g.edges
            witnesses.update(r.condition for r in reports for _ in r.witnesses)
        assert all(witnesses[which] > 1000 for which in CONDITIONS)

    def test_trio_fails_every_condition(self):
        # The 5-cycle u-x-y-w-v of a trio shares exactly the edge xy with
        # its triangle xyv, and edges with two other triangles: every graph
        # with a trio violates all three conditions.
        atlas = pytest.importorskip("networkx.generators.atlas")
        graphs = [build_graph(list(a.edges), n=a.number_of_nodes()) for a in atlas.graph_atlas_g()]
        assert len(graphs) == 1253
        graphs += [triangulated_grid(side, share, seed).graph for side in (4, 6, 8) for share in (0.3, 0.9) for seed in (1, 2)]
        with_trio = 0
        for g in graphs:
            reports, trios = check_conditions(g, StepBudget(g))
            assert reports == check_conditions_all_cycles(g), g.edges
            assert trios == find_trios_scan(g), g.edges
            if trios:
                with_trio += 1
                assert not any(r.holds for r in reports), g.edges
        assert with_trio > 400


def with_pendants(edges, leaf_counts):
    host = list(edges)
    nxt = max(max(e) for e in edges) + 1
    for v, k in leaf_counts:
        for _ in range(k):
            host.append((v, nxt))
            nxt += 1
    return build_graph(host)


# Pendant leaves raise each pattern vertex to the degree its configuration
# draws; H's host has x=4, y=4, u=4, v=4, w=4.
PENDANT_HOSTS = {
    "H": with_pendants(TRIO_EDGES, [(0, 1), (1, 1), (2, 2), (3, 0), (4, 2)]),
    "config1": with_pendants(TRIO_EDGES, [(0, 1), (1, 1), (2, 3), (3, 0), (4, 2)]),
    "config2": with_pendants(list(CONFIG_2.pattern.edges), [(0, 2), (1, 2), (2, 1), (3, 2), (4, 2), (5, 1)]),
    "config3": with_pendants(list(CONFIG_3.pattern.edges), [(0, 2), (1, 2), (2, 2), (3, 1), (4, 2)]),
}


class TestFixedConfigs:
    def test_h_host_matches_once(self):
        counts = Counter(m.config for m in find_fixed_configs(PENDANT_HOSTS["H"]))
        assert counts == {"H": 1}

    def test_c5_has_no_configs(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert find_fixed_configs(g) == []

    def test_config1_needs_degree5_u(self):
        counts = Counter(m.config for m in find_fixed_configs(PENDANT_HOSTS["config1"]))
        assert counts["config1"] == 1

    def test_config2_grid_host(self):
        counts = Counter(m.config for m in find_fixed_configs(PENDANT_HOSTS["config2"]))
        assert counts == {"config2": 1}

    def test_config3_host(self):
        counts = Counter(m.config for m in find_fixed_configs(PENDANT_HOSTS["config3"]))
        assert counts == {"config3": 1}


GRIDS = [triangulated_grid(16, 0.15, seed).graph for seed in (1, 2, 3)]


def matcher_hosts():
    """The pendant hosts, seeded grids, and seeded random graphs."""
    rng = random.Random(17)
    randoms = [random_graph(rng, rng.randint(6, 11), 0.45) for _ in range(30)]
    return list(PENDANT_HOSTS.values()) + GRIDS + randoms


class TestMatcherCrossCheck:
    def test_equals_networkx_monomorphisms(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        def drawn_degree_ok(host_attrs, pattern_attrs):
            d, exact, mx = host_attrs["degree"], pattern_attrs["exact"], pattern_attrs["max"]
            return (exact is None or d == exact) and (mx is None or d <= mx)

        for host in matcher_hosts():
            host_nx = nx.Graph(list(host.edges))
            host_nx.add_nodes_from((v, {"degree": host.degree(v)}) for v in range(host.n))
            want = set()
            for cfg in ALL_CONFIGS:
                pat = cfg.pattern
                pat_nx = nx.Graph(list(pat.edges))
                pat_nx.add_nodes_from(
                    (v, {"exact": cfg.exact_degrees[v], "max": cfg.max_degrees[v]}) for v in range(pat.n)
                )
                autos = pattern_automorphisms(pat)
                matcher = GraphMatcher(host_nx, pat_nx, node_match=drawn_degree_ok)
                for found in matcher.subgraph_monomorphisms_iter():
                    m = {pv: hv for hv, pv in found.items()}
                    want.add((cfg.name, min(tuple(m[a[i]] for i in range(pat.n)) for a in autos)))
            assert {(c.config, c.mapping) for c in find_fixed_configs(host)} == want
        # a matcher that finds nothing would pass on hosts without matches
        assert all(find_fixed_configs(g) for g in GRIDS)
