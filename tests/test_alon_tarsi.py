import itertools
import random
import time
from collections import Counter

import oracles
import pytest

from inputs import triangulated_grid

from dischargekit import alon_tarsi, choosability, fixtures
from dischargekit.alon_tarsi import count_eulerian, find_certificate, find_list_certificate
from dischargekit.core import Orientation, build_graph
from dischargekit.errors import SizeLimitExceededError
from oracles import (
    count_eulerian_brute,
    count_eulerian_frontier,
    find_certificate_loop,
    find_certificate_uniform,
    first_uncolourable_loop,
    iter_canonical_assignments,
    l_color,
    orientations_with_max_outdegree,
)


def directed_triangle():
    g = build_graph([(0, 1), (1, 2), (0, 2)])
    return Orientation(g, ((0, 1), (1, 2), (2, 0)))


def verify_at_applicable(orientation, list_sizes):
    """True iff list_sizes[v] >= outdeg(v)+1 everywhere and even != odd."""
    if any(list_sizes[v] < d + 1 for v, d in enumerate(orientation.outdegrees())):
        return False
    counts = count_eulerian(orientation)
    return counts.even != counts.odd


def random_orientation(rng, n, p):
    arcs = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    g = build_graph([(min(a), max(a)) for a in arcs], n=n)
    return Orientation(g, tuple(arcs))


def random_orientation_of(graph, rng):
    return Orientation(graph, tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges))


def wheel(rim):
    return build_graph([(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)])


def choose_small_graphs():
    """The graphs whose choosability the benchmark asks at k = 2 and 3:
    C5, C6, K2,3, K2,4, K3,3, K4 and the wheels W4-W9."""
    def bipartite(a, b):
        return build_graph([(i, a + j) for i in range(a) for j in range(b)])

    graphs = [build_graph([(i, (i + 1) % n) for i in range(n)]) for n in (5, 6)]
    graphs += [bipartite(2, 3), bipartite(2, 4), bipartite(3, 3), build_graph(itertools.combinations(range(4), 2))]
    return graphs + [wheel(rim) for rim in range(4, 10)]


def path_plus_k6():
    """A 30-vertex path and a disjoint K6: the K6's 15 edges cannot fit
    outdegree 2, so no orientation of the path extends to a leaf at k = 3."""
    k6 = [(30 + a, 30 + b) for a, b in itertools.combinations(range(6), 2)]
    return build_graph([(i, i + 1) for i in range(29)] + k6)


def search_outcome(search, graph, k):
    """The first certificate's arcs and counts, None, or "budget"."""
    try:
        cert = search(graph, k)
    except SizeLimitExceededError:
        return "budget"
    return None if cert is None else (cert.orientation.arcs, cert.counts.as_tuple(), cert.counts.states)


class TestCountEulerian:
    def test_directed_triangle(self):
        assert count_eulerian(directed_triangle()).as_tuple() == (1, 1)

    def test_bundled_g1(self):
        assert count_eulerian(fixtures.fig_orientations()["g1"]).as_tuple() == (2, 1)

    def test_bundled_g3(self):
        assert count_eulerian(fixtures.fig_orientations()["g3"]).as_tuple() == (2, 1)

    def test_bundled_g2_attainable_counts(self):
        # the underlying grid is bipartite: every Eulerian arc subset has
        # even size, so the odd count is 0 for every orientation of it
        o = fixtures.fig_orientations()["g2"]
        assert count_eulerian(o).as_tuple() == (3, 0)
        for arcs in itertools.product(*[((u, v), (v, u)) for u, v in o.base.edges]):
            assert count_eulerian_brute(Orientation(o.base, arcs)).odd == 0

    def test_empty_orientation(self):
        g = build_graph([], n=3)
        assert count_eulerian(Orientation(g, ())).as_tuple() == (1, 0)

    def test_matches_brute_oracle(self):
        rng = random.Random(42)
        for _ in range(60):
            o = random_orientation(rng, rng.randint(2, 6), 0.6)
            if len(o.arcs) > 14:
                continue
            assert count_eulerian(o).as_tuple() == count_eulerian_brute(o).as_tuple()

    def test_arc_order_does_not_matter(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(st.integers(1, 9), st.randoms(use_true_random=False))
        def check(n, rng):
            o = random_orientation(rng, n, rng.random())
            shuffled = list(o.arcs)
            rng.shuffle(shuffled)
            want = count_eulerian(o)
            for arcs in (shuffled, o.arcs[::-1]):
                got = count_eulerian(Orientation(o.base, tuple(arcs)))
                assert (got.as_tuple(), got.states) == (want.as_tuple(), want.states)

        check()

    def test_reversal_preserves_counts(self):
        rng = random.Random(3)
        for _ in range(30):
            o = random_orientation(rng, rng.randint(2, 6), 0.5)
            assert count_eulerian(o) == count_eulerian(Orientation(o.base, tuple((h, t) for t, h in o.arcs)))

    def test_state_budget_raises(self, monkeypatch):
        o = random_orientation(random.Random(0), 8, 0.9)
        assert count_eulerian(o).states > 50
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 50)
        with pytest.raises(SizeLimitExceededError):
            count_eulerian(o)

    def test_more_than_thirty_arcs(self):
        # a 7 x 7 grid: 116 arcs, which the old arc cap of 30 refused
        o = random_orientation_of(triangulated_grid(7, 0.9, 1).graph, random.Random(2))
        counts = count_eulerian(o)
        assert len(o.arcs) > 100 and 0 < counts.states < alon_tarsi.MAX_DP_STATES
        assert counts.even >= 1


class TestPrunedDpAgainstOracles:
    """The pruned DP against the unpruned frontier DP it replaced and the
    definitional subset enumeration."""

    def test_random_orientations(self):
        rng = random.Random(11)
        for _ in range(150):
            o = random_orientation(rng, rng.randint(1, 9), 0.7 * rng.random())
            got = count_eulerian(o).as_tuple()
            assert got == count_eulerian_frontier(o).as_tuple()
            if len(o.arcs) <= 14:
                assert got == count_eulerian_brute(o).as_tuple()

    def test_first_orientations_of_each_solid(self):
        # at the least outdegree bound that admits an orientation, so the
        # orientations have directed cycles (a looser bound starts with the
        # acyclic one, whose counts are (1, 0))
        for name, emb in fixtures.solid_embeddings().items():
            g = emb.graph
            for o in itertools.islice(orientations_with_max_outdegree(g, -(-len(g.edges) // g.n)), 2):
                got = count_eulerian(o).as_tuple()
                assert got == count_eulerian_frontier(o).as_tuple(), name
                if len(o.arcs) <= 12:
                    assert got == count_eulerian_brute(o).as_tuple(), name

    @pytest.mark.parametrize("side,share", [(4, 0.9), (5, 0.5), (5, 0.9), (6, 0.9)])
    def test_grids(self, side, share):
        graph = triangulated_grid(side, share, 3).graph
        assert 32 <= len(graph.edges) <= 82
        rng = random.Random(side)
        for _ in range(2):
            o = random_orientation_of(graph, rng)
            assert count_eulerian(o).as_tuple() == count_eulerian_frontier(o).as_tuple()

    def test_property_against_frontier_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def orientations(draw):
            n = draw(st.integers(1, 8))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            arcs = tuple((u, v) if draw(st.booleans()) else (v, u) for u, v in chosen)
            return Orientation(build_graph(chosen, n=n), arcs)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(orientations())
        def check(o):
            assert count_eulerian(o).as_tuple() == count_eulerian_frontier(o).as_tuple()

        check()


class TestVerifyApplicable:
    def test_g1_with_drawn_sizes(self):
        # x, y, u, v, w drawn sizes 3, 3, 1, >=3, 2
        o = fixtures.fig_orientations()["g1"]
        assert verify_at_applicable(o, [3, 3, 1, 3, 2])

    def test_triangle_tie_fails(self):
        assert not verify_at_applicable(directed_triangle(), [2, 2, 2])

    def test_size_equal_to_outdegree_fails(self):
        o = fixtures.fig_orientations()["g1"]
        sizes = [d + 1 for d in o.outdegrees()]
        sizes[0] -= 1
        assert not verify_at_applicable(o, sizes)


class TestFindCertificate:
    def test_c4_all_twos(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        cert = find_certificate(g, 2)
        assert cert is not None
        assert cert.counts.even != cert.counts.odd
        assert all(d <= 1 for d in cert.orientation.outdegrees())

    def test_c3_all_twos_has_none(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        assert find_certificate(g, 2) is None

    def test_single_vertex(self):
        g = build_graph([], n=1)
        cert = find_certificate(g, 1)
        assert cert is not None
        assert cert.orientation.arcs == ()
        assert cert.counts.as_tuple() == (1, 0)

    def test_first_certificate_is_deterministic(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_certificate(g, 2).orientation.arcs == find_certificate(g, 2).orientation.arcs

    def test_certificate_implies_list_colorable(self):
        # desk-scale cross check against the list-coloring solver
        cases = [
            (build_graph([(0, 1), (1, 2), (2, 3), (3, 0)]), 2),
            (build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]), 3),
        ]
        for g, k in cases:
            assert find_certificate(g, k) is not None
            for lists in iter_canonical_assignments([k] * g.n):
                assert l_color(g, lists) is not None

    def test_too_few_colours_for_the_edges_is_none_at_once(self):
        # 6 x 6 grid, 82 edges, lists of 3: outdegrees at most 2 cover only
        # 72 edges, so no orientation fits and no DP runs
        graph = triangulated_grid(6, 0.9, 0).graph
        assert len(graph.edges) > 2 * graph.n
        start = time.perf_counter()
        assert find_certificate(graph, 3) is None
        assert time.perf_counter() - start < 1.0

    def test_search_budget_adds_up_the_dps(self, monkeypatch):
        # W5 at k = 3 tries 142 orientations; no one DP reaches 300 states,
        # but together they do
        g = wheel(5)
        biggest = max(count_eulerian(o).states for o in orientations_with_max_outdegree(g, 2))
        assert biggest < 300
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 300)
        with pytest.raises(SizeLimitExceededError, match="certificate search"):
            find_certificate(g, 3)

    def test_budget_counts_tree_nodes(self):
        # no leaf is ever reached, so no DP runs: only the nodes stop it
        with pytest.raises(SizeLimitExceededError, match="tree nodes"):
            find_certificate(path_plus_k6(), 3)

    def test_more_edges_than_the_recursion_limit(self):
        # the walk keeps its path in a list, not in the Python call stack
        g = build_graph([(i, i + 1) for i in range(1500)])
        cert = find_certificate(g, 2)
        assert cert.orientation.arcs == g.edges and cert.counts.as_tuple() == (1, 0)

    def test_placement_runs_once_per_search(self, monkeypatch):
        calls = []
        placement = alon_tarsi._placement
        monkeypatch.setattr(alon_tarsi, "_placement", lambda g: calls.append(g) or placement(g))
        # W5 is not 3-colourable: the search counts all 142 orientations
        assert find_certificate(wheel(5), 3) is None
        assert len(calls) == 1

    def test_icosahedron_k5(self):
        # planar graphs have Alon-Tarsi number at most 5 (Zhu, JCTB 2019)
        g = fixtures.solid_embeddings()["icosahedron"].graph
        cert = find_certificate(g, 5)
        assert cert is not None and cert.counts.even != cert.counts.odd


class TestWalkAgainstLoop:
    """The tree walk against the loop it replaced: a fresh count for each
    orientation of the generator."""

    def test_random_graphs(self, monkeypatch):
        # a budget of 20,000 lets some of the denser searches give up, at a
        # small cost; on graphs this small the walk's tree nodes are few
        # beside its DP states, so both give up on the same graphs
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 20_000)
        rng = random.Random(0)
        outcomes = []
        for _ in range(100):
            n = rng.randint(1, 8)
            p = rng.random()
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < p], n=n)
            for k in range(1, 5):
                got = search_outcome(find_certificate, g, k)
                assert got == search_outcome(find_certificate_loop, g, k), (g.edges, k)
                outcomes.append(got if got in (None, "budget") else "found")
        assert all(outcomes.count(o) >= 10 for o in (None, "budget", "found"))

    @pytest.mark.parametrize("k", [2, 3])
    def test_choose_small_graphs(self, k):
        for g in choose_small_graphs():
            assert search_outcome(find_certificate, g, k) == search_outcome(find_certificate_loop, g, k), g.edges

    def test_solids_at_k5(self):
        for name, emb in fixtures.solid_embeddings().items():
            got = search_outcome(find_certificate, emb.graph, 5)
            assert got not in (None, "budget") and got == search_outcome(find_certificate_loop, emb.graph, 5), name


class TestListSizes:
    """The search with a list size per vertex: with one size for all, the
    search it generalised; with any sizes, sound against the walk."""

    def test_uniform_sizes_keep_the_search(self, monkeypatch):
        # every graph of networkx's atlas; a smaller budget keeps the
        # searches that give up to a few seconds, and both give up alike
        atlas = pytest.importorskip("networkx.generators.atlas")
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 5_000)
        outcomes = []
        for a in atlas.graph_atlas_g():
            g = build_graph(list(a.edges), n=a.number_of_nodes())
            for k in range(2, 6):
                got = search_outcome(find_certificate, g, k)
                assert got == search_outcome(find_certificate_uniform, g, k), (g.edges, k)
                outcomes.append(got if got in (None, "budget") else "found")
        assert all(outcomes.count(o) >= 20 for o in (None, "budget", "found")), outcomes

    def test_certificates_only_where_the_walk_says_yes(self, monkeypatch):
        # random sizes, and sizes near the degrees; a smaller budget keeps
        # the walk oracle to a few seconds, and the search keeps its own
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 500)
        rng = random.Random(23)
        outcomes = Counter()
        for case in range(400):
            n = rng.randint(1, 9)
            p = rng.random()
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < p], n=n)
            if len(g.edges) > choosability._AT_MAX_EDGES:
                continue
            if case % 2:
                sizes = [rng.randint(1, 4) for _ in range(n)]
            else:
                sizes = [max(1, g.degree(v) + rng.choice((-1, 0, 0, 1))) for v in range(n)]
            try:
                yes = first_uncolourable_loop(g, sizes) is None
            except SizeLimitExceededError:
                yes = None
            try:
                cert = find_list_certificate(g, sizes)
            except SizeLimitExceededError:
                assert yes is None, (g.edges, sizes)
                outcomes["search budget"] += 1
                continue
            if cert is not None:
                assert yes is not False, (g.edges, sizes)
                assert all(d < s for d, s in zip(cert.orientation.outdegrees(), sizes))
                assert count_eulerian(cert.orientation) == cert.counts and cert.counts.even != cert.counts.odd
            outcomes[cert is not None, yes] += 1
        # certificates answer graphs that the walk's budget does not
        assert outcomes[True, True] >= 100 and outcomes[True, None] >= 50, outcomes
        assert outcomes[False, False] >= 100, outcomes

    def test_too_few_colours_for_the_edges_is_none_at_once(self):
        # K4 needs 6 outdegrees; lists of 2, 2, 3 and 3 leave room for 4
        k4 = build_graph(itertools.combinations(range(4), 2))
        assert find_list_certificate(k4, [2, 2, 3, 3]) is None
        assert find_list_certificate(k4, [4, 4, 4, 4]) is not None

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            find_list_certificate(build_graph([], n=2), [1, 0])
