import itertools
import random
import time

import pytest

from inputs import triangulated_grid

from dischargekit import alon_tarsi, fixtures
from dischargekit.alon_tarsi import count_eulerian, find_certificate
from dischargekit.core import Orientation, build_graph, orientations_with_max_outdegree
from dischargekit.errors import SizeLimitExceededError
from oracles import count_eulerian_brute, count_eulerian_frontier, iter_canonical_assignments, l_color


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
        cert = find_certificate(g, [2, 2, 2, 2])
        assert cert is not None
        assert cert.counts.even != cert.counts.odd
        assert all(d <= 1 for d in cert.orientation.outdegrees())

    def test_c3_all_twos_has_none(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        assert find_certificate(g, [2, 2, 2]) is None

    def test_single_vertex(self):
        g = build_graph([], n=1)
        cert = find_certificate(g, [1])
        assert cert is not None
        assert cert.orientation.arcs == ()
        assert cert.counts.as_tuple() == (1, 0)

    def test_first_certificate_is_deterministic(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_certificate(g, [2, 2, 2, 2]).orientation.arcs == find_certificate(
            g, [2, 2, 2, 2]
        ).orientation.arcs

    def test_certificate_implies_list_colorable(self):
        # desk-scale cross check against the list-coloring solver
        cases = [
            (build_graph([(0, 1), (1, 2), (2, 3), (3, 0)]), [2, 2, 2, 2]),
            (build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]), [3, 3, 3, 2, 2]),
        ]
        for g, sizes in cases:
            cert = find_certificate(g, sizes)
            if cert is None:
                continue
            for lists in iter_canonical_assignments(sizes):
                assert l_color(g, lists) is not None

    def test_too_few_colours_for_the_edges_is_none_at_once(self):
        # 6 x 6 grid, 82 edges, lists of 3: outdegrees at most 2 cover only
        # 72 edges, so no orientation fits and no DP runs
        graph = triangulated_grid(6, 0.9, 0).graph
        assert len(graph.edges) > 2 * graph.n
        start = time.perf_counter()
        assert find_certificate(graph, [3] * graph.n) is None
        assert time.perf_counter() - start < 1.0

    def test_search_budget_adds_up_the_dps(self, monkeypatch):
        # W5 at k = 3 tries 142 orientations; no one DP reaches 300 states,
        # but together they do
        g = wheel(5)
        biggest = max(count_eulerian(o).states for o in orientations_with_max_outdegree(g, 2))
        assert biggest < 300
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 300)
        with pytest.raises(SizeLimitExceededError, match="certificate search"):
            find_certificate(g, [3] * g.n)

    def test_icosahedron_k5(self):
        # planar graphs have Alon-Tarsi number at most 5 (Zhu, JCTB 2019)
        g = fixtures.solid_embeddings()["icosahedron"].graph
        cert = find_certificate(g, [5] * g.n)
        assert cert is not None and cert.counts.even != cert.counts.odd
