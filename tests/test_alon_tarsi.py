import itertools
import random

import pytest

from dischargekit import fixtures
from dischargekit.alon_tarsi import count_eulerian, find_certificate
from dischargekit.choosability import iter_canonical_assignments, l_color
from dischargekit.core import Orientation, build_graph
from dischargekit.errors import SizeLimitExceededError
from oracles import count_eulerian_brute


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

    def test_arc_cap(self):
        rng = random.Random(0)
        o = random_orientation(rng, 8, 0.9)
        with pytest.raises(SizeLimitExceededError):
            count_eulerian(o, arc_cap=5)


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
