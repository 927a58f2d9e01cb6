import itertools
import random

import pytest

from dischargekit import fixtures
from dischargekit.choosability import (
    ListAssignment,
    ReducibleConfig,
    check_extension,
    check_extension_with_rechoice,
    degeneracy,
    is_k_choosable,
    iter_canonical_assignments,
    l_color,
    verify_min_degree,
)
from dischargekit.core import build_graph
from dischargekit.errors import SizeLimitExceededError
from oracles import is_k_choosable_raw, l_color_brute

C3 = build_graph([(0, 1), (1, 2), (0, 2)])
C4 = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = build_graph(list(itertools.combinations(range(4), 2)))
K5 = build_graph(list(itertools.combinations(range(5), 2)))


def random_instance(rng, n_max=8, list_max=4):
    n = rng.randint(1, n_max)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    g = build_graph(edges, n=n)
    universe = range(6)
    lists = [
        tuple(sorted(rng.sample(universe, rng.randint(1, list_max)))) for _ in range(n)
    ]
    return g, lists


class TestLColor:
    def test_edgeless_always_succeeds(self):
        g = build_graph([], n=3)
        coloring = l_color(g, [(5,), (7,), (5,)])
        assert coloring == [5, 7, 5]

    def test_c3_two_colors_fails(self):
        assert l_color(C3, [(1, 2)] * 3) is None

    def test_c4_two_colors_alternates(self):
        coloring = l_color(C4, [(1, 2)] * 4)
        assert coloring is not None
        assert all(coloring[u] != coloring[v] for u, v in C4.edges)

    def test_matches_brute_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            g, lists = random_instance(rng)
            got = l_color(g, lists)
            want = l_color_brute(g, lists)
            assert (got is None) == (want is None)
            if got is not None:
                assert all(got[v] in lists[v] for v in range(g.n))
                assert all(got[u] != got[v] for u, v in g.edges)

    def test_monotone_in_lists_and_edges(self):
        rng = random.Random(23)
        for _ in range(40):
            g, lists = random_instance(rng, n_max=6, list_max=3)
            if l_color(g, lists) is not None:
                bigger = [tuple(sorted(set(lst) | {9})) for lst in lists]
                assert l_color(g, bigger) is not None
            else:
                missing = [
                    e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)
                ]
                if missing:
                    denser = build_graph(list(g.edges) + [missing[0]], n=g.n)
                    assert l_color(denser, lists) is None


class TestCanonicalAssignments:
    def test_first_assignment_is_maximally_shared(self):
        first = next(iter_canonical_assignments([2, 2, 2]))
        assert first == ((0, 1), (0, 1), (0, 1))

    def test_sizes_respected(self):
        for lists in iter_canonical_assignments([1, 2, 3]):
            assert [len(l) for l in lists] == [1, 2, 3]

    def test_distinct_intersection_patterns(self):
        seen = set()
        for lists in iter_canonical_assignments([2, 2]):
            sig = tuple(
                sorted(
                    tuple(v for v in range(2) if c in lists[v])
                    for c in {x for l in lists for x in l}
                )
            )
            assert (sig, tuple(map(len, lists))) not in seen
            seen.add((sig, tuple(map(len, lists))))


class TestKChoosable:
    @pytest.mark.parametrize(
        "graph,k,expected",
        [(C4, 2, True), (C3, 2, False), (K4, 3, False), (K4, 4, True), (K5, 4, False)],
    )
    def test_ground_truths(self, graph, k, expected):
        assert is_k_choosable(graph, k).choosable is expected

    def test_c3_witness_is_identical_lists(self):
        verdict = is_k_choosable(C3, 2)
        assert verdict.witness.lists == ((0, 1), (0, 1), (0, 1))

    def test_exhaustive_agrees_with_auto(self):
        for graph, k in [(C4, 2), (K4, 4), (C5, 2)]:
            assert (
                is_k_choosable(graph, k, method="exhaustive").choosable
                == is_k_choosable(graph, k).choosable
            )

    def test_monotone_in_k(self):
        for graph in (C3, C4, C5, K4):
            prev = False
            for k in (2, 3, 4):
                cur = is_k_choosable(graph, k).choosable
                assert cur or not prev  # once true, stays true
                prev = cur

    def test_canonicalization_agrees_with_raw(self):
        # raw enumeration over the k*n universe is only feasible for tiny n
        P3 = build_graph([(0, 1), (1, 2)])
        for graph in (C3, P3):
            for k in (1, 2):
                raw = is_k_choosable_raw(graph, k)
                canon = is_k_choosable(graph, k, method="exhaustive")
                assert raw.choosable == canon.choosable

    def test_canonicalization_agrees_with_raw_n4(self):
        P4 = build_graph([(0, 1), (1, 2), (2, 3)])
        assert is_k_choosable_raw(P4, 2).choosable is True
        assert is_k_choosable(P4, 2, method="exhaustive").choosable is True

    def test_guard_rejects_large_inputs(self):
        big = build_graph([(i, i + 1) for i in range(11)])
        with pytest.raises(SizeLimitExceededError):
            is_k_choosable(big, 4)

    def test_degeneracy(self):
        assert degeneracy(K4) == 3
        assert degeneracy(C5) == 2
        assert degeneracy(build_graph([], n=3)) == 0


class TestExtension:
    def test_square_all_twos(self):
        assert check_extension(fixtures.square_config())

    def test_triangle_all_twos_fails(self):
        assert not check_extension(fixtures.triangle_config())

    def test_single_vertex_size_one(self):
        cfg = ReducibleConfig(inner=build_graph([], n=1), residual_sizes=(1,))
        assert check_extension(cfg)

    def test_h_with_rechoice(self):
        assert check_extension_with_rechoice(fixtures.h_config())

    def test_rechoice_cannot_fix_triangle(self):
        # pendant vertex with free re-choice does not help the inner triangle
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3)])
        cfg = ReducibleConfig(inner=g, residual_sizes=(2, 2, 2, 2), choice_set=(3,))
        assert not check_extension_with_rechoice(cfg)

    def test_choice_set_of_all_vertices_collapses(self):
        for base in (fixtures.square_config(), fixtures.triangle_config()):
            full = ReducibleConfig(
                inner=base.inner,
                residual_sizes=base.residual_sizes,
                choice_set=tuple(range(base.inner.n)),
            )
            assert check_extension_with_rechoice(full) == check_extension(base)

    def test_plain_extension_implies_rechoice(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 4)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = build_graph(edges, n=n)
            sizes = tuple(rng.randint(1, 3) for _ in range(n))
            cfg = ReducibleConfig(inner=g, residual_sizes=sizes, choice_set=(0,))
            if check_extension(cfg):
                assert check_extension_with_rechoice(cfg)

    def test_rechoice_requires_choice_set(self):
        with pytest.raises(ValueError):
            check_extension_with_rechoice(fixtures.square_config())


class TestMinDegree:
    def test_k5_passes(self):
        assert verify_min_degree(K5) == []

    def test_c5_all_fail(self):
        assert verify_min_degree(C5) == [0, 1, 2, 3, 4]

    def test_star_leaves(self):
        star = build_graph([(0, i) for i in range(1, 5)])
        assert verify_min_degree(star) == [1, 2, 3, 4]


class TestListAssignment:
    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            ListAssignment(lists=((0,), ()))

    def test_json_roundtrip(self):
        la = ListAssignment(lists=((0, 1), (2,)))
        assert ListAssignment.from_json(la.to_json()) == la
