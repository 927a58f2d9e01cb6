import itertools
import json
import random
import sys
from collections import Counter

import oracles
import pytest
from inputs import STEP_BUDGET_EXIT, wheel

from dischargekit import alon_tarsi, choosability, fixtures
from dischargekit.choosability import (
    ChoosabilityVerdict,
    ListAssignment,
    ReducibleConfig,
    check_extension,
    is_k_choosable,
)
from dischargekit.core import build_graph, parse_graph6
from dischargekit.errors import SizeLimitExceededError, WorkBudget
from oracles import (
    check_extension_reference,
    check_extension_with_rechoice,
    ert_two_choosable,
    first_uncolourable_loop,
    first_uncolourable_unpruned,
    is_gallai_tree,
    is_k_choosable_raw,
    is_k_choosable_reference,
    iter_canonical_assignments,
    iter_canonical_assignments_all_types,
    l_color,
    l_color_brute,
    reducible_with_rechoice,
)

C3 = build_graph([(0, 1), (1, 2), (0, 2)])
C4 = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = build_graph(list(itertools.combinations(range(4), 2)))
K5 = build_graph(list(itertools.combinations(range(5), 2)))
SQUARE = fixtures.reducible_config(fixtures.CONFIG_SQUARE)
TRIANGLE = fixtures.reducible_config(fixtures.CONFIG_TRIANGLE)
H = fixtures.reducible_config(fixtures.CONFIG_H)
# The vertices on which the paper re-chooses colours in H: x and u.
H_CHOICE = (0, 2)


def complete_bipartite(a, b, offset=0, n=None):
    """K(a, b) on the vertices from ``offset`` on, the a side first."""
    return build_graph([(offset + i, offset + a + j) for i in range(a) for j in range(b)], n=n)


# The graphs that the choose-small benchmark asks about at k = 2 and 3.
CHOOSE_SMALL = {
    "C5": C5,
    "C6": build_graph([(i, (i + 1) % 6) for i in range(6)]),
    "K2,3": complete_bipartite(2, 3),
    "K2,4": complete_bipartite(2, 4),
    "K3,3": complete_bipartite(3, 3),
    "K4": K4,
    **{f"W{r}": wheel(r).graph for r in range(4, 10)},
}


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
                    e for e in itertools.combinations(range(g.n), 2) if e[1] not in g.adjacency[e[0]]
                ]
                if missing:
                    denser = build_graph(list(g.edges) + [missing[0]], n=g.n)
                    assert l_color(denser, lists) is None


class TestCanonicalAssignments:
    def test_first_assignment_is_maximally_shared(self):
        first = next(iter_canonical_assignments([2, 2, 2]))
        assert first == ((0, 1), (0, 1), (0, 1))
        # each list {0, ..., size - 1}, which check_extension tests first
        rng = random.Random(4)
        for _ in range(50):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
            assert next(iter_canonical_assignments(sizes)) == tuple(tuple(range(s)) for s in sizes)

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

    def test_same_stream_as_enumerating_singleton_types(self):
        cases = [s for n in range(5) for s in itertools.product(range(4), repeat=n)] + [(2, 3, 2, 4, 2)]
        for sizes in cases:
            assert list(iter_canonical_assignments(sizes)) == list(iter_canonical_assignments_all_types(sizes))

    def test_ten_vertices_do_not_exhaust_the_stack(self):
        # the vertex count that DEFAULT_N_LIMIT admits; 1,023 colour types
        first, second = itertools.islice(iter_canonical_assignments([1] * 10), 2)
        assert first == ((0,),) * 10
        assert second == ((0,),) * 9 + ((1,),)


def walk(graph, sizes):
    """The package's walk, ``choosability._first_uncolourable``, on the
    neighbour index of ``graph``."""
    return choosability._first_uncolourable(choosability._neighbours(graph), sizes)


def core_of(graph, sizes):
    """The core, a bitmask, that ``choosability._peel`` leaves of ``graph``
    with these list sizes: the vertices the walk lists colour types over."""
    return choosability._peel(choosability._neighbours(graph), sizes, (1 << graph.n) - 1)


def loop_over_core(graph, sizes):
    """``first_uncolourable_loop`` with shared colours on the core only."""
    return first_uncolourable_loop(graph, sizes, core_of(graph, sizes))


def unpruned_over_core(graph, sizes):
    """``first_uncolourable_unpruned`` with shared colours on the core only."""
    return first_uncolourable_unpruned(graph, sizes, core_of(graph, sizes))


def assert_same_answer(graph, sizes, got, every):
    """The walk's answer ``got`` against ``every``, that of an oracle with
    shared colours on every vertex, each an assignment, None or a budget
    message: peeling keeps the answer, so where both answer, both are None
    or neither is."""
    if not isinstance(got, str) and not isinstance(every, str):
        assert (got is None) == (every is None), (graph.edges, sizes)


def first_or_error(find, graph, sizes):
    """``find(graph, sizes)``, or the message of the budget error it raises."""
    try:
        return find(graph, sizes)
    except SizeLimitExceededError as exc:
        return str(exc)


def components(graph):
    """The connected components of ``graph``, each a graph of its own."""
    left, parts = set(range(graph.n)), []
    while left:
        part, stack = set(), [min(left)]
        while stack:
            v = stack.pop()
            if v not in part:
                part.add(v)
                stack.extend(graph.adjacency[v] - part)
        left -= part
        index = {v: i for i, v in enumerate(sorted(part))}
        parts.append(build_graph([(index[u], index[v]) for u, v in graph.edges if u in part], n=len(part)))
    return parts


def assert_consistent(graph, sizes, got, want):
    """The walk's answer ``got`` against the oracle's ``want``, each an
    uncolourable assignment, None or a budget message.  Where both answer,
    the answers are the same.  Where only the walk answers, a witness has
    the sizes and no colouring (``l_color_brute``), and with lists of 2 the
    answer is that of Erdős–Rubin–Taylor on every component."""
    if isinstance(got, str):
        return
    if not isinstance(want, str):
        assert got == want, (graph.edges, sizes)
        return
    if got is not None:
        assert [len(lst) for lst in got] == list(sizes), (graph.edges, sizes)
        assert l_color_brute(graph, got) is None, (graph.edges, sizes)
    if set(sizes) == {2}:
        assert (got is None) == all(ert_two_choosable(part) for part in components(graph)), (graph.edges, sizes)


def walk_steps(monkeypatch):
    """A list that gains, per budget the walk makes, the steps spent on it."""
    spent = []

    class Recording(WorkBudget):
        def __init__(self, *args):
            super().__init__(*args)
            spent.append(0)

        def spend(self, work):
            spent[-1] += work
            super().spend(work)

    monkeypatch.setattr(choosability, "WorkBudget", Recording)
    return spent


class TestFirstUncolourable:
    """The fused walk against the first assignment of the oracle stream
    that the oracle ``l_color`` cannot colour.  The witness is that of the
    stream with shared colours on the core only; the answer is also that of
    the stream with shared colours on every vertex."""

    @staticmethod
    def answers(graph, sizes):
        # the walk's answer, the core oracle's and that of the oracle over
        # every vertex; the walk answers wherever the core oracle does,
        # within its own budget
        got = first_or_error(walk, graph, sizes)
        want = first_or_error(loop_over_core, graph, sizes)
        assert not isinstance(got, str) or isinstance(want, str), (graph.edges, sizes)
        assert_consistent(graph, sizes, got, want)
        every = want
        if core_of(graph, sizes) != (1 << graph.n) - 1:
            every = first_or_error(first_uncolourable_loop, graph, sizes)
            assert_same_answer(graph, sizes, got, every)
        return got, every

    def assert_agrees(self, graph, sizes):
        return self.answers(graph, sizes)[0]

    def test_random_graphs(self, monkeypatch):
        # a smaller budget keeps the oracle to a second or two
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 3_000)
        rng = random.Random(5)
        outcomes = Counter()
        for _ in range(300):
            n = rng.randint(0, 7)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5], n=n)
            got = self.assert_agrees(g, tuple(rng.randint(0, 3) for _ in range(n)))
            outcomes[type(got)] += 1
        assert outcomes[tuple] >= 100 and outcomes[type(None)] >= 100, outcomes

    def test_h_sizes(self):
        assert self.assert_agrees(H.inner, H.residual_sizes) is None
        assert self.assert_agrees(C5, (2, 3, 2, 4, 2)) is None
        assert self.assert_agrees(K5, (2, 3, 2, 4, 2)) is not None

    @pytest.mark.parametrize("k", [2, 3])
    def test_choose_small_graphs(self, k, monkeypatch):
        # the oracle checks the first 2,000 assignments of each; see
        # test_pinned_witnesses
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 2_000)
        for graph in CHOOSE_SMALL.values():
            self.assert_agrees(graph, [k] * graph.n)

    def test_pinned_witnesses(self):
        # the two choose-small "no" answers that come after many checks
        assert self.assert_agrees(CHOOSE_SMALL["K2,4"], [2] * 6) == (
            (0, 3), (1, 2), (0, 1), (0, 2), (1, 3), (2, 3),
        )
        assert self.assert_agrees(CHOOSE_SMALL["K3,3"], [2] * 6) == ((0, 1), (0, 2), (1, 2)) * 2

    def test_budget_boundary(self, monkeypatch):
        rng = random.Random(8)
        cases = [
            (SQUARE.inner, SQUARE.residual_sizes),
            (CHOOSE_SMALL["K3,3"], [2] * 6),
            (C3, (2, 2, 2)),
            (complete_bipartite(2, 4, offset=4, n=10), [2] * 6 + [1] * 4),
        ]
        for _ in range(10):
            n = rng.randint(2, 5)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5], n=n)
            cases.append((g, tuple(rng.randint(1, 3) for _ in range(n))))
        # the steps each walk takes; at that limit it gives the same answer,
        # and one step less ends it on the budget
        spent = walk_steps(monkeypatch)
        expected = [walk(g, sizes) for g, sizes in cases]
        assert expected == [loop_over_core(g, sizes) for g, sizes in cases]
        assert [w is None for w in expected] == [first_uncolourable_loop(g, sizes) is None for g, sizes in cases]
        for (graph, sizes), want, needed in zip(cases, expected, list(spent)):
            monkeypatch.setattr(choosability, "MAX_WALK_STEPS", needed)
            assert walk(graph, sizes) == want
            monkeypatch.setattr(choosability, "MAX_WALK_STEPS", needed - 1)
            message = f"^exhaustive check needs more than {needed - 1} steps$"
            with pytest.raises(SizeLimitExceededError, match=message):
                walk(graph, sizes)

    def test_eight_to_ten_vertices(self, monkeypatch):
        # answers where the random test above stops, many of them where the
        # oracle over every vertex runs out of its budget; half the graphs
        # keep lists of 2 or 3 on vertices of degree 2 or more, so that
        # their first assignment is often colourable
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 1_000)
        rng = random.Random(61)
        outcomes = Counter()
        for case in range(40):
            n = rng.randint(8, 10)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.25], n=n)
            low = [1 if case % 2 or g.degree(v) < 2 else 2 for v in range(n)]
            got, every = self.answers(g, tuple(rng.randint(low[v], 3) for v in range(n)))
            outcomes[type(got), isinstance(every, str)] += 1
        assert outcomes[tuple, False] >= 10 and outcomes[type(None), True] >= 10, outcomes

    def test_ten_vertices(self, monkeypatch):
        # the vertex count that DEFAULT_N_LIMIT admits; 1,013 shared types
        # on W9.  The oracle stops after 2,000 assignments; the edgeless
        # graph and the path peel to nothing, so the walk lists no type.
        # The late K2,4's isolated vertices 0-3 peel away: types are listed
        # over its 6 vertices, and the isolated ones keep private colours
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 2_000)
        late = complete_bipartite(2, 4, offset=4, n=10)
        witness = ((2, 3), (4, 5), (6, 7), (8, 9)) + ((0, 1),) * 2 + ((0,),) * 3 + ((1,),)
        assert self.assert_agrees(late, [2] * 6 + [1] * 4) == witness
        assert self.assert_agrees(build_graph([], n=10), [1] * 10) is None
        assert self.assert_agrees(build_graph([(i, i + 1) for i in range(9)]), [2] * 10) is None
        assert self.assert_agrees(wheel(9).graph, [3] * 10) == ((0, 1, 2),) * 10
        # the uniform lists answer W9 at k = 3 before any certificate search
        uniform = ListAssignment(((0, 1, 2),) * 10)
        assert is_k_choosable(wheel(9).graph, 3) == ChoosabilityVerdict(False, uniform, "exhaustive")


class TestSkips:
    """The walk's skipped subtrees: ``_first_uncolourable`` against the
    walk that enters every node, ``oracles.first_uncolourable_unpruned``."""

    @staticmethod
    def record(monkeypatch):
        # the steps of each walk, and one entry per subtree skipped: per
        # test with fresh colours that passes
        skips = []
        real = choosability._colourer

        def colourer(*args):
            test = real(*args)

            def recording(masks, *fresh):
                passed = test(masks, *fresh)
                if fresh and passed:
                    skips.append(fresh)
                return passed

            return recording

        monkeypatch.setattr(choosability, "_colourer", colourer)
        return walk_steps(monkeypatch), skips

    def test_equals_the_unpruned_walk(self, monkeypatch):
        # the oracle stops after 3,000 assignments; the walk's limit varies,
        # and at the full one it answers wherever the oracle does
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 3_000)
        spent, skips = self.record(monkeypatch)
        rng = random.Random(73)
        outcomes = Counter()
        skipped = tested = 0
        for case in range(400):
            n = rng.randint(1, 9)
            p = rng.random()
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < p], n=n)
            # a vertex of degree 2 or more gets at least 2 colours, so that
            # the first assignment often colours
            sizes = tuple(rng.randint(min(2, max(1, g.degree(v))), 3) for v in range(n))
            limit = (1, 7, 100, 100_000)[case % 4]
            monkeypatch.setattr(choosability, "MAX_WALK_STEPS", limit)
            skips.clear()
            got = first_or_error(walk, g, sizes)
            want = first_or_error(unpruned_over_core, g, sizes)
            if isinstance(got, str):
                assert got == f"exhaustive check needs more than {limit} steps", (g.edges, sizes)
                assert limit < 100_000 or isinstance(want, str), (g.edges, sizes)
            assert_consistent(g, sizes, got, want)
            assert_same_answer(g, sizes, got, first_or_error(first_uncolourable_unpruned, g, sizes))
            # a subtree was skipped: a test with fresh colours passed, or
            # the core peels to nothing: no type is listed, and the root is
            # the walk's only node
            tested += bool(skips)
            skipped += bool(skips) or not core_of(g, sizes)
            outcomes[type(got)] += 1
        assert skipped >= 200 and tested >= 10, (skipped, tested)
        assert min(outcomes[tuple], outcomes[str], outcomes[type(None)]) >= 50, (skipped, outcomes)

    @pytest.mark.parametrize(
        "graph, sizes",
        [(CHOOSE_SMALL["K2,4"], [2] * 6), (CHOOSE_SMALL["K3,3"], [2] * 6), (H.inner, H.residual_sizes)],
        ids=["K2,4", "K3,3", "H"],
    )
    def test_few_nodes_visited(self, graph, sizes, monkeypatch):
        # fewer than 200 steps, where the oracle stream checks 14,508
        # assignments of K2,4 and 6,319 of H: most subtrees are skipped
        spent, skips = self.record(monkeypatch)
        walk(graph, sizes)
        assert spent == [spent[0]] and spent[0] < 200 and skips, (spent, len(skips))


class TestStepBudget:
    """What the walk's budget counts, seen from outside the budget."""

    def test_steps_reach_the_limit_and_stop_there(self, monkeypatch):
        # STEP_BUDGET_EXIT with lists of 5.  Nodes entered and leaf checks
        # are counted as calls of the walk's ``visit`` and ``leaf``, and
        # colourer backtracks through the ``spend`` each colourer is given,
        # each before it is charged: the raise comes on step
        # MAX_WALK_STEPS + 1, after exactly MAX_WALK_STEPS were charged
        counts = Counter()
        real = choosability._colourer

        def colourer(nbr, sizes, core, part, spend):
            def counted(work):
                counts["backtrack"] += work
                spend(work)

            return real(nbr, sizes, core, part, counted)

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name in ("visit", "leaf") and code.co_filename == choosability.__file__:
                counts[code.co_name] += 1

        monkeypatch.setattr(choosability, "_colourer", colourer)
        graph = build_graph(STEP_BUDGET_EXIT)
        sys.setprofile(profile)
        try:
            with pytest.raises(SizeLimitExceededError, match="^exhaustive check needs more than 100000 steps$"):
                walk(graph, [5] * 10)
        finally:
            sys.setprofile(None)
        assert min(counts["visit"], counts["leaf"], counts["backtrack"]) > 0, counts
        assert sum(counts.values()) == choosability.MAX_WALK_STEPS + 1, counts


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

    def test_uncolourable_graph_is_answered_before_the_certificate_search(self, monkeypatch):
        # two disjoint K5s at k = 4: the certificate search would pass its
        # budget, but the first assignment, every list {0, 1, 2, 3}, fails
        def no_search(graph, sizes):
            raise AssertionError("certificate search reached")

        monkeypatch.setattr(choosability, "find_list_certificate", no_search)
        two_k5 = parse_graph6("I~{?GKF@w")
        k5 = list(itertools.combinations(range(5), 2))
        assert two_k5 == build_graph(k5 + [(u + 5, v + 5) for u, v in k5])
        verdict = is_k_choosable(two_k5, 4)
        assert (verdict.choosable, verdict.method) == (False, "exhaustive")
        assert verdict.witness.lists == ((0, 1, 2, 3),) * 10

    def test_witnesses_are_the_walks_first(self, monkeypatch):
        # every "no" is the oracle's first uncolourable assignment where the
        # oracle finds one in 2,000 checks, and fails l_color_brute; half
        # the graphs are bipartite, asked at k = 2
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 2_000)
        rng = random.Random(67)
        outcomes = Counter()
        for _ in range(300):
            n, k, bipartite, side = rng.randint(1, 8), rng.randint(2, 4), rng.random() < 0.5, rng.getrandbits(8)
            pairs = itertools.combinations(range(n), 2)
            edges = [(u, v) for u, v in pairs if not bipartite or (side >> u ^ side >> v) & 1]
            g = build_graph([e for e in edges if rng.random() < 0.5], n=n)
            k = 2 if bipartite else k
            try:
                verdict = is_k_choosable(g, k)
            except SizeLimitExceededError:
                outcomes["over budget"] += 1
                continue
            if not verdict.choosable:
                want = first_or_error(first_uncolourable_loop, g, [k] * n)
                assert_consistent(g, [k] * n, verdict.witness.lists, want)
            elif k == 2:
                assert all(ert_two_choosable(part) for part in components(g)), g.edges
            outcomes[verdict.choosable, verdict.method] += 1
        assert outcomes[False, "exhaustive"] >= 20 and outcomes[True, "alon-tarsi"] >= 5, outcomes
        assert outcomes["over budget"] <= 30, outcomes

    def test_k24_budget_boundary(self, monkeypatch):
        # its pinned witness, the 14,508th assignment, after 169 steps
        k24 = CHOOSE_SMALL["K2,4"]
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 169)
        witness = ListAssignment(((0, 3), (1, 2), (0, 1), (0, 2), (1, 3), (2, 3)))
        assert is_k_choosable(k24, 2) == ChoosabilityVerdict(False, witness, "exhaustive")
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 168)
        with pytest.raises(SizeLimitExceededError, match="^exhaustive check needs more than 168 steps$"):
            is_k_choosable(k24, 2)

    def test_exhaustive_agrees_with_auto(self):
        for graph, k in [(C4, 2), (K4, 4), (C5, 2)]:
            assert (
                check_extension(ReducibleConfig(graph, (k,) * graph.n))
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
                assert raw.choosable == check_extension(ReducibleConfig(graph, (k,) * graph.n))

    def test_canonicalization_agrees_with_raw_n4(self):
        P4 = build_graph([(0, 1), (1, 2), (2, 3)])
        assert is_k_choosable_raw(P4, 2).choosable is True
        assert check_extension(ReducibleConfig(P4, (2, 2, 2, 2))) is True

    def test_guard_rejects_large_inputs(self):
        big = build_graph([(i, i + 1) for i in range(11)])
        with pytest.raises(SizeLimitExceededError):
            is_k_choosable(big, 4)

    def test_assignment_budget(self, monkeypatch):
        # K2,3 is 2-choosable, but only the exhaustive loop shows it:
        # 6 edges need more outdegree than lists of 2 allow; its walk takes
        # 92 steps
        k23 = build_graph([(a, b) for a in range(2) for b in range(2, 5)])
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 92)
        assert is_k_choosable(k23, 2) == ChoosabilityVerdict(choosable=True, method="exhaustive")
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 91)
        assert is_k_choosable(C5, 3).method == "degeneracy"
        with pytest.raises(SizeLimitExceededError, match="^exhaustive check needs more than 91 steps$"):
            is_k_choosable(k23, 2)

    def test_degeneracy(self, monkeypatch):
        # the degeneracy answer comes exactly when the k-core is empty; small
        # budgets cut short the searches that come after it
        nx = pytest.importorskip("networkx")
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 10)
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 100)
        rng = random.Random(19)
        methods = Counter()
        for _ in range(3000):
            n = rng.randint(0, 10)
            p = rng.random()
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < p], n=n)
            nxg = nx.Graph(g.edges)
            nxg.add_nodes_from(range(n))
            largest_core = max(nx.core_number(nxg).values(), default=0)
            for k in range(1, 7):
                try:
                    method = is_k_choosable(g, k).method
                except SizeLimitExceededError:
                    method = None
                assert (method == "degeneracy") == (largest_core < k), (g.edges, k)
                methods[method] += 1
        assert min(methods.values()) > 50, methods


class TestAtlas:
    """Every graph on at most 7 vertices, in the order of networkx's copy of
    the atlas of Read and Wilson, at k = 2, 3 and 4."""

    # (atlas index, k) pairs that exit on the walk's budget.  None does:
    # the largest walk, at (1233, 3), takes 51,472 steps.
    BUDGET_EXITS = set()

    def test_every_graph_to_seven_vertices(self):
        nx = pytest.importorskip("networkx")
        exits = set()
        outcomes = Counter()
        for index, atlas_graph in enumerate(nx.graph_atlas_g()):
            n = atlas_graph.number_of_nodes()
            g = build_graph(sorted(tuple(sorted(e)) for e in atlas_graph.edges), n=n)
            largest_core = max(nx.core_number(atlas_graph).values(), default=0)
            connected = n > 0 and nx.is_connected(atlas_graph)
            for k in (2, 3, 4):
                try:
                    verdict = is_k_choosable(g, k)
                except SizeLimitExceededError:
                    exits.add((index, k))
                    continue
                assert (verdict.method == "degeneracy") == (largest_core < k), (index, k)
                if not verdict.choosable:
                    assert l_color_brute(g, verdict.witness.lists) is None, (index, k)
                if k == 2 and connected:
                    assert verdict.choosable is ert_two_choosable(g), index
                outcomes[k, verdict.method, verdict.choosable] += 1
        assert exits == self.BUDGET_EXITS
        assert outcomes == {
            (2, "degeneracy", True): 80, (2, "alon-tarsi", True): 31,
            (2, "exhaustive", True): 16, (2, "exhaustive", False): 1_126,
            (3, "degeneracy", True): 659, (3, "alon-tarsi", True): 169,
            (3, "exhaustive", True): 5, (3, "exhaustive", False): 420,
            (4, "degeneracy", True): 1_150, (4, "alon-tarsi", True): 37, (4, "exhaustive", False): 66,
        }


class TestDecide:
    """``choosability._decide``, the one decision behind ``is_k_choosable``
    and ``check_extension``, against the two pipelines it replaced, kept as
    ``oracles.is_k_choosable_reference`` and
    ``oracles.check_extension_reference``."""

    @staticmethod
    def outcome(decide, *args):
        try:
            return decide(*args)
        except SizeLimitExceededError as exc:
            return str(exc)

    def pairs(self, monkeypatch, new, old, args):
        # per case, the new and the reference outcome, each with the steps
        # of its walk
        spent = walk_steps(monkeypatch)
        for case in args:
            spent.clear()
            got = self.outcome(new, *case), list(spent)
            spent.clear()
            yield case, got, (self.outcome(old, *case), list(spent))

    def test_atlas_keeps_the_reference(self, monkeypatch):
        # every (graph, k) pair keeps the verdict, method, witness and walk
        # steps: the graphs that are their own k-core or have an empty one
        # by the rule, and on the others the certificate search finds a
        # certificate on the core exactly where it finds one on the whole
        # graph, and the walk is the same
        nx = pytest.importorskip("networkx")
        cases = []
        for atlas_graph in nx.graph_atlas_g():
            n = atlas_graph.number_of_nodes()
            g = build_graph(sorted(tuple(sorted(e)) for e in atlas_graph.edges), n=n)
            cases += [(g, k) for k in (2, 3, 4)]
        kinds = Counter()
        for (g, k), got, want in self.pairs(monkeypatch, is_k_choosable, is_k_choosable_reference, cases):
            assert got == want, (g.edges, k)
            core = core_of(g, [k] * g.n)
            kinds["empty" if not core else "all" if core == (1 << g.n) - 1 else got[0].method] += 1
        assert kinds == {"empty": 1_889, "all": 794, "exhaustive": 907, "alon-tarsi": 169}, kinds

    def test_seeded_graphs_keep_the_reference(self, monkeypatch):
        # 8 to 10 vertices at k = 2, 3 and 4, beyond the atlas
        rng = random.Random(83)
        cases = []
        for _ in range(150):
            n = rng.randint(8, 10)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3], n=n)
            cases.append((g, rng.randint(2, 4)))
        kinds = Counter()
        for (g, k), got, want in self.pairs(monkeypatch, is_k_choosable, is_k_choosable_reference, cases):
            core = core_of(g, [k] * g.n)
            if core in (0, (1 << g.n) - 1):
                assert got == want, (g.edges, k)
            elif not isinstance(got[0], str) and not isinstance(want[0], str):
                assert got[0].choosable == want[0].choosable, (g.edges, k)
            kinds[core in (0, (1 << g.n) - 1), got == want] += 1
        assert kinds[True, True] >= 50 and kinds[False, True] >= 20, kinds

    def test_extension_takes_the_reference_steps(self, monkeypatch):
        # seeded configurations, with the certificate search on and then
        # off, so that more reach the walk: the same answer, and the same
        # steps as the reference's walk on its relabelled copy of the core
        rng = random.Random(89)
        cases = []
        for _ in range(400):
            n = rng.randint(3, 9)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < rng.random()], n=n)
            cases.append((ReducibleConfig(g, tuple(rng.randint(1, g.degree(v) + 1) for v in range(n))),))
        walked = Counter()
        for at_max_edges in (choosability._AT_MAX_EDGES, -1):
            monkeypatch.setattr(choosability, "_AT_MAX_EDGES", at_max_edges)
            for (cfg,), got, want in self.pairs(monkeypatch, check_extension, check_extension_reference, cases):
                assert got == want, (cfg.inner.edges, cfg.residual_sizes)
                core = core_of(cfg.inner, cfg.residual_sizes)
                # walks on a core that some vertex peeled away from
                walked[at_max_edges] += bool(got[1]) and 0 < core < (1 << cfg.inner.n) - 1
        assert walked == {30: 35, -1: 39}, walked

    # K2,3 and K2,4 with pendant vertices on one hub, which peel away
    PENDANT_K23 = "I]qCCA?_?"
    PENDANT_K24 = "I]rCCA?_?"

    def test_pendant_graphs(self, monkeypatch):
        # the walk lists types over the K2,3 or K2,4 alone and takes its
        # steps; the pendant vertices of the "no" get colours of their own
        k23, k24 = parse_graph6(self.PENDANT_K23), parse_graph6(self.PENDANT_K24)
        assert k23 == build_graph(list(complete_bipartite(2, 3).edges) + [(0, v) for v in range(5, 10)])
        assert k24 == build_graph(list(complete_bipartite(2, 4).edges) + [(0, v) for v in range(6, 10)])
        spent = walk_steps(monkeypatch)
        assert is_k_choosable(k23, 2) == ChoosabilityVerdict(choosable=True, method="exhaustive")
        witness = ((0, 3), (1, 2), (0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
        assert is_k_choosable(k24, 2) == ChoosabilityVerdict(False, ListAssignment(witness), "exhaustive")
        assert spent == [92, 169]
        assert check_extension(ReducibleConfig(k24, (2,) * 10)) is False
        for graph, steps in ((k23, 92), (k24, 169)):
            monkeypatch.setattr(choosability, "MAX_WALK_STEPS", steps - 1)
            with pytest.raises(SizeLimitExceededError, match=f"^exhaustive check needs more than {steps - 1} steps$"):
                is_k_choosable(graph, 2)

    def test_search_budget_leaves_the_answer_to_the_walk(self, monkeypatch):
        # with the certificate search cut to 10 tree nodes and DP states,
        # the reference ends on the search's budget wherever a certificate
        # answered; the walk answers the same instead
        answers = {(name, k): is_k_choosable(g, k) for name, g in CHOOSE_SMALL.items() for k in (2, 3)}
        monkeypatch.setattr(alon_tarsi, "MAX_DP_STATES", 10)
        walked = []
        for (name, k), verdict in answers.items():
            got = is_k_choosable(CHOOSE_SMALL[name], k)
            if verdict.method == "alon-tarsi":
                with pytest.raises(SizeLimitExceededError, match="^certificate search needs more than 10 "):
                    is_k_choosable_reference(CHOOSE_SMALL[name], k)
                assert got == ChoosabilityVerdict(choosable=True, method="exhaustive"), (name, k)
                walked.append((name, k))
            else:
                assert got == verdict, (name, k)
        assert walked == [("C6", 2), ("K3,3", 3), ("W4", 3), ("W6", 3), ("W8", 3)]


class TestExtension:
    def test_square_all_twos(self):
        assert check_extension(SQUARE)

    def test_triangle_all_twos_fails(self):
        assert not check_extension(TRIANGLE)

    def test_single_vertex_size_one(self):
        cfg = ReducibleConfig(inner=build_graph([], n=1), residual_sizes=(1,))
        assert check_extension(cfg)

    # Re-choice is the cross-check of check_extension: a private colour on a
    # choice vertex removes nothing from its neighbours' lists, so a pick
    # extends exactly when the whole inner graph is colourable.

    def test_h_with_rechoice(self):
        assert check_extension_with_rechoice(H, H_CHOICE) is check_extension(H) is True

    def test_rechoice_cannot_fix_triangle(self):
        # pendant vertex with free re-choice does not help the inner triangle
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3)])
        cfg = ReducibleConfig(inner=g, residual_sizes=(2, 2, 2, 2))
        assert check_extension_with_rechoice(cfg, (3,)) is check_extension(cfg) is False

    def test_choice_set_of_all_vertices_collapses(self):
        for base in (SQUARE, TRIANGLE):
            assert check_extension_with_rechoice(base, tuple(range(base.inner.n))) == check_extension(base)

    def test_plain_extension_implies_rechoice(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 4)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            cfg = ReducibleConfig(build_graph(edges, n=n), tuple(rng.randint(1, 3) for _ in range(n)))
            assert check_extension_with_rechoice(cfg, (0,)) == check_extension(cfg)

    def test_rechoice_oracle_agrees_on_random_configs(self, monkeypatch):
        # every nonempty choice set of each configuration; a smaller budget
        # keeps the oracle's (assignment, pick) pairs to a second or two
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 600)
        rng = random.Random(2)
        agreed = Counter()
        skipped = 0
        for _ in range(40):
            n = rng.randint(1, 6)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5], n=n)
            cfg = ReducibleConfig(g, tuple(rng.randint(1, 3) for _ in range(n)))
            for r in range(1, n + 1):
                for choice in itertools.combinations(range(n), r):
                    try:
                        got = check_extension_with_rechoice(cfg, choice)
                    except SizeLimitExceededError:
                        skipped += 1
                        continue
                    assert got == check_extension(cfg), (g.edges, cfg.residual_sizes, choice)
                    agreed[got] += 1
        assert agreed[True] >= 100 and agreed[False] >= 100
        assert skipped < sum(agreed.values()) / 5

    def test_sizes_cut_to_degree_plus_one_keep_the_answer(self, monkeypatch):
        # the oracle walks the sizes as given; a smaller budget keeps it to
        # a second or two, and configurations it cannot finish are skipped
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 1_000)
        rng = random.Random(43)
        agreed = Counter()
        for _ in range(300):
            n = rng.randint(1, 6)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5], n=n)
            sizes = tuple(rng.randint(1, 5) for _ in range(n))
            try:
                want = first_uncolourable_loop(g, sizes) is None
            except SizeLimitExceededError:
                continue
            assert check_extension(ReducibleConfig(g, sizes)) is want, (g.edges, sizes)
            agreed[want, any(s > g.degree(v) + 1 for v, s in enumerate(sizes))] += 1
        # both answers, with and without a size that gets cut
        assert agreed[True, True] >= 100 and agreed[False, True] >= 20, agreed
        assert agreed[True, False] >= 10 and agreed[False, False] >= 5, agreed

    def test_peel_keeps_the_answer(self, monkeypatch):
        # configurations in which some vertex has more colours than
        # neighbours; the oracle walks the whole graph as given
        monkeypatch.setattr(oracles, "MAX_ORACLE_ASSIGNMENTS", 1_000)
        rng = random.Random(59)
        agreed = Counter()
        while sum(agreed.values()) < 150:
            n = rng.randint(2, 5)
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6], n=n)
            sizes = tuple(max(1, g.degree(v) + rng.choice((-1, 0, 0, 1))) for v in range(n))
            if all(s <= g.degree(v) for v, s in enumerate(sizes)):
                continue
            try:
                want = first_uncolourable_loop(g, sizes) is None
            except SizeLimitExceededError:
                continue
            assert check_extension(ReducibleConfig(g, sizes)) is want, (g.edges, sizes)
            agreed[want] += 1
        assert agreed[True] >= 50 and agreed[False] >= 20, agreed

    def test_peel_cascades_along_a_path(self, monkeypatch):
        # each end of a path with 2-lists has one neighbour, so the peel
        # eats the path from both ends and no walk is needed
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 0)
        path = build_graph([(v, v + 1) for v in range(9)])
        assert check_extension(ReducibleConfig(path, (2,) * 10))
        # a triangle closed at one end is left, and its first assignment,
        # 2-lists it cannot colour from, answers before the walk
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 0)
        lollipop = build_graph([(v, v + 1) for v in range(9)] + [(7, 9)])
        assert not check_extension(ReducibleConfig(lollipop, (2,) * 10))

    # Seeded connected graphs whose degree-sized lists exit on the walk's
    # budget.  None does: the three Gallai trees that once did answer "no"
    # (see tests/test_cli.py, TestReduce.GALLAI_TREES).
    DEGREE_SIZED_EXITS = set()

    def test_degree_sizes_follow_the_gallai_tree_rule(self):
        # lists as long as the degrees of a connected graph: colourable from
        # every such assignment unless every block is complete or an odd cycle
        nx = pytest.importorskip("networkx")
        k5_minus_edge = build_graph([e for e in itertools.combinations(range(5), 2) if e != (0, 1)])
        assert is_gallai_tree(K5) and is_gallai_tree(C5) and is_gallai_tree(build_graph([(0, 1), (1, 2)]))
        assert not is_gallai_tree(C4) and not is_gallai_tree(k5_minus_edge)
        rng = random.Random(3)
        agreed = Counter()
        exits = set()
        while sum(agreed.values()) + len(exits) < 1_500:
            n = rng.randint(2, 7)
            p = rng.random()
            g = build_graph([e for e in itertools.combinations(range(n), 2) if rng.random() < p], n=n)
            nxg = nx.Graph(g.edges)
            nxg.add_nodes_from(range(n))
            if not nx.is_connected(nxg):
                continue
            want = not is_gallai_tree(g)
            try:
                got = check_extension(ReducibleConfig(g, tuple(g.degree(v) for v in range(n))))
            except SizeLimitExceededError:
                assert not want, g.edges
                exits.add(g.edges)
                continue
            assert got is want, g.edges
            agreed[got] += 1
        assert exits == self.DEGREE_SIZED_EXITS
        assert agreed[True] >= 500 and agreed[False] >= 500, agreed

    def test_builtin_checks_agree_with_rechoice(self):
        choices = {"H-with-rechoice": H_CHOICE}
        for name, config, expected in fixtures.REDUCE_CHECKS:
            cfg = fixtures.reducible_config(config)
            assert reducible_with_rechoice(cfg, choices.get(name, ())) is check_extension(cfg) is expected

    def test_builtin_residual_sizes(self):
        # 4 minus each vertex's drawn neighbours outside the configuration
        derived = {name: fixtures.reducible_config(config).residual_sizes for name, config, _ in fixtures.REDUCE_CHECKS}
        assert derived == {
            "H-with-rechoice": (2, 3, 2, 4, 2),
            "square-2222": (2, 2, 2, 2),
            "triangle-222": (2, 2, 2),
        }

    # The square and H have orientation certificates, so check_extension
    # answers them before the walk; their walks take these steps.
    def test_assignment_budget(self, monkeypatch):
        # 39 steps, where the square has 139 assignments
        assert sum(1 for _ in iter_canonical_assignments(SQUARE.residual_sizes)) == 139
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 39)
        assert walk(SQUARE.inner, SQUARE.residual_sizes) is None
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 38)
        with pytest.raises(SizeLimitExceededError, match="^exhaustive check needs more than 38 steps$"):
            walk(SQUARE.inner, SQUARE.residual_sizes)

    def test_h_budget_boundary(self, monkeypatch):
        # 75 steps, where H has 6,319 assignments
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 75)
        assert walk(H.inner, H.residual_sizes) is None
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 74)
        with pytest.raises(SizeLimitExceededError, match="^exhaustive check needs more than 74 steps$"):
            walk(H.inner, H.residual_sizes)

    def test_certificates_answer_before_the_walk(self, monkeypatch):
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 0)
        assert check_extension(SQUARE) and check_extension(H)
        # K5 minus an edge with lists as long as the degrees is no Gallai tree
        edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
        assert check_extension(ReducibleConfig(build_graph(edges), (3, 3, 4, 4, 4)))

    def test_search_budget_leaves_the_answer_to_the_walk(self):
        # a K6 on 0, 1, 2, 4, 6 and 7 with the path 6-5-3: its first
        # assignment colours, the certificate search runs out of its budget,
        # and the walk finds an uncolourable assignment in 326 steps, the
        # 98,518th assignment
        edges = [
            (0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (1, 2), (1, 4), (1, 6), (1, 7),
            (2, 4), (2, 6), (2, 7), (3, 5), (4, 6), (4, 7), (5, 6), (6, 7),
        ]
        cfg = ReducibleConfig(build_graph(edges), (4, 3, 5, 1, 3, 2, 6, 5))
        with pytest.raises(SizeLimitExceededError, match="^certificate search"):
            alon_tarsi.find_list_certificate(cfg.inner, cfg.residual_sizes)
        assert check_extension(cfg) is False

    def test_budget_boundary_without_a_certificate(self, monkeypatch):
        # K2,4 with lists of 2 has 8 edges, more than its 6 vertices' lists
        # of 2 allow as outdegrees, so the walk decides, in 169 steps
        k24 = ReducibleConfig(CHOOSE_SMALL["K2,4"], (2,) * 6)
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 169)
        assert not check_extension(k24)
        monkeypatch.setattr(choosability, "MAX_WALK_STEPS", 168)
        with pytest.raises(SizeLimitExceededError, match="^exhaustive check needs more than 168 steps$"):
            check_extension(k24)


class TestListAssignment:
    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            ListAssignment(lists=((0,), ()))

    def test_json_roundtrip(self):
        la = ListAssignment(lists=((0, 1), (2,)))
        obj = la.to_json()
        assert obj == {"lists": [[0, 1], [2]]}
        assert json.loads(json.dumps(obj)) == obj
