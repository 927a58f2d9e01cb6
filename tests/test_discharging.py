from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from inputs import stacked_triangulations, triangulated_grid, trio_embedding
from oracles import apply_rules_unindexed, discharge_report_tree, initial_charges, replay, transfer

from dischargekit import fixtures
from dischargekit.core import PlaneGraph, build_graph
from dischargekit.discharging import (
    ChargeLedger,
    RuleSet,
    TransferRecord,
    apply_rules,
    final_report,
)
from dischargekit.errors import DisconnectedEmbeddingError

CUSTOM = RuleSet(
    five_face=Fraction(1, 7),
    deg4_plain=Fraction(1, 2),
    hi_bad=Fraction(2),
    hi_worse=Fraction(7, 4),
)


def trio_with_pendant():
    """The trio with a pendant on x, breaking the symmetry of its 3-faces."""
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4), (0, 5)])
    return PlaneGraph(g, [[1, 5, 2, 3], [0, 3, 4], [3, 0], [1, 0, 2, 4], [3, 1], [0]])


class TestInitialCharges:
    def test_tetrahedron(self):
        ledger = initial_charges(fixtures.load_embedding("tetrahedron"))
        assert all(q == 0 for q in ledger.vertex_charge.values())
        assert all(q == -3 for q in ledger.face_charge.values())
        assert ledger.total() == -12

    def test_cube(self):
        ledger = initial_charges(fixtures.load_embedding("cube"))
        assert all(q == 0 for q in ledger.vertex_charge.values())
        assert all(q == -2 for q in ledger.face_charge.values())

    def test_icosahedron(self):
        ledger = initial_charges(fixtures.load_embedding("icosahedron"))
        assert all(q == 4 for q in ledger.vertex_charge.values())
        assert all(q == -3 for q in ledger.face_charge.values())
        assert ledger.total() == -12

    def test_total_is_minus_twelve_everywhere(self):
        embs = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
        for emb in embs:
            assert initial_charges(emb).total() == -12

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1)], n=3)
        emb = PlaneGraph(g, [[1], [0], []])
        with pytest.raises(DisconnectedEmbeddingError):
            initial_charges(emb)


class TestApplyRules:
    def test_cube_has_no_transfers(self):
        # degree-3 vertices pay nothing and 4-faces receive only from
        # vertices of degree at least 4
        ledger = apply_rules(fixtures.load_embedding("cube"))
        assert ledger.trace == []
        assert all(q == -2 for q in ledger.face_charge.values())

    def test_tetrahedron_has_no_transfers(self):
        assert apply_rules(fixtures.load_embedding("tetrahedron")).trace == []

    def test_dodecahedron_r1(self):
        ledger = apply_rules(fixtures.load_embedding("dodecahedron"))
        assert all(r.rule == "R1" for r in ledger.trace)
        assert all(q == Fraction(-3, 5) for q in ledger.vertex_charge.values())
        assert all(q == 0 for q in ledger.face_charge.values())

    def test_conservation_default_rules(self):
        embs = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
        embs.append(trio_embedding())
        for emb in embs:
            assert apply_rules(emb).total() == -12

    def test_conservation_custom_rules(self):
        # rule amounts over coprime denominators share one denominator in
        # the books, also where R5 equalizes the octahedron's group of 7
        # faces
        coprime = RuleSet.from_json({"five_face": "1/7", "deg4_plain": "1/11", "hi_bad": "13/9"})
        for emb in fixtures.solid_embeddings().values():
            for ruleset in (CUSTOM, coprime):
                assert apply_rules(emb, ruleset).total() == -12

    def test_trio_three_faces_settle_equal(self):
        ledger = apply_rules(trio_embedding())
        triangle_charges = [
            ledger.face_charge[i]
            for i, f in enumerate(ledger.faces)
            if f.degree == 3
        ]
        assert triangle_charges == [Fraction(-7, 3)] * 3
        assert ledger.total() == -12

    def test_deterministic_trace(self):
        emb = fixtures.load_embedding("icosahedron")
        assert apply_rules(emb).trace == apply_rules(emb).trace

    def test_negative_amount_through_the_api(self):
        # RuleSet.from_json rejects a negative amount, the constructor does
        # not: the first record of one raises, and a rule that never fires
        # records nothing
        ruleset = RuleSet(five_face=Fraction(-1, 5))
        with pytest.raises(ValueError, match="transfer amounts are positive"):
            apply_rules(fixtures.load_embedding("dodecahedron"), ruleset)
        ledger = apply_rules(fixtures.load_embedding("cube"), ruleset)
        assert ledger.trace == [] and ledger.total() == -12


class TestTrioEqualization:
    def test_pendant_breaks_symmetry_then_r5_restores_it(self):
        emb = trio_with_pendant()
        before = apply_rules(emb, RuleSet(equalize_trios=False))
        triangles = [i for i, f in enumerate(before.faces) if f.degree == 3]
        assert sorted(before.face_charge[i] for i in triangles) == [
            Fraction(-7, 3),
            Fraction(-4, 3),
            Fraction(-4, 3),
        ]
        after = apply_rules(emb)
        assert [after.face_charge[i] for i in triangles] == [Fraction(-5, 3)] * 3
        r5 = [r for r in after.trace if r.rule == "R5"]
        assert [r.amount for r in r5] == [Fraction(1, 3), Fraction(1, 3)]

    def test_group_sum_preserved(self):
        emb = trio_with_pendant()
        before = apply_rules(emb, RuleSet(equalize_trios=False))
        after = apply_rules(emb)
        triangles = [i for i, f in enumerate(before.faces) if f.degree == 3]
        assert sum(before.face_charge[i] for i in triangles) == sum(
            after.face_charge[i] for i in triangles
        )

    def test_octahedron_overlap_merges_by_default(self):
        ledger = apply_rules(fixtures.load_embedding("octahedron"))
        assert ledger.total() == -12
        # six overlapping trios cover seven of the eight faces; that group
        # equalizes while the uncovered face keeps its charge
        assert Counter(ledger.face_charge.values()) == {
            Fraction(-6, 7): 7,
            Fraction(0): 1,
        }
        # each degree-4 centre keeps one trio of its four windows: 30
        # transfers, 6 of them R5 moves within the one group of 7 faces
        r5 = [r for r in ledger.trace if r.rule == "R5"]
        faces = {end[1] for r in r5 for end in (r.source, r.sink)}
        assert (len(ledger.trace), len(r5), len(faces)) == (30, 6, 7)


def oracle_embeddings():
    embs = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
    embs += [trio_embedding(), trio_with_pendant()]
    return embs + [triangulated_grid(8, 0.9, seed) for seed in (1, 2)]


class TestOracleCrossChecks:
    def test_trace_matches_unindexed_rules(self):
        shapes = []
        # the stacked triangulations' links have chords, so some trios of
        # find_trios_scan are dropped for a smallest link tuple that is not facial
        pytest.importorskip("networkx")
        for emb in oracle_embeddings() + stacked_triangulations():
            for ruleset in (RuleSet(), CUSTOM):
                ledger = apply_rules(emb, ruleset)
                want, group_shapes = apply_rules_unindexed(emb, ruleset)
                assert ledger.trace == want.trace
                assert (ledger.vertex_charge, ledger.face_charge) == (want.vertex_charge, want.face_charge)
                shapes += group_shapes
        # groups with several givers and several takers move the cursor
        # past a partly filled taker
        assert any(givers >= 2 and takers >= 2 for givers, takers, _ in shapes)

    def test_integer_books_match_fraction_oracle(self):
        """The integer books against the oracle's ``Fraction`` transfers,
        on drawn rule amounts: numerators 0-50 over denominators of up to
        30 digits, with R5 on and off."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        embs = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
        embs += [triangulated_grid(side, share, side) for side in range(3, 13) for share in (0.2, 0.5, 0.9, 1.0)]
        # inputs whose R5 group sizes have an lcm above the largest of them:
        # a denominator scaled by the largest size alone fails there
        sizes = [[size for _, _, size in apply_rules_unindexed(emb)[1]] for emb in embs]
        above = [i for i, s in enumerate(sizes) if s and lcm(*s) > max(s)]
        assert above
        amounts = st.builds(
            Fraction, st.integers(0, 50), st.one_of(st.integers(1, 12), st.integers(1, 10**30 - 1))
        )
        names = [name for name in vars(RuleSet()) if name != "equalize_trios"]
        rulesets = st.builds(RuleSet, **{name: amounts for name in names}, equalize_trios=st.booleans())
        seen = set()

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.seed(17)
        @hypothesis.given(st.one_of(st.sampled_from(above), st.sampled_from(range(len(embs)))), rulesets)
        def check(index, ruleset):
            emb = embs[index]
            ledger = apply_rules(emb, ruleset)
            want, _ = apply_rules_unindexed(emb, ruleset)
            assert ledger.trace == want.trace
            assert [(r.amount.numerator, r.amount.denominator) for r in ledger.trace] == [
                (r.amount.numerator, r.amount.denominator) for r in want.trace
            ]
            assert ledger.vertex_charge == want.vertex_charge
            assert ledger.face_charge == want.face_charge
            assert ledger.total() == -12
            seen.add(("R5", ruleset.equalize_trios, any(r.rule == "R5" for r in ledger.trace)))
            seen.add(("zero", any(getattr(ruleset, name) == 0 for name in names)))
            seen.add(("lcm above largest", ruleset.equalize_trios and index in above))

        check()
        assert {("R5", True, True), ("R5", False, False), ("zero", True), ("lcm above largest", True)} <= seen

    def test_final_report_detail_matches_trace_scan(self):
        for emb in oracle_embeddings():
            ledger = apply_rules(emb)
            report = final_report(ledger)
            books = (("v", ledger.vertex_charge), ("f", ledger.face_charge))
            assert report.negatives == tuple(
                ((kind, i), q) for kind, book in books for i, q in sorted(book.items()) if q < 0
            )
            assert len(report.detail) == len(report.negatives)
            for (element, _), indices in zip(report.negatives, report.detail):
                scan = [j for j, r in enumerate(ledger.trace) if element in (r.source, r.sink)]
                assert list(indices) == scan


class TestLedger:
    def test_replay_reproduces_final_state(self):
        for emb in (fixtures.load_embedding("icosahedron"), trio_with_pendant()):
            ledger = apply_rules(emb)
            replayed = replay(ledger, initial_charges(emb))
            assert replayed.vertex_charge == ledger.vertex_charge
            assert replayed.face_charge == ledger.face_charge
            assert replayed.trace == ledger.trace

    def test_replay_of_hand_built_ledger(self):
        def hand_built():
            return ChargeLedger(
                vertex_charge={0: Fraction(2), 1: Fraction(-1)},
                face_charge={0: Fraction(-3)},
                faces=(),
            )

        ledger = hand_built()
        transfer(ledger, "R1", ("v", 0), ("f", 0), Fraction(1, 2))
        replayed = replay(ledger, hand_built())
        assert replayed.vertex_charge == {0: Fraction(3, 2), 1: Fraction(-1)}
        assert replayed.face_charge == {0: Fraction(-5, 2)}
        assert replayed.trace == ledger.trace

    def test_transfer_updates_both_books(self):
        emb = fixtures.load_embedding("tetrahedron")
        ledger = initial_charges(emb)
        transfer(ledger, "R1", ("v", 0), ("f", 1), Fraction(1, 5))
        assert ledger.vertex_charge[0] == Fraction(-1, 5)
        assert ledger.face_charge[1] == Fraction(-14, 5)
        assert ledger.total() == -12

    def test_zero_transfer_is_dropped(self):
        ledger = initial_charges(fixtures.load_embedding("tetrahedron"))
        transfer(ledger, "R1", ("v", 0), ("f", 0), Fraction(0))
        assert ledger.trace == []

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            TransferRecord("R1", ("v", 0), ("f", 0), Fraction(-1))

    def test_json_shape(self):
        emb = fixtures.load_embedding("dodecahedron")
        ledger = apply_rules(emb)
        obj = discharge_report_tree(ledger, final_report(ledger), emb.graph)["ledger"]
        assert obj["total"] == {"num": -12, "den": 1}
        assert len(obj["trace"]) == 5 * 12
        assert obj["vertex_charge"]["0"] == {"num": -3, "den": 5}


class TestRuleSet:
    def test_json_roundtrip(self):
        def to_json(rs):
            return {
                k: v if isinstance(v, bool) else {"num": v.numerator, "den": v.denominator}
                for k, v in vars(rs).items()
            }

        for rs in (RuleSet(), CUSTOM, RuleSet(equalize_trios=False)):
            assert RuleSet.from_json(to_json(rs)) == rs

    def test_partial_json_keeps_defaults(self):
        rs = RuleSet.from_json({"five_face": {"num": 1, "den": 7}})
        assert rs.five_face == Fraction(1, 7)
        assert rs.deg4_worst == Fraction(2, 3)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            RuleSet.from_json({"five_fase": 1})

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            RuleSet.from_json({"hi_bad": {"num": -1, "den": 2}})

    def test_bad_overlap_policy_rejected(self):
        with pytest.raises(ValueError):
            RuleSet.from_json({"trio_overlap": "panic"})


class TestFinalReport:
    def test_dodecahedron_negatives_are_vertices(self):
        report = final_report(apply_rules(fixtures.load_embedding("dodecahedron")))
        assert report.total == -12
        assert [el for el, _ in report.negatives] == [("v", v) for v in range(20)]
        assert all(q == Fraction(-3, 5) for _, q in report.negatives)

    def test_detail_includes_trace_and_structure(self):
        emb = fixtures.load_embedding("dodecahedron")
        ledger = apply_rules(emb)
        report = final_report(ledger)
        assert len(report.detail[0]) == 3
        assert all(ledger.trace[j].source == ("v", 0) for j in report.detail[0])
        first = discharge_report_tree(ledger, report, emb.graph)["report"]["detail"][0]
        assert first["element"] == ["v", 0]
        assert len(first["trace"]) == 3
        assert len(first["neighbors"]) == 3

    def test_face_negatives_carry_boundary(self):
        emb = fixtures.load_embedding("tetrahedron")
        ledger = apply_rules(emb)
        report = final_report(ledger)
        assert all(el[0] == "f" for el, _ in report.negatives)
        assert report.detail == ((),) * 4
        obj = discharge_report_tree(ledger, report, emb.graph)["report"]
        assert all(len(d["boundary"]) == 3 for d in obj["detail"])
        assert obj["total"] == {"num": -12, "den": 1}
        assert len(obj["negatives"]) == 4
