from collections import Counter
from fractions import Fraction

import pytest

from dischargekit import fixtures
from dischargekit.core import PlaneGraph, build_graph
from dischargekit.discharging import (
    ChargeLedger,
    RuleSet,
    TransferRecord,
    apply_rules,
    final_report,
    initial_charges,
)
from dischargekit.errors import DisconnectedEmbeddingError, OverlappingTriosError

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
        embs.append(fixtures.trio_embedding())
        for emb in embs:
            assert apply_rules(emb).total() == -12

    def test_conservation_custom_rules(self):
        for emb in fixtures.solid_embeddings().values():
            assert apply_rules(emb, CUSTOM).total() == -12

    def test_trio_three_faces_settle_equal(self):
        ledger = apply_rules(fixtures.trio_embedding())
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

    def test_octahedron_overlap_strict_mode_refuses(self):
        with pytest.raises(OverlappingTriosError):
            apply_rules(
                fixtures.load_embedding("octahedron"), RuleSet(trio_overlap="error")
            )


class TestLedger:
    def test_replay_reproduces_final_state(self):
        for emb in (fixtures.load_embedding("icosahedron"), trio_with_pendant()):
            ledger = apply_rules(emb)
            replayed = ledger.replay()
            assert replayed.vertex_charge == ledger.vertex_charge
            assert replayed.face_charge == ledger.face_charge
            assert replayed.trace == ledger.trace

    def test_replay_of_hand_built_ledger(self):
        ledger = ChargeLedger(
            vertex_charge={0: Fraction(2), 1: Fraction(-1)},
            face_charge={0: Fraction(-3)},
            faces=(),
        )
        ledger.transfer("R1", ("v", 0), ("f", 0), Fraction(1, 2))
        replayed = ledger.replay()
        assert replayed.vertex_charge == {0: Fraction(3, 2), 1: Fraction(-1)}
        assert replayed.face_charge == {0: Fraction(-5, 2)}
        assert replayed.trace == ledger.trace

    def test_transfer_updates_both_books(self):
        emb = fixtures.load_embedding("tetrahedron")
        ledger = initial_charges(emb)
        ledger.transfer("R1", ("v", 0), ("f", 1), Fraction(1, 5))
        assert ledger.vertex_charge[0] == Fraction(-1, 5)
        assert ledger.face_charge[1] == Fraction(-14, 5)
        assert ledger.total() == -12

    def test_zero_transfer_is_dropped(self):
        ledger = initial_charges(fixtures.load_embedding("tetrahedron"))
        ledger.transfer("R1", ("v", 0), ("f", 0), Fraction(0))
        assert ledger.trace == []

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            TransferRecord("R1", ("v", 0), ("f", 0), Fraction(-1))

    def test_json_shape(self):
        obj = apply_rules(fixtures.load_embedding("dodecahedron")).to_json()
        assert obj["total"] == {"num": -12, "den": 1}
        assert len(obj["trace"]) == 5 * 12
        assert obj["vertex_charge"]["0"] == {"num": -3, "den": 5}


class TestRuleSet:
    def test_json_roundtrip(self):
        for rs in (RuleSet(), CUSTOM, RuleSet(equalize_trios=False, trio_overlap="error")):
            assert RuleSet.from_json(rs.to_json()) == rs

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
        emb = fixtures.load_embedding("dodecahedron")
        report = final_report(apply_rules(emb), emb.graph)
        assert report.total == -12
        assert [el for el, _ in report.negatives] == [("v", v) for v in range(20)]
        assert all(q == Fraction(-3, 5) for _, q in report.negatives)

    def test_detail_includes_trace_and_structure(self):
        emb = fixtures.load_embedding("dodecahedron")
        report = final_report(apply_rules(emb), emb.graph)
        first = report.detail[0]
        assert first["element"] == ["v", 0]
        assert len(first["trace"]) == 3
        assert len(first["neighbors"]) == 3

    def test_face_negatives_carry_boundary(self):
        ledger = apply_rules(fixtures.load_embedding("tetrahedron"))
        report = final_report(ledger)
        assert all(el[0] == "f" for el, _ in report.negatives)
        assert all(len(d["boundary"]) == 3 for d in report.detail)
        obj = report.to_json()
        assert obj["total"] == {"num": -12, "den": 1}
        assert len(obj["negatives"]) == 4
