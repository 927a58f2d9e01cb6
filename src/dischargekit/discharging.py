"""Exact-rational discharging engine.

Initial charges are 2*d(v)-6 on vertices and d(f)-6 on faces, which sum to
exactly -12 on a connected plane graph.  Rules R1-R4 move charge from
vertices to incident faces according to vertex degree and the role the
vertex plays on 3-faces; R5 then equalizes the charges of the three
3-faces of each trio whose triangles are all faces of the embedding.
Every transfer is traced, and totals are conserved with exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

from .core import Face, PlaneGraph, faces_of
from .errors import DisconnectedEmbeddingError, OverlappingTriosError
from .structures import VertexRole, classify_role, find_trios

Element = Tuple[str, int]  # ("v", index) or ("f", index)


def _frac_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _frac_from_json(obj) -> Fraction:
    if isinstance(obj, dict):
        return Fraction(obj["num"], obj["den"])
    return Fraction(obj)


@dataclass(frozen=True)
class TransferRecord:
    rule: str
    source: Element
    sink: Element
    amount: Fraction

    def __post_init__(self):
        if self.amount <= 0:
            raise ValueError("transfer amounts are positive")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "source": list(self.source),
            "sink": list(self.sink),
            "amount": _frac_json(self.amount),
        }


@dataclass
class ChargeLedger:
    """Per-element exact rational charges plus the transfer trace."""

    vertex_charge: Dict[int, Fraction]
    face_charge: Dict[int, Fraction]
    faces: Tuple[Face, ...]
    trace: List[TransferRecord] = field(default_factory=list)
    # The charges the ledger was built with, before any transfer.
    _initial_vertex: Dict[int, Fraction] = field(init=False, repr=False)
    _initial_face: Dict[int, Fraction] = field(init=False, repr=False)

    def __post_init__(self):
        self._initial_vertex = dict(self.vertex_charge)
        self._initial_face = dict(self.face_charge)

    def total(self) -> Fraction:
        return sum(self.vertex_charge.values(), Fraction(0)) + sum(
            self.face_charge.values(), Fraction(0)
        )

    def transfer(self, rule: str, source: Element, sink: Element, amount: Fraction) -> None:
        if amount == 0:
            return
        rec = TransferRecord(rule=rule, source=source, sink=sink, amount=amount)
        self._apply(rec)
        self.trace.append(rec)

    def _apply(self, rec: TransferRecord) -> None:
        for element, sign in ((rec.source, -1), (rec.sink, +1)):
            kind, i = element
            book = self.vertex_charge if kind == "v" else self.face_charge
            book[i] += sign * rec.amount

    def replay(self) -> "ChargeLedger":
        """Re-derive the final ledger from initial charges plus the trace."""
        fresh = ChargeLedger(
            vertex_charge=dict(self._initial_vertex),
            face_charge=dict(self._initial_face),
            faces=self.faces,
        )
        for rec in self.trace:
            fresh._apply(rec)
            fresh.trace.append(rec)
        return fresh

    def to_json(self) -> dict:
        return {
            "vertex_charge": {str(v): _frac_json(q) for v, q in self.vertex_charge.items()},
            "face_charge": {str(f): _frac_json(q) for f, q in self.face_charge.items()},
            "faces": [list(f.boundary) for f in self.faces],
            "total": _frac_json(self.total()),
            "trace": [r.to_json() for r in self.trace],
        }


@dataclass(frozen=True)
class RuleSet:
    """Rational transfer parameters; defaults follow rules R1-R5."""

    five_face: Fraction = Fraction(1, 5)  # R1
    deg4_plain: Fraction = Fraction(1)  # R2: good/bad/worse on a 3-face
    deg4_worst: Fraction = Fraction(2, 3)  # R2: worst on a 3-face
    deg4_four_face: Fraction = Fraction(1, 3)  # R2: any 4-face
    hi_good_or_worst: Fraction = Fraction(1)  # R3/R4: good or worst on a 3-face
    hi_bad: Fraction = Fraction(3, 2)  # R3/R4: bad on a 3-face
    hi_worse: Fraction = Fraction(5, 4)  # R3/R4: worse on a 3-face
    hi_4445_face: Fraction = Fraction(1)  # R3/R4: (4,4,4,5)-face
    hi_four_face: Fraction = Fraction(2, 3)  # R3/R4: other 4-face
    equalize_trios: bool = True  # R5
    # When a 3-face lies in two trios the equalization order is ambiguous.
    # "merge" equalizes the union of the overlapping trios' faces as one
    # group (order independent); "error" refuses instead.
    trio_overlap: str = "merge"

    @staticmethod
    def from_json(obj: dict) -> "RuleSet":
        base = RuleSet()
        kwargs = {}
        for name in obj:
            if not hasattr(base, name):
                raise ValueError(f"unknown rule parameter {name!r}")
            if name == "equalize_trios":
                kwargs[name] = bool(obj[name])
            elif name == "trio_overlap":
                if obj[name] not in ("merge", "error"):
                    raise ValueError("trio_overlap must be 'merge' or 'error'")
                kwargs[name] = obj[name]
            else:
                kwargs[name] = _frac_from_json(obj[name])
                if kwargs[name] < 0:
                    raise ValueError(f"rule parameter {name!r} must be nonnegative")
        return replace(base, **kwargs)

    def to_json(self) -> dict:
        out = {}
        for name, value in self.__dict__.items():
            out[name] = value if isinstance(value, (bool, str)) else _frac_json(value)
        return out


def initial_charges(embedding: PlaneGraph) -> ChargeLedger:
    """Formula charges; total is exactly -12 on a connected plane graph."""
    if not embedding.graph.is_connected():
        raise DisconnectedEmbeddingError("initial charges require a connected embedding")
    faces = tuple(faces_of(embedding))
    return ChargeLedger(
        vertex_charge={v: Fraction(2 * embedding.graph.degree(v) - 6) for v in range(embedding.graph.n)},
        face_charge={i: Fraction(f.degree - 6) for i, f in enumerate(faces)},
        faces=faces,
    )


def apply_rules(embedding: PlaneGraph, ruleset: RuleSet = RuleSet()) -> ChargeLedger:
    """Run R1-R5 in canonical order and return the traced ledger.

    Roles on 3-faces are classified against trios whose triangles are all
    faces of the embedding; abstract-only trios never trigger face rules.
    """
    ledger = initial_charges(embedding)
    graph = embedding.graph
    faces = ledger.faces
    deg = graph.degrees()

    # Each triangle's one 3-face; None when two faces share the triangle.
    face_of: Dict[FrozenSet[int], int | None] = {}
    for fi, f in enumerate(faces):
        vs = f.vertex_set()
        if f.degree == 3 and len(vs) == 3:
            face_of[vs] = None if vs in face_of else fi
    facial = [
        occ for occ in find_trios(graph) if all(face_of.get(t) is not None for t in occ.triangles)
    ]
    trio_faces = [sorted(face_of[t] for t in occ.triangles) for occ in facial]
    in_trio = {fi for indices in trio_faces for fi in indices}

    def payment(v: int, fi: int) -> Fraction:
        f = faces[fi]
        if f.degree == 4:
            if deg[v] == 4:
                return ruleset.deg4_four_face
            if sorted(deg[u] for u in f.boundary) == [4, 4, 4, 5]:
                return ruleset.hi_4445_face
            return ruleset.hi_four_face
        if fi in in_trio:
            role = classify_role(graph, v, f.vertex_set(), trios=facial)
        else:
            role = VertexRole.GOOD
        if deg[v] == 4:
            return ruleset.deg4_worst if role is VertexRole.WORST else ruleset.deg4_plain
        if role in (VertexRole.GOOD, VertexRole.WORST):
            return ruleset.hi_good_or_worst
        if role is VertexRole.BAD:
            return ruleset.hi_bad
        return ruleset.hi_worse

    # R1: every vertex pays into each incident 5-face, once per boundary
    # occurrence.
    for fi, f in enumerate(faces):
        if f.degree == 5:
            for v in f.boundary:
                ledger.transfer("R1", ("v", v), ("f", fi), ruleset.five_face)

    # R2-R4: vertices of degree 4, 5 and at least 6 pay into each incident
    # 3-face on three distinct vertices and each incident 4-face.
    for fi, f in enumerate(faces):
        if f.degree == 4 or (f.degree == 3 and len(f.vertex_set()) == 3):
            for v in f.boundary:
                if deg[v] >= 4:
                    rule = "R2" if deg[v] == 4 else "R3" if deg[v] == 5 else "R4"
                    ledger.transfer(rule, ("v", v), ("f", fi), payment(v, fi))

    # R5: equalize the charges of each trio's three 3-faces.  When trios
    # share a 3-face the per-trio order would be ambiguous; the default
    # policy merges overlapping trios and equalizes the whole group, which
    # is order independent.  Policy "error" refuses overlaps instead.
    if ruleset.equalize_trios and facial:
        counts: Dict[int, int] = {}
        for indices in trio_faces:
            for fi in indices:
                counts[fi] = counts.get(fi, 0) + 1
        if ruleset.trio_overlap == "error" and any(c > 1 for c in counts.values()):
            fi = min(i for i, c in counts.items() if c > 1)
            raise OverlappingTriosError(
                f"3-face {sorted(faces[fi].vertex_set())} belongs to two trios; "
                "equalization order is ambiguous"
            )
        parent = {fi: fi for fi in in_trio}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for indices in trio_faces:
            root = find(indices[0])
            for fi in indices[1:]:
                parent[find(fi)] = root
        groups: Dict[int, List[int]] = {}
        for fi in parent:
            groups.setdefault(find(fi), []).append(fi)
        for root in sorted(groups):
            indices = sorted(groups[root])
            target = sum(ledger.face_charge[i] for i in indices) / len(indices)
            givers = [(i, ledger.face_charge[i] - target) for i in indices if ledger.face_charge[i] > target]
            takers = [[i, target - ledger.face_charge[i]] for i in indices if ledger.face_charge[i] < target]
            for gi, gd in givers:
                for taker in takers:
                    if gd == 0:
                        break
                    ti, need = taker
                    move = min(gd, need)
                    if move > 0:
                        ledger.transfer("R5", ("f", gi), ("f", ti), move)
                        taker[1] -= move
                        gd -= move
    return ledger


@dataclass(frozen=True)
class FinalReport:
    """Negative final charges with their incident structure and trace slice."""

    total: Fraction
    negatives: Tuple[Tuple[Element, Fraction], ...]
    detail: Tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "total": _frac_json(self.total),
            "negatives": [
                {"element": list(el), "charge": _frac_json(q)} for el, q in self.negatives
            ],
            "detail": list(self.detail),
        }


def final_report(ledger: ChargeLedger, graph=None) -> FinalReport:
    """Every vertex/face with negative final charge, with the rule trace
    entries touching it."""
    negatives: List[Tuple[Element, Fraction]] = []
    detail: List[dict] = []
    for v in sorted(ledger.vertex_charge):
        q = ledger.vertex_charge[v]
        if q < 0:
            el: Element = ("v", v)
            negatives.append((el, q))
            detail.append(_element_detail(ledger, el, graph))
    for fi in sorted(ledger.face_charge):
        q = ledger.face_charge[fi]
        if q < 0:
            el = ("f", fi)
            negatives.append((el, q))
            detail.append(_element_detail(ledger, el, graph))
    return FinalReport(total=ledger.total(), negatives=tuple(negatives), detail=tuple(detail))


def _element_detail(ledger: ChargeLedger, element: Element, graph) -> dict:
    kind, i = element
    touching = [r.to_json() for r in ledger.trace if r.source == element or r.sink == element]
    out = {"element": list(element), "trace": touching}
    if kind == "f":
        out["boundary"] = list(ledger.faces[i].boundary)
    elif graph is not None:
        out["neighbors"] = sorted(graph.adjacency[i])
    return out
