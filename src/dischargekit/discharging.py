"""Exact-rational discharging engine.

Initial charges are 2*d(v)-6 on vertices and d(f)-6 on faces, which sum to
exactly -12 on a connected plane graph.  Rules R1-R4 move charge from
vertices to incident faces according to vertex degree and the role the
vertex plays on 3-faces; R5 then equalizes the charges of the three
3-faces of each trio whose triangles are all faces of the embedding.
Those trios are windows of three 3-face sectors in a row around their
centre, read off the rotation system, and their roles are indexed by face.
Every transfer is traced, and totals are conserved with exact equality.
The rules move charge as integer numerators over one denominator, fixed
before the first transfer so that every charge and every R5 target is an
integer; the ledger gets its ``Fraction`` charges once, at the end.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .core import Face, PlaneGraph, expect_json, faces_of
from .errors import MalformedInputError
from .structures import VertexRole, classify_role, facial_trios

Element = Tuple[str, int]  # ("v", index) or ("f", index)


def _frac_from_json(obj, what: str) -> Fraction:
    if isinstance(obj, dict):
        args = (expect_json(obj["num"], int, f"{what} num"), expect_json(obj["den"], int, f"{what} den"))
    elif type(obj) in (int, str):
        if type(obj) is str and "e" in obj.lower():
            # Fraction would build the power of ten the exponent names
            raise ValueError(f"{what} must be written without an exponent")
        args = (obj,)
    else:
        raise MalformedInputError(f"{what} must be a {{num, den}} object, an integer or a string")
    try:
        return Fraction(*args)
    except ZeroDivisionError:
        raise ValueError(f"{what} has denominator 0") from None


class TransferRecord(namedtuple("TransferRecord", "rule source sink amount")):
    """``amount`` > 0 moved by ``rule`` from ``source`` to ``sink``: a tuple, cheap to build."""

    __slots__ = ()

    def __new__(cls, rule: str, source: Element, sink: Element, amount: Fraction):
        if amount.numerator <= 0:
            raise ValueError("transfer amounts are positive")
        return tuple.__new__(cls, (rule, source, sink, amount))


@dataclass
class ChargeLedger:
    """Per-element exact rational charges plus the transfer trace."""

    vertex_charge: Dict[int, Fraction]
    face_charge: Dict[int, Fraction]
    faces: Tuple[Face, ...]
    trace: List[TransferRecord] = field(default_factory=list)

    def total(self) -> Fraction:
        """The sum of all charges, added as integer numerators over the lcm
        of their denominators."""
        charges = [*self.vertex_charge.values(), *self.face_charge.values()]
        den = lcm(*(q.denominator for q in charges))
        return Fraction(sum(q.numerator * (den // q.denominator) for q in charges), den)


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

    @staticmethod
    def from_json(obj: dict) -> "RuleSet":
        base = RuleSet()
        kwargs = {}
        for name in expect_json(obj, dict, "rules"):
            if not hasattr(base, name):
                raise ValueError(f"unknown rule parameter {name!r}")
            if name == "equalize_trios":
                kwargs[name] = expect_json(obj[name], bool, name)
            else:
                kwargs[name] = _frac_from_json(obj[name], name)
                if kwargs[name] < 0:
                    raise ValueError(f"rule parameter {name!r} must be nonnegative")
        return replace(base, **kwargs)


def initial_charges(embedding: PlaneGraph) -> ChargeLedger:
    """Formula charges; total is exactly -12 on a connected plane graph.
    ``faces_of`` rejects a disconnected one."""
    faces = tuple(faces_of(embedding))
    return ChargeLedger(
        vertex_charge={v: Fraction(2 * embedding.graph.degree(v) - 6) for v in range(embedding.graph.n)},
        face_charge={i: Fraction(f.degree - 6) for i, f in enumerate(faces)},
        faces=faces,
    )


def apply_rules(embedding: PlaneGraph, ruleset: RuleSet = RuleSet()) -> ChargeLedger:
    """Run R1-R5 in canonical order and return the traced ledger.

    Roles on 3-faces are classified against the trios whose triangles are
    all 3-faces, read off the rotation by ``facial_trios``; abstract-only
    trios never trigger face rules.  The role index is keyed by face index.
    """
    ledger = initial_charges(embedding)
    graph = embedding.graph
    faces = ledger.faces
    deg = graph.degrees()

    trios = facial_trios(embedding, faces)
    role_of = classify_role(trios)
    trio_faces = [sorted(indices) for _, indices in trios]

    # R5 equalizes each trio's three 3-faces.  Trios sharing a 3-face are
    # merged and the whole group is equalized, which is order independent.
    # The groups depend on the trios alone, so they are found first.
    parent = {fi: fi for indices in trio_faces for fi in indices}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for indices in trio_faces:
        root = find(indices[0])
        for fi in indices[1:]:
            parent[find(fi)] = root
    by_root: Dict[int, List[int]] = {}
    for fi in parent:
        by_root.setdefault(find(fi), []).append(fi)
    groups = [sorted(by_root[root]) for root in sorted(by_root)] if ruleset.equalize_trios else []

    # The books hold numerators over ``den``.  Until R5 equalizes a group,
    # its charges are multiples of every group size, so its sum divides.
    rates = {name: q for name, q in vars(ruleset).items() if name != "equalize_trios"}
    den = lcm(*(q.denominator for q in rates.values())) * lcm(*map(len, groups))
    pay = {name: (q, q.numerator * (den // q.denominator)) for name, q in rates.items()}
    vc = {v: int(q) * den for v, q in ledger.vertex_charge.items()}
    fc = {fi: int(q) * den for fi, q in ledger.face_charge.items()}

    def payment(v: int, fi: int) -> Tuple[Fraction, int]:
        f = faces[fi]
        if f.degree == 4:
            if deg[v] == 4:
                return pay["deg4_four_face"]
            if sorted(deg[u] for u in f.boundary) == [4, 4, 4, 5]:
                return pay["hi_4445_face"]
            return pay["hi_four_face"]
        roles = role_of.get(fi)
        role = roles[v] if roles else VertexRole.GOOD
        if deg[v] == 4:
            return pay["deg4_worst"] if role is VertexRole.WORST else pay["deg4_plain"]
        if role in (VertexRole.GOOD, VertexRole.WORST):
            return pay["hi_good_or_worst"]
        return pay["hi_bad"] if role is VertexRole.BAD else pay["hi_worse"]

    # R1: every vertex pays into each incident 5-face, once per boundary
    # occurrence.  A zero amount records nothing.
    amount, num = pay["five_face"]
    for fi, f in enumerate(faces):
        if f.degree == 5 and num:
            for v in f.boundary:
                vc[v] -= num
                fc[fi] += num
                ledger.trace.append(TransferRecord("R1", ("v", v), ("f", fi), amount))

    # R2-R4: vertices of degree 4, 5 and at least 6 pay into each incident
    # 3-face and 4-face.  A simple graph's 3-face has three distinct vertices.
    for fi, f in enumerate(faces):
        if f.degree in (3, 4):
            for v in f.boundary:
                if deg[v] >= 4:
                    amount, num = payment(v, fi)
                    if num:
                        vc[v] -= num
                        fc[fi] += num
                        rule = "R2" if deg[v] == 4 else "R3" if deg[v] == 5 else "R4"
                        ledger.trace.append(TransferRecord(rule, ("v", v), ("f", fi), amount))

    # R5: in each group, each giver fills the takers in order, starting at
    # the first one still in need.  The surpluses and the needs have the
    # same exact sum, so the cursor never runs past the last taker.
    for indices in groups:
        target = sum(fc[i] for i in indices) // len(indices)
        givers = [(i, fc[i] - target) for i in indices if fc[i] > target]
        takers = [[i, target - fc[i]] for i in indices if fc[i] < target]
        k = 0
        for gi, gd in givers:
            while gd > 0:
                ti, need = takers[k]
                move = min(gd, need)
                ledger.trace.append(TransferRecord("R5", ("f", gi), ("f", ti), Fraction(move, den)))
                gd -= move
                takers[k][1] = need - move
                if move == need:
                    k += 1
        fc.update(dict.fromkeys(indices, target))
    ledger.vertex_charge = {v: Fraction(c, den) for v, c in vc.items()}
    ledger.face_charge = {fi: Fraction(c, den) for fi, c in fc.items()}
    return ledger


@dataclass(frozen=True)
class FinalReport:
    """Negative final charges, vertices first, each in index order, and for
    each one the indices into the ledger's trace of the transfers touching
    it."""

    total: Fraction
    negatives: Tuple[Tuple[Element, Fraction], ...]
    detail: Tuple[Tuple[int, ...], ...]


def final_report(ledger: ChargeLedger) -> FinalReport:
    """Every vertex/face with negative final charge, with the indices of the
    rule trace entries touching it."""
    negatives = [(("v", v), q) for v, q in sorted(ledger.vertex_charge.items()) if q.numerator < 0]
    negatives += [(("f", fi), q) for fi, q in sorted(ledger.face_charge.items()) if q.numerator < 0]
    touching: Dict[Element, List[int]] = {el: [] for el, _ in negatives}
    for i, rec in enumerate(ledger.trace):
        if rec.source in touching:
            touching[rec.source].append(i)
        if rec.sink in touching and rec.sink != rec.source:
            touching[rec.sink].append(i)
    return FinalReport(
        total=ledger.total(),
        negatives=tuple(negatives),
        detail=tuple(tuple(touching[el]) for el, _ in negatives),
    )
