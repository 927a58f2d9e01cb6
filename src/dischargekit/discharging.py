"""Exact-rational discharging engine.

Initial charges are 2*d(v)-6 on vertices and d(f)-6 on faces, which sum to
exactly -12 on a connected plane graph.  Rules R1-R4 move charge from
vertices to incident faces according to vertex degree and the role the
vertex plays on 3-faces; R5 then equalizes the charges of the three
3-faces of each trio whose triangles are all faces of the embedding.
Those trios are windows of three 3-face sectors in a row around their
centre, read off the sector index the embedding built with its faces, and
their roles are indexed by face.  Every transfer is traced, and totals are
conserved with exact equality.  The rules keep integer numerators over one
denominator from the formula charges on, fixed before the first transfer
so that every charge and every R5 target is an integer; the ledger gets
its ``Fraction`` charges at the end, one per distinct numerator.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .core import Face, PlaneGraph, expect_json, expect_key, faces_of
from .errors import MalformedInputError
from .structures import VertexRole, classify_role, facial_trios

Element = Tuple[str, int]  # ("v", index) or ("f", index)


def _frac_from_json(obj, what: str) -> Fraction:
    if isinstance(obj, dict):
        args = tuple(expect_json(expect_key(obj, key, what), int, f"{what} {key}") for key in ("num", "den"))
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


def apply_rules(embedding: PlaneGraph, ruleset: RuleSet = RuleSet()) -> ChargeLedger:
    """Run R1-R5 in canonical order from the formula charges and return the
    traced ledger; ``faces_of`` rejects a disconnected embedding.

    Roles on 3-faces are classified against the trios whose triangles are
    all 3-faces, read off the embedding's sector index by ``facial_trios``;
    abstract-only trios never trigger face rules.  The role index is keyed
    by face index and read once per 3-face.
    """
    faces = tuple(faces_of(embedding))
    deg = [len(r) for r in embedding.rotation]

    trios = facial_trios(embedding)
    role_of = classify_role(trios)

    # R5 equalizes each trio's three 3-faces.  Trios sharing a 3-face are
    # merged and the whole group is equalized, which is order independent.
    # The groups depend on the trios alone, so they are found first.
    parent = list(range(len(faces)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, indices in trios:
        first, second, third = sorted(indices)
        root = find(first)
        parent[find(second)] = root
        parent[find(third)] = root
    by_root: Dict[int, List[int]] = {}
    for fi in sorted(role_of):
        by_root.setdefault(find(fi), []).append(fi)
    groups = [by_root[root] for root in sorted(by_root)] if ruleset.equalize_trios else []

    # The books hold numerators over ``den``, from the formula charges on.
    # Until R5 equalizes a group, its charges are multiples of every group
    # size, so its sum divides.
    rates = {name: q for name, q in vars(ruleset).items() if name != "equalize_trios"}
    den = lcm(*(q.denominator for q in rates.values())) * lcm(*map(len, groups))
    pay = {name: (q, q.numerator * (den // q.denominator)) for name, q in rates.items()}
    vc = [(2 * d - 6) * den for d in deg]
    fc = [(f.degree - 6) * den for f in faces]
    trace: List[TransferRecord] = []
    vertex, face = [("v", v) for v in range(len(deg))], [("f", fi) for fi in range(len(faces))]
    fractions: Dict[int, Fraction] = {}

    def over_den(num: int) -> Fraction:
        # one Fraction per distinct numerator
        q = fractions.get(num)
        if q is None:
            q = fractions[num] = Fraction(num, den)
        return q

    # R1: every vertex pays into each incident 5-face, once per boundary
    # occurrence.  A zero amount records nothing.
    amount, num = pay["five_face"]
    if num:
        for fi, f in enumerate(faces):
            if f.degree == 5:
                sink = face[fi]
                for v in f.boundary:
                    vc[v] -= num
                    fc[fi] += num
                    trace.append(TransferRecord("R1", vertex[v], sink, amount))

    # R2-R4: vertices of degree 4, 5 and at least 6 pay into each incident
    # 3-face and 4-face, by the vertex's degree and its role on a 3-face,
    # and by whether a 4-face is a (4,4,4,5)-face.  A simple graph's
    # 3-face has three distinct vertices.
    good, bad, worst = VertexRole.GOOD, VertexRole.BAD, VertexRole.WORST
    for fi, f in enumerate(faces):
        size = f.degree
        if size == 3:
            roles = role_of.get(fi)
        elif size == 4:
            four = sorted(deg[v] for v in f.boundary)
            hi_on_4 = pay["hi_4445_face"] if four == [4, 4, 4, 5] else pay["hi_four_face"]
        else:
            continue
        sink = face[fi]
        for v in f.boundary:
            d = deg[v]
            if d < 4:
                continue
            if size == 4:
                amount, num = pay["deg4_four_face"] if d == 4 else hi_on_4
            else:
                role = roles[v] if roles else good
                if d == 4:
                    amount, num = pay["deg4_worst"] if role is worst else pay["deg4_plain"]
                elif role is good or role is worst:
                    amount, num = pay["hi_good_or_worst"]
                else:
                    amount, num = pay["hi_bad"] if role is bad else pay["hi_worse"]
            if num:
                vc[v] -= num
                fc[fi] += num
                trace.append(TransferRecord("R2" if d == 4 else "R3" if d == 5 else "R4", vertex[v], sink, amount))

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
                trace.append(TransferRecord("R5", face[gi], face[ti], over_den(move)))
                gd -= move
                takers[k][1] = need - move
                if move == need:
                    k += 1
        for i in indices:
            fc[i] = target
    return ChargeLedger(
        vertex_charge=dict(enumerate(map(over_den, vc))),
        face_charge=dict(enumerate(map(over_den, fc))),
        faces=faces,
        trace=trace,
    )


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
    rule trace entries touching it, collected in one pass over the trace
    into a list per negative element of each book (books are keyed 0..n-1)."""
    books = (("v", ledger.vertex_charge), ("f", ledger.face_charge))
    negatives = [((kind, i), book[i]) for kind, book in books for i in range(len(book)) if book[i].numerator < 0]
    touching = {kind: [None] * len(book) for kind, book in books}
    for (kind, i), _ in negatives:
        touching[kind][i] = []
    for j, (_, (skind, si), (tkind, ti), _) in enumerate(ledger.trace):
        at = touching[skind][si]
        if at is not None:
            at.append(j)
        at = touching[tkind][ti]
        if at is not None and (ti != si or tkind != skind):
            at.append(j)
    return FinalReport(
        total=ledger.total(),
        negatives=tuple(negatives),
        detail=tuple(tuple(touching[kind][i]) for (kind, i), _ in negatives),
    )
