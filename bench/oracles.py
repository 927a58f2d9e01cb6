"""Known answers for the benchmark's requests, computed without the package
under test.

Each ``check_*`` function takes the request's exit code and parsed JSON
report and returns a list of problems; an empty list means the answer is
right.  The facts used:

- discharge: the faces, traced here from the rotation system, are the
  ledger's faces and satisfy V - E + F = 2 (Euler's formula); replaying
  the transfer trace from the initial charges 2d(v)-6 and d(f)-6
  reproduces the final ledger, whose total is -12; the negatives are
  exactly the elements left below zero.
- detect: the Corollary witnesses are the 5-cycles sharing an edge with a
  3-cycle, and the trios are the (vertex set, centre) pairs of three
  consecutive triangles around a centre.  Both are recomputed here by
  different algorithms than the package uses.
- choosable, k=2: Erdos-Rubin-Taylor -- a connected graph is 2-choosable
  iff its core is K1, an even cycle or theta(2, 2, 2m).
- choosable, k=3: odd wheels and K4 are not 3-colourable; even wheels and
  K_{3,3} are 3-choosable; a graph of degeneracy below k is k-choosable.
- alon-tarsi, k=5: every planar graph has Alon-Tarsi number at most 5
  (Zhu 2019), so each solid must get a certificate.
- alon-tarsi counts: brute-force enumeration of the arc subsets.
- reduce: H with re-choice and a 4-cycle with 2-lists are reducible, a
  triangle with 2-lists is not (it is not 2-colourable).
- repro-paper: every row passes except eulerian-counts-g2, whose graph is
  bipartite so the best attainable pair is (3, 0), not the published (3, 1).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

Edge = Tuple[int, int]


def _adjacency(n: int, edges: Sequence[Edge]) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# ---------------------------------------------------------------------------
# discharge
# ---------------------------------------------------------------------------

def trace_faces(rotation: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Face boundaries of a rotation system: the dart (u, v) is followed by
    (v, w), where w comes after u in v's rotation."""
    after = [{u: r[(i + 1) % len(r)] for i, u in enumerate(r)} for r in rotation]
    unseen = {(v, u) for v in range(len(rotation)) for u in rotation[v]}
    faces = []
    while unseen:
        dart = start = next(iter(unseen))
        walk = []
        while True:
            unseen.discard(dart)
            walk.append(dart[0])
            dart = (dart[1], after[dart[1]][dart[0]])
            if dart == start:
                break
        faces.append(tuple(walk))
    return faces


def _canonical_face(face: Sequence[int]) -> Tuple[int, ...]:
    """The least rotation of a boundary walk, so equal faces compare equal."""
    return min(tuple(face[i:]) + tuple(face[:i]) for i in range(len(face)))


def check_discharge(code: int, report: dict, rotation: Sequence[Sequence[int]]) -> List[str]:
    problems = []
    n = len(rotation)
    degree = [len(r) for r in rotation]
    n_edges = sum(degree) // 2
    ledger = report["ledger"]
    faces = ledger["faces"]
    traced = trace_faces(rotation)
    if sorted(map(_canonical_face, faces)) != sorted(map(_canonical_face, traced)):
        problems.append("ledger faces differ from the faces of the rotation system")
    if n - n_edges + len(traced) != 2:
        problems.append(f"V-E+F = {n - n_edges + len(traced)}, not 2")
    vertex = {v: Fraction(2 * degree[v] - 6) for v in range(n)}
    face = {i: Fraction(len(f) - 6) for i, f in enumerate(faces)}
    books = {"v": vertex, "f": face}
    for rec in ledger["trace"]:
        amount = _frac(rec["amount"])
        if amount <= 0:
            problems.append(f"non-positive transfer {rec}")
        books[rec["source"][0]][rec["source"][1]] -= amount
        books[rec["sink"][0]][rec["sink"][1]] += amount
    if {str(v): q for v, q in vertex.items()} != {k: _frac(q) for k, q in ledger["vertex_charge"].items()}:
        problems.append("replayed vertex charges differ from the ledger")
    if {str(i): q for i, q in face.items()} != {k: _frac(q) for k, q in ledger["face_charge"].items()}:
        problems.append("replayed face charges differ from the ledger")
    for where in (ledger["total"], report["report"]["total"]):
        if _frac(where) != -12:
            problems.append(f"total charge {_frac(where)}, not -12")
    negatives = [["v", v] for v in sorted(vertex) if vertex[v] < 0]
    negatives += [["f", i] for i in sorted(face) if face[i] < 0]
    if [e["element"] for e in report["report"]["negatives"]] != negatives:
        problems.append("reported negatives differ from the replayed ledger")
    if code != (1 if negatives else 0):
        problems.append(f"exit code {code} with {len(negatives)} negative elements")
    return problems


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _canonical_cycle(cyc: Sequence[int]) -> Tuple[int, ...]:
    i = cyc.index(min(cyc))
    fwd = tuple(cyc[i:]) + tuple(cyc[:i])
    back = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, back)


def corollary_witnesses(n: int, edges: Sequence[Edge]) -> Set[Tuple[int, ...]]:
    """5-cycles that share an edge with a 3-cycle, grown from triangle edges."""
    adj = _adjacency(n, edges)
    triangle_edges = {(u, v) for u, v in edges if adj[u] & adj[v]}
    found = set()
    for a, b in triangle_edges:
        for x in adj[a] - {b}:
            for y in adj[x] - {a, b}:
                for z in (adj[y] & adj[b]) - {a, x}:
                    found.add(_canonical_cycle((a, x, y, z, b)))
    return found


def trio_keys(n: int, edges: Sequence[Edge]) -> Set[Tuple[FrozenSet[int], int]]:
    """(vertex set, centre) of every trio: a path u-x-y-w of four distinct
    vertices in the link of the centre, i.e. three triangles in a row."""
    adj = _adjacency(n, edges)
    keys = set()
    for v in range(n):
        link = {a: adj[a] & adj[v] for a in adj[v]}
        for x, y in itertools.permutations(adj[v], 2):
            if y not in link[x]:
                continue
            for u in link[x] - {y}:
                for w in link[y] - {x, u}:
                    keys.add((frozenset((u, x, y, w, v)), v))
    return keys


def check_detect(code: int, report: dict, n: int, edges: Sequence[Edge]) -> List[str]:
    problems = []
    (graph,) = report["graphs"]
    conds = {c["condition"]: c for c in graph["conditions"]}
    got = {tuple(w) for w in conds["Corollary"]["witnesses"]}
    if got != corollary_witnesses(n, edges):
        problems.append("Corollary witnesses differ from the 5-cycles on triangle edges")
    got_trios = {(frozenset(t["vertices"]), t["center"]) for t in graph["trios"]}
    if got_trios != trio_keys(n, edges) or len(got_trios) != len(graph["trios"]):
        problems.append("trios differ from the triangle fans")
    violated = any(c["witnesses"] for c in conds.values())
    if code != (1 if violated else 0):
        problems.append(f"exit code {code} but violated={violated}")
    return problems


# ---------------------------------------------------------------------------
# choosable
# ---------------------------------------------------------------------------

def degeneracy(n: int, edges: Sequence[Edge]) -> int:
    adj = _adjacency(n, edges)
    alive = set(range(n))
    best = 0
    while alive:
        v = min(alive, key=lambda u: len(adj[u] & alive))
        best = max(best, len(adj[v] & alive))
        alive.remove(v)
    return best


def ert_two_choosable(n: int, edges: Sequence[Edge]) -> bool:
    """Erdos-Rubin-Taylor for a connected graph: prune degree-1 vertices,
    then the core must be K1, an even cycle or theta(2, 2, 2m)."""
    adj = _adjacency(n, edges)
    alive = set(range(n))
    pruned = True
    while pruned and len(alive) > 1:
        leaves = [v for v in alive if len(adj[v] & alive) <= 1]
        alive.difference_update(leaves[: len(alive) - 1])
        pruned = bool(leaves)
    deg = {v: len(adj[v] & alive) for v in alive}
    if len(alive) == 1:
        return True
    if all(d == 2 for d in deg.values()):
        return len(alive) % 2 == 0
    hubs = [v for v, d in deg.items() if d == 3]
    if len(hubs) != 2 or any(d not in (2, 3) for d in deg.values()):
        return False
    a, b = hubs
    lengths = []
    for start in adj[a] & alive:
        prev, cur, length = a, start, 1
        while cur != b:
            if cur == a or deg[cur] != 2:
                return False
            prev, cur = cur, next(iter((adj[cur] & alive) - {prev}))
            length += 1
        lengths.append(length)
    lengths.sort()
    return lengths[0] == 2 and lengths[1] == 2 and lengths[2] % 2 == 0


def list_colourable(n: int, edges: Sequence[Edge], lists: Sequence[Sequence[int]]) -> bool:
    for combo in itertools.product(*lists):
        if all(combo[u] != combo[v] for u, v in edges):
            return True
    return False


def check_choosable(code: int, report: dict, n: int, edges: Sequence[Edge], k: int, expected: bool) -> List[str]:
    problems = []
    (verdict,) = report["verdicts"]
    if verdict["choosable"] is not expected:
        problems.append(f"verdict {verdict['choosable']}, known answer {expected}")
    if code != (0 if expected else 1):
        problems.append(f"exit code {code}")
    witness = verdict.get("witness")
    if not verdict["choosable"]:
        lists = witness["lists"] if witness else None
        if not lists or len(lists) != n or any(len(set(lst)) != k for lst in lists):
            problems.append("missing or malformed witness assignment")
        elif list_colourable(n, edges, lists):
            problems.append("witness assignment is colourable")
    return problems


# ---------------------------------------------------------------------------
# alon-tarsi
# ---------------------------------------------------------------------------

def check_certificate(code: int, report: dict, edges: Sequence[Edge], k: int) -> List[str]:
    (result,) = report["results"]
    cert = result["certificate"]
    if cert is None:
        return ["no certificate, but planar graphs have Alon-Tarsi number <= 5"]
    problems = []
    arcs = [tuple(a) for a in cert["orientation"]["arcs"]]
    if sorted(tuple(sorted(a)) for a in arcs) != sorted(tuple(sorted(e)) for e in edges):
        problems.append("certificate orientation does not cover the graph's edges")
    out = [0] * cert["orientation"]["n"]
    for t, _ in arcs:
        out[t] += 1
    if max(out) + 1 > k or out != cert["outdegrees"]:
        problems.append("certificate outdegrees exceed the list size")
    if cert["even"] == cert["odd"] or code != 0:
        problems.append("certificate does not satisfy even != odd")
    return problems


def eulerian_counts(n: int, arcs: Sequence[Edge]) -> Tuple[int, int]:
    even = odd = 0
    for size in range(len(arcs) + 1):
        for subset in itertools.combinations(arcs, size):
            bal = [0] * n
            for t, h in subset:
                bal[t] += 1
                bal[h] -= 1
            if not any(bal):
                if size % 2:
                    odd += 1
                else:
                    even += 1
    return even, odd


def check_counts(code: int, report: dict, n: int, arcs: Sequence[Edge]) -> List[str]:
    even, odd = eulerian_counts(n, arcs)
    problems = []
    if (report["even"], report["odd"]) != (even, odd):
        problems.append(f"counts {(report['even'], report['odd'])}, brute force {(even, odd)}")
    if code != (0 if even != odd else 1):
        problems.append(f"exit code {code}")
    return problems


# ---------------------------------------------------------------------------
# reduce and repro-paper
# ---------------------------------------------------------------------------

REDUCE_EXPECTED = {"H-with-rechoice": True, "square-2222": True, "triangle-222": False}


def check_reduce(code: int, report: dict) -> List[str]:
    got = {r["name"]: r["reducible"] for r in report["checks"]}
    problems = [] if got == REDUCE_EXPECTED else [f"reduce verdicts {got}"]
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


def check_repro(code: int, report: dict) -> List[str]:
    problems = []
    rows: Dict[str, dict] = {r["check"]: r for r in report["table"]}
    g2 = rows.get("eulerian-counts-g2")
    if g2 is None or g2["ok"] or g2["got"] != [3, 0]:
        problems.append("eulerian-counts-g2 must report got (3, 0) and fail")
    bad = [name for name, r in rows.items() if name != "eulerian-counts-g2" and not r["ok"]]
    if bad:
        problems.append(f"rows failing: {bad}")
    if any(r["got"] != ["-12"] for name, r in rows.items() if name.startswith("conservation-")):
        problems.append("a solid does not conserve total charge -12")
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    return problems
