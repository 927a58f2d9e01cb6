"""Reference implementations that the tests compare the package's fast
paths against.  Each follows its definition directly, or keeps the plain
loop that a fast path replaced; the brute-force ones are only viable on
very small inputs.  The matcher of the paper's fixed configurations lives
here too: no command reads it, and networkx is its reference."""

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from dischargekit import alon_tarsi, choosability
from dischargekit.alon_tarsi import AtCertificate, EulerianCount, count_eulerian
from dischargekit.choosability import (
    ChoosabilityVerdict,
    ListAssignment,
    Lists,
    ReducibleConfig,
)
from dischargekit.core import (
    Edge,
    Face,
    Graph,
    Orientation,
    PlaneGraph,
    build_graph,
    canonical_edge,
    expect_int_list,
    expect_json,
    faces_of,
    load_json,
)
from dischargekit.discharging import ChargeLedger, FinalReport, RuleSet, TransferRecord
from dischargekit.errors import (
    DanglingVertexIndexError,
    DisconnectedEmbeddingError,
    InvalidRotationError,
    SizeLimitExceededError,
    WorkBudget,
)
from dischargekit.fixtures import CONFIG_H, FixedConfig
from dischargekit.structures import (
    CONDITIONS,
    ConditionReport,
    StepBudget,
    TrioOccurrence,
    VertexRole,
    check_conditions,
    classify_role,
    trio_graph,
)


def count_eulerian_brute(orientation: Orientation, arc_cap: int = 20) -> EulerianCount:
    """Definitional oracle: enumerate every arc subset."""
    arcs = orientation.arcs
    m = len(arcs)
    if m > arc_cap:
        raise SizeLimitExceededError(f"{m} arcs exceeds brute-force cap {arc_cap}")
    n = orientation.base.n
    even = odd = 0
    for mask in range(1 << m):
        bal = [0] * n
        size = 0
        for i in range(m):
            if mask >> i & 1:
                t, h = arcs[i]
                bal[t] += 1
                bal[h] -= 1
                size += 1
        if all(b == 0 for b in bal):
            if size % 2 == 0:
                even += 1
            else:
                odd += 1
    return EulerianCount(even=even, odd=odd)


def count_eulerian_frontier(orientation: Orientation) -> EulerianCount:
    """Oracle for ``count_eulerian``: the unpruned frontier DP over arcs
    ordered by their larger endpoint index, whose state maps each vertex
    with a nonzero balance to that balance.  A vertex must be balanced when
    its last arc is done."""
    arcs = orientation.arcs
    m = len(arcs)
    if m == 0:
        return EulerianCount(even=1, odd=0)
    order = sorted(range(m), key=lambda i: (max(arcs[i]), min(arcs[i]), i))
    last_touch: Dict[int, int] = {}
    for pos, i in enumerate(order):
        t, h = arcs[i]
        last_touch[t] = pos
        last_touch[h] = pos
    states: Dict[Tuple[Tuple[int, int], ...], List[int]] = {(): [1, 0]}
    for pos, i in enumerate(order):
        t, h = arcs[i]
        closing = [v for v in (t, h) if last_touch[v] == pos]
        new: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
        for state, (ev, od) in states.items():
            bal = dict(state)
            for take in (0, 1):
                b = dict(bal)
                if take:
                    b[t] = b.get(t, 0) + 1
                    b[h] = b.get(h, 0) - 1
                if any(b.get(v, 0) != 0 for v in closing):
                    continue
                key = tuple(sorted((v, x) for v, x in b.items() if x != 0))
                cell = new.setdefault(key, [0, 0])
                if take:
                    cell[0] += od
                    cell[1] += ev
                else:
                    cell[0] += ev
                    cell[1] += od
        states = new
    total = states.get((), [0, 0])
    return EulerianCount(even=total[0], odd=total[1])


def orientations_with_max_outdegree(graph: Graph, bound: int) -> Iterator[Orientation]:
    """Yield every orientation whose maximum outdegree is at most ``bound``.

    Enumeration is lexicographic over the canonical edge order with
    direction 0 = (min -> max), so the stream order is reproducible.
    """
    edges = graph.edges
    out = [0] * graph.n
    arcs: List[Edge] = []

    def rec(i: int) -> Iterator[Orientation]:
        if i == len(edges):
            yield Orientation(graph, tuple(arcs))
            return
        u, v = edges[i]
        for tail, head in ((u, v), (v, u)):
            if out[tail] < bound:
                out[tail] += 1
                arcs.append((tail, head))
                yield from rec(i + 1)
                arcs.pop()
                out[tail] -= 1

    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return rec(0)


def find_certificate_loop(graph: Graph, k: int) -> Optional[AtCertificate]:
    """Oracle for ``find_certificate``: the loop it replaced, which counts
    each orientation of ``orientations_with_max_outdegree`` with its own
    ``count_eulerian`` and gives up once the DPs of the orientations tried
    have built more than ``alon_tarsi.MAX_DP_STATES`` states together."""
    if (k - 1) * graph.n < len(graph.edges):
        return None
    built = 0
    for orientation in orientations_with_max_outdegree(graph, k - 1):
        counts = count_eulerian(orientation)
        if counts.even != counts.odd:
            return AtCertificate(orientation=orientation, counts=counts)
        built += counts.states
        if built > alon_tarsi.MAX_DP_STATES:
            raise SizeLimitExceededError(f"certificate search needs more than {alon_tarsi.MAX_DP_STATES} DP states")
    return None


def find_certificate_uniform(graph: Graph, k: int) -> Optional[AtCertificate]:
    """Oracle for ``find_certificate``: the search with one list size ``k``
    for every vertex that ``find_list_certificate`` generalised.  The same
    tree walk, counting each leaf along one plan and spending its nodes and
    DP states against ``alon_tarsi.MAX_DP_STATES``."""
    if k < 1:
        raise ValueError("k must be positive")
    edges = graph.edges
    if (k - 1) * graph.n < len(edges):
        return None
    plan = alon_tarsi._plan(graph)
    spend = WorkBudget(alon_tarsi.MAX_DP_STATES, "certificate search", "tree nodes and DP states").spend
    out = [0] * graph.n
    flip: List[int] = []
    f = 0
    while True:
        i = len(flip)
        if i == len(edges):
            counts = alon_tarsi._count(plan, flip, spend)
            if counts.even != counts.odd:
                arcs = tuple((v, u) if d else (u, v) for (u, v), d in zip(edges, flip))
                return AtCertificate(orientation=Orientation(graph, arcs), counts=counts)
        elif f < 2:
            if out[edges[i][f]] < k - 1:
                out[edges[i][f]] += 1
                flip.append(f)
                spend(1)
                f = 0
            else:
                f += 1
            continue
        if not flip:
            return None
        f = flip.pop()
        out[edges[i - 1][f]] -= 1
        f += 1


def is_gallai_tree(graph: Graph) -> bool:
    """True iff every block of ``graph`` is a complete graph or an odd
    cycle.  A connected graph is colourable from every assignment of lists
    as long as its degrees unless it is a Gallai tree (Borodin 1977;
    Erdős, Rubin and Taylor 1979).  The blocks come from networkx."""
    import networkx as nx

    g = nx.Graph(graph.edges)
    g.add_nodes_from(range(graph.n))
    for block in nx.biconnected_component_edges(g):
        vertices = {v for e in block for v in e}
        a, m = len(vertices), len(block)
        if m != a * (a - 1) // 2 and not (m == a and a % 2):
            return False
    return True


def ert_two_choosable(graph: Graph) -> bool:
    """Erdos-Rubin-Taylor for a connected graph: it is 2-choosable iff its
    core, left once degree-1 vertices are pruned, is K1, an even cycle or
    theta(2, 2, 2m)."""
    adj = graph.adjacency
    alive = set(range(graph.n))
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


def l_color(graph: Graph, lists: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """A proper coloring with each vertex colored from its own list, or None.

    Exhaustive backtracking; vertices are processed smallest-list-first.
    The per-call colourer that ``choosability._colourer`` replaced.
    """
    if len(lists) != graph.n:
        raise ValueError("lists must cover every vertex")
    order = sorted(range(graph.n), key=lambda v: (len(lists[v]), -graph.degree(v)))
    coloring: Dict[int, int] = {}
    adj = graph.adjacency

    def rec(i: int) -> bool:
        if i == graph.n:
            return True
        v = order[i]
        for c in lists[v]:
            if all(coloring.get(u) != c for u in adj[v]):
                coloring[v] = c
                if rec(i + 1):
                    return True
                del coloring[v]
        return False

    if rec(0):
        return [coloring[v] for v in range(graph.n)]
    return None


def iter_canonical_assignments(sizes: Sequence[int], over: Optional[int] = None) -> Iterator[Lists]:
    """Canonical list assignments with the given sizes, one per intersection
    pattern (orbit under color permutation), in the order in which
    ``choosability._first_uncolourable`` checks them.  Shared colours go to
    the vertices of ``over``, a bitmask, every vertex by default; the
    others get private colours only (the walk takes ``over`` to be the
    core that ``choosability._peel`` leaves).

    Color types are visited largest-subset-first, so the first assignment
    yielded is the maximally shared one (all lists identical where sizes
    allow).  Colors are numbered in order of first use, which makes each
    yielded assignment the least representative of its orbit in signature
    order.
    """
    n = len(sizes)
    over = (1 << n) - 1 if over is None else over
    # Singleton types would come last, in vertex order, and each could only
    # take all its vertex's remaining colours; so they are not enumerated,
    # and what the shared types leave becomes private colours at the end.
    shared = sorted((t for t in range(1, 1 << n) if t & (t - 1) and not t & ~over), key=lambda t: (-bin(t).count("1"), t))
    members = [[v for v in range(n) if t >> v & 1] for t in shared]
    all_full = (1 << n) - 1
    lists: List[List[int]] = [[] for _ in range(n)]
    next_color = [0]

    # ``full`` has a bit set for each vertex whose list is full; a type
    # containing one of them can take no colour.
    def rec(i: int, remaining: List[int], full: int) -> Iterator[Lists]:
        if full == all_full:
            yield tuple(tuple(lst) for lst in lists)
            return
        # Recurse only into types given a nonzero multiplicity, so the depth
        # is at most sum(sizes), not the number of types.
        for j in range(i, len(shared)):
            if shared[j] & full:
                continue
            mem = members[j]
            for mult in range(min(remaining[v] for v in mem), 0, -1):
                base = next_color[0]
                filled = full
                for v in mem:
                    remaining[v] -= mult
                    lists[v].extend(range(base, base + mult))
                    if not remaining[v]:
                        filled |= 1 << v
                next_color[0] += mult
                yield from rec(j + 1, remaining, filled)
                for v in mem:
                    remaining[v] += mult
                    del lists[v][-mult:]
                next_color[0] -= mult
        base = next_color[0]
        private = []
        for v in range(n):
            private.append(tuple(lists[v]) + tuple(range(base, base + remaining[v])))
            base += remaining[v]
        yield tuple(private)

    return rec(0, list(sizes), sum(1 << v for v in range(n) if not sizes[v]))


def l_color_brute(graph: Graph, lists: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Oracle: try every member of the cartesian product of the lists."""
    for combo in itertools.product(*lists):
        if all(combo[u] != combo[v] for u, v in graph.edges):
            return list(combo)
    return None


def is_k_choosable_raw(graph: Graph, k: int) -> ChoosabilityVerdict:
    """Oracle: enumerate every k-assignment over universe {0..k*n-1} without
    canonicalization.  Only viable for very small graphs."""
    universe = range(k * graph.n)
    for combo in itertools.product(itertools.combinations(universe, k), repeat=graph.n):
        if l_color(graph, combo) is None:
            return ChoosabilityVerdict(choosable=False, witness=ListAssignment(lists=combo))
    return ChoosabilityVerdict(choosable=True)


def transfer(ledger: ChargeLedger, rule: str, source, sink, amount: Fraction) -> None:
    """Oracle for one move of ``apply_rules``: ``amount`` leaves the charge
    of ``source`` and joins that of ``sink`` by ``Fraction`` arithmetic, and
    is traced; a zero amount records nothing."""
    if amount == 0:
        return
    (skind, si), (tkind, ti) = source, sink
    (ledger.vertex_charge if skind == "v" else ledger.face_charge)[si] -= amount
    (ledger.vertex_charge if tkind == "v" else ledger.face_charge)[ti] += amount
    ledger.trace.append(TransferRecord(rule=rule, source=source, sink=sink, amount=amount))


def initial_charges(embedding: PlaneGraph) -> ChargeLedger:
    """Oracle for the books ``apply_rules`` starts from: the formula charges
    2d(v)-6 and d(f)-6 as ``Fraction``s, whose total is exactly -12 on a
    connected plane graph.  ``faces_of`` rejects a disconnected one."""
    faces = tuple(faces_of(embedding))
    return ChargeLedger(
        vertex_charge={v: Fraction(2 * embedding.graph.degree(v) - 6) for v in range(embedding.graph.n)},
        face_charge={i: Fraction(f.degree - 6) for i, f in enumerate(faces)},
        faces=faces,
    )


def facial_trios_filtered(embedding: PlaneGraph, faces: Sequence[Face]):
    """Oracle for ``facial_trios``: the trios of ``find_trios_scan`` whose
    three triangles are each the one 3-face on their vertex set, each with
    the indices of its faces xuv, xyv and yvw."""
    face_of = {}
    for fi, f in enumerate(faces):
        vs = frozenset(f.boundary)
        if f.degree == 3 and len(vs) == 3:
            face_of[vs] = None if vs in face_of else fi
    found = []
    for occ in find_trios_scan(embedding.graph):
        indices = tuple(face_of.get(frozenset(t)) for t in occ.triangles)
        if None not in indices:
            found.append((occ, indices))
    return found


def apply_rules_unindexed(embedding: PlaneGraph, ruleset: RuleSet = RuleSet()):
    """Oracle for ``apply_rules``: every role is looked up by a scan of all
    facial trios, each move is a ``Fraction`` ``transfer``, and R5 equalizes
    each merged trio group by the nested walk in which every giver scans the
    whole taker list.  Returns the ledger and the (givers, takers, size) of
    each R5 group."""
    ledger = initial_charges(embedding)
    graph = embedding.graph
    faces = ledger.faces
    deg = graph.degrees()
    pairs = facial_trios_filtered(embedding, faces)
    facial = [occ for occ, _ in pairs]
    trio_faces = [sorted(indices) for _, indices in pairs]
    in_trio = {fi for indices in trio_faces for fi in indices}

    def payment(v: int, fi: int) -> Fraction:
        f = faces[fi]
        if f.degree == 4:
            if deg[v] == 4:
                return ruleset.deg4_four_face
            if sorted(deg[u] for u in f.boundary) == [4, 4, 4, 5]:
                return ruleset.hi_4445_face
            return ruleset.hi_four_face
        vs = tuple(sorted(f.boundary))
        containing = [occ for occ in facial if vs in occ.triangles]
        role = classify_role_counting(v, vs, containing) if fi in in_trio else VertexRole.GOOD
        if deg[v] == 4:
            return ruleset.deg4_worst if role is VertexRole.WORST else ruleset.deg4_plain
        if role in (VertexRole.GOOD, VertexRole.WORST):
            return ruleset.hi_good_or_worst
        return ruleset.hi_bad if role is VertexRole.BAD else ruleset.hi_worse

    for fi, f in enumerate(faces):
        if f.degree == 5:
            for v in f.boundary:
                transfer(ledger, "R1", ("v", v), ("f", fi), ruleset.five_face)
    for fi, f in enumerate(faces):
        if f.degree == 4 or (f.degree == 3 and len(frozenset(f.boundary)) == 3):
            for v in f.boundary:
                if deg[v] >= 4:
                    rule = "R2" if deg[v] == 4 else "R3" if deg[v] == 5 else "R4"
                    transfer(ledger, rule, ("v", v), ("f", fi), payment(v, fi))
    shapes = []
    if not ruleset.equalize_trios:
        return ledger, shapes
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
    groups = {}
    for fi in parent:
        groups.setdefault(find(fi), []).append(fi)
    for root in sorted(groups):
        indices = sorted(groups[root])
        target = sum(ledger.face_charge[i] for i in indices) / len(indices)
        givers = [(i, ledger.face_charge[i] - target) for i in indices if ledger.face_charge[i] > target]
        takers = [[i, target - ledger.face_charge[i]] for i in indices if ledger.face_charge[i] < target]
        shapes.append((len(givers), len(takers), len(indices)))
        for gi, gd in givers:
            for taker in takers:
                if gd == 0:
                    break
                ti, need = taker
                move = min(gd, need)
                if move > 0:
                    transfer(ledger, "R5", ("f", gi), ("f", ti), move)
                    taker[1] -= move
                    gd -= move
    return ledger, shapes


def discharge_report_tree(ledger: ChargeLedger, report: FinalReport, graph: Graph) -> dict:
    """Oracle for the ``discharge`` report: the tree whose
    ``json.dumps(indent=2, sort_keys=True)`` is the report's text, built
    value by value.  Each negative element's detail scans the whole trace
    for the records touching it."""

    def fraction(q: Fraction) -> dict:
        return {"num": q.numerator, "den": q.denominator}

    def record(r: TransferRecord) -> dict:
        return {"rule": r.rule, "source": list(r.source), "sink": list(r.sink), "amount": fraction(r.amount)}

    def detail(element) -> dict:
        kind, i = element
        touching = [record(r) for r in ledger.trace if r.source == element or r.sink == element]
        out = {"element": list(element), "trace": touching}
        if kind == "f":
            out["boundary"] = list(ledger.faces[i].boundary)
        else:
            out["neighbors"] = sorted(graph.adjacency[i])
        return out

    return {
        "command": "discharge",
        "ledger": {
            "vertex_charge": {str(v): fraction(q) for v, q in ledger.vertex_charge.items()},
            "face_charge": {str(f): fraction(q) for f, q in ledger.face_charge.items()},
            "faces": [list(f.boundary) for f in ledger.faces],
            "total": fraction(ledger.total()),
            "trace": [record(r) for r in ledger.trace],
        },
        "report": {
            "total": fraction(report.total),
            "negatives": [{"element": list(el), "charge": fraction(q)} for el, q in report.negatives],
            "detail": [detail(el) for el, _ in report.negatives],
        },
    }


def detect_report_tree(graphs: Sequence[Graph]) -> dict:
    """Oracle for the ``detect`` report on these graphs: the tree whose
    ``json.dumps(indent=2, sort_keys=True)`` is the report's text, built
    as dicts, with the trios of ``find_trios_scan``.  Each trio lists the
    roles on its three triangles, so a triangle in several trios lists its
    roles once per trio."""
    reports = []
    for gi, graph in enumerate(graphs):
        conds, _ = check_conditions(graph, StepBudget(graph))
        trios = find_trios_scan(graph)
        role_of = classify_role([(occ, occ.triangles) for occ in trios])
        roles = [
            {"vertex": s, "triangle": sorted(t), "role": role_of[t][s].value}
            for occ in trios
            for t in occ.triangles
            for s in sorted(t)
        ]
        reports.append(
            {
                "graph": gi,
                "conditions": [
                    {"condition": c.condition, "holds": c.holds, "witnesses": [list(w) for w in c.witnesses]}
                    for c in conds
                ],
                "trios": [{"vertices": sorted(o), "center": o.v, "map": o._asdict()} for o in trios],
                "roles": roles,
            }
        )
    return {"command": "detect", "graphs": reports}


def replay(ledger: ChargeLedger, start: ChargeLedger) -> ChargeLedger:
    """Re-derive ``ledger``'s final charges from ``start``, a fresh
    ``initial_charges`` ledger of the same embedding, by moving each traced
    amount from its source to its sink."""
    books = {"v": dict(start.vertex_charge), "f": dict(start.face_charge)}
    for rec in ledger.trace:
        books[rec.source[0]][rec.source[1]] -= rec.amount
        books[rec.sink[0]][rec.sink[1]] += rec.amount
    return ChargeLedger(vertex_charge=books["v"], face_charge=books["f"], faces=start.faces, trace=list(ledger.trace))


def find_trios_scan(graph: Graph) -> List[TrioOccurrence]:
    """Oracle for the trios of ``check_conditions``: every ordered 4-tuple
    of distinct neighbours of each vertex whose first two are adjacent is
    tried as (x, y, u, w), and the smallest trio is kept per vertex set
    and centre."""
    found: Dict[Tuple[FrozenSet[int], int], TrioOccurrence] = {}
    adj = graph.adjacency
    for v in range(graph.n):
        nbrs = sorted(adj[v])
        for x, y in itertools.permutations(nbrs, 2):
            if y not in adj[x]:
                continue
            for u, w in itertools.permutations(nbrs, 2):
                if len({x, y, u, w}) == 4 and u in adj[x] and w in adj[y]:
                    occ = TrioOccurrence(x, y, u, v, w)
                    key = (frozenset(occ), v)
                    if key not in found or occ < found[key]:
                        found[key] = occ
    return sorted(found.values())


def trio_tuples(graph: Graph) -> int:
    """The (x, y, u, w) tuples of the trios that ``check_conditions``
    counts, counted link by link: for each x-y edge of a link, u is one of
    x's link neighbours other than y, and w one of y's other than x and
    u."""
    adj = graph.adjacency
    tuples = 0
    for v in range(graph.n):
        link = adj[v]
        if len(link) < 4:
            continue
        for x in link:
            near_x = adj[x] & link
            for y in near_x:
                near_y = adj[y] & link
                tuples += (len(near_x) - 1) * (len(near_y) - 1) - len(near_x & near_y)
    return tuples


def trio_tuples_scan(graph: Graph) -> int:
    """Oracle for ``trio_tuples``: the ordered 4-tuples of distinct
    neighbours that ``find_trios_scan`` accepts as (x, y, u, w)."""
    adj = graph.adjacency
    return sum(
        y in adj[x] and u in adj[x] and w in adj[y]
        for v in range(graph.n)
        for x, y, u, w in itertools.permutations(adj[v], 4)
    )


def check_conditions_steps(graph: Graph) -> int:
    """Oracle for the steps ``check_conditions`` spends, each counted over
    all vertices: every edge ab and every vertex adjacent to both ends;
    the trio tuples of ``trio_tuples_scan``; and for each edge ab with a
    vertex adjacent to both ends, the fewer of the walks x-p-q with p and q
    not y, from x = a or x = b, and every path a-p-q-r-b of five distinct
    vertices."""
    adj = graph.adjacency
    vs = range(graph.n)
    steps = trio_tuples_scan(graph)
    for a, b in graph.edges:
        thirds = sum(w in adj[a] and w in adj[b] for w in vs)
        steps += 1 + thirds
        if thirds:
            steps += min(
                sum(p in adj[x] and p != y and q in adj[p] and q != y for p in vs for q in vs)
                for x, y in ((a, b), (b, a))
            )
            for p, r in itertools.permutations(vs, 2):
                if p in adj[a] and p != b and r in adj[b] and r != a:
                    steps += sum(q not in (a, b) and q in adj[p] and q in adj[r] for q in vs)
    return steps


def enumerate_cycles(graph: Graph, length: int) -> List[Tuple[int, ...]]:
    """All cycles of the given length, each once up to rotation/reflection,
    by a search over the paths whose first vertex is their smallest.

    Canonical form: minimum vertex first, then the lexicographically smaller
    of the two traversal directions.
    """
    if length not in (3, 4, 5):
        raise ValueError(f"cycle length {length} not in {{3, 4, 5}}")
    cycles = []
    adj = graph.adjacency

    def extend(path: List[int]) -> None:
        first, last = path[0], path[-1]
        for w in adj[last]:
            if w > first and w not in path:
                if len(path) < length - 1:
                    extend(path + [w])
                elif w in adj[first] and path[1] < w:
                    cycles.append((*path, w))

    for r in range(graph.n):
        extend([r])
    return sorted(cycles)


def cycle_edges(cycle: Sequence[int]) -> FrozenSet[Edge]:
    k = len(cycle)
    return frozenset(canonical_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def check_conditions_all_cycles(graph: Graph) -> Tuple[ConditionReport, ...]:
    """Oracle for ``check_conditions``: one pass over every 5-cycle, each
    compared with the 3-cycles on its edges, all enumerated by
    ``enumerate_cycles``."""
    triangles_on: Dict[Edge, List[Tuple[int, ...]]] = {}
    for t in enumerate_cycles(graph, 3):
        for e in cycle_edges(t):
            triangles_on.setdefault(e, []).append(t)
    # A 4-cycle a-b-c-d with chord ac is the two triangles abc and acd on
    # ac, and its edges are theirs other than ac.
    chorded_edges = set()
    for chord, triangles in triangles_on.items():
        if len(triangles) >= 2:
            chorded_edges.update(e for t in triangles for e in cycle_edges(t) if e != chord)
    witnesses: Tuple[list, ...] = ([], [], [])
    for c in enumerate_cycles(graph, 5):
        ce = cycle_edges(c)
        # Edges of c on each 3-cycle that shares one with c.
        shared = Counter(t for e in ce for t in triangles_on.get(e, ()))
        violated = (  # in CONDITIONS order
            # A hub h of c closes the 3-cycle (c[0], c[1], h), which shares
            # exactly one edge with c, so this test also finds every hub.
            1 in shared.values(),
            len(shared) >= 2 or not chorded_edges.isdisjoint(ce),
            bool(shared),
        )
        for found, bad in zip(witnesses, violated):
            if bad:
                found.append(c)
    return tuple(ConditionReport(condition=name, witnesses=tuple(w)) for name, w in zip(CONDITIONS, witnesses))


def classify_role_counting(s: int, triangle, trios: Sequence[TrioOccurrence]) -> VertexRole:
    """Oracle for ``classify_role``: for each trio, count the triangles of
    the trio that hold ``s``.  Worst if some trio has all three; bad if
    every trio has exactly one; worse otherwise; good for no trios."""
    t = frozenset(triangle)
    if s not in t:
        raise ValueError(f"vertex {s} is not on triangle {sorted(t)}")
    if not trios:
        return VertexRole.GOOD
    for occ in trios:
        if all(s in tri for tri in occ.triangles):
            return VertexRole.WORST
    if all(sum(s in tri for tri in occ.triangles) == 1 for occ in trios):
        return VertexRole.BAD
    return VertexRole.WORSE


def role_in(graph: Graph, s: int, triangle) -> VertexRole:
    """Role of ``s`` on ``triangle``, looked up in the role index of all
    the graph's trios, those of ``find_trios_scan``; good where the index
    has no entry."""
    index = classify_role([(occ, occ.triangles) for occ in find_trios_scan(graph)])
    return index.get(tuple(sorted(triangle)), {}).get(s, VertexRole.GOOD)


def check_condition_scan(graph: Graph, which: str) -> ConditionReport:
    """Oracle for one report of ``check_conditions``: each 5-cycle is
    compared with every 3-cycle and every chorded 4-cycle, which are
    enumerated as 4-cycles, and the Thm1 hub is sought among all
    vertices."""
    if which not in CONDITIONS:
        raise ValueError(f"unknown condition {which!r}")
    five = enumerate_cycles(graph, 5)
    three = enumerate_cycles(graph, 3)
    witnesses = []
    chorded = []
    if which == "Thm2":
        for c in enumerate_cycles(graph, 4):
            a, b, cc, d = c
            if cc in graph.adjacency[a] or d in graph.adjacency[b]:
                chorded.append(c)
    for c in five:
        ce = cycle_edges(c)
        bad = False
        if which == "Thm1":
            cs = set(c)
            for h in range(graph.n):
                if h not in cs and cs <= graph.adjacency[h]:
                    bad = True
                    break
            if not bad:
                bad = any(len(ce & cycle_edges(t)) == 1 for t in three)
        elif which == "Thm2":
            adjacent3 = sum(1 for t in three if ce & cycle_edges(t))
            bad = adjacent3 >= 2 or any(ce & cycle_edges(q) for q in chorded)
        else:
            bad = any(ce & cycle_edges(t) for t in three)
        if bad:
            witnesses.append(c)
    return ConditionReport(condition=which, witnesses=tuple(witnesses))


# The paper's fixed configurations that are sought in host graphs: H (from
# ``fixtures``) and configurations 1-3.  Configuration 1 is the trio shape
# with drawn degrees x=4, y=4, u=5, v=4, w=4.  Configuration 2 is the 2x1
# grid, bl=0 tl=1 tm=2 tr=3 br=4 bm=5, all of degree 4.  Configuration 3 is
# a square plus a hanging triangle, a=0 b=1 c=2 d=3 e=4, of degrees a=4,
# b=4, c=5, d=4, e=4.
CONFIG_1 = FixedConfig("config1", trio_graph(), (4, 4, 5, 4, 4), (None,) * 5)
CONFIG_2 = FixedConfig(
    "config2", build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5)]), (4,) * 6, (None,) * 6
)
CONFIG_3 = FixedConfig(
    "config3", build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (2, 4)]), (4, 4, 5, 4, 4), (None,) * 5
)
ALL_CONFIGS = (CONFIG_H, CONFIG_1, CONFIG_2, CONFIG_3)


@dataclass(frozen=True)
class ConfigMatch:
    config: str
    mapping: Tuple[int, ...]  # pattern vertex i -> host vertex mapping[i]


def pattern_automorphisms(pattern: Graph) -> List[Tuple[int, ...]]:
    """Every vertex permutation that maps the pattern's edges onto edges."""
    return [
        perm
        for perm in itertools.permutations(range(pattern.n))
        if all(perm[v] in pattern.adjacency[perm[u]] for u, v in pattern.edges)
    ]


def _match_pattern(host: Graph, config: FixedConfig) -> List[Tuple[int, ...]]:
    pat = config.pattern
    n = pat.n
    order = sorted(range(n), key=lambda v: -pat.degree(v))
    mapping: Dict[int, int] = {}
    used = set()
    results: List[Tuple[int, ...]] = []

    def feasible(pv: int, hv: int) -> bool:
        d = host.degree(hv)
        exact, mx = config.exact_degrees[pv], config.max_degrees[pv]
        if d < pat.degree(pv) or (exact is not None and d != exact) or (mx is not None and d > mx):
            return False
        return all(hv in host.adjacency[mapping[u]] for u in pat.adjacency[pv] if u in mapping)

    def rec(i: int) -> None:
        if i == n:
            results.append(tuple(mapping[v] for v in range(n)))
            return
        pv = order[i]
        # feasible() needs an edge to each mapped pattern neighbour, so the
        # sorted host neighbours of one hold every candidate, in scan order.
        anchor = next((mapping[u] for u in pat.adjacency[pv] if u in mapping), None)
        for hv in range(host.n) if anchor is None else sorted(host.adjacency[anchor]):
            if hv not in used and feasible(pv, hv):
                mapping[pv] = hv
                used.add(hv)
                rec(i + 1)
                used.discard(hv)
                del mapping[pv]

    rec(0)
    return results


def find_fixed_configs(graph: Graph) -> List[ConfigMatch]:
    """All embeddings of ``ALL_CONFIGS``, deduplicated up to pattern
    automorphism: each match is named by its least image under one."""
    out: List[ConfigMatch] = []
    for cfg in ALL_CONFIGS:
        autos = pattern_automorphisms(cfg.pattern)
        seen = set()
        for m in _match_pattern(graph, cfg):
            canon = min(tuple(m[a[i]] for i in range(len(m))) for a in autos)
            if canon not in seen:
                seen.add(canon)
                out.append(ConfigMatch(config=cfg.name, mapping=canon))
    return out


def iter_canonical_assignments_all_types(sizes: Sequence[int]):
    """Oracle for ``iter_canonical_assignments``: the same enumeration, but
    the singleton colour types are enumerated like the shared ones, every
    multiplicity included."""
    n = len(sizes)
    types = sorted(range(1, 1 << n), key=lambda mask: (-bin(mask).count("1"), mask))
    members = [[v for v in range(n) if t >> v & 1] for t in types]
    lists: List[List[int]] = [[] for _ in range(n)]
    next_color = [0]

    def rec(i: int, remaining: List[int]):
        if not any(remaining):
            yield tuple(tuple(lst) for lst in lists)
            return
        for j in range(i, len(types)):
            mem = members[j]
            for mult in range(min(remaining[v] for v in mem), 0, -1):
                base = next_color[0]
                for v in mem:
                    remaining[v] -= mult
                    lists[v].extend(range(base, base + mult))
                next_color[0] += mult
                yield from rec(j + 1, remaining)
                for v in mem:
                    remaining[v] += mult
                    del lists[v][-mult:]
                next_color[0] -= mult

    return rec(0, list(sizes))


# The most assignments (or (assignment, pick) pairs) that one exhaustive
# oracle below may check, read at call time.  The package's walk has a
# budget of its own, in steps; tests lower this one to keep an oracle to a
# second or two.
MAX_ORACLE_ASSIGNMENTS = 100_000


def _count_check(checked: int) -> int:
    """``checked + 1``, or ``SizeLimitExceededError`` past
    ``MAX_ORACLE_ASSIGNMENTS``."""
    if checked >= MAX_ORACLE_ASSIGNMENTS:
        raise SizeLimitExceededError(
            f"exhaustive check needs more than {MAX_ORACLE_ASSIGNMENTS} (assignment, pick) pairs"
        )
    return checked + 1


def first_uncolourable_loop(graph: Graph, sizes: Sequence[int], over: Optional[int] = None) -> Optional[Lists]:
    """Oracle for ``choosability._first_uncolourable``: the first
    assignment of ``iter_canonical_assignments`` (with shared colours on
    the vertices of ``over``) that ``l_color`` cannot colour, or None.
    Raises ``SizeLimitExceededError`` when the
    (``MAX_ORACLE_ASSIGNMENTS`` + 1)-th assignment would be checked."""
    for checked, lists in enumerate(iter_canonical_assignments(sizes, over)):
        if checked >= MAX_ORACLE_ASSIGNMENTS:
            raise SizeLimitExceededError(f"exhaustive check needs more than {MAX_ORACLE_ASSIGNMENTS} assignments")
        if l_color(graph, lists) is None:
            return lists
    return None


def first_uncolourable_unpruned(graph: Graph, sizes: Sequence[int], over: Optional[int] = None) -> Optional[Lists]:
    """Oracle for ``choosability._first_uncolourable``: the same walk over
    the canonical colour-type tree, but entering every node, so every leaf
    is coloured, and charged one check per assignment against
    ``MAX_ORACLE_ASSIGNMENTS``.  Its types are the shared ones of
    ``iter_canonical_assignments(sizes, over)``.

    A node with a child passes once that child has, so only the leaves
    are coloured.  A vertex with a private colour can take it last, so a
    leaf's check colours only its full vertices, and of those only the
    core that ``_peel`` leaves; an empty core passes without a search.
    The types that avoid the full vertices, and the core's test, are built
    once per set of full vertices.
    """
    n = len(sizes)
    over = (1 << n) - 1 if over is None else over
    # Singleton types would come last, in vertex order, and each could only
    # take all its vertex's remaining colours: those are the private ones.
    shared = sorted((t for t in range(1, 1 << n) if t & (t - 1) and not t & ~over), key=lambda t: (-bin(t).count("1"), t))
    members = [[v for v in range(n) if t >> v & 1] for t in shared]
    spend = WorkBudget(MAX_ORACLE_ASSIGNMENTS, "exhaustive check", "assignments").spend
    nbr = choosability._neighbours(graph)
    masks = [0] * n
    remaining = list(sizes)
    # per mask of full vertices: the open types and the core's test, if any
    known: Dict[int, tuple] = {}

    def node(full: int) -> tuple:
        if full not in known:
            core = choosability._peel(nbr, sizes, full)
            colourer = choosability._colourer(nbr, sizes, core, core) if core else None
            known[full] = [j for j, t in enumerate(shared) if not t & full], colourer
        return known[full]

    # A node with no child is checked where it is met; ``base`` is the next
    # unused colour.  Returns its lists if they are uncolourable.
    def leaf(colourable, base: int) -> Optional[List[int]]:
        spend(1)
        if not colourable or colourable(masks):
            return None
        lists = []
        for v in range(n):
            lists.append(masks[v] | ((1 << remaining[v]) - 1) << base)
            base += remaining[v]
        return lists

    # A node with a child, whose children add the open types from ``i`` on.
    # ``full`` has a bit set for each vertex whose list is full; a type
    # containing one of them can take no colour.  Returns the first
    # uncolourable lists of the subtree.  The node itself passes once its
    # children have: the colours of a child's type are private here, and a
    # private colour clashes with nothing.
    def walk(i: int, full: int, base: int) -> Optional[List[int]]:
        types = known[full][0]
        for j in types[bisect_left(types, i):]:
            mem = members[j]
            for mult in range(min([remaining[v] for v in mem]), 0, -1):
                bits = ((1 << mult) - 1) << base
                filled = full
                for v in mem:
                    masks[v] |= bits
                    remaining[v] -= mult
                    if not remaining[v]:
                        filled |= 1 << v
                below, colourable = node(filled)
                if below and below[-1] > j:
                    found = walk(j + 1, filled, base + mult)
                else:
                    found = leaf(colourable, base + mult)
                if found is not None:
                    return found
                for v in mem:
                    masks[v] ^= bits
                    remaining[v] += mult
        spend(1)
        return None

    root = sum(1 << v for v in range(n) if not sizes[v])
    types, colourable = node(root)
    found = walk(0, root, 0) if types else leaf(colourable, 0)
    if found is None:
        return None
    return tuple(tuple(c for c in range(m.bit_length()) if m >> c & 1) for m in found)


def is_k_choosable_reference(graph: Graph, k: int) -> ChoosabilityVerdict:
    """The former ``is_k_choosable``, kept as the reference of
    ``choosability._decide``: the same peel and first-assignment test, then
    the certificate search on the whole graph, whose budget ends the
    decision, and the walk on the whole graph.  On a graph that is its own
    k-core, or has an empty one, the package gives the same verdict,
    method, witness and steps.  The walk is the package's, which lists
    colour types over every vertex of such a graph, as the former walk
    did; on any other graph it lists them over the core only."""
    if k < 1:
        raise ValueError("k must be positive")
    if graph.n > choosability.DEFAULT_N_LIMIT:
        raise SizeLimitExceededError(f"n = {graph.n} exceeds guard {choosability.DEFAULT_N_LIMIT}")
    sizes = [k] * graph.n
    nbr = choosability._neighbours(graph)
    if not choosability._peel(nbr, sizes, (1 << graph.n) - 1):
        return ChoosabilityVerdict(choosable=True, method="degeneracy")
    if l_color(graph, [tuple(range(k))] * graph.n) is None:
        witness = ListAssignment(lists=(tuple(range(k)),) * graph.n)
        return ChoosabilityVerdict(choosable=False, witness=witness, method="exhaustive")
    if len(graph.edges) <= choosability._AT_MAX_EDGES and alon_tarsi.find_certificate(graph, k) is not None:
        return ChoosabilityVerdict(choosable=True, method="alon-tarsi")
    witness = choosability._first_uncolourable(nbr, sizes)
    if witness is None:
        return ChoosabilityVerdict(choosable=True, method="exhaustive")
    return ChoosabilityVerdict(choosable=False, witness=ListAssignment(lists=witness), method="exhaustive")


def check_extension_reference(config: ReducibleConfig) -> bool:
    """The former ``check_extension``, kept as the reference of
    ``choosability._decide``: it peels, then runs the first-assignment
    test, the certificate search and the walk on a relabelled copy of the
    core that is left.  The package answers the same and takes the same
    steps in its walk."""
    inner, sizes = config.inner, config.residual_sizes
    left = choosability._peel(choosability._neighbours(inner), sizes, (1 << inner.n) - 1)
    if not left:
        return True
    keep = [v for v in range(inner.n) if left >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    rest = build_graph([(index[u], index[v]) for u, v in inner.edges if u in index and v in index], n=len(keep))
    kept = [sizes[v] for v in keep]
    if l_color(rest, [tuple(range(s)) for s in kept]) is None:
        return False
    if len(rest.edges) <= choosability._AT_MAX_EDGES:
        try:
            if alon_tarsi.find_list_certificate(rest, kept) is not None:
                return True
        except SizeLimitExceededError:
            pass
    return choosability._first_uncolourable(choosability._neighbours(rest), kept) is None


def check_extension_with_rechoice(config: ReducibleConfig, choice_set: Sequence[int]) -> bool:
    """Oracle for ``check_extension``: True iff for every assignment of the
    residual sizes there exist colour selections for the choice vertices
    (proper among adjacent choice vertices) whose removal from neighbouring
    lists leaves the remaining vertices colourable.  Raises
    ``SizeLimitExceededError`` past ``MAX_ORACLE_ASSIGNMENTS``
    (assignment, selection) pairs."""
    if not choice_set:
        raise ValueError("choice_set must be nonempty")
    g = config.inner
    choice = list(choice_set)
    rest = [v for v in range(g.n) if v not in choice_set]
    rest_index = {v: i for i, v in enumerate(rest)}
    rest_graph = build_graph(
        [(rest_index[u], rest_index[v]) for u, v in g.edges if u in rest_index and v in rest_index],
        n=len(rest),
    )
    choice_edges = [(a, b) for a, b in itertools.combinations(choice, 2) if b in g.adjacency[a]]
    checked = 0
    for lists in iter_canonical_assignments(config.residual_sizes):
        extendable = False
        for picks in itertools.product(*[lists[v] for v in choice]):
            checked = _count_check(checked)
            sel = dict(zip(choice, picks))
            if any(sel[a] == sel[b] for a, b in choice_edges):
                continue
            reduced = []
            for v in rest:
                lv = [c for c in lists[v] if not any(u in g.adjacency[v] and sel[u] == c for u in choice)]
                reduced.append(lv)
            if all(reduced) and l_color(rest_graph, reduced) is not None:
                extendable = True
                break
        if not extendable:
            return False
    return True


def reducible_with_rechoice(config: ReducibleConfig, choice_set: Sequence[int] = ()) -> bool:
    """The former dispatch of ``reduce``: the re-choice check when there are
    choice vertices, else the plain loop."""
    if choice_set:
        return check_extension_with_rechoice(config, choice_set)
    return first_uncolourable_loop(config.inner, config.residual_sizes) is None


def parse_graph6_bitwalk(text: str) -> Graph:
    """Oracle for ``parse_graph6``: the same checks, then a walk over all
    n(n-1)/2 bits, pair by pair."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    skip, width = (2, 6) if data[:2] == [63, 63] else (1, 3) if data[:1] == [63] else (0, 1)
    head, data = data[skip:skip + width], data[skip + width:]
    if len(head) < width:
        raise ValueError("graph6 line ends inside its vertex count")
    n = 0
    for b in head:
        n = (n << 6) | b
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) != need:
        raise ValueError(f"graph6 line has {len(data)} data bytes, {need} expected for n = {n}")
    padding = 6 * need - n * (n - 1) // 2
    if data and data[-1] & ((1 << padding) - 1):
        raise ValueError("graph6 line sets padding bits after its last edge bit")
    bits = []
    for b in data:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(edges, n=n)


class UnindexedPlaneGraph:
    """Oracle for ``PlaneGraph``: the rotation is checked against the graph
    by set comparisons, planarity by Euler's formula on a connected graph
    and on each component with an edge of a disconnected one, relabelled as
    an embedding of its own, and the face traversal builds its own
    position index and marks each directed edge-side in a set."""

    def __init__(self, graph: Graph, rotation: Sequence[Sequence[int]]):
        if len(rotation) != graph.n:
            raise InvalidRotationError("rotation must list every vertex")
        rot = tuple(tuple(r) for r in rotation)
        for v in range(graph.n):
            if set(rot[v]) != set(graph.adjacency[v]) or len(rot[v]) != graph.degree(v):
                raise InvalidRotationError(f"rotation at vertex {v} is not a permutation of its neighbors")
        self.graph = graph
        self.rotation = rot
        self._faces: Optional[Tuple[Face, ...]] = None
        if graph.is_connected():
            f = len(self.faces())
            if graph.n - len(graph.edges) + f != 2:
                raise InvalidRotationError(f"embedding is not planar: V-E+F = {graph.n - len(graph.edges) + f}")
            return
        left = {v for v in range(graph.n) if rot[v]}
        while left:
            part, stack = set(), [min(left)]
            while stack:
                v = stack.pop()
                if v not in part:
                    part.add(v)
                    stack.extend(rot[v])
            left -= part
            index = {v: i for i, v in enumerate(sorted(part))}
            sub = build_graph([(index[u], index[v]) for u, v in graph.edges if u in part], n=len(part))
            UnindexedPlaneGraph(sub, [[index[u] for u in rot[v]] for v in sorted(part)])

    def faces(self) -> Tuple[Face, ...]:
        if self._faces is not None:
            return self._faces
        rot = self.rotation
        index = [{u: i for i, u in enumerate(r)} for r in rot]
        seen = set()
        faces: List[Face] = []
        for v in range(self.graph.n):
            if not rot[v] and self.graph.n == 1:
                faces.append(Face(boundary=()))
                continue
            for u in rot[v]:
                if (v, u) in seen:
                    continue
                walk: List[int] = []
                cur = (v, u)
                while cur not in seen:
                    seen.add(cur)
                    walk.append(cur[0])
                    a, b = cur
                    nxt = rot[b][(index[b][a] + 1) % len(rot[b])]
                    cur = (b, nxt)
                faces.append(Face(boundary=tuple(walk)))
        self._faces = tuple(faces)
        return self._faces


def faces_of_unindexed(embedding: UnindexedPlaneGraph) -> List[Face]:
    """Oracle for ``faces_of``: connectivity is sought again."""
    if not embedding.graph.is_connected():
        raise DisconnectedEmbeddingError("face traversal requires a connected embedding")
    return list(embedding.faces())


def embedding_from_json_unindexed(obj) -> UnindexedPlaneGraph:
    """Oracle for ``embedding_from_json``: repeats and range are checked
    vertex by vertex, symmetry by a scan of each rotation, loops by
    ``build_graph``, and the rotation against that graph by
    ``UnindexedPlaneGraph``."""
    if isinstance(obj, str):
        obj = load_json(obj, "embedding")
    obj = expect_json(obj, dict, "embedding")
    n = expect_json(obj["n"], int, "n")
    rotation = expect_json(obj["rotation"], list, "rotation")
    rotation = [expect_int_list(r, f"rotation[{v}]") for v, r in enumerate(rotation)]
    if len(rotation) != n:
        raise InvalidRotationError("rotation length differs from n")
    edges = set()
    for v, nbrs in enumerate(rotation):
        if len(set(nbrs)) != len(nbrs):
            raise InvalidRotationError(f"repeated neighbor in rotation at vertex {v}")
        for u in nbrs:
            if not 0 <= u < n:
                raise DanglingVertexIndexError(f"rotation at vertex {v} names vertex {u}, outside 0..{n - 1}")
            edges.add(canonical_edge(u, v))
    for u, v in edges:
        if u not in rotation[v] or v not in rotation[u]:
            raise InvalidRotationError(f"asymmetric adjacency between {u} and {v}")
    graph = build_graph(sorted(edges), n=n)
    return UnindexedPlaneGraph(graph, rotation)
