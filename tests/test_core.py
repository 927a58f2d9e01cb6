import itertools
import json
import random
from collections import Counter

import pytest
from inputs import embedding_to_json, triangulated_grid, wheel, write_graph6
from oracles import (
    embedding_from_json_unindexed,
    faces_of_unindexed,
    orientations_with_max_outdegree,
    parse_graph6_bitwalk,
)

from dischargekit import fixtures
from dischargekit.core import (
    Orientation,
    PlaneGraph,
    build_graph,
    embedding_from_json,
    faces_of,
    orientation_from_json,
    orientation_to_json,
    parse_graph6,
)
from dischargekit.errors import (
    DanglingVertexIndexError,
    DischargeKitError,
    DisconnectedEmbeddingError,
    DuplicateEdgeError,
    InvalidRotationError,
    LoopEdgeError,
)


def k4():
    return build_graph(list(itertools.combinations(range(4), 2)))


class TestBuildGraph:
    def test_empty_graph_one_vertex(self):
        g = build_graph([], n=1)
        assert g.n == 1
        assert g.edges == ()

    def test_k4_degrees(self):
        g = k4()
        assert g.degrees() == [3, 3, 3, 3]

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_graph([(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph([(0, 1), (1, 0)])

    def test_dangling_index_rejected(self):
        with pytest.raises(DanglingVertexIndexError):
            build_graph([(0, 5)], n=3)
        with pytest.raises(DanglingVertexIndexError):
            build_graph([(-1, 2)])


class TestFaces:
    def test_triangle_two_faces(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        emb = PlaneGraph(g, [[1, 2], [0, 2], [0, 1]])
        faces = faces_of(emb)
        assert len(faces) == 2
        assert all(f.degree == 3 for f in faces)

    def test_cube_six_quad_faces(self):
        faces = faces_of(fixtures.load_embedding("cube"))
        assert len(faces) == 6
        assert all(f.degree == 4 for f in faces)

    def test_octahedron_eight_triangles(self):
        faces = faces_of(fixtures.load_embedding("octahedron"))
        assert len(faces) == 8
        assert all(f.degree == 3 for f in faces)
        # every directed edge-side is used exactly once
        sides = [
            (f.boundary[i], f.boundary[(i + 1) % f.degree])
            for f in faces
            for i in range(f.degree)
        ]
        assert len(sides) == len(set(sides)) == 24

    def test_face_degree_sum_is_twice_edges(self):
        for name in fixtures.SOLIDS:
            emb = fixtures.load_embedding(name)
            assert sum(f.degree for f in faces_of(emb)) == 2 * len(emb.graph.edges)
        for emb in fixtures.random_embeddings():
            assert sum(f.degree for f in faces_of(emb)) == 2 * len(emb.graph.edges)

    def test_euler_formula_on_bundled_embeddings(self):
        for emb in [fixtures.load_embedding(n) for n in fixtures.SOLIDS] + fixtures.random_embeddings():
            v, e, f = emb.graph.n, len(emb.graph.edges), len(faces_of(emb))
            assert v - e + f == 2

    def test_deterministic(self):
        emb = fixtures.load_embedding("dodecahedron")
        assert faces_of(emb) == faces_of(embedding_from_json(embedding_to_json(emb)))

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1)], n=3)
        emb = PlaneGraph(g, [[1], [0], []])
        with pytest.raises(DisconnectedEmbeddingError):
            faces_of(emb)

    def test_bad_rotation_rejected(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidRotationError):
            PlaneGraph(g, [[1, 2], [0, 0], [0, 1]])


class TestOrientations:
    def test_single_edge(self):
        g = build_graph([(0, 1)])
        assert len(list(orientations_with_max_outdegree(g, 1))) == 2

    def test_triangle_bound_one_gives_two_cycles(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        oris = list(orientations_with_max_outdegree(g, 1))
        assert len(oris) == 2
        for o in oris:
            assert sorted(o.outdegrees()) == [1, 1, 1]

    def test_triangle_bound_zero_empty(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        assert list(orientations_with_max_outdegree(g, 0)) == []

    def test_vacuous_bound_counts_all_direction_vectors(self):
        for g in (build_graph([(0, 1), (1, 2), (2, 3)]), k4()):
            oris = list(orientations_with_max_outdegree(g, g.n))
            assert len(oris) == 2 ** len(g.edges)
            assert len({o.arcs for o in oris}) == len(oris)

    def test_arcs_cover_edges(self):
        g = k4()
        o = next(orientations_with_max_outdegree(g, 4))
        out, ind = o.outdegrees(), Counter(h for _, h in o.arcs)
        assert sum(out) == len(g.edges)
        assert all(out[v] + ind[v] == g.degree(v) for v in range(g.n))
        with pytest.raises(DanglingVertexIndexError):
            Orientation(g, o.arcs[:-1])


class TestGraph6:
    def test_c5_known_encoding(self):
        c5 = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert write_graph6(c5) == "Dhc"
        assert parse_graph6("Dhc").edges == c5.edges

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<Dhc").n == 5

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 12)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            g = build_graph(edges, n=n)
            back = parse_graph6(write_graph6(g))
            assert back.n == g.n and back.edges == g.edges

    @pytest.mark.parametrize("line", ["", ">>graph6<<", "~", "~~?", "A", "D", "Dh", "C~~~~", "Dhcc"])
    def test_data_length_must_match_header(self, line):
        with pytest.raises(ValueError):
            parse_graph6(line)

    @pytest.mark.parametrize("line", ["Dhd", "Bx"])
    def test_padding_bits_must_be_zero(self, line):
        with pytest.raises(ValueError):
            parse_graph6(line)

    def test_roundtrip_bundled_graphs(self):
        embeddings = list(fixtures.solid_embeddings().values()) + fixtures.random_embeddings()
        graphs = [emb.graph for emb in embeddings] + [fixtures.trio_graph()] + fixtures.demo_graphs()
        for g in graphs:
            assert parse_graph6(write_graph6(g)) == g

    def test_roundtrip_large_n(self):
        g = build_graph([(0, 99)], n=100)
        assert parse_graph6(write_graph6(g)).edges == ((0, 99),)

    def test_set_bits_match_the_bit_walk(self):
        # n = 63 and up take the four-byte vertex count
        rng = random.Random(11)
        for n in range(71):
            pairs = list(itertools.combinations(range(n), 2))
            for share in (0.0, 0.05, 0.5, 1.0):
                g = build_graph([e for e in pairs if rng.random() < share], n=n)
                line = write_graph6(g)
                assert parse_graph6(line) == parse_graph6_bitwalk(line) == g, (n, share)

    def test_random_lines_match_the_bit_walk(self):
        # random data bytes, often of the wrong length or with padding bits
        # set: both decoders give the same graph or the same error
        def outcome(parse, line):
            try:
                return parse(line)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(5)
        for _ in range(400):
            n = rng.choice((rng.randint(0, 12), rng.randint(60, 90)))
            need = (n * (n - 1) // 2 + 5) // 6
            count = write_graph6(build_graph([], n=n))[: -need or None]
            size = max(need + rng.choice((-1, 0, 0, 0, 1)), 0)
            line = count + "".join(chr(63 + rng.choice((0, 0, 0, rng.randrange(64)))) for _ in range(size))
            assert outcome(parse_graph6, line) == outcome(parse_graph6_bitwalk, line), line


class TestWireFormats:
    def test_embedding_roundtrip(self):
        emb = fixtures.load_embedding("tetrahedron")
        back = embedding_from_json(json.dumps(embedding_to_json(emb)))
        assert back.rotation == emb.rotation

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(InvalidRotationError):
            embedding_from_json({"n": 2, "rotation": [[1], []]})

    def test_rotation_vertex_out_of_range_rejected(self):
        with pytest.raises(DanglingVertexIndexError):
            embedding_from_json({"n": 2, "rotation": [[1, 5], [0]]})

    def test_orientation_roundtrip(self):
        o = fixtures.fig_orientations()["g1"]
        back = orientation_from_json(json.dumps(orientation_to_json(o)))
        assert back.arcs == o.arcs


def reader_corpus():
    """The bundled embeddings, wheels and the grids of sides 3-14, as
    embedding JSON."""
    embs = [fixtures.load_embedding(name) for name in fixtures.SOLIDS] + fixtures.random_embeddings()
    embs += [wheel(spokes) for spokes in (3, 4, 7)]
    embs += [triangulated_grid(side, share, side) for side in range(3, 15) for share in (0.0, 0.5, 0.9)]
    return [embedding_to_json(emb) for emb in embs]


def malformed(obj, fault: str, rng: random.Random) -> dict:
    """``obj`` with one fault of the kind named: each changes one rotation,
    or the vertex count, or joins a second copy of the embedding."""
    n, rotation = obj["n"], [list(r) for r in obj["rotation"]]
    # a swap at a vertex of degree 3 or more reverses its cyclic order
    v = rng.choice([u for u in range(n) if len(rotation[u]) >= (3 if fault == "swap" else 1)])
    r = rotation[v]
    if fault == "repeat":
        r.insert(rng.randrange(len(r) + 1), rng.choice(r))
    elif fault == "range":
        r.insert(rng.randrange(len(r) + 1), rng.choice((n, n + 5, -1, -n)))
    elif fault == "loop":
        r.insert(rng.randrange(len(r) + 1), v)
    elif fault == "asymmetry-drop":
        r.remove(rng.choice(r))
    elif fault == "asymmetry-add":
        others = [u for u in range(n) if u != v and u not in r]
        if others:
            r.insert(rng.randrange(len(r) + 1), rng.choice(others))
        else:
            r.remove(rng.choice(r))
    elif fault == "length":
        return {"n": n + rng.choice((-1, 1)), "rotation": rotation}
    elif fault == "swap":
        i, j = rng.sample(range(len(r)), 2)
        r[i], r[j] = r[j], r[i]
    elif fault == "empty":
        return {"n": 0, "rotation": []}
    elif fault == "disconnected":
        rotation += [[u + n for u in r] for r in obj["rotation"]]
        return {"n": 2 * n, "rotation": rotation}
    return {"n": n, "rotation": rotation}


def outcome(read, faces_of_read, obj):
    """The class of the error that reading ``obj`` and listing its faces
    raises, or its faces."""
    try:
        return faces_of_read(read(obj))
    except DischargeKitError as exc:
        return type(exc)


class TestReaderOracle:
    """The one-pass reader against the one it replaced, which checks by
    sets and scans and builds its own position index to walk the faces."""

    def test_same_graph_rotation_and_faces(self):
        for obj in reader_corpus():
            new, old = embedding_from_json(obj), embedding_from_json_unindexed(obj)
            assert new.graph == old.graph and new.graph.adjacency == old.graph.adjacency
            assert new.rotation == old.rotation
            assert new.faces() == old.faces()

    def test_sector_index(self):
        # each sector lies on exactly one face: the one whose walk leaves
        # the vertex towards the neighbour that closes the sector
        for obj in reader_corpus():
            emb = embedding_from_json(obj)
            want = [[None] * len(r) for r in emb.rotation]
            for fi, f in enumerate(emb.faces()):
                for i, a in enumerate(f.boundary):
                    k = emb.rotation[a].index(f.boundary[(i + 1) % f.degree])
                    assert want[a][k] is None
                    want[a][k] = fi
            assert emb.sectors == want

    @pytest.mark.parametrize(
        "fault",
        ["repeat", "range", "loop", "asymmetry-drop", "asymmetry-add", "length", "swap", "empty", "disconnected"],
    )
    def test_malformed_rotations_raise_the_same_class(self, fault):
        rng = random.Random(fault)
        corpus = [obj for obj in reader_corpus() if obj["n"] <= 100 and max(map(len, obj["rotation"])) >= 3]
        outcomes = Counter()
        for _ in range(60):
            obj = malformed(rng.choice(corpus), fault, rng)
            got = outcome(embedding_from_json, faces_of, obj)
            assert got == outcome(embedding_from_json_unindexed, faces_of_unindexed, obj), (fault, obj)
            outcomes[got if isinstance(got, type) else "accepted"] += 1
        want = {
            "repeat": InvalidRotationError,
            "range": DanglingVertexIndexError,
            "loop": LoopEdgeError,
            "asymmetry-drop": InvalidRotationError,
            "asymmetry-add": InvalidRotationError,
            "length": InvalidRotationError,
            "empty": InvalidRotationError,
            "disconnected": DisconnectedEmbeddingError,
        }.get(fault)
        if want is not None:
            assert set(outcomes) == {want}, outcomes
        else:
            # most swaps leave the plane
            assert outcomes[InvalidRotationError] > 0, outcomes


class TestPlanarity:
    """The reader against networkx's planarity test and its check of an
    embedding, which applies Euler's formula to each component, on seeded
    random graphs, connected or not, with random rotations, networkx's own
    embeddings and their mirror images."""

    def test_accepted_rotations_are_planar(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        seen = Counter()
        for _ in range(1500):
            n = rng.randint(1, 9)
            share = rng.choice((0.2, 0.4, 0.6, 0.9))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < share]
            nxg = nx.Graph(edges)
            nxg.add_nodes_from(range(n))
            planar, embedding = nx.check_planarity(nxg)
            connected = nx.is_connected(nxg)
            rotations = [[rng.sample(sorted(nxg[v]), len(nxg[v])) for v in range(n)]]
            if planar:
                cw = [list(embedding.neighbors_cw_order(v)) for v in range(n)]
                rotations += [cw, [r[::-1] for r in cw]]
            for i, rotation in enumerate(rotations):
                reference = nx.PlanarEmbedding()
                reference.set_data(dict(enumerate(rotation)))
                try:
                    reference.check_structure()
                    plane = True
                except nx.NetworkXException:
                    plane = False
                try:
                    emb = embedding_from_json({"n": n, "rotation": rotation})
                except InvalidRotationError:
                    # networkx's own embeddings are plane
                    assert not plane and i == 0, rotation
                    seen["rejected" if connected else "rejected, disconnected"] += 1
                    continue
                assert plane and planar, rotation
                if not connected:
                    with pytest.raises(DisconnectedEmbeddingError):
                        faces_of(emb)
                    seen["disconnected"] += 1
                    continue
                v, e, f = n, len(emb.graph.edges), len(faces_of(emb))
                assert v - e + f == 2
                seen["plane, random" if i == 0 else "plane, networkx"] += 1
        assert min(seen.values()) >= 30 and len(seen) == 5, seen
