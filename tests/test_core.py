import itertools
import json
import random

import pytest

from dischargekit import fixtures
from dischargekit.core import (
    Orientation,
    PlaneGraph,
    build_graph,
    embedding_from_json,
    embedding_to_json,
    faces_of,
    orientation_from_json,
    orientation_to_json,
    orientations_with_max_outdegree,
    parse_graph6,
    write_graph6,
)
from dischargekit.errors import (
    DanglingVertexIndexError,
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
        assert sum(o.outdegrees()) == sum(o.indegrees()) == len(g.edges)
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

    def test_roundtrip_large_n(self):
        g = build_graph([(0, 99)], n=100)
        assert parse_graph6(write_graph6(g)).edges == ((0, 99),)


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
