import io
import json

import pytest

from dischargekit import fixtures
from dischargekit.cli import main
from dischargekit.core import embedding_to_json, orientation_to_json

C5_G6 = "Dhc"
WHEEL5_G6 = ">>graph6<<Ehfw"  # 5-wheel: rim 0..4 plus hub 5


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_embedding(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(embedding_to_json(fixtures.load_embedding(name))))
    return str(path)


class TestDetect:
    def test_c5_passes(self, tmp_path, capsys):
        path = tmp_path / "c5.g6"
        path.write_text(C5_G6 + "\n")
        code, out = run(capsys, ["detect", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        conds = report["graphs"][0]["conditions"]
        assert all(c["holds"] for c in conds)

    def test_5wheel_violates(self, tmp_path, capsys):
        path = tmp_path / "w5.g6"
        path.write_text(WHEEL5_G6 + "\n")
        code, out = run(capsys, ["detect", "--input", str(path), "--summary"])
        assert code == 1
        assert "VIOLATED" in out

    def test_trio_roles_reported(self, tmp_path, capsys):
        from dischargekit.core import write_graph6

        path = tmp_path / "trio.g6"
        path.write_text(write_graph6(fixtures.trio_graph()) + "\n")
        code, out = run(capsys, ["detect", "--input", str(path)])
        report = json.loads(out)
        entry = report["graphs"][0]
        assert len(entry["trios"]) == 1
        assert entry["trios"][0]["center"] == 3
        assert {r["role"] for r in entry["roles"]} == {"worst", "worse", "bad"}


class TestChoosable:
    def test_c5_4_choosable(self, tmp_path, capsys):
        path = tmp_path / "c5.g6"
        path.write_text(C5_G6 + "\n")
        code, out = run(capsys, ["choosable", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["verdicts"][0]["choosable"] is True

    def test_c5_not_2_choosable(self, tmp_path, capsys):
        path = tmp_path / "c5.g6"
        path.write_text(C5_G6 + "\n")
        code, out = run(capsys, ["choosable", "--input", str(path), "--k", "2"])
        assert code == 1
        verdict = json.loads(out)["verdicts"][0]
        assert verdict["choosable"] is False
        assert verdict["witness"] is not None

    def test_limit_n_enforced(self, tmp_path, capsys):
        path = tmp_path / "c5.g6"
        path.write_text(C5_G6 + "\n")
        code, _ = run(capsys, ["choosable", "--input", str(path), "--limit-n", "3"])
        assert code == 2


class TestAlonTarsi:
    def test_orientation_g1(self, tmp_path, capsys):
        path = tmp_path / "g1.json"
        path.write_text(json.dumps(orientation_to_json(fixtures.fig_orientations()["g1"])))
        code, out = run(
            capsys,
            ["alon-tarsi", "--input", str(path), "--format", "orientation-json"],
        )
        assert code == 0
        report = json.loads(out)
        assert (report["even"], report["odd"]) == (2, 1)
        assert report["applicable"] is True

    def test_graph_certificate_search(self, tmp_path, capsys):
        path = tmp_path / "c4.g6"
        path.write_text("Cl\n")
        code, out = run(capsys, ["alon-tarsi", "--input", str(path), "--k", "2"])
        assert code == 0
        assert json.loads(out)["results"][0]["certificate"] is not None

    def test_graphs_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("Cl\nBw\n"))
        code, out = run(capsys, ["alon-tarsi", "--input", "-", "--k", "2"])
        assert code == 1
        assert [r["certificate"] is not None for r in json.loads(out)["results"]] == [True, False]

    def test_triangle_has_no_k2_certificate(self, tmp_path, capsys):
        path = tmp_path / "c3.g6"
        path.write_text("Bw\n")
        code, out = run(capsys, ["alon-tarsi", "--input", str(path), "--k", "2"])
        assert code == 1
        assert json.loads(out)["results"][0]["certificate"] is None


class TestReduce:
    def test_builtin_checks_pass(self, capsys):
        code, out = run(capsys, ["reduce"])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [
            "H-with-rechoice",
            "square-2222",
            "triangle-222",
        ]
        assert all(c["ok"] for c in checks)

    def test_user_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "sizes": [2, 2, 2, 2]})
        )
        code, out = run(capsys, ["reduce", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["checks"][0]["reducible"] is True


class TestDischarge:
    def test_cube_reports_negatives(self, tmp_path, capsys):
        path = write_embedding(tmp_path, "cube")
        code, out = run(capsys, ["discharge", "--input", path, "--summary"])
        assert code == 1
        assert "total charge: -12" in out

    def test_cube_json_total(self, tmp_path, capsys):
        path = write_embedding(tmp_path, "cube")
        code, out = run(capsys, ["discharge", "--input", path])
        report = json.loads(out)
        assert report["ledger"]["total"] == {"num": -12, "den": 1}
        assert len(report["report"]["negatives"]) == 6

    def test_rules_override(self, tmp_path, capsys):
        emb_path = write_embedding(tmp_path, "dodecahedron")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"five_face": 0}))
        code, out = run(capsys, ["discharge", "--input", emb_path, "--rules", str(rules)])
        assert code == 1
        report = json.loads(out)
        # with R1 switched off the 5-faces stay negative instead of vertices
        assert all(el[0] == "f" for el in (n["element"] for n in report["report"]["negatives"]))

    def test_output_file_and_byte_identical_reruns(self, tmp_path, capsys):
        emb_path = write_embedding(tmp_path, "icosahedron")
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["discharge", "--input", emb_path, "--output", out1])
        main(["discharge", "--input", emb_path, "--output", out2])
        capsys.readouterr()
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()


class TestReproPaper:
    def test_table_and_exit_code(self, capsys):
        code, out = run(capsys, ["repro-paper", "--summary"])
        # one published even/odd pair is not reproduced; see the g2 note in
        # fixtures — the command reports it and signals the mismatch
        assert code == 1
        table = json.loads(out[: out.rindex("}") + 1])["table"]
        failing = [r["check"] for r in table if not r["ok"]]
        assert failing == ["eulerian-counts-g2"]
        assert "FAIL  eulerian-counts-g2" in out
        assert out.count("PASS") == len(table) - 1


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["detect", "--input", "/nonexistent.g6"])
        assert code == 2

    def test_malformed_graph6(self, tmp_path, capsys):
        # a bad character, a truncated header or body, trailing bytes
        path = tmp_path / "bad.g6"
        for line in ("\x01\x02notgraph6", "D", "A", "~", ">>graph6<<", "C~~~~"):
            path.write_text(line + "\n")
            code = main(["detect", "--input", str(path)])
            err = capsys.readouterr().err
            assert code == 2, line
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_rotation_outside_vertex_range(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "rotation": [[1, 5], [0]]}))
        code = main(["discharge", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_bad_rules_json(self, tmp_path, capsys):
        emb_path = write_embedding(tmp_path, "cube")
        rules = tmp_path / "rules.json"
        rules.write_text("{not json")
        code, _ = run(capsys, ["discharge", "--input", emb_path, "--rules", str(rules)])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["discharge", "--input", "x.json", "--k", "5"],
            ["detect", "--input", "x.g6", "--rules", "r.json"],
            ["choosable", "--input", "x.g6", "--limit-arcs", "1"],
            ["repro-paper", "--input", "x"],
            ["reduce", "--format", "graph6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_flag_the_command_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
