import json

import pytest

from oracles import brute_force_delaunay
from proximesh import io
from proximesh.cli import main
from proximesh.complexes import SubComplex


@pytest.fixture()
def workspace(tmp_path):
    """Sites and mesh files plus two subcomplex files to relate."""
    sites = tmp_path / "sites.txt"
    mesh_file = tmp_path / "mesh.json"
    assert main(["generate", "--seed", "1", "--count", "12",
                 "--out", str(sites)]) == 0
    assert main(["triangulate", "--sites", str(sites),
                 "--out", str(mesh_file)]) == 0
    mesh = io.read_mesh(mesh_file)
    mid = io.mesh_id(mesh)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    io.write_subcomplex(a, SubComplex.of_triangles(mesh, [0]), mid)
    io.write_subcomplex(b, SubComplex.of_triangles(mesh, [1]), mid)
    return tmp_path, sites, mesh_file, a, b


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            assert main(["generate", "--seed", "7", "--count", "9",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_too_few_sites(self, tmp_path, capsys):
        code = main(["generate", "--seed", "1", "--count", "2",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_zero_area_box(self, tmp_path):
        code = main(["generate", "--seed", "1", "--count", "5",
                     "--bbox", "0,0,0,1", "--out", str(tmp_path / "x.txt")])
        assert code == 2


class TestBuildMesh:
    def test_triangulate_and_voronoi(self, workspace):
        tmp_path, sites, mesh_file, *_ = workspace
        doc = json.loads(mesh_file.read_text())
        assert doc["format"] == "proximesh-mesh/1"
        assert "voronoi" not in doc
        vor_file = tmp_path / "vor.json"
        assert main(["voronoi", "--sites", str(sites),
                     "--out", str(vor_file)]) == 0
        vor_doc = json.loads(vor_file.read_text())
        assert len(vor_doc["voronoi"]) == 12
        assert vor_doc["mesh_id"] == doc["mesh_id"]

    def test_fan_sites_give_three_triangles(self, tmp_path):
        sites = tmp_path / "fan.txt"
        sites.write_text("0,0\n4,0\n2,3\n2,1\n")
        mesh_file = tmp_path / "fan.json"
        assert main(["triangulate", "--sites", str(sites),
                     "--out", str(mesh_file)]) == 0
        doc = json.loads(mesh_file.read_text())
        assert len(doc["triangles"]) == 3

    def test_malformed_sites(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,2\noops\n")
        code = main(["triangulate", "--sites", str(bad),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert ":2" in capsys.readouterr().err

    def test_collinear_sites(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0,0\n1,1\n2,2\n")
        code = main(["triangulate", "--sites", str(bad),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "collinear" in capsys.readouterr().err


    def test_flat_hull_triangulates_exactly(self, tmp_path, capsys):
        # Site 2 sits 2^-200 above the hull edge 0-1.
        sites = tmp_path / "flat.txt"
        sites.write_text(f"0,0\n1,0\n1/2,1/{2**200}\n1/2,1\n")
        mesh_file = tmp_path / "flat.json"
        code = main(["triangulate", "--sites", str(sites),
                     "--out", str(mesh_file)])
        assert code == 0, capsys.readouterr().err
        mesh = io.read_mesh(mesh_file)
        got = {frozenset(t.indices) for t in mesh.triangles}
        assert got == brute_force_delaunay(mesh.sites)


class TestRelate:
    def test_true_with_witness(self, workspace, capsys):
        _, _, mesh_file, a, b = workspace
        code = main(["relate", "--mesh", str(mesh_file), "--a", str(a),
                     "--b", str(b), "--relation", "near"])
        out = capsys.readouterr().out
        assert code == 0
        assert "relation near verdict=true" in out
        assert "witness vertex" in out

    def test_false_exit_one(self, workspace):
        tmp_path, _, mesh_file, a, b = workspace
        mesh = io.read_mesh(mesh_file)
        # far-apart corner subcomplexes exist on 12 random sites
        code = main(["relate", "--mesh", str(mesh_file), "--a", str(a),
                     "--b", str(b), "--relation", "far"])
        assert code in (0, 1)  # verdict-dependent; exercised properly below
        v1 = tmp_path / "v1.json"
        mid = io.mesh_id(mesh)
        io.write_subcomplex(v1, SubComplex.of(mesh, vertices=[0]), mid)
        code_self = main(["relate", "--mesh", str(mesh_file), "--a", str(v1),
                          "--b", str(v1), "--relation", "far"])
        assert code_self == 1

    def test_unknown_relation_exit_two(self, workspace):
        _, _, mesh_file, a, b = workspace
        with pytest.raises(SystemExit) as exc:
            main(["relate", "--mesh", str(mesh_file), "--a", str(a),
                  "--b", str(b), "--relation", "adjacent"])
        assert exc.value.code == 2

    def test_svisible_witness_edge(self, workspace, tmp_path, capsys):
        _, _, mesh_file, *_ = workspace
        mesh = io.read_mesh(mesh_file)
        mid = io.mesh_id(mesh)
        e, (t1, t2) = next(
            (e, ts)
            for e, ts in sorted(mesh.edge_triangles.items())
            if len(ts) == 2
        )
        a = tmp_path / "sa.json"
        b = tmp_path / "sb.json"
        io.write_subcomplex(a, SubComplex.of_triangles(mesh, [t1]), mid)
        io.write_subcomplex(b, SubComplex.of_triangles(mesh, [t2]), mid)
        code = main(["relate", "--mesh", str(mesh_file), "--a", str(a),
                     "--b", str(b), "--relation", "svisible"])
        out = capsys.readouterr().out
        assert code == 0
        assert "relation svisible verdict=true" in out
        assert "witness edge" in out

    def test_sfar_with_searched_witness(self, workspace, capsys):
        _, _, mesh_file, a, b = workspace
        code = main(["relate", "--mesh", str(mesh_file), "--a", str(a),
                     "--b", str(b), "--relation", "sfar"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "relation sfar verdict=" in out

    def test_mismatched_subcomplex(self, workspace, tmp_path, capsys):
        _, sites, mesh_file, a, _ = workspace
        other_sites = tmp_path / "other.txt"
        other_mesh = tmp_path / "other_mesh.json"
        assert main(["generate", "--seed", "99", "--count", "8",
                     "--out", str(other_sites)]) == 0
        assert main(["triangulate", "--sites", str(other_sites),
                     "--out", str(other_mesh)]) == 0
        code = main(["relate", "--mesh", str(other_mesh), "--a", str(a),
                     "--b", str(a), "--relation", "near"])
        assert code == 2
        assert "references mesh" in capsys.readouterr().err


class TestClipBoxOutsideSites:
    """A mesh file whose clip box misses a site is refused on load, by
    every command, whether or not it reads the cells."""

    @pytest.mark.parametrize(
        "command",
        [
            ["relate", "--relation", "near", "--a", "{a}", "--b", "{b}"],
            ["render", "--out", "{out}"],
            ["render", "--voronoi", "--out", "{out}"],
        ],
        ids=["relate", "render", "render-voronoi"],
    )
    def test_exit_two_with_one_error_line(self, workspace, capsys, command):
        tmp_path, _, mesh_file, a, b = workspace
        doc = json.loads(mesh_file.read_text())
        doc["clip_box"][0] = doc["sites"][0][0]
        doc["clip_box"][2] = doc["sites"][0][0]
        mesh_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        argv = [arg.format(a=a, b=b, out=out) for arg in command]
        code = main([argv[0], "--mesh", str(mesh_file)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "clip_box does not contain site" in lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestTriangleIndices:
    """A mesh triangle row must be three plain ints in [0, n)."""

    @pytest.mark.parametrize(
        "row",
        [[-1, 1, 2], [0, 1, 99], [0.4, 1, 2], [True, 2, 3], [0, 1]],
        ids=["negative", "too-large", "float", "bool", "short"],
    )
    def test_exit_two_with_one_error_line(self, workspace, capsys, row):
        tmp_path, _, mesh_file, *_ = workspace
        doc = json.loads(mesh_file.read_text())
        doc["triangles"][0] = row
        mesh_file.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        code = main(["render", "--mesh", str(mesh_file), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "not 3 site indices" in lines[0]
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestSubcomplexIndices:
    """Subcomplex vertices and triangles must be plain ints in range,
    and edge rows two of them."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("vertices", [True]),
            ("vertices", [1.7]),
            ("vertices", [-1]),
            ("vertices", [99]),
            ("edges", [[0, True]]),
            ("edges", [[0, 1, 2]]),
            ("edges", [[0]]),
            ("triangles", [0.9]),
            ("triangles", [True]),
            ("triangles", [999]),
        ],
        ids=["vertex-bool", "vertex-float", "vertex-negative",
             "vertex-too-large", "edge-bool", "edge-long", "edge-short",
             "triangle-float", "triangle-bool", "triangle-too-large"],
    )
    @pytest.mark.parametrize("command", ["relate", "render"])
    def test_exit_two_with_one_error_line(
        self, workspace, capsys, command, field, value
    ):
        tmp_path, _, mesh_file, a, b = workspace
        doc = json.loads(a.read_text())
        doc[field] = value
        a.write_text(json.dumps(doc))
        out = tmp_path / "x.svg"
        if command == "relate":
            argv = ["relate", "--mesh", str(mesh_file), "--a", str(a),
                    "--b", str(b), "--relation", "near"]
        else:
            argv = ["render", "--mesh", str(mesh_file), "--subcomplex",
                    str(a), "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "malformed subcomplex" in lines[0]
        assert " is not " in lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


def _suite_section(report: str, suite: str) -> list[str]:
    lines = report.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"suite {suite} "))
    end = next(i for i, line in enumerate(lines)
               if line.startswith(f"summary suite={suite} "))
    return lines[start:end + 1]


class TestCheck:
    def test_zero_trials_exit_two(self, capsys):
        code = main(["check", "--suite", "axioms", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert captured.out == ""

    def test_all_with_constraints_runs_thm37_once(self, workspace, tmp_path):
        _, _, mesh_file, *_ = workspace
        mesh = io.read_mesh(mesh_file)
        constraints = tmp_path / "constraints.txt"
        constraints.write_text(
            "\n".join(f"{p},{q}" for p, q in sorted(mesh.edges)[:3]) + "\n"
        )
        reports = {}
        for suite in ("all", "thm37"):
            out = tmp_path / f"{suite}.txt"
            code = main(["check", "--suite", suite, "--trials", "6",
                         "--seed", "2", "--mesh", str(mesh_file),
                         "--constraints", str(constraints),
                         "--out", str(out)])
            assert code == 0
            reports[suite] = out.read_text()
        assert reports["all"].count("suite thm37 ") == 1
        assert _suite_section(reports["all"], "thm37") == (
            reports["thm37"].splitlines()
        )

    def test_all_skips_thm35_on_mesh_without_config(self, workspace, tmp_path):
        # The 12-site mesh has one triangle off the hull, and the star of
        # its vertices touches every triangle: nothing can be strongly far.
        _, _, mesh_file, *_ = workspace
        out = tmp_path / "all.txt"
        code = main(["check", "--suite", "all", "--trials", "6", "--seed",
                     "2", "--mesh", str(mesh_file), "--out", str(out)])
        assert code == 0
        assert _suite_section(out.read_text(), "thm35") == [
            "suite thm35 seed=2 trials=6",
            "check strongly_far generation status=pass detail=no "
            "strongly-far configuration in the mesh; skipped",
            "summary suite=thm35 pass=1 fail=0 expected_divergence=0",
        ]

    def test_text_report(self, tmp_path, capsys):
        code = main(["check", "--suite", "lemma31", "--trials", "10",
                     "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("suite lemma31 seed=5 trials=10")
        assert "summary suite=lemma31" in out
        assert "fail=0" in out

    def test_structured_report(self, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(["check", "--suite", "axioms", "--trials", "6",
                     "--seed", "2", "--format", "structured",
                     "--out", str(out_file)])
        assert code == 0
        docs = json.loads(out_file.read_text())
        assert docs[0]["suite"] == "axioms"
        assert docs[0]["summary"]["fail"] == 0

    def test_check_against_mesh_file(self, workspace, tmp_path):
        _, _, mesh_file, *_ = workspace
        out_file = tmp_path / "report.txt"
        code = main(["check", "--suite", "thm36", "--trials", "1",
                     "--seed", "0", "--mesh", str(mesh_file),
                     "--out", str(out_file)])
        assert code == 0
        assert "summary suite=thm36" in out_file.read_text()

    def test_check_all_deterministic(self, tmp_path):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        for out in (r1, r2):
            assert main(["check", "--suite", "all", "--trials", "2",
                         "--seed", "3", "--out", str(out)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_constraints_flow(self, workspace, tmp_path):
        _, _, mesh_file, *_ = workspace
        mesh = io.read_mesh(mesh_file)
        constraints = tmp_path / "constraints.txt"
        edges = sorted(mesh.edges)[:3]
        constraints.write_text(
            "\n".join(f"{p},{q}" for p, q in edges) + "\n"
        )
        code = main(["check", "--suite", "thm37", "--trials", "20",
                     "--seed", "1", "--mesh", str(mesh_file),
                     "--constraints", str(constraints)])
        assert code == 0

    def test_region_mode_flag(self, tmp_path):
        # Pairwise-strong sampling is the default; chains sit behind the
        # flag. Both must run green and differ in what they sample.
        out_p = tmp_path / "pairwise.txt"
        out_c = tmp_path / "chain.txt"
        assert main(["check", "--suite", "regions", "--trials", "8",
                     "--seed", "2", "--out", str(out_p)]) == 0
        assert main(["check", "--suite", "regions", "--trials", "8",
                     "--seed", "2", "--mode", "chain",
                     "--out", str(out_c)]) == 0
        assert out_p.read_text() != out_c.read_text()

    def test_constraints_wrong_suite(self, workspace, tmp_path, capsys):
        _, _, mesh_file, *_ = workspace
        c = tmp_path / "c.txt"
        c.write_text("0,1\n")
        code = main(["check", "--suite", "axioms", "--mesh", str(mesh_file),
                     "--constraints", str(c)])
        assert code == 2


class TestRender:
    def test_deterministic_bytes(self, workspace, tmp_path):
        _, _, mesh_file, a, b = workspace
        s1 = tmp_path / "one.svg"
        s2 = tmp_path / "two.svg"
        for out in (s1, s2):
            assert main(["render", "--mesh", str(mesh_file),
                         "--subcomplex", str(a), "--subcomplex", str(b),
                         "--voronoi", "--out", str(out)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_text().count("stroke=\"#d62728\"") == 1

    def test_empty_mesh_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code = main(["render", "--mesh", str(empty),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 2

    def test_unwritable_path(self, workspace, tmp_path):
        _, _, mesh_file, *_ = workspace
        code = main(["render", "--mesh", str(mesh_file),
                     "--out", str(tmp_path / "no_dir" / "x.svg")])
        assert code == 2
