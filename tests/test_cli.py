import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_delaunay
from test_mesh import own_denominator_sites, own_denominator_wheel
from proximesh import harness, io
from proximesh import mesh as mesh_module
from proximesh.cli import _format_structured, _format_text, main
from proximesh.complexes import SubComplex
from proximesh.mesh import SiteSet, triangulate
from proximesh.rational import MAX_DIGITS, MAX_EXPONENT
from proximesh.visibility import ConstraintSet


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

    @pytest.mark.parametrize("count", [2, harness.MAX_SITES + 1, 10**12])
    def test_count_out_of_bound(self, tmp_path, capsys, monkeypatch, count):
        def refuse(*args):
            raise AssertionError("a site was drawn")

        # The bound is checked before any site is drawn.
        monkeypatch.setattr(harness, "Point2", refuse)
        out = tmp_path / "x.txt"
        code = main(["generate", "--count", str(count), "--out", str(out)])
        assert code == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"error: count must be between 3 and {harness.MAX_SITES} sites, "
            f"got {count}"
        )
        assert not out.exists()

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
            ("triangles", [-1]),
            ("triangles", [1.0]),
            ("triangles", ["0"]),
        ],
        ids=["vertex-bool", "vertex-float", "vertex-negative",
             "vertex-too-large", "edge-bool", "edge-long", "edge-short",
             "triangle-float", "triangle-bool", "triangle-too-large",
             "triangle-negative", "triangle-integral-float",
             "triangle-string"],
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


def _one_error_line(captured) -> str:
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return lines[0]


def _relate_and_render(tmp_path, mesh_file, a, b):
    """Argument lists of a relate and a render run on these files."""
    return [
        ["relate", "--mesh", str(mesh_file), "--a", str(a), "--b", str(b),
         "--relation", "near"],
        ["render", "--mesh", str(mesh_file), "--subcomplex", str(a),
         "--out", str(tmp_path / "x.svg")],
    ]


class TestJsonNumberCoordinates:
    """A coordinate written as a JSON number rather than a string is a
    malformed mesh, not a crash (nor exit 1, relate's "false")."""

    @pytest.mark.parametrize(
        "field,value",
        [("site", [0, 0]), ("clip_margin", 0.1), ("clip_box", [0, 0, 1, 1])],
    )
    def test_exit_two_with_one_error_line(
        self, workspace, capsys, field, value
    ):
        tmp_path, _, mesh_file, a, b = workspace
        doc = json.loads(mesh_file.read_text())
        if field == "site":
            doc["sites"][0] = value
        else:
            doc[field] = value
        mesh_file.write_text(json.dumps(doc))
        for argv in _relate_and_render(tmp_path, mesh_file, a, b):
            assert main(argv) == 2
            line = _one_error_line(capsys.readouterr())
            assert "malformed mesh document" in line
            assert "as a string" in line
        assert not (tmp_path / "x.svg").exists()


class TestMalformedMeshRows:
    """A site row or clip box that is not a JSON list of 2 or 4
    coordinates is a malformed mesh: a string, or an object's keys,
    would unpack as one-digit numbers."""

    @staticmethod
    def _doc():
        return {
            "format": io.MESH_FORMAT,
            "sites": [["0", "0"], ["4", "0"], ["0", "4"], ["4", "4"],
                      ["2", "0"]],
            "triangles": [[0, 4, 2], [1, 3, 4], [2, 4, 3]],
            "clip_margin": "1/10",
            "clip_box": ["0", "0", "5", "5"],
        }

    def test_valid_rows_pass(self, tmp_path, capsys):
        mesh_file = tmp_path / "mesh.json"
        mesh_file.write_text(json.dumps(self._doc()))
        assert main(["check", "--suite", "thm36", "--mesh",
                     str(mesh_file)]) == 0
        assert "pass=3 fail=0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sites", ["00", "40", "04", "44", "20"]),
            ("sites", [["0", "0"], ["4", "0"], ["0", "4"], ["4", "4"],
                       {"2": "x", "0": "y"}]),
            ("sites", [["0", "0"], ["4", "0"], ["0", "4"], ["4", "4"],
                       ["2", "0", "0"]]),
            ("clip_box", "0055"),
            ("clip_box", ["0", "0", "5"]),
        ],
        ids=["string-sites", "object-site", "three-entry-site",
             "string-box", "three-entry-box"],
    )
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, field,
                                          value):
        doc = self._doc()
        doc[field] = value
        mesh_file = tmp_path / "mesh.json"
        mesh_file.write_text(json.dumps(doc))
        assert main(["check", "--suite", "thm36", "--mesh",
                     str(mesh_file)]) == 2
        line = _one_error_line(capsys.readouterr())
        assert f"{mesh_file}: malformed mesh document" in line
        assert "is not a list of" in line


class TestListFields:
    """Each list field of a mesh or subcomplex document is a JSON list,
    else a malformed document naming the file and the field: an empty
    string or object would read as an empty list, and relate on an
    operand the file never named."""

    @pytest.mark.parametrize("value", ["", {}], ids=["string", "object"])
    @pytest.mark.parametrize("field", ["sites", "triangles"])
    def test_mesh_field(self, tmp_path, capsys, field, value):
        doc = TestMalformedMeshRows._doc()
        doc[field] = value
        mesh_file = tmp_path / "mesh.json"
        mesh_file.write_text(json.dumps(doc))
        assert main(["check", "--suite", "thm36", "--mesh",
                     str(mesh_file)]) == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"error: {mesh_file}: malformed mesh document: "
            f"field {field!r} is not a list"
        )

    @pytest.mark.parametrize("value", ["", {}], ids=["string", "object"])
    @pytest.mark.parametrize("field", ["vertices", "edges", "triangles"])
    def test_subcomplex_field(self, workspace, capsys, field, value):
        tmp_path, _, mesh_file, a, b = workspace
        doc = json.loads(a.read_text())
        doc[field] = value
        a.write_text(json.dumps(doc))
        for argv in _relate_and_render(tmp_path, mesh_file, a, b):
            assert main(argv) == 2
            assert _one_error_line(capsys.readouterr()) == (
                f"error: {a}: malformed subcomplex: "
                f"field {field!r} is not a list"
            )
        assert not (tmp_path / "x.svg").exists()


class TestDeeplyNestedJson:
    @pytest.mark.parametrize("target", ["mesh", "subcomplex"])
    def test_exit_two_with_one_error_line(self, workspace, capsys, target):
        tmp_path, _, mesh_file, a, b = workspace
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        if target == "mesh":
            mesh_file = deep
        else:
            a = deep
        for argv in _relate_and_render(tmp_path, mesh_file, a, b):
            assert main(argv) == 2
            line = _one_error_line(capsys.readouterr())
            assert f"{deep}: JSON nested too deeply" in line


class TestHugeJsonNumber:
    """A JSON integer literal past CPython's int/text limit is a named
    error on that file, not CPython's message without a path."""

    @pytest.mark.parametrize("target", ["mesh", "subcomplex"])
    def test_exit_two_with_one_error_line(self, workspace, capsys, target):
        tmp_path, _, mesh_file, a, b = workspace
        path = mesh_file if target == "mesh" else a
        doc = json.loads(path.read_text())
        doc["pad"] = "HUGE"
        path.write_text(json.dumps(doc).replace('"HUGE"', "9" * 5000))
        for argv in _relate_and_render(tmp_path, mesh_file, a, b):
            assert main(argv) == 2
            assert _one_error_line(capsys.readouterr()) == (
                f"error: {path}: a number has more than {MAX_DIGITS} digits"
            )
        assert not (tmp_path / "x.svg").exists()


class TestNotUtf8:
    """A file that is not UTF-8 text is a named error on that file, not
    the codec's message without a path."""

    @pytest.mark.parametrize("target",
                             ["sites", "mesh", "subcomplex", "constraints"])
    def test_exit_two_with_one_error_line(self, workspace, capsys, target):
        tmp_path, _, mesh_file, _, b = workspace
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe0\x00,\x000\x00\n\x00")
        argv = {
            "sites": ["triangulate", "--sites", str(bad),
                      "--out", str(tmp_path / "m.json")],
            "mesh": ["render", "--mesh", str(bad),
                     "--out", str(tmp_path / "x.svg")],
            "subcomplex": ["relate", "--mesh", str(mesh_file), "--a",
                           str(bad), "--b", str(b), "--relation", "near"],
            "constraints": ["check", "--suite", "thm37", "--mesh",
                            str(mesh_file), "--constraints", str(bad)],
        }[target]
        assert main(argv) == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"error: {bad}: not UTF-8 text"
        )


class TestCoordinateBounds:
    """Coordinates are bounded on their text, before any arithmetic."""

    @pytest.mark.parametrize(
        "coord", ["1e-3000000", "1e5000", "9" * 4301, "1/" + "7" * 4301]
    )
    def test_out_of_bound_site_fails_fast(self, tmp_path, capsys, coord):
        sites = tmp_path / "sites.txt"
        sites.write_text(f"0,0\n1,0\n0,1\n{coord},0\n")
        start = time.perf_counter()
        code = main(["triangulate", "--sites", str(sites),
                     "--out", str(tmp_path / "m.json")])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert _one_error_line(capsys.readouterr()).startswith(
            f"error: {sites}:4: "
        )
        assert not (tmp_path / "m.json").exists()

    def test_sites_at_the_exponent_bound(self, tmp_path, capsys):
        e = MAX_EXPONENT
        sites = tmp_path / "sites.txt"
        sites.write_text(f"1e-{e},0\n1e{e},0\n0,1e{e}\n1e-{e},1e-{e}\n")
        mesh_file = tmp_path / "m.json"
        code = main(["voronoi", "--sites", str(sites),
                     "--out", str(mesh_file)])
        assert code == 0, capsys.readouterr().err
        mesh = io.read_mesh(mesh_file)
        assert mesh.sites[1].x == 10**e
        assert len(json.loads(mesh_file.read_text())["voronoi"]) == 4

    def test_mesh_coordinate_past_the_digit_limit(self, tmp_path, capsys):
        # The site is within the bound, but circumcenters have more digits.
        sites = tmp_path / "sites.txt"
        sites.write_text(f"0,0\n1,0\n0,1\n{'9' * MAX_DIGITS},1\n")
        out = tmp_path / "m.json"
        code = main(["voronoi", "--sites", str(sites), "--out", str(out)])
        assert code == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"error: {out}: a mesh coordinate needs more than {MAX_DIGITS} "
            "digits"
        )
        assert not out.exists()

    def test_cell_corner_past_the_digit_limit_fails_before_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        # Spokes over unrelated 1000-digit denominators are within the
        # bound; the circumcenters, which are cell corners, are not.
        sites = tmp_path / "sites.txt"
        sites.write_text("".join(
            f"{p.x},{p.y}\n" for p in own_denominator_wheel(11, 8, 1000)
        ))

        def refuse(mesh):
            raise AssertionError("cells built")

        monkeypatch.setattr(mesh_module, "voronoi", refuse)
        out = tmp_path / "m.json"
        code = main(["voronoi", "--sites", str(sites), "--out", str(out)])
        assert code == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"error: {out}: a mesh coordinate needs more than {MAX_DIGITS} "
            "digits"
        )
        assert not out.exists()

    def test_out_of_bound_clip_margin_flag(self, workspace, capsys):
        tmp_path, sites, *_ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["triangulate", "--sites", str(sites), "--clip-margin",
                  f"1e-{MAX_EXPONENT + 1}", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert "--clip-margin" in capsys.readouterr().err


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

    @pytest.mark.parametrize("trials", [harness.MAX_TRIALS + 1, 10**9])
    def test_trials_out_of_bound(self, capsys, monkeypatch, trials):
        def refuse(*args):
            raise AssertionError("a mesh was built")

        # The bound is checked before any mesh is built.
        monkeypatch.setattr(harness, "triangulate", refuse)
        start = time.perf_counter()
        code = main(["check", "--suite", "lemma33", "--trials", str(trials)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert _one_error_line(capsys.readouterr()) == (
            f"error: trials must be between 1 and {harness.MAX_TRIALS}, "
            f"got {trials}"
        )

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

    def test_extent_box_skips_walls_it_cuts(self, tmp_path):
        # The sites' extent as the clip box cuts the walls at every
        # circumcenter outside it; those triangles pass with a note, where
        # the shared-wall route would fail twelve valid Delaunay triangles.
        sites, mesh_file = tmp_path / "sites.txt", tmp_path / "mesh.json"
        assert main(["generate", "--seed", "11", "--count", "40",
                     "--out", str(sites)]) == 0
        assert main(["triangulate", "--sites", str(sites),
                     "--out", str(mesh_file)]) == 0
        doc = json.loads(mesh_file.read_text())
        del doc["mesh_id"]
        xs, ys = ([Fraction(row[k]) for row in doc["sites"]] for k in (0, 1))
        doc["clip_box"] = [str(v) for v in (min(xs), min(ys), max(xs),
                                            max(ys))]
        mesh_file.write_text(json.dumps(doc))
        out = tmp_path / "report.txt"
        code = main(["check", "--suite", "all", "--mesh", str(mesh_file),
                     "--trials", "5", "--out", str(out)])
        assert code == 0
        noted = [line for line in _suite_section(out.read_text(), "thm36")
                 if "shared-wall route skipped" in line]
        assert len(noted) == 12
        assert all(" status=pass detail=circumcenter outside clip box;"
                   in line for line in noted)

    @pytest.mark.parametrize("n,divergences", [(3, 8), (12, 242)])
    def test_cocircular_grid_walls_diverge(self, tmp_path, capsys, n,
                                           divergences):
        # Each unit square of the n x n integer grid is fanned across a
        # diagonal whose cells meet at a point: every triangle on one is
        # an expected divergence naming the diagonal and the square's
        # fourth, cocircular, site.
        sites, mesh_file = tmp_path / "sites.txt", tmp_path / "mesh.json"
        sites.write_text("".join(f"{i},{j}\n" for j in range(n)
                                 for i in range(n)))
        assert main(["triangulate", "--sites", str(sites),
                     "--out", str(mesh_file)]) == 0
        capsys.readouterr()
        assert main(["check", "--suite", "thm36", "--mesh",
                     str(mesh_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("summary suite=thm36 pass=0 fail=0 "
                             f"expected_divergence={divergences}")
        checks = lines[1:-1]
        assert len(checks) == divergences
        assert all(" status=expected_divergence detail=shared wall has no "
                   "length: edge (" in line and line.endswith(
                       " verdicts=(True, True, False, True) seed=0")
                   for line in checks)
        assert checks[0] == (
            f"check mesh=0 triangle 0 (0, 1, {n + 1}) status="
            "expected_divergence detail=shared wall has no length: edge "
            f"(0, {n + 1}) with cocircular site {n} verdicts=(True, True, "
            "False, True) seed=0")

    def test_check_all_deterministic(self, tmp_path):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        for out in (r1, r2):
            assert main(["check", "--suite", "all", "--trials", "2",
                         "--seed", "3", "--out", str(out)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    # sha256 of the text and structured reports, pinned so that a change
    # to how suites are run or recorded cannot alter a report unnoticed.
    PINNED_REPORTS = {
        ("all", 20, 1): (
            "3aa87f18319010f4c803b918126050834734f60227efa92ccecf8cde0fb3b832",
            "652eb2e1b7563fb555da525863ac9133ab8059e80bd0ba57b03f008bcd1180e3"),
        ("all", 20, 7): (
            "b0c9444216a8899d36531af62675b3639b9dab431cad6401ea13f1834ba05234",
            "3ef09fa255014b0da7d2fb2a653c083e79c32b46f1d4a52cf0ce9935b55d2cc1"),
        ("all", 20, 40000): (
            "e99aabe091ad2c6e8ac54588a100fbf750ee9a5a887a999d91eeb78e0e1bc9c6",
            "4d84dfe37d6c082af98ec113348120938954e5c118624f1b3bfb905b822e76b3"),
        ("thm36", 1, 0): (
            "56170d91e348f7aa5444ef00bb791dd4e00d0371a378db665fac65d4fd18e36f",
            "588f6a7078cc7b7acacd135dbde61aef3a51a465867ad39bb75cb05dc2b36a66"),
    }

    @pytest.mark.parametrize("args", PINNED_REPORTS)
    def test_report_bytes_pinned(self, args, grid_mesh):
        # The thm36 report runs on the 4x4 grid, all others on trial meshes.
        mesh = grid_mesh if args[0] == "thm36" else None
        results = harness.run_suite(*args, mesh=mesh)
        digests = tuple(
            hashlib.sha256("".join(fmt(results)).encode()).hexdigest()
            for fmt in (_format_text, _format_structured))
        assert digests == self.PINNED_REPORTS[args]

    def test_thm37_bytes_pinned_on_collinear_constraints(self, grid_mesh):
        # Every pair of the 4x4 grid is audited against constraints that
        # lie along grid lines and diagonals: 64 pairs are visible, 48 of
        # them with endpoint-only contact notes, and collinear touches
        # must not count as interior contacts.
        constraints = ConstraintSet.of([(1, 3), (4, 12), (5, 10), (2, 7)])
        results = harness.run_suite("thm37", 120, 1, mesh=grid_mesh,
                                    constraints=constraints)
        records = results[0].records
        assert (len(records), results[0].passed) == (64, 64)
        assert sum(1 for rec in records if rec.detail) == 48
        digests = tuple(
            hashlib.sha256("".join(fmt(results)).encode()).hexdigest()
            for fmt in (_format_text, _format_structured))
        assert digests == (
            "f788f9a3e5658e64a6dff4ee83b99f0450adca3f94ed86d66c284dfbccb46752",
            "676c744d029d74310496c407a69c25366d5479a1417316a76659c1d3a2debc18")

    def test_thm36_bytes_pinned_on_own_scales(self):
        # Sites over unrelated 20-digit denominators keep their own
        # scales, so both global routes of thm36 take every site and weigh
        # each distance by the site's own scale; the pinned grid above
        # shares one scale.
        mesh = triangulate(SiteSet(own_denominator_sites(3, 40, 20)))
        assert mesh.site_set.scale is None
        results = harness.run_suite("thm36", 1, 0, mesh=mesh)
        assert (len(results[0].records), results[0].passed) == (66, 66)
        digests = tuple(
            hashlib.sha256("".join(fmt(results)).encode()).hexdigest()
            for fmt in (_format_text, _format_structured))
        assert digests == (
            "92cab6bccc589badeb5b1f10fc79143253b89df01c5bb41eda5cbc48edf6a0ed",
            "820149a1ee2795e2bcc52bcbaeb3d7ca1ac0f561cfd823dbeeba76cd409c41a9")

    def test_structured_report_empty_and_streamed(self):
        # The report is encoded one record at a time; its text is still
        # that of one `json.dumps` over all docs, with none at all too.
        assert "".join(_format_structured([])) == "[]\n"
        results = harness.run_suite("all", 3, 5) + [
            harness.SuiteResult("empty", 0, 1)]
        docs = [{"suite": r.suite, "seed": r.seed, "trials": r.trials,
                 "records": [{"label": rec.label, "status": rec.status,
                              "detail": rec.detail} for rec in r.records],
                 "summary": {"pass": r.passed, "fail": r.failed,
                             "expected_divergence": r.divergences}}
                for r in results]
        assert "".join(_format_structured(results)) == json.dumps(
            docs, sort_keys=True, indent=1) + "\n"

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


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "proximesh", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: proximesh ")


# Mutations of a valid mesh file and its subcomplex file. A hostile
# value replaces a coordinate, an index or an index row.
_HOSTILE = st.one_of(
    st.sampled_from([
        "1e-3000000", "1e3000000", "9" * (MAX_DIGITS + 1), "1e1000",
        "-1e-1000", "1/0", "3/-4", "nan", "inf", "", " ", "0x10", "1_0",
        "\u0661", 0, 1.5, -1, 10**6, True, None, [], {}, [0, 1],
    ]),
    st.text(max_size=8),
)
_EDIT = st.tuples(
    st.sampled_from(["mesh", "subcomplex"]),
    st.sampled_from(["drop", "duplicate", "reverse", "rewrite", "replace",
                     "delete"]),
    st.integers(0, 60),
    _HOSTILE,
)


def _slots(doc):
    """(holder, key) of every coordinate, index and row of a document."""
    out = [(doc, key) for key in ("clip_margin", "mesh") if key in doc]
    for key in ("sites", "clip_box", "triangles", "vertices", "edges"):
        rows = doc.get(key)
        if isinstance(rows, list):
            for i, row in enumerate(rows):
                out.append((rows, i))
                if isinstance(row, list):
                    out.extend((row, j) for j in range(len(row)))
    return out


def _edit(doc, op, k, value):
    """Apply one edit, if the document has something it applies to."""
    slots = _slots(doc)
    lists = [v for key, v in sorted(doc.items())
             if isinstance(v, list) and v and key != "clip_box"]
    if op == "delete" and doc:
        del doc[sorted(doc)[k % len(doc)]]
    elif op == "replace" and slots:
        holder, key = slots[k % len(slots)]
        holder[key] = copy.deepcopy(value)
    if op in ("delete", "replace") or not lists:
        return
    rows = lists[k % len(lists)]
    i = k % len(rows)
    if op == "drop":
        del rows[i]
    elif op == "duplicate":
        rows.append(rows[i])
    elif op == "reverse" and isinstance(rows[i], list):
        rows[i] = rows[i][::-1]
    elif op == "rewrite":
        rows[i] = [(k * 7 + j) % 13 - 1 for j in range(1 + k % 4)]


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A valid 10-site mesh document and a subcomplex document of it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    mesh = triangulate(harness.generate_sites(3, 10)[0])
    io.write_mesh(tmp / "mesh.json", mesh)
    io.write_subcomplex(tmp / "a.json", SubComplex.of_triangles(mesh, [0, 2]),
                        io.mesh_id(mesh))
    return (json.loads((tmp / "mesh.json").read_text()),
            json.loads((tmp / "a.json").read_text()))


def _assert_clean_exit(argv, edits):
    """Run the CLI in-process: it exits 0, 1 or 2, with one `error:` line
    on 2, within 5 s and without an exception."""
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5, (argv[0], edits)
    assert code in (0, 1, 2), (argv[0], edits)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (
            argv[0], edits, err.getvalue())


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_mutated_files_exit_with_a_named_error(fuzz_base, edits):
    """relate and render on mutated mesh and subcomplex files exit 0, 1
    or 2, with one `error:` line on 2 and no exception."""
    docs = {"mesh": copy.deepcopy(fuzz_base[0]),
            "subcomplex": copy.deepcopy(fuzz_base[1])}
    for target, op, k, value in edits:
        _edit(docs[target], op, k, value)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mesh_file, a, b = tmp / "mesh.json", tmp / "a.json", tmp / "b.json"
        mesh_file.write_text(json.dumps(docs["mesh"]))
        a.write_text(json.dumps(docs["subcomplex"]))
        b.write_text(json.dumps(fuzz_base[1]))
        for argv in _relate_and_render(tmp, mesh_file, a, b):
            _assert_clean_exit(argv, edits)


# Mutations of a line-oriented file: drop, duplicate or swap lines, or
# put hostile text in place of one field.
_LINE_EDIT = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "replace"]),
    st.integers(0, 60),
    st.integers(0, 1),
    st.one_of(
        st.sampled_from([
            b"1e-3000000", b"9" * 5000, b"1/0", b"nan", b"inf", b"\xff\xfe",
            b"\xff", b"1e1000", b"-1e-1000", b"-1", b"0", b"10", b"",
        ]),
        st.binary(max_size=6),
    ),
)


def _mutated_lines(text: bytes, edits) -> bytes:
    lines = text.splitlines()
    for op, k, col, value in edits:
        if not lines:
            break
        i = k % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.append(lines[i])
        elif op == "swap":
            j = k // 7 % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split(b",")
            fields[col % len(fields)] = value
            lines[i] = b",".join(fields)
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def line_fuzz_base(tmp_path_factory):
    """A 10-site file, its mesh file, and a constraint file of five of
    the mesh's edges."""
    tmp = tmp_path_factory.mktemp("line-fuzz")
    sites, mesh_file = tmp / "sites.txt", tmp / "mesh.json"
    site_set = harness.generate_sites(3, 10)[0]
    io.write_sites(sites, site_set.sites)
    mesh = triangulate(site_set)
    io.write_mesh(mesh_file, mesh)
    constraints = "".join(f"{p},{q}\n" for p, q in sorted(mesh.edges)[::3][:5])
    return sites.read_bytes(), mesh_file, constraints.encode()


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(_LINE_EDIT, min_size=1, max_size=3))
def test_mutated_site_files_exit_with_a_named_error(line_fuzz_base, edits):
    """triangulate on a mutated site file exits 0, 1 or 2, with one
    `error:` line on 2 and no exception."""
    with tempfile.TemporaryDirectory() as tmp:
        sites = Path(tmp) / "sites.txt"
        sites.write_bytes(_mutated_lines(line_fuzz_base[0], edits))
        _assert_clean_exit(["triangulate", "--sites", str(sites),
                            "--out", str(Path(tmp) / "mesh.json")], edits)


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(_LINE_EDIT, min_size=1, max_size=3))
def test_mutated_constraint_files_exit_with_a_named_error(line_fuzz_base,
                                                          edits):
    """check --suite thm37 on a mutated constraint file exits 0, 1 or 2,
    with one `error:` line on 2 and no exception."""
    _, mesh_file, text = line_fuzz_base
    with tempfile.TemporaryDirectory() as tmp:
        constraints = Path(tmp) / "constraints.txt"
        constraints.write_bytes(_mutated_lines(text, edits))
        _assert_clean_exit(["check", "--suite", "thm37", "--trials", "5",
                            "--seed", "1", "--mesh", str(mesh_file),
                            "--constraints", str(constraints)], edits)
