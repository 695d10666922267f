import json
from fractions import Fraction

import pytest

from proximesh import io
from proximesh.complexes import SubComplex
from proximesh.geometry import Point2
from proximesh.rational import ParseError, format_rational, parse_rational
from proximesh.regions import EDGE_CHAIN, build_region
from proximesh.render import render_svg
from proximesh.visibility import ConstraintSet

P = Point2


class TestRational:
    def test_decimal_exact(self):
        assert parse_rational("0.1") == Fraction(1, 10)
        assert parse_rational("-2.5e-3") == Fraction(-1, 400)

    def test_fraction_form(self):
        assert parse_rational("7/3") == Fraction(7, 3)

    def test_roundtrip(self):
        for v in (Fraction(3, 7), Fraction(-5), Fraction(1, 10)):
            assert parse_rational(format_rational(v)) == v

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1.2.3")


class TestSitesFile:
    def test_roundtrip(self, tmp_path):
        pts = [P("0.1", "2/3"), P(-4, "5.25"), P(0, 0)]
        path = tmp_path / "sites.txt"
        io.write_sites(path, pts, header=["example"])
        assert io.read_sites(path) == pts

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sites.txt"
        path.write_text("# header\n\n1,2  # trailing\n3.5,4/7\n")
        assert io.read_sites(path) == [P(1, 2), P("3.5", "4/7")]

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "sites.txt"
        path.write_text("1,2\nnonsense\n")
        with pytest.raises(ParseError, match=":2"):
            io.read_sites(path)


class TestMeshFile:
    def test_roundtrip_bit_exact(self, tmp_path, fan_mesh):
        path = tmp_path / "mesh.json"
        io.write_mesh(path, fan_mesh)
        loaded = io.read_mesh(path)
        assert loaded.sites == fan_mesh.sites
        assert [t.indices for t in loaded.triangles] == [
            t.indices for t in fan_mesh.triangles
        ]
        assert loaded.clip_box == fan_mesh.clip_box
        assert loaded.voronoi == fan_mesh.voronoi
        assert io.mesh_id(loaded) == io.mesh_id(fan_mesh)
        path2 = tmp_path / "again.json"
        io.write_mesh(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_clip_box_must_hold_every_site(self, tmp_path, fan_mesh):
        path = tmp_path / "mesh.json"
        io.write_mesh(path, fan_mesh)
        doc = json.loads(path.read_text())
        doc["clip_box"] = ["0", "0", "4", "2"]  # site 2 is (2, 3)
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FileFormatError, match="contain site 2"):
            io.read_mesh(path)

    def test_closed_clip_box_accepted(self, tmp_path, fan_mesh):
        path = tmp_path / "mesh.json"
        io.write_mesh(path, fan_mesh)
        doc = json.loads(path.read_text())
        doc["clip_box"] = ["0", "0", "4", "3"]  # the sites' own extent
        path.write_text(json.dumps(doc))
        loaded = io.read_mesh(path)
        assert len(loaded.voronoi) == 4

    def test_voronoi_payload(self, fan_mesh):
        payload = io.mesh_payload(fan_mesh, include_voronoi=True)
        assert len(payload["voronoi"]) == 4
        assert payload["voronoi"][3]["clipped"] is False

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other/1"}')
        with pytest.raises(io.FileFormatError):
            io.read_mesh(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(io.FileFormatError):
            io.read_mesh(path)


class TestSubComplexFile:
    def test_roundtrip(self, tmp_path, fan_mesh):
        sub = SubComplex.of(
            fan_mesh, vertices=[1], edges=[(0, 3)], triangles=[2]
        )
        path = tmp_path / "sub.json"
        io.write_subcomplex(path, sub, io.mesh_id(fan_mesh))
        assert io.read_subcomplex(path, fan_mesh) == sub

    def test_mesh_id_mismatch(self, tmp_path, fan_mesh, wheel_mesh):
        sub = SubComplex.of_triangles(fan_mesh, [0])
        path = tmp_path / "sub.json"
        io.write_subcomplex(path, sub, io.mesh_id(fan_mesh))
        with pytest.raises(io.FileFormatError, match="references mesh"):
            io.read_subcomplex(path, wheel_mesh)

    def test_mesh_hashed_once_per_mesh(
        self, tmp_path, fan_mesh, wheel_mesh, monkeypatch
    ):
        hashed = []
        payload = io.mesh_payload
        monkeypatch.setattr(
            io, "mesh_payload", lambda m, *a: hashed.append(m) or payload(m, *a)
        )
        io.mesh_id.cache_clear()
        fan_id = io.mesh_id(fan_mesh)
        path = tmp_path / "sub.json"
        io.write_subcomplex(path, SubComplex.of_triangles(fan_mesh, [0]), fan_id)
        for _ in range(3):
            io.read_subcomplex(path, fan_mesh)
        assert hashed == [fan_mesh]
        assert io.mesh_id(wheel_mesh) == payload(wheel_mesh)["mesh_id"]
        assert io.mesh_id(fan_mesh) == fan_id == payload(fan_mesh)["mesh_id"]
        assert hashed == [fan_mesh, wheel_mesh, fan_mesh]


class TestRegionFile:
    def test_roundtrip(self, tmp_path, grid_mesh):
        region = build_region(grid_mesh, [0, 1], mode=EDGE_CHAIN)
        path = tmp_path / "region.json"
        io.write_region(path, region, io.mesh_id(grid_mesh))
        loaded = io.read_region(path, grid_mesh)
        assert loaded.triangles == region.triangles
        assert loaded.mode == EDGE_CHAIN

    @pytest.mark.parametrize(
        "triangles",
        [[0, True], [0, 1.0], [0.9], [-1], [18], ["0"]],
        ids=["bool", "integral-float", "float", "negative", "too-large",
             "string"],
    )
    def test_triangle_indices_strict(self, tmp_path, grid_mesh, triangles):
        region = build_region(grid_mesh, [0, 1], mode=EDGE_CHAIN)
        path = tmp_path / "region.json"
        io.write_region(path, region, io.mesh_id(grid_mesh))
        doc = json.loads(path.read_text())
        doc["triangles"] = triangles
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FileFormatError, match="malformed region"):
            io.read_region(path, grid_mesh)


class TestConstraintsFile:
    def test_roundtrip(self, tmp_path):
        cs = ConstraintSet.of([(3, 1), (0, 2)])
        path = tmp_path / "constraints.txt"
        io.write_constraints(path, cs)
        assert io.read_constraints(path) == cs

    def test_malformed(self, tmp_path):
        path = tmp_path / "constraints.txt"
        path.write_text("1,2\nx,y\n")
        with pytest.raises(ParseError, match=":2"):
            io.read_constraints(path)


class TestRenderSvg:
    def test_deterministic(self, fan_mesh):
        a = render_svg(fan_mesh, include_voronoi=True)
        b = render_svg(fan_mesh, include_voronoi=True)
        assert a == b

    def test_layers_present(self, fan_mesh):
        subs = [
            SubComplex.of_triangles(fan_mesh, [0]),
            SubComplex.of_triangles(fan_mesh, [1]),
        ]
        svg = render_svg(fan_mesh, subcomplexes=subs)
        assert svg.count('stroke="#d62728"') == 1
        assert svg.count('stroke="#1f77b4"') == 1
        assert svg.count("<line") >= len(list(fan_mesh.edges))

    def test_voronoi_toggle(self, fan_mesh):
        with_cells = render_svg(fan_mesh, include_voronoi=True)
        without = render_svg(fan_mesh, include_voronoi=False)
        assert with_cells.count("<polygon") > without.count("<polygon")

    def test_labels_toggle(self, fan_mesh):
        labeled = render_svg(fan_mesh)
        bare = render_svg(fan_mesh, include_labels=False)
        assert "<text" in labeled and "<text" not in bare
