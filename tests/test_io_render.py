import json
import random
import re
from fractions import Fraction

import pytest

from test_mesh import own_denominator_sites, own_denominator_wheel
from proximesh import harness, io
from proximesh.complexes import SubComplex
from proximesh.geometry import Point2
from proximesh.mesh import SiteSet, triangulate
from proximesh.rational import (
    MAX_DIGITS,
    MAX_EXPONENT,
    ParseError,
    format_rational,
    parse_rational,
)
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

    @pytest.mark.parametrize("value", [0, 0.1, None, [1, 2]])
    def test_non_string_rejected(self, value):
        with pytest.raises(ParseError, match="as a string"):
            parse_rational(value)

    def test_exponent_bound(self):
        assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
        assert parse_rational(f"2.5E-{MAX_EXPONENT}") == Fraction(
            5, 2 * 10**MAX_EXPONENT
        )
        for text in (f"1e{MAX_EXPONENT + 1}", f"-1e-{MAX_EXPONENT + 1}",
                     "1e-3000000", "1e+00009999999999"):
            with pytest.raises(ParseError, match="exponent magnitude"):
                parse_rational(text)

    def test_digit_bound(self):
        # Each integer of the text counts on its own; a decimal's digits
        # before and after the point form one integer.
        nines = "9" * MAX_DIGITS
        assert parse_rational(f"-{nines}/{nines[1:]}7") == Fraction(
            -int(nines), int(nines[1:] + "7")
        )
        assert parse_rational(f"{nines[1:]}.5") == Fraction(
            int(nines[1:] + "5"), 10
        )
        for text in (nines + "9", f"1/{nines}9", f"{nines}.5",
                     "1e" + "0" * (MAX_DIGITS + 1)):
            with pytest.raises(ParseError, match=f"more than {MAX_DIGITS}"):
                parse_rational(text)


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


def _shuffled_grid(k):
    """The k×k integer grid in a seeded random order: every unit square
    is cocircular, so neighboring triangles share their circumcenter."""
    points = [P(i, j) for j in range(k) for i in range(k)]
    random.Random(k).shuffle(points)
    return points


def _tight_box_mesh(tmp_path, points):
    """`points` triangulated, written, and loaded with the sites' own
    extent as the clip box, so the box cuts cells through their
    circumcenters and box corners are cell corners."""
    path = tmp_path / "tight.json"
    io.write_mesh(path, triangulate(SiteSet(points)))
    doc = json.loads(path.read_text())
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    doc["clip_box"] = [format_rational(v)
                       for v in (min(xs), min(ys), max(xs), max(ys))]
    path.write_text(json.dumps(doc))
    return io.read_mesh(path)


_EXTREME = [P(Fraction(1, 10**1000), 0), P(10**1000, 0), P(0, 10**1000),
            P(Fraction(1, 10**1000), Fraction(1, 10**1000))]

LAYOUT_SETS = {
    **{f"generated-{n}": (lambda n=n: harness.generate_sites(n, n)[0].sites)
       for n in (3, 4, 9, 40, 120)},
    **{f"grid-{k}x{k}": (lambda k=k: _shuffled_grid(k)) for k in range(2, 13)},
    "own-scale-sites": lambda: own_denominator_sites(3, 12, 20),
    "own-scale-wheel": lambda: own_denominator_wheel(5, 9, 20),
    "ten-to-the-1000": lambda: _EXTREME,
}


class TestMeshLayout:
    """`write_mesh` writes a mesh document by its own layout: the bytes
    of `json.dumps(mesh_payload(...), sort_keys=True, indent=1)` and a
    newline, as this interpreter writes them."""

    @staticmethod
    def _assert_layout(tmp_path, mesh):
        path = tmp_path / "mesh.json"
        for include_voronoi in (False, True):
            io.write_mesh(path, mesh, include_voronoi=include_voronoi)
            payload = io.mesh_payload(mesh, include_voronoi)
            expected = json.dumps(payload, sort_keys=True, indent=1) + "\n"
            assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("points", LAYOUT_SETS.values(),
                             ids=LAYOUT_SETS.keys())
    def test_bytes_of_json_dumps(self, tmp_path, points):
        self._assert_layout(tmp_path, triangulate(SiteSet(points())))

    @pytest.mark.parametrize("points", [
        lambda: harness.generate_sites(2, 30)[0].sites,
        lambda: _shuffled_grid(5),
    ], ids=["generated-30", "grid-5x5"])
    def test_bytes_of_json_dumps_with_tight_box(self, tmp_path, points):
        mesh = _tight_box_mesh(tmp_path, points())
        assert any(region.clipped for region in mesh.voronoi)
        corners = {v for r in mesh.voronoi for v in r.cell.vertices}
        assert set(mesh.clip_box.corners()) <= corners
        self._assert_layout(tmp_path, mesh)

    @pytest.mark.parametrize("mesh", [
        lambda tmp_path: triangulate(harness.generate_sites(8, 60)[0]),
        lambda tmp_path: triangulate(SiteSet(_shuffled_grid(6))),
        lambda tmp_path: _tight_box_mesh(tmp_path, _shuffled_grid(5)),
    ], ids=["generated-60", "grid-6x6", "grid-5x5-tight-box"])
    def test_each_cell_corner_formatted_once(self, tmp_path, monkeypatch,
                                             mesh):
        # Two values per site, the margin, the four box bounds, and two
        # per distinct cell corner however many cells share it.
        m = mesh(tmp_path)
        formatted = []
        coord = io._coord
        monkeypatch.setattr(
            io, "_coord", lambda v: formatted.append(v) or coord(v)
        )
        io.write_mesh(tmp_path / "mesh.json", m, include_voronoi=True)
        corners = {v for r in m.voronoi for v in r.cell.vertices}
        assert len(formatted) == 2 * len(m.sites) + 5 + 2 * len(corners)


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


class TestConstraintsFile:
    def test_roundtrip(self, tmp_path):
        cs = ConstraintSet.of([(3, 1), (0, 2)])
        path = tmp_path / "constraints.txt"
        path.write_text("# walls\n3,1\n\n 0 , 2  # second\n")
        assert io.read_constraints(path) == cs

    def test_malformed(self, tmp_path):
        path = tmp_path / "constraints.txt"
        path.write_text("1,2\nx,y\n")
        with pytest.raises(ParseError, match=":2"):
            io.read_constraints(path)


@pytest.mark.parametrize("reader, text, message", [
    (io.read_sites, "# c\n\n1,2\n1,2,3 # x\n",
     "{path}:4: expected 'x,y', got '1,2,3 # x'"),
    (io.read_sites, "1,2\n 1 , q \n", "{path}:2: not an exact rational: 'q'"),
    (io.read_constraints, "# c\n0,1\n\n1\n",
     "{path}:4: expected 'p,q' indices, got '1'"),
    (io.read_constraints, "0 , 1, 2 # x\n",
     "{path}:1: expected 'p,q' indices, got '0 , 1, 2 # x'"),
])
def test_line_errors_name_the_file_line_and_text(tmp_path, reader, text,
                                                  message):
    # Comments and blank lines are cut, yet count toward the line number.
    path = tmp_path / "lines.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert str(exc.value) == message.format(path=path)


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

    def test_coordinates_are_rounded_fractions(self):
        # Each coordinate is mapped with integer arithmetic; the text must
        # be that of the float of the exact Fraction, as before.
        rng = random.Random(5)
        mesh = triangulate(SiteSet([
            Point2(Fraction(rng.random()), Fraction(rng.randrange(1000), 3))
            for _ in range(30)
        ]))
        box = mesh.clip_box
        scale = Fraction(960) / max(box.xmax - box.xmin, box.ymax - box.ymin)

        def text(p):
            return (f"{float((p.x - box.xmin) * scale) + 20:.3f},"
                    f"{980 - float((p.y - box.ymin) * scale):.3f}")

        svg = render_svg(mesh, include_voronoi=True)
        assert re.findall(r'<polygon points="([^"]*)"', svg) == [
            " ".join(map(text, r.cell.vertices)) for r in mesh.voronoi
        ]
        assert re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg) == [
            tuple(text(p).split(",")) for p in mesh.sites
        ]
