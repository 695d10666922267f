"""Layering rules read from the library's source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "proximesh"


def scale_none_comparisons(source: str) -> list[int]:
    """Lines that compare a `scale` attribute with None."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(o, ast.Attribute) and o.attr == "scale"
               for o in operands) and any(
            isinstance(o, ast.Constant) and o.value is None for o in operands
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "rational.py"),
)
def test_only_the_lattice_asks_which_scale_rule_holds(module):
    # `rational.Lattice` owns the choice between one shared scale and
    # per-point scales; every other module takes signs through it.
    assert scale_none_comparisons((SRC / module).read_text()) == []


def test_the_rule_finds_scale_comparisons():
    source = ("a = p.scale is None\nb = None is not q.scale\n"
              "c = r.scale == None\nd = p.scales is None\ne = scale is None\n")
    assert scale_none_comparisons(source) == [1, 2, 3]


PER_CALL = {"orient2d", "incircle", "scaled_ints"}


def per_call_predicate_calls(source: str) -> list[int]:
    """Lines that call `orient2d`, `incircle` or `scaled_ints` by name,
    or as an attribute of an imported module."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id in PER_CALL) or (
            isinstance(f, ast.Attribute) and f.attr in PER_CALL
            and ast.unparse(f.value) in imported
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "geometry.py"),
)
def test_signs_take_the_one_lattice_path(module):
    # `geometry.orient2d` and `geometry.incircle` rescale their points on
    # every call; the library takes its signs on `rational.Lattice` by
    # point index, so no other module calls them or `scaled_ints`.
    assert per_call_predicate_calls((SRC / module).read_text()) == []


def test_the_rule_finds_per_call_predicates():
    source = ("from .geometry import orient2d\nfrom . import geometry as g\n"
              "import proximesh.rational\n"
              "a = orient2d(p, q, r)\nb = g.incircle(p, q, r, s)\n"
              "c = proximesh.rational.scaled_ints(x)\n"
              "d = sites.incircle(0, 1, 2, 3)\ne = self.orient(0, 1, 2)\n"
              "f = orient2d\n")
    assert per_call_predicate_calls(source) == [4, 5, 6]


def edges_calls(source: str) -> list[int]:
    """Lines that call an `edges` method."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "edges"]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "mesh.py"),
)
def test_triangle_edges_come_from_the_mesh(module):
    # `Mesh` takes each triangle's `Triangle.edges()` once, as
    # `Mesh.triangle_edges`; every other module reads that table.
    assert edges_calls((SRC / module).read_text()) == []


def test_the_rule_finds_edges_calls():
    source = ("a = tri.edges()\nb = mesh.edges\n"
              "c = mesh.triangles[t].edges()\nd = sorted(sub.edges)\n"
              "e = edges(t)\n")
    assert edges_calls(source) == [1, 3]


MASKS = {"vmask", "emask", "tmask", "_masks"}


def mask_reads(source: str) -> list[int]:
    """Lines that read a subcomplex's bit masks or a mesh's mask tables,
    or pass masks to the `SubComplex` constructor."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in MASKS
                  and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.keyword) and node.arg in MASKS
                  or isinstance(node, ast.Call) and len(node.args) > 1
                  and ast.unparse(node.func).split(".")[-1] == "SubComplex")


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "complexes.py"),
)
def test_only_complexes_reads_the_masks(module):
    # `complexes` owns the bit-mask form of a subcomplex and the mesh
    # tables behind it; every other module reads the frozenset views and
    # makes subcomplexes with `SubComplex.of` and its siblings.
    assert mask_reads((SRC / module).read_text()) == []


def test_the_rule_finds_mask_reads():
    source = ("a = sub.vmask & b\nself._masks = None\n"
              "c = cx.SubComplex(m, tmask=k)\nd = mesh._masks.fan\n"
              "e = getattr(sub, 'emask')\nf = sub.vertices\n"
              "g = cx.SubComplex.of_triangle_set(m, k)\n"
              "h = SubComplex(m, 0, 0, k)\ni = cx.SubComplex(m)\n")
    assert mask_reads(source) == [1, 3, 4, 8]


def lattice_subclasses(source: str) -> list[str]:
    """Classes that name `Lattice` among their bases."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(b).split(".")[-1] == "Lattice"
                    for b in node.bases)]


def test_only_the_site_set_is_a_lattice():
    # A `rational.Lattice` takes signs by point index on a point set that
    # predicates query again and again: the sites. A polygon keeps its
    # own corners and edge lines, and the clip box and `convex_hull`
    # build a lattice rather than being one.
    found = {module.name: lattice_subclasses(module.read_text())
             for module in sorted(SRC.glob("*.py"))}
    assert {m: c for m, c in found.items() if c} == {"mesh.py": ["SiteSet"]}


def test_the_rule_finds_lattice_subclasses():
    source = ("class A(Lattice): pass\nclass B(r.Lattice, C): pass\n"
              "class D(C): pass\nclass E(LatticeView): pass\n")
    assert lattice_subclasses(source) == ["A", "B"]


def lattice_methods() -> set[str]:
    """The names of the methods `rational.Lattice` defines, dunders
    aside, read from its source."""
    tree = ast.parse((SRC / "rational.py").read_text())
    return {f.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Lattice"
            for f in node.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")}


def private_method_calls(source: str, methods: set[str]) -> list[int]:
    """Lines where a module-level function whose name starts with `_`
    calls a method named in `methods`."""
    return sorted(node.lineno for fn in ast.parse(source).body
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name.startswith("_")
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in methods)


def test_visibility_helpers_take_no_lattice_sign():
    # `segment_visible` decides on the `SiteSet`'s lattice `between` and
    # `overlap`; the thm37 audit checks it with `_contact`, on integers
    # of its own, so no private helper of `visibility` may call a
    # `Lattice` method.
    assert private_method_calls((SRC / "visibility.py").read_text(),
                                lattice_methods()) == []


def test_the_rule_finds_private_lattice_calls():
    assert {"between", "overlap", "orient", "scaled"} <= lattice_methods()
    assert "__init__" not in lattice_methods()
    source = ("def _f(s):\n    return s.overlap(0, 1, 2, 3)\n"
              "def g(s):\n    return s.between(0, 1, 2)\n"
              "def _h(s, x):\n    y = sorted(x, key=len)\n"
              "    return s.orient(0, 1, y)\n"
              "def _k(s):\n    return s.sites, math.lcm(2, 3)\n")
    assert private_method_calls(source, lattice_methods()) == [2, 7]


COORDINATES = {"x", "y", "numerator", "denominator"}


def coordinate_reads(source: str) -> list[int]:
    """Lines that read an `x`, `y`, `numerator` or `denominator`
    attribute."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in COORDINATES})


def functions_where(source: str, found) -> set[str]:
    """The module's functions and its classes' methods, named `f` and
    `Class.f`, in whose own source `found` finds a line."""
    tree = ast.parse(source)
    defs = [(f"{node.name}.{f.name}", f) for node in tree.body
            if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef)]
    defs += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    return {name for name, f in defs if found(ast.unparse(f))}


def test_the_lattice_reads_coordinates_only_to_build_and_bound():
    # A `Lattice` reads its points' Fraction coordinates once, to scale
    # them; every query after that, the clip box's bounds among them,
    # runs on the integers. Of its methods, only the two hot predicates,
    # and `scaled` behind them, ask which scale rule holds.
    source = (SRC / "rational.py").read_text()
    reads = {name for name in functions_where(source, coordinate_reads)
             if name.startswith("Lattice.")}
    assert reads == {"Lattice.__init__"}
    assert functions_where(source, scale_none_comparisons) == {
        "Lattice.scaled", "Lattice.orient", "Lattice.incircle"}


def test_the_rule_finds_coordinate_reads_and_scale_rules():
    source = ("class Lattice:\n"
              "    def __init__(self, p):\n        self.w = p.x.denominator\n"
              "    def key(self, i):\n        return self.points[i].y\n"
              "    def nearer(self, c, i):\n"
              "        if self.scale is None:\n            return c.x\n"
              "        def n(k):\n            return k.numerator\n"
              "        return n(c)\n"
              "    def compare(self, i, j):\n"
              "        return None is not self.scale\n"
              "    def center(self, i):\n        return self.lattice[i][0]\n"
              "class Rect:\n    def place(self, p):\n        return p.x\n"
              "def _on_scale(p, w):\n    return p.x.numerator, w.scale\n")
    assert coordinate_reads(source) == [3, 5, 8, 10, 18, 20]
    assert functions_where(source, coordinate_reads) == {
        "Lattice.__init__", "Lattice.key", "Lattice.nearer", "Rect.place",
        "_on_scale"}
    assert functions_where(source, scale_none_comparisons) == {
        "Lattice.nearer", "Lattice.compare"}


def check_records_outside_record(source: str) -> list[int]:
    """Lines that call `CheckRecord` anywhere but in a `record` method of
    a `SuiteResult` class."""
    tree = ast.parse(source)
    allowed = {id(node)
               for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "SuiteResult"
               for f in cls.body
               if isinstance(f, ast.FunctionDef) and f.name == "record"
               for node in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "CheckRecord"
                  and id(node) not in allowed)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_suite_checks_are_recorded_in_one_place(module):
    # `SuiteResult.record` is the one place a suite check becomes a
    # `CheckRecord`; `check` and every suite go through it.
    assert check_records_outside_record((SRC / module).read_text()) == []


def test_the_rule_finds_check_records():
    source = ("class SuiteResult:\n"
              "    def record(self, label, status, detail=''):\n"
              "        self.records.append(CheckRecord(label, status, detail))\n"
              "    def skip(self, label, detail):\n"
              "        self.records.append(CheckRecord(label, PASS, detail))\n"
              "class Other:\n"
              "    def record(self, label):\n"
              "        return hs.CheckRecord(label, PASS)\n"
              "def _suite(result):\n"
              "    result.records.append(CheckRecord('a', FAIL, 'x'))\n"
              "    result.record('b', PASS)\n"
              "r = CheckRecord\n")
    assert check_records_outside_record(source) == [5, 8, 10]


def ring_calls(source: str, allowed: str = "") -> list[int]:
    """Lines that call a `ring` method outside the module-level function
    named `allowed`."""
    tree = ast.parse(source)
    inside = {id(node) for f in tree.body
              if isinstance(f, ast.FunctionDef) and f.name == allowed
              for node in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "ring" and id(node) not in inside)


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "geometry.py"),
)
def test_only_the_clip_reads_the_box_ring(module):
    # `Rect.place` is the one clip-box test. The box's ring of corners
    # and side lines is read only where `mesh.voronoi` cuts cells from it.
    allowed = "voronoi" if module == "mesh.py" else ""
    assert ring_calls((SRC / module).read_text(), allowed) == []


def test_the_rule_finds_ring_calls():
    source = ("def voronoi(mesh):\n    return mesh.clip_box.ring()\n"
              "class Mesh:\n    def centers_inside(self):\n"
              "        return [l for _, l in self.clip_box.ring()]\n"
              "def f(box):\n    return box.ring, box.place(c)\n"
              "g = Rect(0, 0, 1, 1).ring()\n")
    assert ring_calls(source, "voronoi") == [5, 8]
    assert ring_calls(source) == [2, 5, 8]
