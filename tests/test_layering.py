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
