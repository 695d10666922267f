"""The benchmark's contract stays within reach of the library.

`BENCHMARK.json` names per-layer figures that `perfbench/layertrace.py`
derives by wrapping library functions by name, and every timed operation
must reproduce the bytes pinned in `perfbench/reference.json`. A renamed
or deleted function, or an output that drifts by a byte, would only be
noticed when the benchmark runs. These tests read `perfbench/` without
changing it: they check every traced name after one small build and one
suite pass, and rebuild each workload's reference at the measured size.
"""

import importlib.util
import json
import sys
from pathlib import Path

from proximesh.harness import generate_sites, run_suite
from proximesh.mesh import triangulate

ROOT = Path(__file__).resolve().parents[1]
# Derived by perfbench/run.py from a traced and an untraced process.
DERIVED = {"trace.overhead_ratio"}


def _load(name):
    """The module perfbench/<name>.py, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_per_layer_name_is_traced():
    tracer = _load("layertrace").Tracer()
    tracer.install()
    try:
        mesh = triangulate(generate_sites(1, 12)[0])
        mesh.voronoi
        run_suite("all", 1, 1)
    finally:
        tracer.uninstall()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in contract["per_layer"]} - DERIVED
    assert wanted - set(tracer.metrics()) == set()
    assert tracer.metrics()["mesh.triangulate.calls"][0] >= 1


def test_full_size_outputs_match_the_reference(tmp_path):
    workloads = _load("workloads")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name, cls in workloads.WORKLOADS.items():
        wl = cls("full", tmp_path / name, None)
        assert wl.make_reference() == reference["workloads"]["full"][name], name
