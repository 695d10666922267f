"""Quick self-check of the benchmark: all four workloads at tiny sizes,
with tracing off and on.

    python3 perfbench/smoke.py

It asserts that each run exits 0 with a correct result and no failed
operation, that the last line carries exactly the metrics BENCHMARK.json
names for the mode with their units, that the results file holds every
end-to-end and per-layer figure the workload reports, and that the
benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import LAYER_REPORT  # noqa: E402

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
END_TO_END = {
    "build-uniform": {"build_s_p50": "s", "sites_per_s": "1/s"},
    "build-grid": {"build_s_p50": "s", "sites_per_s": "1/s"},
    "query": {"load_s_p50": "s", "relate_us_p50": "us", "relate_us_p99": "us",
              "relate_per_s": "1/s"},
    "suite": {"check_s_p50": "s", "trials_per_s": "1/s"},
}


def run(workload: str, trace: int, seed: int = 1) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, (cmd, proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def check_run(contract: dict, workload: str, trace: int) -> None:
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = contract["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)

    saved = json.loads((ROOT / ".perfbench" / "results" /
                        f"{workload}-seed1-trace{trace}.json").read_text())
    figures = saved["end_to_end"]
    for name, unit in {**COMMON, **END_TO_END[workload]}.items():
        assert figures[name][1] == unit, (workload, name, figures.get(name))
    assert figures["error_rate"][0] == 0
    if trace:
        missing = [n for n in LAYER_REPORT if n not in saved["per_layer"]]
        assert not missing, missing
    for key in ("python", "nproc", "seed", "inputs", "operation"):
        assert key in saved["meta"], key


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every workload of run.py, also those BENCHMARK.json does not list.
    for workload in END_TO_END:
        for trace in (0, 1):
            check_run(contract, workload, trace)
            print(f"ok {workload} trace={trace}")
    check_refuses_without_sources()
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
