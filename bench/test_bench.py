"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs every workload at minimum length, traced and untraced, and checks
that each declared metric is emitted with its unit; then shows that a
wrong result is counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.prepare_environment()

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    module = __import__(run.WORKLOADS[workload])
    e2e = report["end_to_end"]
    for kind in module.KINDS:
        assert e2e[f"{kind}_ms"] == {"value": e2e[f"{kind}_ms"]["value"],
                                     "unit": "ms"}
        assert e2e[f"{kind}_ms"]["value"] > 0
    assert e2e["failed_frac"] == {"value": 0, "unit": "frac"}
    assert {"git_sha", "nproc", "python", "numpy", "scipy", "blas",
            "blas_threads", "host_ref_loop_ms"} <= set(report["context"])
    if trace:
        assert (ROOT / report["spans_file"]).is_file()
        calls = report["layer_calls"]["requests"]
        idle = {"exact-forms": ("projection", "wps", "charnum", "config"),
                "newton": ("forms", "linalg", "splits", "wps", "charnum",
                           "config"),
                "orbifold": ("forms", "linalg", "splits", "projection")}
        assert all(calls[layer] == 0 for layer in idle[workload]), calls


def test_wrong_results_count_as_failed():
    import exact_forms
    import orbifold
    from common import run_cli

    doc = json.loads((orbifold.CONFIG_DIR / "non_isolated.cfg").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    cfg = run.OUT_DIR / "selftest-relabeled.cfg"
    cfg.write_text(json.dumps(orbifold.relabel(doc, [5, 4, 3, 2, 1, 0])))
    wrong = [
        ("verify", lambda: run_cli(["verify-forms", "--inject-sign-flip"]),
         exact_forms.verify_ok),
        # a negative fixture checked as if it were the golden m1
        ("analyze", lambda: run_cli(["analyze", str(cfg)]),
         orbifold.analyze_ok("m1", "table")),
    ]
    for request in wrong:
        result = run.run_requests(iter([request]), 1e-9, run.new_result())
        assert (result["attempted"], result["failed"]) == (1, 1), request[0]
