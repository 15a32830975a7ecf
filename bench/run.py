"""Closed-loop benchmark of spin7tools.

One client in this process sends one request at a time and checks each
output outside the timed interval.  Usage, from the repository root:

    python3 bench/run.py --workload exact-forms --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
request stream twice, untraced and traced in alternating chunks, and
prints the per-layer metrics.  The next-to-last line of output is a JSON report
with every metric, the run's context and the failures seen; the last
line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = {"exact-forms": "exact_forms", "newton": "newton",
             "orbifold": "orbifold"}
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# The host's speed drifts by tens of percent within a minute, so the
# reference loop is sampled through the run, between requests, once per
# HOST_SAMPLE_EVERY_S of request time.
REF_LOOP_ITERATIONS = 100_000
HOST_SAMPLE_EVERY_S = 0.5
# chunks per half of a traced run (even, for the ABBA order)
TRACE_CHUNKS = 6
# candidate tail percentiles; the highest with ten samples beyond it wins
TAIL_PERCENTILES = (50, 75, 90, 95, 99)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "tail_ms": "ms",
              "peak_rss_mb": "MB"}
# name -> unit.  "<span>.calls" is calls per request, "<span>.self_ms" self
# time per request and "<span>.ms" inclusive time per call; the others are
# computed by name in per_layer_metrics().
PER_LAYER = {
    "forms.wedge.calls": "count", "forms.wedge.self_ms": "ms",
    "forms.hodge_star.calls": "count", "forms.hodge_star.self_ms": "ms",
    "forms.contract.self_ms": "ms",
    "linalg.rref.calls": "count", "linalg.rref.self_ms": "ms",
    "linalg.nullspace.self_ms": "ms",
    "splits.operator_matrix.self_ms": "ms",
    "splits.infinitesimal_action.calls": "count",
    "splits.infinitesimal_action.self_ms": "ms",
    "splits.two_form_split.ms": "ms", "splits.three_form_split.ms": "ms",
    "splits.four_form_split.ms": "ms",
    "splits.stabilizer_dimension.ms": "ms",
    "splits.su4_two_form_refinement.ms": "ms",
    "splits.cylinder_two_form_types.ms": "ms",
    "projection.fourth_exterior_power.calls": "count",
    "projection.fourth_exterior_power.self_ms": "ms",
    "projection.apply_map.calls": "count",
    "projection.apply_map.self_ms": "ms",
    "projection.expm.calls": "count", "projection.expm.self_ms": "ms",
    "projection.iterations": "count", "projection.newton_data_ms": "ms",
    "wps.scan_admissible.self_ms": "ms",
    "wps.singular_strata.calls": "count",
    "wps.singular_strata.self_ms": "ms", "wps.well_formed.self_ms": "ms",
    "wps.isolated_z4_check.self_ms": "ms",
    "wps.involution_check.self_ms": "ms",
    "wps.scan.diagonal_frac": "frac", "wps.scan.accepted_frac": "frac",
    "charnum.hilbert.calls": "count", "charnum.hilbert.self_ms": "ms",
    "charnum.steenbrink_hodge.self_ms": "ms",
    "charnum.euler_characteristics.self_ms": "ms",
    "charnum.noether_pg.self_ms": "ms",
    "config.load_config.self_ms": "ms", "config.analyze.self_ms": "ms",
    "config.rejected_frac": "frac",
    "invariants.compute_report.self_ms": "ms",
    "cli.main.self_ms": "ms", "cli.render_analysis.self_ms": "ms",
    "trace.overhead_frac": "frac", "host.ref_loop_ms": "ms",
}


def prepare_environment():
    """Cap BLAS threads before numpy is first imported, and put the
    checkout's sources first on the module path."""
    if not (ROOT / "src" / "spin7" / "__init__.py").is_file():
        sys.exit(f"no spin7 sources under {ROOT / 'src'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def ref_loop_ms() -> float:
    """Time of one pass of a fixed pure-Python loop: host speed, not
    gated."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000


def measure_setup(workload: str) -> list[float]:
    """Seconds from process start until a fresh process has imported the
    workload's modules and run its one-time set-up, SETUP_PROBES times."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", workload],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


def new_result() -> dict:
    """An empty accumulator for run_requests."""
    return {"latencies": defaultdict(list), "observed": defaultdict(list),
            "attempted": 0, "failed": 0, "busy_s": 0.0, "failures": [],
            "host_ms": []}


def run_requests(stream, until_busy_s: float, result: dict,
                 tracer=None) -> dict:
    """Closed loop: run requests from ``stream`` until the summed latency
    in ``result`` reaches ``until_busy_s``; check each output after its
    timed interval.  ``result`` accumulates, so a run can be measured in
    chunks."""
    while result["busy_s"] < until_busy_s:
        if result["busy_s"] >= len(result["host_ms"]) * HOST_SAMPLE_EVERY_S:
            result["host_ms"].append(ref_loop_ms())
        kind, run, check = next(stream)
        result["attempted"] += 1
        error = None
        with tracer.scope(kind) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                output = run()
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        result["busy_s"] += elapsed
        result["latencies"][kind].append(elapsed)
        if error is None:
            try:
                if not check(output):
                    error = f"wrong output: {str(output)[:300]}"
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is None:
            if kind == "project":
                result["observed"]["iterations"].append(output.iterations)
            elif kind == "analyze":
                result["observed"]["rejected"].append(output[0] == 1)
        else:
            result["failed"] += 1
            if len(result["failures"]) < 5:
                result["failures"].append({"kind": kind, "error": error})
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest candidate percentile with at
    least ten samples beyond it (nearest rank); the median if none has."""
    ordered = sorted(values)
    n = len(ordered)
    best = (50, ordered[(n - 1) // 2])
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-p * n // 100))  # ceil, 1-based
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def end_to_end_metrics(result: dict,
                       setup_samples: list[float]) -> tuple[dict, dict]:
    """Every end-to-end metric with its unit (the gated END_TO_END ones,
    the per-kind medians and ``failed_frac``), and the run's details."""
    all_lat = [x for xs in result["latencies"].values() for x in xs]
    pct, tail_s = tail(all_lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": result["attempted"] / result["busy_s"],
        "tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": result["failed"] / result["attempted"],
    }
    units = dict(END_TO_END, failed_frac="frac")
    details = {"tail_percentile": pct, "tail_samples": len(all_lat),
               "setup_samples_s": setup_samples}
    for kind, values in result["latencies"].items():
        metrics[f"{kind}_ms"] = statistics.median(values) * 1000
        units[f"{kind}_ms"] = "ms"
        details[f"{kind}_count"] = len(values)
        details[f"{kind}_time_share"] = sum(values) / result["busy_s"]
    return with_units(metrics, units), details


def per_layer_metrics(tracer, traced: dict, untraced: dict) -> dict:
    requests = tracer.aggregate(lambda label: label != "setup")
    setup = tracer.aggregate(lambda label: label == "setup")
    n = traced["attempted"]

    def row(span):
        return requests.get(span, {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0})

    scan = tracer.scan_counts
    observed = traced["observed"]
    special = {
        "projection.iterations": statistics.mean(
            observed.get("iterations") or [0]),
        "projection.newton_data_ms": setup.get(
            "projection.type_projector", {"total_s": 0.0})["total_s"] * 1000,
        "wps.scan.diagonal_frac": (scan["diagonal"] / scan["enumerated"]
                                   if scan["enumerated"] else 0.0),
        "wps.scan.accepted_frac": (scan["accepted"] / scan["enumerated"]
                                   if scan["enumerated"] else 0.0),
        "config.rejected_frac": statistics.mean(
            observed.get("rejected") or [0]),
        "trace.overhead_frac": 1 - (
            (traced["attempted"] / traced["busy_s"])
            / (untraced["attempted"] / untraced["busy_s"])),
        "host.ref_loop_ms": statistics.median(traced["host_ms"]),
    }
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif field == "calls":
            metrics[name] = row(span)["calls"] / n
        elif field == "self_ms":
            metrics[name] = row(span)["self_s"] * 1000 / n
        else:  # "ms": inclusive time per call
            calls = row(span)["calls"]
            metrics[name] = row(span)["total_s"] * 1000 / calls if calls else 0.0
    return metrics


def context() -> dict:
    """Where and with what the run was made."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def git_sha():
    """The checked-out commit, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare_environment()
    sys.path.insert(0, str(BENCH_DIR))
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        module.setup()
        print("ready", flush=True)
        return 0

    setup_samples = measure_setup(args.workload)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            with tracer.scope("setup"):
                module.setup()
            tracer.uninstall()
            # Untraced and traced chunks of the same request stream
            # alternate in ABBA order, so that host drift and warm-up fall
            # on both halves alike and trace.overhead_frac measures the
            # tracer.
            result, traced = new_result(), new_result()
            plain_stream = module.requests(args.seed, workdir)
            traced_stream = module.requests(args.seed, workdir)

            def plain_chunk(until):
                run_requests(plain_stream, until, result)

            def traced_chunk(until):
                tracer.install()
                try:
                    run_requests(traced_stream, until, traced, tracer)
                finally:
                    tracer.uninstall()

            for chunk in range(TRACE_CHUNKS):
                until = args.seconds / 2 * (chunk + 1) / TRACE_CHUNKS
                order = ((plain_chunk, traced_chunk) if chunk % 2 == 0
                         else (traced_chunk, plain_chunk))
                for step in order:
                    step(until)
        else:
            module.setup()
            result = run_requests(module.requests(args.seed, workdir),
                                  args.seconds, new_result())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # end-to-end numbers always come from an untraced loop
    e2e, details = end_to_end_metrics(result, setup_samples)
    attempted, failed = result["attempted"], result["failed"]
    failures = result["failures"]
    if args.trace:
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "end_to_end": e2e, "details": details, "failures": failures}
    if args.trace:
        layers = per_layer_metrics(tracer, traced, result)
        report["per_layer"] = layers
        report["layer_calls"] = {
            "requests": tracer.layer_calls(lambda label: label != "setup"),
            "setup": tracer.layer_calls(lambda label: label == "setup")}
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = with_units(layers, PER_LAYER)
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
    report["context"] = dict(context(), host_ref_loop_ms=statistics.median(result["host_ms"]))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
