"""lrlattice benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lattice-sweep --seed 3 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run is a closed loop with one client: each request is
sent only after the previous one returned.  Requests come in passes of fixed
composition (see ``workloads.py``); passes run until the next one would end
more than half a pass after ``--seconds`` (at least one pass runs).
Latency statistics pool the requests of all passes.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics from the span
recorder in ``spans.py``.  The last stdout line is the result object; the
line before it holds the environment and run details.  Per-request numbers
go to ``.perfbench_out/`` in the checkout so two commits can be compared.

``--write-reference N`` regenerates ``reference/<workload>.json`` from the
first N passes of the shipped seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference")

# The seed whose per-request numbers are committed under reference/.
SHIPPED_SEED = 0
SETUP_PROBES = 9
MAX_PASSES = 200


def _import_program():
    """Import lrlattice from this checkout's src/, or exit with status 1."""
    if not os.path.isfile(os.path.join(SRC, "lrlattice", "__init__.py")):
        sys.exit(f"perfbench: no lrlattice sources under {SRC}")
    sys.path.insert(0, SRC)
    import lrlattice

    if os.path.dirname(os.path.dirname(os.path.abspath(lrlattice.__file__))) != SRC:
        sys.exit(f"perfbench: imported lrlattice from {lrlattice.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", type=int, metavar="PASSES")
    return parser.parse_args(argv)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import and build the first pass."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in 50 ms sleeps and the
        # measured time snaps to that grid.
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes when it is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "LRLATTICE_THREADS": os.environ.get("LRLATTICE_THREADS"),
        "seed": seed,
    }


def _run_passes(workload, seed, seconds, runner, fixed_passes=None):
    from checks import check_dyson_orders
    from workloads import make_pass

    passes = []
    loop_start = time.perf_counter()
    while len(passes) < (fixed_passes or MAX_PASSES):
        requests = make_pass(workload, seed, len(passes))
        start = time.perf_counter()
        records = [runner.run(request) for request in requests]
        wall = time.perf_counter() - start
        for request_id, problem in check_dyson_orders(requests, records).items():
            record = next(r for r in records if r["id"] == request_id)
            if record["outcome"] == "ok":
                record["outcome"] = problem
        passes.append({"wall": wall, "records": records, "rss_mb": _rss_mb()})
        # Another pass starts only if, at the mean pass length, it would end
        # at most half a pass after --seconds: runs then last --seconds on
        # average, whatever the pass length.
        elapsed = time.perf_counter() - loop_start
        if fixed_passes is None and elapsed + 0.5 * elapsed / len(passes) > seconds:
            break
    return passes, time.perf_counter() - loop_start


def _compare_reference(workload, seed, passes):
    """Mark records whose numbers differ from the committed reference."""
    from checks import compare_numbers

    if seed != SHIPPED_SEED:
        return 0
    with open(os.path.join(REFERENCE, f"{workload}.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["numbers"]
    compared = 0
    for record in (r for p in passes for r in p["records"]):
        if record["id"] not in reference or record["outcome"] != "ok":
            continue
        compared += 1
        problem = compare_numbers(record["numbers"], reference[record["id"]])
        if problem:
            record["outcome"] = f"reference mismatch: {problem}"
    return compared


def _order_statistic(values: list[float], level: float) -> tuple[float, int]:
    """The value at percentile ``100 * level`` and how many values lie beyond it."""
    ordered = sorted(values)
    rank = min(max(math.ceil(level * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[rank], len(ordered) - rank - 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(workload, passes, setup) -> tuple[dict, dict]:
    from workloads import TAIL_LEVEL

    latencies = [r["seconds"] for p in passes for r in p["records"]]
    tail, beyond = _order_statistic(latencies, TAIL_LEVEL[workload])
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(statistics.fmean(p["wall"] for p in passes), "s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_tail_s": _metric(tail, "s"),
        # The high-water mark when the first pass ends: later passes start
        # from a grown heap, and their number depends on the program's speed.
        "peak_rss_mb": _metric(passes[0]["rss_mb"], "MB"),
    }
    details = {
        "latency_requests": len(latencies),
        "tail_percentile": 100.0 * TAIL_LEVEL[workload],
        "tail_beyond": beyond,
        "requests_per_pass": len(passes[0]["records"]),
        "pass_walls_s": [p["wall"] for p in passes],
        "setup_samples_s": setup,
    }
    return metrics, details


def _per_layer(recorder, passes, loop_wall, cpu_s) -> dict:
    from spans import COUNTERS, per_span_cost

    n = len(passes)
    metrics = {}
    for name, (self_s, calls) in sorted(recorder.self_times().items()):
        metrics[f"{name}.self_s"] = _metric(self_s / n, "s")
        metrics[f"{name}.calls"] = _metric(calls / n, "count")
    for name, unit in COUNTERS:
        metrics[name] = _metric(recorder.counters.get(name, 0.0) / n, unit)
    metrics["lattice.ball_sites.hit_ratio"] = _metric(recorder.ball_sites_hit_ratio(), "ratio")
    metrics["fock.max_dim"] = _metric(recorder.max_dim, "count")
    metrics["process.cpu_s"] = _metric(cpu_s / n, "s")
    metrics["process.cpu_per_wall"] = _metric(cpu_s / loop_wall, "ratio")
    metrics["trace.overhead_s"] = _metric(len(recorder.spans) * per_span_cost() / n, "s")
    return metrics


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make_pass

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}")
    _import_program()
    if args.setup_probe:
        make_pass(args.workload, args.seed, 0)
        return 0

    from checks import Runner

    # Set-up is an end-to-end metric, so only the untraced run measures it.
    timed = not (args.trace or args.write_reference)
    setup = _setup_seconds(args.workload, args.seed) if timed else []
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
        runner = Runner(workdir, call=recorder.run_request)
    else:
        runner = Runner(workdir)
    try:
        cpu_start = _cpu_seconds()
        seed = SHIPPED_SEED if args.write_reference else args.seed
        passes, loop_wall = _run_passes(
            args.workload, seed, args.seconds, runner, fixed_passes=args.write_reference
        )
        cpu_s = _cpu_seconds() - cpu_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p["records"]]
    if args.write_reference:
        return _write_reference(args.workload, records)
    compared = _compare_reference(args.workload, args.seed, passes)
    failed = [r for r in records if r["outcome"] != "ok"]
    if recorder is None:
        metrics, details = _end_to_end(args.workload, passes, setup)
    else:
        metrics = _per_layer(recorder, passes, loop_wall, cpu_s)
        details = {"patched": recorder.patched_sites()}
    details.update(
        workload=args.workload,
        trace=args.trace,
        passes=len(passes),
        loop_wall_s=loop_wall,
        reference_compared=compared,
        failures=[{"id": r["id"], "outcome": r["outcome"]} for r in failed],
        environment=_environment(args.seed),
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump({"details": details, "metrics": metrics, "records": records}, handle, indent=1)
    if recorder is not None:
        recorder.write(os.path.join(OUT, f"{stem}.spans.jsonl.gz"))
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def _write_reference(workload: str, records: list[dict]) -> int:
    bad = [r for r in records if r["outcome"] != "ok"]
    if bad:
        print(json.dumps(bad[:5], indent=1), file=sys.stderr)
        sys.exit(f"perfbench: {len(bad)} failed requests; reference not written")
    os.makedirs(REFERENCE, exist_ok=True)
    path = os.path.join(REFERENCE, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": SHIPPED_SEED, "numbers": {r["id"]: r["numbers"] for r in records}},
            handle,
            indent=1,
        )
        handle.write("\n")
    print(f"wrote {len(records)} reference records to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
