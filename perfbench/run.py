#!/usr/bin/env python3
"""Benchmark runner for gvs: one workload, one seed, one process.

    python3 perfbench/run.py --workload norms --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``gvs`` from ``src/``. Items are
generated from ``--seed`` and run one at a time (a closed loop) until
``--seconds`` have passed; every output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs a fixed number of items twice untraced, then the same
items again with span wrappers installed (``spans.py``), checks that every
pass gave bitwise-identical outputs and reports the per-layer metrics. The
spans are written to ``perfbench/out/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record provenance and a summary. Exit code 2 means the benchmark refused
to run and printed no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# one thread in all: the item loop is closed and BLAS runs in the caller
BLAS_THREADS = "1"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
TAIL_SAMPLES = 10


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up the workload, run the warm-up item and exit")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def limit_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_gvs():
    if "GVS_GRID_SCALE" in os.environ:
        raise Refused("GVS_GRID_SCALE is set; it rescales every default grid, unset it")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gvs
    except ImportError as exc:
        raise Refused(f"cannot import gvs from {src}: {exc}") from exc
    if Path(gvs.__file__).resolve().parent.parent != src.resolve():
        raise Refused(f"imported gvs from {gvs.__file__}, not from {src}")
    return gvs


def load_spec(spans) -> dict:
    """BENCHMARK.json's metric names and units, checked against this code."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise Refused(f"cannot read BENCHMARK.json: {exc}") from exc
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(e2e) != {"setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb"}:
        raise Refused("BENCHMARK.json end_to_end metrics do not match run.py")
    if layers != dict(spans.per_layer_names()):
        raise Refused("BENCHMARK.json per_layer metrics do not match spans.py")
    return {"end_to_end": e2e, "per_layer": layers}


def provenance(gvs, workload: str, seed: int, n_items: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gvs": gvs.__version__,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "items": n_items,
    }


def run_item(item, gvs, env, rec=None):
    """Time one item's gvs calls, then check its outputs outside the timing.

    Returns (latency_s, outputs, failure or None, oracles applied). An item
    that raises or misses its oracle is a failure; it is counted, never
    retried or skipped.
    """
    from workloads import CheckFailed

    t0 = time.perf_counter()
    try:
        out = item.run(gvs, env)
    except Exception as exc:  # noqa: BLE001 - a failing item is a measured outcome
        return time.perf_counter() - t0, None, f"{item.kind} raised {exc!r}", []
    latency = time.perf_counter() - t0
    try:
        if rec is None:
            applied = item.check(out, gvs, env)
        else:
            with rec.paused():
                applied = item.check(out, gvs, env)
    except CheckFailed as exc:
        return latency, out, f"{item.kind} missed oracle: {exc}", []
    return latency, out, None, applied


def output_bytes(out) -> bytes:
    import numpy as np

    if out is None:
        return b""
    return b"".join(np.ascontiguousarray(np.asarray(v, dtype=float)).tobytes() for v in out)


def setup_once(gvs, wl):
    """Contexts and grids, then the untimed warm-up item. Returns (env, warm-up failure)."""
    env = wl.setup(gvs)
    _, _, failure, _ = run_item(wl.warmup(gvs, env), gvs, env)
    return env, failure


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh processes that import gvs, set up and run the warm-up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return times


def tail_quantile(n: int) -> float:
    """The highest whole percentile with at least TAIL_SAMPLES of n samples
    beyond it (p90 for n = 100), never below the median."""
    return max(0.5, math.floor(100.0 * (1.0 - TAIL_SAMPLES / n) + 1e-9) / 100.0)


def report(spec_units: dict, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in spec_units.items()}


def run_untraced(args, gvs, wl, spec):
    import numpy as np

    setup_times = measure_setup(wl.name)
    env, warm_failure = setup_once(gvs, wl)
    items = wl.items(gvs, env, args.seed)
    latencies, failures, kinds, oracles = [], [], {}, Counter()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        item = next(items)
        latency, _, failure, applied = run_item(item, gvs, env)
        latencies.append(latency)
        kinds.setdefault(item.kind, []).append(latency)
        oracles.update(applied)
        if failure:
            failures.append(failure)
    wall = time.perf_counter() - start
    failed = len(failures)

    n = len(latencies)
    q = tail_quantile(n)
    lat = np.asarray(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": n / float(np.sum(lat)),
        "item_p50_ms": 1e3 * float(np.median(lat)),
        "item_tail_ms": 1e3 * float(np.quantile(lat, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "items": n,
        "tail_quantile": q,
        "fail_frac": failed / n,
        "oracle_share": {k: v / n for k, v in sorted(oracles.items())},
        "kinds": {k: {"items": len(v), "p50_ms": 1e3 * statistics.median(v)}
                  for k, v in sorted(kinds.items())},
        "setup_probes_s": setup_times,
        "wall_s": wall,
    }
    if warm_failure:
        failures.append(f"warm-up: {warm_failure}")
    return n, failures, failed, report(spec["end_to_end"], values), summary


def run_traced(args, gvs, wl, spec):
    from spans import SpanRecorder

    env, warm_failure = setup_once(gvs, wl)
    n = max(1, math.ceil(wl.nominal_rate * args.seconds / 3.0))
    items = list(islice(wl.items(gvs, env, args.seed), n))

    # the first pass only warms the allocator and caches: a first pass over
    # fresh memory runs slower and would make the overhead look negative
    warm = [run_item(item, gvs, env) for item in items]
    t0 = time.perf_counter()
    plain = [run_item(item, gvs, env) for item in items]
    untraced_s = time.perf_counter() - t0

    rec = SpanRecorder()
    rec.install(gvs)
    try:
        t_start = time.perf_counter()
        env_traced = wl.setup(gvs)
        t_items = time.perf_counter()
        traced = [run_item(item, gvs, env_traced, rec) for item in items]
        t_end = time.perf_counter()
    finally:
        rec.uninstall()

    passes = {"first": warm, "untraced": plain, "traced": traced}
    failures = [f"{name} pass: {r[2]}" for name, results in passes.items() for r in results if r[2]]
    failed_items = sum(1 for rs in zip(warm, plain, traced) if any(r[2] for r in rs))
    mismatched = [item.kind for item, *rs in zip(items, warm, plain, traced)
                  if len({output_bytes(r[1]) for r in rs}) > 1]
    if mismatched:
        failures.append(f"outputs differ bitwise between passes on {len(mismatched)} items: {mismatched[:5]}")
    tiled, other = rec.self_time_check(t_end - t_start)
    if not tiled:
        failures.append("span self times plus other.self_s do not sum to the traced wall time")
    if warm_failure:
        failures.append(f"warm-up: {warm_failure}")

    values = rec.metrics(other, (t_end - t_items) - untraced_s)
    summary = {
        "items": n,
        "fail_frac": failed_items / n,
        "traced_wall_s": t_end - t_start,
        "untraced_items_s": untraced_s,
        "bitwise_identical": not mismatched,
        "self_times_tile_wall": tiled,
        "layers_seen": sorted(rec.layer_names_seen()),
    }
    OUT_DIR.mkdir(exist_ok=True)
    rec.save(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.npz", summary)
    return n, failures, failed_items, report(spec["per_layer"], values), summary


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_threads()
    try:
        gvs = import_gvs()
        import spans
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise Refused(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        wl = WORKLOADS[args.workload]
        if args.setup_probe:
            _, failure = setup_once(gvs, wl)
            return 1 if failure else 0
        spec = load_spec(spans)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_untraced
    n, failures, failed, metrics, summary = run(args, gvs, wl, spec)
    for failure in failures[:20]:
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(gvs, wl.name, args.seed, n)}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": not failures, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
