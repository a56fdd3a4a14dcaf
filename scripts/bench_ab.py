"""Run a benchmark workload on two source trees in alternating pairs.

    python scripts/bench_ab.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload subordination --seeds 11-20 --seconds 30 --out BENCH_name.json

Each tree runs its own ``perfbench/run.py`` (from the tree's root, so it
imports that tree's ``src/gvs``), once per seed and side. Pair i runs the
parent first when i is even and the change first when i is odd, so a drift
of the host's speed does not favour one side.

The output file holds every run's last JSON line (the result) and the
summary's per-kind p50, and for each end-to-end metric named in
``BENCHMARK.json`` both sides' quartiles, the ratio of the medians (change / parent), the
number of pairs the change won and each side's IQR/median next to the
metric's bound. It states no verdict. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'11-20' -> [11, ..., 20]; '3' -> [3]."""
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def parse_run(stdout: str) -> dict:
    """Result, per-kind p50 and provenance from one ``run.py`` output."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise ValueError("run printed no result line")
    rec = {"result": lines[-1], "kind_p50_ms": {}, "provenance": None}
    for obj in lines[:-1]:
        if "summary" in obj:
            kinds = obj["summary"].get("kinds", {})
            rec["kind_p50_ms"] = {k: v["p50_ms"] for k, v in kinds.items()}
        if "provenance" in obj:
            rec["provenance"] = obj["provenance"]
    return rec


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """Per-metric comparison of the runs; ``specs`` are BENCHMARK.json entries."""
    ok = [r for r in runs if "result" in r]
    pairs = sorted({r["pair"] for r in ok})
    by = {(r["pair"], r["side"]): r for r in ok}
    complete = [p for p in pairs if all((p, side) in by for side in SIDES)]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        vals = {side: [by[p, side]["result"]["metrics"][name]["value"] for p in complete
                       if name in by[p, side]["result"]["metrics"]] for side in SIDES}
        if not all(vals.values()) or len(vals["parent"]) != len(vals["change"]):
            continue
        sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        stats = {side: quartiles(vals[side]) for side in SIDES}
        med_p = stats["parent"]["median"]
        metrics[name] = {
            "unit": spec.get("unit"), "better": spec.get("better"), "bound": spec.get("bound"),
            **stats,
            "ratio_of_medians": stats["change"]["median"] / med_p if med_p else None,
            "change_wins": wins,
            "pairs": len(vals["parent"]),
        }
    kinds = sorted({k for r in ok for k in r["kind_p50_ms"]})
    kind_p50 = {}
    for kind in kinds:
        vals = {side: [r["kind_p50_ms"][kind] for r in ok
                       if r["side"] == side and kind in r["kind_p50_ms"]] for side in SIDES}
        meds = {side: statistics.median(v) if v else None for side, v in vals.items()}
        both = meds["parent"] and meds["change"] is not None
        kind_p50[kind] = {**meds, "ratio": meds["change"] / meds["parent"] if both else None}
    fail_frac = {side: [r["result"]["failed"] / max(1, r["result"]["attempted"])
                        for r in ok if r["side"] == side] for side in SIDES}
    return {"pairs_complete": len(complete), "runs_failed": len(runs) - len(ok),
            "metrics": metrics, "kind_p50_ms_median": kind_p50, "fail_frac": fail_frac}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        return parse_run(proc.stdout)
    except ValueError as exc:
        return {"error": str(exc)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    specs = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    runs = []
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            rec = run_once(trees[side], args.workload, seed, args.seconds)
            rec.update(pair=pair, seed=seed, side=side, first=side == order[0])
            runs.append(rec)
            status = rec.get("error") or json.dumps(
                {k: round(v["value"], 4) for k, v in rec["result"]["metrics"].items()})
            print(f"pair {pair} seed {seed} {side}: {status}", file=sys.stderr, flush=True)
    out = {"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds, **summarize(runs, specs), "runs": runs}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
