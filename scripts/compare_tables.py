"""Compare two `gvs verify --csv` case tables, e.g. before and after a refactor.

    python scripts/compare_tables.py PARENT.csv CHANGE.csv --rel 1e-12

Both tables must hold the same (suite_id, case_id) rows in the same order and
an identical `pass` column, and their `lhs`, `rhs` and `ratio` must agree to
`--rel` relative. Every change of `p_desc` or `q_desc` is listed; labels are
provenance, not results, so a changed label alone is not a mismatch. Exits 1
on any mismatch, 0 otherwise. Uses the standard library only.
"""

import argparse
import csv
import math
import sys

NUMERIC = ("lhs", "rhs", "ratio")
LABELS = ("p_desc", "q_desc")


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def relative_gap(a: str, b: str) -> float:
    """|x - y| / max(|x|, |y|) of two CSV numbers; 0 when they read the same."""
    if a == b:
        return 0.0
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(parent, change, rel):
    """Mismatch messages, label changes and the largest numeric gap."""
    keys_p = [(r["suite_id"], r["case_id"]) for r in parent]
    keys_c = [(r["suite_id"], r["case_id"]) for r in change]
    if keys_p != keys_c:
        missing = sorted(set(keys_p) - set(keys_c))
        extra = sorted(set(keys_c) - set(keys_p))
        what = f"missing {missing[:5]}, extra {extra[:5]}" if missing or extra else "order differs"
        return [f"row keys differ ({len(keys_p)} vs {len(keys_c)} rows): {what}"], [], math.nan
    mismatches, labels, worst = [], [], 0.0
    for rp, rc in zip(parent, change):
        key = f"{rp['suite_id']}/{rp['case_id']}"
        if rp["pass"] != rc["pass"]:
            mismatches.append(f"{key}: pass {rp['pass']} -> {rc['pass']}")
        for col in NUMERIC:
            gap = relative_gap(rp[col], rc[col])
            worst = max(worst, gap)
            if gap > rel:
                mismatches.append(f"{key}: {col} {rp[col]} -> {rc[col]} (rel {gap:.3g})")
        for col in LABELS:
            if rp[col] != rc[col]:
                labels.append(f"{key}: {col} {rp[col]} -> {rc[col]}")
    return mismatches, labels, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="case table of the parent commit")
    ap.add_argument("change", help="case table of the change")
    ap.add_argument("--rel", type=float, default=1e-12,
                    help="largest relative gap allowed in lhs, rhs and ratio")
    args = ap.parse_args(argv)
    parent, change = read_table(args.parent), read_table(args.change)
    mismatches, labels, worst = compare(parent, change, args.rel)
    for line in labels:
        print(f"label  {line}")
    for line in mismatches:
        print(f"MISMATCH  {line}")
    print(f"{len(parent)} vs {len(change)} rows, {len(labels)} label changes, "
          f"{len(mismatches)} mismatches, largest relative gap {worst:.3g}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
