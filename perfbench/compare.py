#!/usr/bin/env python3
"""Compare benchmark results of a parent and a change.

Collect alternating pairs of runs of two checkouts that hold the same
benchmark (both at their root, each with its own ``src/``)::

    python3 perfbench/compare.py collect PARENT_ROOT CHANGE_ROOT \\
        --workload atomic-mub --pairs 10 --out DIR

Judge two result sets (JSON-lines records written by ``run.py``)::

    python3 perfbench/compare.py judge DIR/parent.jsonl DIR/change.jsonl

The judgement applies, per workload and end-to-end metric, the rule for a
small sandbox: a gain needs the change to win at least 9/10 of the pairs
(ties count for neither) and the medians to differ by more than the
parent's interquartile distance; a metric whose spread on either side
exceeds its bound is "unresolved" unless every change run beats every
parent run; otherwise the change may be no worse than the parent's median
by more than the bound.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1000   # pair i runs seed FIRST_SEED + i on both sides


def load_spec() -> tuple[dict, int]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def read_results(path: Path) -> dict[str, list[dict]]:
    """Untraced results by workload, in the order they were run."""
    by_workload = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    by_workload[rec["workload"]].append(rec)
    return by_workload


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def judge_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric on one workload; run i of each side forms pair i."""
    sign = 1.0 if better == "higher" else -1.0
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    spread_p = (p3 - p1) / abs(pm)
    spread_c = (c3 - c1) / abs(cm)
    worse_by = -sign * (cm - pm) / abs(pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    row = {"pairs": n, "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
           "change_median": cm, "change_q1": c1, "change_q3": c3, "wins": wins,
           "spread_parent": spread_p, "spread_change": spread_c, "worse_by": worse_by}
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (cm - pm) > (p3 - p1)):
        row["verdict"] = "gain"
    elif max(spread_p, spread_c) > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def judge(parent_path: Path, change_path: Path) -> list[dict]:
    metrics, _ = load_spec()
    parent, change = read_results(parent_path), read_results(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for name, m in metrics.items():
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            if min(len(pv), len(cv)) < 2:
                continue
            row = judge_metric(pv, cv, m["better"], m["bound"])
            row.update(workload=workload, metric=name)
            rows.append(row)
        failed_p = sum(r["result"]["failed"] for r in p_runs)
        failed_c = sum(r["result"]["failed"] for r in c_runs)
        if failed_c > failed_p:  # a gain does not count when more operations fail
            for row in rows:
                if row["workload"] == workload and row["verdict"] == "gain":
                    row["verdict"] = "no gain (more failures)"
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<16} {'metric':<12} {'n':>3} {'parent p50 [q1,q3]':>34} "
          f"{'change p50 [q1,q3]':>34} {'wins':>5}  verdict")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<12} {r['pairs']:>3} "
              f"{r['parent_median']:>12.6g} [{r['parent_q1']:.6g},{r['parent_q3']:.6g}] "
              f"{r['change_median']:>12.6g} [{r['change_q1']:.6g},{r['change_q3']:.6g}] "
              f"{r['wins']:>5}  {r['verdict']}")


def bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / BENCH_DIR.name).glob("*.py")) + [root / "BENCHMARK.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(parent_root: Path, change_root: Path, workload: str, pairs: int,
            seconds: int, out: Path) -> None:
    """Alternate parent and change runs, swapping which goes first each pair."""
    if bench_digest(parent_root) != bench_digest(change_root):
        raise SystemExit("error: the two checkouts hold different benchmark code")
    out.mkdir(parents=True, exist_ok=True)
    sides = [("parent", parent_root), ("change", change_root)]
    for i in range(pairs):
        for label, root in (sides if i % 2 == 0 else sides[::-1]):
            cmd = [sys.executable, str(root / BENCH_DIR.name / "run.py"), "--workload", workload,
                   "--seed", str(FIRST_SEED + i), "--seconds", str(seconds), "--trace", "0",
                   "--record", str((out / f"{label}.jsonl").resolve())]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"error: {label} run {i} exited {proc.returncode}:\n"
                                 f"{(proc.stdout + proc.stderr)[-2000:]}")
            print(f"pair {i} {label}: {proc.stdout.strip().splitlines()[-1]}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_col = sub.add_parser("collect", help="run alternating pairs of parent and change")
    p_col.add_argument("parent_root", type=Path)
    p_col.add_argument("change_root", type=Path)
    p_col.add_argument("--workload", required=True)
    p_col.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p_col.add_argument("--out", type=Path, required=True)
    p_jud = sub.add_parser("judge", help="apply the comparison rule to two result sets")
    p_jud.add_argument("parent", type=Path)
    p_jud.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        _, seconds = load_spec()
        collect(args.parent_root, args.change_root, args.workload, args.pairs, seconds, args.out)
        return 0
    rows = judge(args.parent, args.change)
    print_rows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
