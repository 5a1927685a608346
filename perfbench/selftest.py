#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark. Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload at tiny input sizes for a fraction of a second and
checks that:

* each trace mode prints, as its last line, exactly the metrics that
  BENCHMARK.json names for it, with ``correct`` true and nothing failed;
* the same seed gives the same inputs and another seed different ones;
* a deliberately wrong expected verdict is caught: ``failed_frac`` > 0;
* ``compare.py judge`` tells a gain, a regression and an unresolved
  metric apart.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import sys
from contextlib import redirect_stdout
from io import StringIO

import compare
import run
import workloads
from workloads import TINY

SECONDS = 0.2
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def printed_result(record: dict) -> tuple[dict, dict]:
    buf = StringIO()
    with redirect_stdout(buf):
        run.print_record(record)
    lines = buf.getvalue().splitlines()
    return json.loads(lines[-1]), record["extra"]


def check_metrics(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record = run.execute(workload, 1, SECONDS, bool(trace), TINY)
            result, _ = printed_result(record)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: result keys")
            expect(got == expected, f"{workload} trace={trace}: every {section} metric, with its unit"
                   + ("" if got == expected else f" (differs: {set(got) ^ set(expected)})"))
            expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                   f"{workload} trace={trace}: values are numbers")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, {result['failed']} of "
                   f"{result['attempted']} failed {record['problems'][:1]}")


def check_seed_determinism() -> None:
    first = workloads.inputs_digest(workloads.sharp_inputs(7, TINY))
    again = workloads.inputs_digest(workloads.sharp_inputs(7, TINY))
    other = workloads.inputs_digest(workloads.sharp_inputs(8, TINY))
    expect(first == again, "same seed, same inputs sha256")
    expect(first != other, "another seed, other inputs")


def check_wrong_expectation_fails() -> None:
    saved = workloads.EXPECTED["mub"]
    verdicts, flags = saved
    workloads.EXPECTED["mub"] = ((verdicts[0], verdicts[1], not verdicts[2]) + verdicts[3:], flags)
    try:
        record = run.execute("atomic-mub", 1, SECONDS, False, TINY)
    finally:
        workloads.EXPECTED["mub"] = saved
    result, extra = printed_result(record)
    expect(result["failed"] > 0 and not result["correct"] and extra["failed_frac"] > 0,
           f"a wrong expected verdict is caught (failed_frac {extra['failed_frac']:.3f})")


def check_judge() -> None:
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [0.5, 1.5, 0.7, 1.4, 0.6, 1.3, 0.8, 1.2, 0.5, 1.5]
    expect(compare.judge_metric(parent, faster, "lower", 0.2)["verdict"] == "gain",
           "judge: a consistent 20% speed-up is a gain")
    expect(compare.judge_metric(parent, slower, "lower", 0.2)["verdict"] == "regression",
           "judge: a 30% slow-down beyond a 0.2 bound is a regression")
    expect(compare.judge_metric(parent, noisy, "lower", 0.2)["verdict"] == "unresolved",
           "judge: a spread wider than the bound is unresolved")
    expect(compare.judge_metric(parent, parent, "lower", 0.2)["verdict"] == "no regression",
           "judge: identical runs are no regression")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_seed_determinism()
    check_wrong_expectation_fails()
    check_judge()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
