#!/usr/bin/env python3
"""mubkit benchmark: seeded workloads, a correctness gate, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload atomic-mub --seed 1 --seconds 20 --trace 0

The benchmark imports mubkit from ``src/`` next to this directory and
refuses to run without it. It generates the workload's inputs from the
seed (set-up, repeated and timed), runs the workload's operations in a
closed loop with one client for ``--seconds``, gate-checks every result,
and prints one JSON object as its last line of stdout (it exits 1 when
any operation failed the gate):

* ``--trace 0``: the end-to-end metrics, with nothing wrapped; operation
  times are also given in units of a fixed reference kernel timed beside
  them, which cancels the host's speed of the moment;
* ``--trace 1``: the per-layer metrics, from spans recorded around calls
  into mubkit's modules (see ``spans.py``). Traced and untraced loop
  cycles alternate so the tracing overhead is measured in the same run.

Lines before the last describe the environment, the inputs' sha256, every
operation kind's timings and the full layer table. Each run also appends
a full record to ``perfbench/out/results.jsonl`` (or ``--record``), the
input of ``compare.py``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from hashlib import sha256
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("atomic-mub", "sharp-coarse", "unsharp-general", "cli-files")
IMPORT_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120


def load_program():
    """Import mubkit from this checkout's src/, never from anywhere else."""
    pkg = SRC / "mubkit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: mubkit sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import mubkit
    if Path(mubkit.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported mubkit from {mubkit.__file__}, not {pkg}")
    return mubkit


mubkit = load_program()
from mubkit import analysis, cli, fourier, linalg, observables, oracle  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL, Scale  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(cli.ENV_TOL, None)
    return env


# ------------------------------------------------------------- environment

def _git_sha() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_max() -> str:
    """The cgroup v2 cpu.max of this process, or why it could not be read."""
    try:
        with open("/proc/self/cgroup") as fh:
            rel = next((ln.split(":", 2)[2].strip() for ln in fh if ln.startswith("0::")), "/")
    except OSError:
        rel = "/"
    for path in (Path("/sys/fs/cgroup") / rel.lstrip("/") / "cpu.max", Path("/sys/fs/cgroup/cpu.max")):
        try:
            return path.read_text().strip()
        except OSError:
            continue
    return "unavailable"


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cpu_max(),
        "mubkit": mubkit.__version__,
    }


# -------------------------------------------------------------- operations

class PairOp:
    """One in-process classify_pair on a generated pair.

    Each operation gets fresh Observable objects, rebuilt from the seeded
    matrices before its timer starts, so it pays the cold per-object cost
    that `mubkit check` pays on freshly loaded files.
    """

    def __init__(self, pair: workloads.Pair):
        self.pair = pair
        self.kind = pair.kind
        self.input_effects = len(pair.a) + len(pair.b)
        self._first = None
        self._first_problems: list[str] = []

    def prepare(self):
        return tuple(observables.Observable(o.outcomes, [e.matrix.copy() for e in o.effects])
                     for o in (self.pair.a, self.pair.b))

    def execute(self, inputs, in_process: bool):
        return analysis.classify_pair(*inputs)

    def check(self, report) -> list[str]:
        if self._first is None:
            brute = oracle.brute_trace_table(self.pair.a, self.pair.b)
            self._first = report
            self._first_problems = workloads.check_report(
                self.pair, report, linalg.default_tol(self.pair.a.dim), brute)
            return self._first_problems
        if report != self._first:
            return ["report differs from the first classification of the same input"]
        return self._first_problems


class CliOp:
    """One `mubkit` command: a subprocess, or cli.main in-process when traced."""

    def __init__(self, kind: str, argv: list[str], workdir: Path, verify, input_effects: int = 0):
        self.kind = kind
        self.argv = argv
        self.workdir = workdir
        self.verify = verify
        self.input_effects = input_effects

    def prepare(self):
        return None

    def execute(self, inputs, in_process: bool):
        if in_process:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(self.argv)
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "mubkit", *self.argv], cwd=self.workdir,
                              env=child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, outcome) -> list[str]:
        rc, out, err = outcome
        return self.verify(rc, out, err)


class CheckVerifier:
    """`check all` output against an in-process classification of the same pair."""

    def __init__(self, pair: workloads.Pair):
        self.pair = pair
        self._ref = None
        self._ref_problems: list[str] = []

    def __call__(self, rc, out, err) -> list[str]:
        tol = linalg.default_tol(self.pair.a.dim)
        if self._ref is None:
            self._ref = analysis.classify_pair(self.pair.a, self.pair.b, tol)
            brute = oracle.brute_trace_table(self.pair.a, self.pair.b)
            self._ref_problems = workloads.check_report(self.pair, self._ref, tol, brute)
        try:
            doc = json.loads(out)
            report = cli.report_from_json(doc["report"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"check output does not parse as a report ({exc!r}); rc={rc}; stderr: {err[-300:]}"]
        problems = list(self._ref_problems)
        if report != self._ref:
            problems.append("CLI report differs from the in-process report")
        if doc.get("tolerance") != tol:
            problems.append(f"CLI tolerance {doc.get('tolerance')} != {tol}")
        if rc != workloads.expected_exit_code(self._ref):
            problems.append(f"exit code {rc}, expected {workloads.expected_exit_code(self._ref)}")
        return problems


class FileVerifier:
    """An output file equal entrywise to an in-process observable.

    The first output is parsed and compared; later outputs must then be
    byte-identical to it.
    """

    def __init__(self, path: Path, reference):
        self.path = path
        self.reference = reference      # callable giving the expected Observable
        self._verified_digest = None

    def __call__(self, rc, out, err) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}; stderr: {err[-300:]}"]
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            return [f"no output file: {exc}"]
        digest = sha256(data).hexdigest()
        if digest == self._verified_digest:
            return []
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return [f"{self.path.name} is not JSON: {exc}"]
        if not workloads.observable_matches(doc, self.reference()):
            return [f"{self.path.name} differs from the in-process observable"]
        self._verified_digest = digest
        return []


# ------------------------------------------------------------------ set-up

def in_process_setup(build):
    def setup(seed: int, scale: Scale, workdir: Path):
        pairs = build(seed, scale)
        return [PairOp(p) for p in pairs], workloads.inputs_digest(pairs)
    return setup


def cli_setup(seed: int, scale: Scale, workdir: Path):
    pairs = workloads.cli_pairs(seed, scale)
    big = fourier.momentum_observable(scale.cli_big_dim)
    big_path = workdir / f"momentum{big.dim}.json"
    workloads.write_observable(big, big_path)
    checks = []
    for i, pair in enumerate(pairs):
        pa, pb = workdir / f"pair{i}.A.json", workdir / f"pair{i}.B.json"
        workloads.write_observable(pair.a, pa)
        workloads.write_observable(pair.b, pb)
        checks.append(CliOp(f"check/{pair.family}", ["check", "all", str(pa), str(pb)],
                            workdir, CheckVerifier(pair), len(pair.a) + len(pair.b)))

    residues = workloads.residue_partition(big.outcomes, scale.cli_residues)
    spec = "|".join(",".join(fiber) for fiber in residues.fibers().values())
    cg_path = workdir / "coarse.json"
    coarse = CliOp("coarse-grain", ["coarse-grain", str(big_path), spec, "--out", str(cg_path)],
                   workdir, FileVerifier(cg_path, lambda: observables.coarse_grain(big, residues)))
    con_path = workdir / f"constructed{big.dim}.json"
    construct = CliOp("construct", ["construct", "momentum", str(big.dim), "--out", str(con_path)],
                      workdir, FileVerifier(con_path, lambda: big))
    # Reads (check, coarse-grain) sit beside the large write (construct).
    plan = [checks[0], coarse, checks[1], construct, checks[2]]
    return plan, workloads.inputs_digest(pairs, [big])


# Set-up repeats: setup_s is their median. An in-process set-up takes
# about 0.05 s, so it is repeated until the repeats span a second or so
# of the host's drifting speed.
SETUPS = {
    "atomic-mub": (in_process_setup(workloads.atomic_inputs), 25),
    "sharp-coarse": (in_process_setup(workloads.sharp_inputs), 25),
    "unsharp-general": (in_process_setup(workloads.unsharp_inputs), 25),
    "cli-files": (cli_setup, 5),
}


# ------------------------------------------------------------- measurement

# Every REF_EVERY_S of the loop, between two operations, the run times the
# reference kernel (reference.py), the way the workload's operations run:
# in-process, or as a subprocess on cli-files. An operation's time is then
# divided by the median reference time within REF_WINDOW_S of it.
REF_EVERY_S = 0.25
REF_WINDOW_S = 2.0


class Run:
    """One benchmark run: set-up, the closed loop, and the gate's tally."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 scale: Scale, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = spans.Tracer() if traced else None
        self.scale = scale
        self.workdir = workdir
        # cli-files runs the commands as subprocesses, except in the traced
        # run, which must see inside them.
        self.in_process = traced
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # kind -> "plain"/"traced" -> [(start, seconds)]
        self.times: dict[str, dict[str, list[tuple[float, float]]]] = {}
        self.refs: list[tuple[float, float]] = []   # reference kernel (start, seconds)
        self._last_ref = -math.inf
        self.traced_input_effects = 0
        self.setup_times: list[float] = []
        self.digest = None
        self._next_op = 0

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def _traced(self, on: bool, name: str, op: int = -1):
        if not on:
            return nullcontext()
        self.tracer.install(mubkit)
        return self.tracer.span(name, op)

    def setup(self):
        build, repeats = SETUPS[self.workload]
        plan = None
        for _ in range(repeats):
            t0 = perf_counter()
            with self._traced(self.tracer is not None, "bench.setup"):
                plan, digest = build(self.seed, self.scale, self.workdir)
            self.setup_times.append(perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.uninstall()
            self.attempted += 1
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                self._fail("set-up", [f"same seed gave inputs {digest} after {self.digest}"])
        return plan

    def reference(self) -> None:
        t0 = perf_counter()
        if self.workload == "cli-files" and not self.in_process:
            subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")], cwd=self.workdir,
                           env=child_env(), check=True, timeout=SUBPROCESS_TIMEOUT_S)
        else:
            reference.kernel()
        self._last_ref = perf_counter()
        self.refs.append((t0, self._last_ref - t0))

    def one(self, op, traced: bool, timed: bool = True) -> None:
        op_id = self._next_op
        self._next_op += 1
        inputs = op.prepare()
        if perf_counter() - self._last_ref >= REF_EVERY_S:
            self.reference()
        t0 = perf_counter()
        try:
            with self._traced(traced, "bench.op", op_id):
                outcome = op.execute(inputs, self.in_process)
        except Exception:  # an operation that raises is counted, not fatal
            outcome = None
            error = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        self.attempted += 1
        problems = [f"raised {error}"] if outcome is None else op.check(outcome)
        if problems:
            self._fail(f"op {op.kind}", problems)
            return
        if timed:
            self.times.setdefault(op.kind, {"plain": [], "traced": []})[
                "traced" if traced else "plain"].append((t0, dt))
        if traced:
            self.traced_input_effects += op.input_effects

    def loop(self, plan) -> None:
        # Warm-up: lazy imports, BLAS threads and the page cache settle
        # before timing starts. Gate-checked, not timed.
        self.one(plan[0], traced=False, timed=False)
        deadline = perf_counter() + self.seconds
        cycle = 0
        while True:
            traced = self.tracer is not None and cycle % 2 == 0
            for op in plan:
                self.one(op, traced)
            cycle += 1
            # A traced run ends on an untraced cycle, so both kinds are timed.
            if perf_counter() >= deadline and (self.tracer is None or cycle % 2 == 0):
                break
        self.reference()  # so the last operation has a reference after it too

    def normalized(self, samples: list[tuple[float, float]]) -> list[float]:
        """Each operation's time over the median reference time within REF_WINDOW_S of it."""
        starts = [start for start, _ in self.refs]
        out = []
        for start, dt in samples:
            lo = bisect_left(starts, start - REF_WINDOW_S)
            hi = bisect_right(starts, start + dt + REF_WINDOW_S)
            near = self.refs[lo:hi] or self.refs   # none that close: the whole run's
            out.append(dt / statistics.median(ref for _, ref in near))
        return out


def _seconds(samples: list[tuple[float, float]]) -> list[float]:
    return [dt for _, dt in samples]


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


END_TO_END = ("setup_s", "op_p50_ref", "peak_rss_mb")


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(metrics for the result line, further named figures for the log).

    The gated latency, ``op_p50_ref``, is each operation kind's median time
    in reference-kernel units, combined over kinds by geometric mean so the
    mix of kinds in a run does not move it. The wall-clock figures the
    issue names are printed beside it; they follow the host's speed.
    """
    plain = {k: v["plain"] for k, v in run.times.items() if v["plain"]}
    all_times = [dt for v in plain.values() for dt in _seconds(v)]
    usage = resource.RUSAGE_CHILDREN if run.workload == "cli-files" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    extra = {"failed_frac": run.failed / run.attempted}
    if not all_times:  # every operation failed: nothing was measured
        return dict.fromkeys(END_TO_END), extra
    metrics = {
        "setup_s": statistics.median(run.setup_times),
        "op_p50_ref": _geomean([statistics.median(run.normalized(v)) for v in plain.values()]),
        "peak_rss_mb": rss_mb,
    }
    extra["ref_p50_s"] = statistics.median(_seconds(run.refs))
    if run.workload == "cli-files":
        def p50(prefix):
            return _median([dt for k, v in plain.items() if k.startswith(prefix) for dt in _seconds(v)])
        extra.update({
            "cli_check_p50_s": p50("check/"),
            "cli_coarse_grain_p50_s": p50("coarse-grain"),
            "cli_construct_p50_s": p50("construct"),
            "cli_peak_rss_mb": rss_mb,
        })
    else:
        extra.update({"pairs_per_s": len(all_times) / sum(all_times),
                      "pair_p50_s": statistics.median(all_times)})
        if len(all_times) >= 100:  # at least ten samples beyond p90
            extra["pair_p90_s"] = statistics.quantiles(all_times, n=10)[-1]
    return metrics, extra


def import_seconds() -> float:
    """Median time for a fresh interpreter to import mubkit.cli."""
    code = ("import time; t = time.perf_counter(); import mubkit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


# Per-layer metric name -> (function, summary field). "pair" fields are per
# classify_pair call, "setup" fields per set-up.
LAYER_FIELDS = {
    "linalg.hermitian_eig.calls": ("linalg.hermitian_eig", "pair_calls"),
    "linalg.hermitian_eig.s": ("linalg.hermitian_eig", "pair_s"),
    "effects.Effect.calls": ("effects.Effect", "pair_calls"),
    "effects.seq_product.calls": ("effects.seq_product", "pair_calls"),
    "effects.seq_product.s": ("effects.seq_product", "pair_s"),
    "observables.Observable.calls": ("observables.Observable", "pair_calls"),
    "observables.Observable.s": ("observables.Observable", "pair_s"),
    "observables.conditioned.calls": ("observables.conditioned", "pair_calls"),
    "observables.conditioned.s": ("observables.conditioned", "pair_s"),
    "analysis.check_condition1.s": ("analysis.check_condition1", "pair_s"),
    "analysis.check_condition2.s": ("analysis.check_condition2", "pair_s"),
    "analysis.check_value_complementary.s": ("analysis.check_value_complementary", "pair_s"),
    "analysis.check_generalized_mu.s": ("analysis.check_generalized_mu", "pair_s"),
    "analysis.classify_pair.s": ("analysis.classify_pair", "pair_s"),
    "analysis.classify_pair.self_s": ("analysis.classify_pair", "pair_self_s"),
    "setup.linalg.hermitian_eig.calls": ("linalg.hermitian_eig", "setup_calls"),
    "setup.linalg.hermitian_eig.s": ("linalg.hermitian_eig", "setup_s"),
    "setup.observables.Observable.s": ("observables.Observable", "setup_s"),
    "setup.oracle.random_observable.s": ("oracle.random_observable", "setup_s"),
}


def per_layer(run: Run, summary: dict) -> tuple[dict, dict]:
    fns = summary["functions"]
    metrics = {name: fns.get(fn, {}).get(field, 0.0) for name, (fn, field) in LAYER_FIELDS.items()}
    effect_calls = fns.get("effects.Effect", {}).get("pair_calls", 0.0) * summary["pairs"]
    metrics["effects.Effect.per_input_effect"] = effect_calls / max(run.traced_input_effects, 1)
    metrics["cli.import_s"] = import_seconds()
    ratios = [statistics.median(run.normalized(v["traced"]))
              / statistics.median(run.normalized(v["plain"]))
              for v in run.times.values() if v["traced"] and v["plain"]]
    metrics["trace.overhead_frac"] = _geomean(ratios) - 1.0
    extra = {  # layers that only some workloads reach
        "analysis.check_mu.s": fns.get("analysis.check_mu", {}).get("pair_s", 0.0),
        "observables.coarse_grain.s": fns.get("observables.coarse_grain", {}).get("s_per_call", 0.0),
        "observables.conjugate.s": fns.get("observables.conjugate", {}).get("s_per_call", 0.0),
        "fourier.momentum_observable.s": fns.get("fourier.momentum_observable", {}).get("s_per_call", 0.0),
        "oracle.random_unitary.s": fns.get("oracle.random_unitary", {}).get("s_per_call", 0.0),
    }
    for fn in ("cli.load_json", "cli.observable_from_json", "cli.dump_json"):
        row = fns.get(fn, {})
        extra[f"{fn}.s"] = row.get("s_per_call", 0.0)
        if "bytes_per_call" in row:
            extra[f"{fn}.bytes"] = row["bytes_per_call"]
    extra["failed_frac"] = run.failed / run.attempted
    return metrics, extra


UNITS = {"setup_s": "s", "op_p50_ref": "ref", "ref_p50_s": "s", "peak_rss_mb": "MB",
         "failed_frac": "ratio", "pairs_per_s": "pairs/s", "pair_p50_s": "s", "pair_p90_s": "s",
         "cli_check_p50_s": "s", "cli_coarse_grain_p50_s": "s", "cli_construct_p50_s": "s",
         "cli_peak_rss_mb": "MB", "cli.import_s": "s", "trace.overhead_frac": "ratio",
         "effects.Effect.per_input_effect": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    return "s"


def op_row(run: Run, times: dict) -> dict:
    """Timing summary of one operation kind; quartiles need four samples."""
    plain, traced = _seconds(times["plain"]), _seconds(times["traced"])
    row = {"n": len(plain), "p50_s": _median(plain), "min_s": min(plain, default=float("nan")),
           "p50_ref": _median(run.normalized(times["plain"])),
           "n_traced": len(traced), "traced_p50_s": _median(traced)}
    if len(plain) >= 4:
        row["q1_s"], _, row["q3_s"] = statistics.quantiles(plain, n=4)
    return row


def execute(workload: str, seed: int, seconds: float, trace: bool,
            scale: Scale = FULL) -> dict:
    """Run one workload; return the full record (result line, log, layer table)."""
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, seconds, trace, scale, workdir)
        plan = run.setup()
        run.loop(plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "inputs_sha256": run.digest, "env": environment(),
              "ops": {k: op_row(run, v) for k, v in sorted(run.times.items())},
              "problems": run.problems}
    if trace:
        summary = run.tracer.summarize("bench.setup")
        metrics, extra = per_layer(run, summary)
        record["layers"] = summary
        trace_path = OUT / f"trace-{workload}.npz"
        run.tracer.save(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(run)
    record["extra"] = extra
    record["result"] = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return record


def print_record(record: dict) -> None:
    print(f"# perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# env {json.dumps(record['env'])}")
    print(f"# inputs_sha256 {record['inputs_sha256']}")
    for kind, row in record["ops"].items():
        print(f"# op {kind}: n={row['n']} p50={row['p50_s']:.6g} s = {row['p50_ref']:.6g} ref"
              + (f"  traced n={row['n_traced']} p50={row['traced_p50_s']:.6g} s"
                 if row["n_traced"] else ""))
    for fn, row in record.get("layers", {}).get("functions", {}).items():
        print(f"# layer {fn}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
    res = record["result"]
    for name, value in record["extra"].items():
        print(f"# {name} = {value:.6g} {unit_of(name)}")
    print(f"# failed {res['failed']} of {res['attempted']} attempted")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    print(json.dumps(res))


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak RSS is the workload's own."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--record", str(args.record)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=OUT / "results.jsonl",
                        help="JSON-lines file the full record is appended to")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print_record(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
