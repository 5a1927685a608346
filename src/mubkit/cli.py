"""Command-line entry point and the JSON file formats it reads and writes.

Layout of an observable file::

    {"dim": 2, "outcomes": ["0", "1"], "effects": [[[..re, im..], ...], ...]}

Every complex entry is a two-element array [re, im]; effect matrices are
row-major. ``observable_from_json`` is the one reader of such a document.
A report file holds the tool name/version, the input paths, the
tolerance used and the ``analysis.PairReport``: its fields in dataclass
order, with the five verdicts nested under ``"verdicts"`` and ``flags`` as
a list. ``report_from_json`` rebuilds the report losslessly.

Every file and stdout document is exactly
``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``: one number per
line. Matrices are not turned into nested lists for that: the writer reads
the (m, d, d) complex stack through its [re, im] float view, formats each
distinct float bit pattern once with ``float.__repr__``, picks the text
between two numbers from how many trailing axes roll over there, and
joins it all in one pass. Everything else (``dim``, labels, reports) goes
through ``json.dumps``.

Exit codes: 0 success (requested predicate holds), 1 predicate fails,
2 input or validation error, including an input too large to build in
memory. Stdout carries JSON only; all human-oriented text goes to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, analysis, linalg
from .errors import (
    BadPartition,
    DimMismatch,
    InvalidDim,
    MubkitError,
    NotAtomic,
    ParseError,
)
from .fourier import example_partitions, fourier_matrix, momentum_observable, position_observable
from .observables import Observable, PartitionMap, coarse_grain

ENV_TOL = "MUBKIT_TOL"


# ---------------------------------------------------------------- encoding

def _float_pairs(m: np.ndarray) -> np.ndarray:
    """The [re, im] float view of a complex array: shape (..., 2), the same bits."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)


def _observable_document(obs: Observable) -> dict:
    """The fields of an observable file, with the effects as one float array."""
    return {"dim": obs.dim, "outcomes": list(obs.outcomes), "effects": _float_pairs(obs.stack())}


def declared_dim(obj) -> int:
    """The ``"dim"`` of an observable document: a positive int, not a bool, equal to
    the row count of the first effect, so that a huge ``"dim"`` is rejected before a
    default tolerance of 1e-9 * dim is computed from it. The document must be an object
    with the three fields, ``"effects"`` a nonempty list."""
    if not (isinstance(obj, dict) and {"dim", "outcomes", "effects"} <= obj.keys()):
        raise ParseError('not an observable file: it needs an object with "dim", "outcomes" '
                         'and "effects"')
    dim, effects = obj["dim"], obj["effects"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"\"dim\" must be a positive integer, got {dim!r}")
    if not (isinstance(effects, list) and effects and isinstance(effects[0], list)):
        raise ParseError("\"effects\" must be a nonempty list of matrices")
    if len(effects[0]) != dim:
        raise DimMismatch(f"declared dim {dim}, first effect has {len(effects[0])} rows")
    return dim


def observable_from_json(obj, tol: float | None = None) -> Observable:
    """The observable of a parsed observable document, validated at ``tol``.

    After ``declared_dim`` and the labels, every effect's rows of [re, im]
    pairs are flattened and checked by type in one pass, then read as
    floats by numpy into the (m, dim, dim) stack, with no Python loop per
    entry. The type check rejects true and false, which ``float`` would take
    as 1 and 0.
    """
    dim = declared_dim(obj)
    labels, effects = obj["outcomes"], obj["effects"]
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise ParseError("\"outcomes\" must be a list of string labels")
    try:
        rows = list(chain.from_iterable(effects))
        pairs = list(chain.from_iterable(rows))
        values = list(chain.from_iterable(pairs))
    except TypeError as exc:
        raise ParseError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    kinds = set(map(type, values)) - {int, float}
    if kinds:
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise ParseError(f"matrix entries must be numbers, got {names}")
    if set(map(len, pairs)) != {2}:
        raise ParseError("matrix entries must be [re, im] pairs")
    lengths = set(map(len, effects)) | set(map(len, rows))
    if lengths != {dim}:
        raise ParseError(f"effects must be {dim} x {dim} matrices, got lengths {sorted(lengths)}")
    try:
        stack = np.array(values, dtype=float).view(complex).reshape(len(effects), dim, dim)
    except OverflowError as exc:
        raise ParseError(f"matrix entries must be finite floats: {exc}") from exc
    return Observable(labels, stack, tol)


def load_json(path: str):
    """Parse a JSON file; bytes that are not UTF-8, malformed JSON, nesting too
    deep for the decoder and integer literals past Python's digit limit are
    all a ParseError (the first, second and last are ValueErrors)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _array_text(values: np.ndarray, level: int) -> str:
    """A float64 array of nonzero extents as json.dumps(indent=2) lays out
    its nested lists when they sit at nesting ``level``.

    Each distinct bit pattern is formatted once by ``float.__repr__``, the
    encoder's own float format (so -0.0 stays "-0.0"). The text between two
    consecutive numbers depends only on how many trailing axes roll over
    there: close that many lists, a comma, open as many again.
    """
    ndim = values.ndim
    pad = ["\n" + "  " * (level + j) for j in range(ndim + 1)]
    seps = ["".join(pad[j] + "]" for j in range(ndim - 1, ndim - 1 - r, -1)) + ","
            + "".join(pad[j] + "[" for j in range(ndim - r, ndim)) + pad[ndim]
            for r in range(ndim)]
    rollover = np.zeros(values.shape, dtype=np.intp)
    for k in range(1, ndim):
        rollover[(Ellipsis,) + (0,) * k] += 1
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    numbers = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    parts = np.empty(2 * values.size + 1, dtype=object)
    parts[0] = "[" + "".join(pad[j] + "[" for j in range(1, ndim)) + pad[ndim]
    parts[1::2] = numbers[which.ravel()]
    parts[2:-1:2] = np.array(seps, dtype=object)[rollover.ravel()[1:]]
    parts[-1] = "".join(pad[j] + "]" for j in range(ndim - 1, -1, -1))
    return "".join(parts.tolist())


def _document_text(doc) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=False)``, with the float
    arrays among the values of a top-level dict written by ``_array_text``."""
    if not (isinstance(doc, dict) and any(isinstance(v, np.ndarray) for v in doc.values())):
        return json.dumps(doc, indent=2, ensure_ascii=False)
    items = (json.dumps(key, ensure_ascii=False) + ": "
             + (_array_text(value, 1) if isinstance(value, np.ndarray)
                else json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  "))
             for key, value in doc.items())
    return "{\n  " + ",\n  ".join(items) + "\n}"


def dump_json(obj, out: str | None) -> None:
    """Write ``obj`` as indented JSON to the file ``out``, or to stdout when
    it is None. The float arrays among a top-level dict's values (an
    observable's effects, a Fourier matrix) are written as their nested lists."""
    text = _document_text(obj) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ------------------------------------------------------------------ report

#: The verdict fields of ``analysis.PairReport``, in field order.
_VERDICTS = ("mu", "value_complementary", "condition1", "condition2", "generalized_mu")


def report_to_json(report: analysis.PairReport) -> dict:
    """``dataclasses.asdict(report)`` with the verdicts nested under "verdicts"."""
    doc = {}
    for key, value in dataclasses.asdict(report).items():
        (doc.setdefault("verdicts", {}) if key in _VERDICTS else doc)[key] = value
    return {**doc, "flags": list(report.flags)}


def report_from_json(obj) -> analysis.PairReport:
    """The report that ``report_to_json`` wrote; a witness ``state`` becomes
    a tuple of pairs again."""
    fields = {key: value for key, value in obj.items() if key != "verdicts"}
    for name in _VERDICTS:
        verdict = obj["verdicts"][name]
        if verdict is not None:
            witness = verdict["witness"]
            if witness is not None and "state" in witness:
                witness = {**witness, "state": tuple(map(tuple, witness["state"]))}
            verdict = analysis.Verdict(**{**verdict, "witness": witness})
        fields[name] = verdict
    return analysis.PairReport(**{**fields, "flags": tuple(obj["flags"])})


def resolve_tol(flag_value: float | None, dim: int) -> float:
    """Tolerance resolution order: --tol flag, MUBKIT_TOL env var, 1e-9 * dim.
    ``linalg.tols`` rejects a tolerance that is not finite and positive."""
    tol = flag_value
    if tol is None:
        env = os.environ.get(ENV_TOL)
        try:
            tol = float(env) if env else None
        except ValueError as exc:
            raise ParseError(f"{ENV_TOL}={env!r} is not a number") from exc
    return linalg.tols(dim, tol)[0]


# ---------------------------------------------------------------- commands

def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_construct(args) -> int:
    n = args.N
    if args.kind in ("example5", "example6"):
        if n != 4:
            raise InvalidDim(f"kind {args.kind!r} is defined for N=4, got {n}")
        if args.out is None:
            raise ParseError("--out is required for the two-observable kinds")
        q_half, p_parity, p_half = example_partitions()
        stem = Path(args.out)
        if stem.suffix == ".json":
            stem = stem.with_suffix("")
        second = ("pprime", p_parity) if args.kind == "example5" else ("pdprime", p_half)
        for tag, obs in (("qprime", q_half), second):
            path = f"{stem}.{tag}.json"
            dump_json(_observable_document(obs), path)
            _info(f"wrote {path}")
        return 0
    if args.kind == "fourier":
        obj = {"dim": n, "matrix": _float_pairs(fourier_matrix(n))}
    elif args.kind == "position":
        obj = _observable_document(position_observable(n))
    else:
        obj = _observable_document(momentum_observable(n))
    dump_json(obj, args.out)
    if args.out is not None:
        _info(f"wrote {args.out}")
    return 0


#: The predicates of ``check``, in stderr order; a report field is a name with "_" for "-".
_PREDICATES = ("mu", "condition1", "condition2", "value-complementary", "generalized-mu")


def load_observables(paths: list[str], flag_tol: float | None) -> tuple[float, list[Observable]]:
    """The load step of ``check`` and ``coarse-grain``: each file's document and
    declared dimension, which must agree; the tolerance (``resolve_tol``); then
    each file's observable at that tolerance. An error in a file names it."""
    docs = [load_json(path) for path in paths]
    dims = [_in_file(path, declared_dim, doc) for path, doc in zip(paths, docs)]
    if len(set(dims)) > 1:
        raise DimMismatch(f"dims {dims[0]} and {dims[1]} differ")
    tol = resolve_tol(flag_tol, dims[0])
    return tol, [_in_file(path, observable_from_json, doc, tol) for path, doc in zip(paths, docs)]


def _in_file(path: str, read, *args):
    """``read(*args)``, with ``path`` in front of the message of a mubkit error it raises."""
    try:
        return read(*args)
    except MubkitError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_check(args) -> int:
    tol, (a, b) = load_observables([args.fileA, args.fileB], args.tol)
    report = analysis.classify_pair(a, b, tol)
    verdicts = {name: getattr(report, name.replace("-", "_")) for name in _PREDICATES}
    if args.predicate == "all":
        ok = all(v.holds for v in verdicts.values() if v is not None)
    elif verdicts[args.predicate] is None:
        raise NotAtomic("mu requires two atomic observables")
    else:
        ok = verdicts[args.predicate].holds

    dump_json({
        "tool": {"name": "mubkit", "version": __version__},
        "inputs": [args.fileA, args.fileB],
        "tolerance": tol,
        "report": report_to_json(report),
    }, None)
    for name, v in verdicts.items():
        if v is None:
            _info(f"{name}: not applicable")
        else:
            _info(f"{name}: {'holds' if v.holds else 'FAILS'} (max deviation {v.max_deviation:.3e})")
    if report.flags:
        _info(f"flags: {', '.join(report.flags)}")
    return 0 if ok else 1


def parse_partition_spec(spec: str, outcomes: tuple[str, ...]) -> PartitionMap:
    """Turn '0,1|2,3' into a partition of the given outcome labels."""
    fibers = [[lab.strip() for lab in chunk.split(",")] for chunk in spec.split("|")]
    flat = [lab for fiber in fibers for lab in fiber]
    if any(lab == "" for lab in flat):
        raise BadPartition(f"empty label in spec {spec!r}")
    unknown = set(flat) - set(outcomes)
    if unknown:
        raise BadPartition(f"unknown outcome(s) {sorted(unknown)}")
    if len(set(flat)) != len(flat):
        dupes = sorted({lab for i, lab in enumerate(flat) if lab in flat[:i]})
        raise BadPartition(f"outcome(s) {dupes} appear in more than one fiber")
    missing = set(outcomes) - set(flat)
    if missing:
        raise BadPartition(f"outcome(s) {sorted(missing)} not covered")
    targets = tuple(str(i) for i in range(len(fibers)))
    mapping = {lab: str(i) for i, fiber in enumerate(fibers) for lab in fiber}
    return PartitionMap(outcomes, targets, mapping)


def cmd_coarse_grain(args) -> int:
    tol, (obs,) = load_observables([args.fileA], args.tol)
    pmap = parse_partition_spec(args.partition, obs.outcomes)
    merged = coarse_grain(obs, pmap, tol)
    dump_json(_observable_document(merged), args.out)
    if args.out is not None:
        _info(f"wrote {args.out}")
    return 0


def cmd_paper_suite(args) -> int:
    if args.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer, got {args.seed}")
    from .paper_suite import run_paper_suite  # only this command pays for the fixture table

    results = run_paper_suite(seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        _info(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    passed = all(r.passed for r in results)
    _info(f"{sum(r.passed for r in results)}/{len(results)} fixtures passed")
    dump_json({
        "tool": {"name": "mubkit", "version": __version__},
        "seed": args.seed,
        "fixtures": [dataclasses.asdict(r) for r in results],
        "passed": passed,
    }, None)
    return 0 if passed else 1


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct observable pairs and check unbiasedness predicates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="write a built-in observable or transform matrix")
    p_con.add_argument("kind", choices=["position", "momentum", "fourier", "example5", "example6"])
    p_con.add_argument("N", type=int, help="dimension (the example kinds need 4)")
    p_con.add_argument("--out", help="output path; stdout if omitted (single-output kinds)")
    p_con.set_defaults(fn=cmd_construct)

    p_chk = sub.add_parser("check", help="classify a pair of observable files")
    p_chk.add_argument("predicate", choices=[*_PREDICATES, "all"])
    p_chk.add_argument("fileA")
    p_chk.add_argument("fileB")
    p_chk.add_argument("--tol", type=float, default=None,
                       help=f"comparison tolerance (default {ENV_TOL} or 1e-9*dim)")
    p_chk.set_defaults(fn=cmd_check)

    p_cg = sub.add_parser("coarse-grain", help="merge outcomes of an observable file")
    p_cg.add_argument("fileA")
    p_cg.add_argument("partition", help="fibers as comma lists split by '|', e.g. '0,1|2,3'")
    p_cg.add_argument("--out", help="output path; stdout if omitted")
    p_cg.add_argument("--tol", type=float, default=None)
    p_cg.set_defaults(fn=cmd_coarse_grain)

    p_ps = sub.add_parser("paper-suite", help="run the bundled worked-example fixtures")
    p_ps.add_argument("--seed", type=int, default=0)
    p_ps.set_defaults(fn=cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic collector off: its data (a parsed file
    holds some 266 000 lists at d = 64) has no cycles for it to find, only
    objects to rescan. The caller's collector state is restored on every exit."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.fn(args)
        except (MubkitError, OSError, MemoryError) as exc:
            # an input too large to build is bad input
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
