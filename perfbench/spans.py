"""Outside-in tracing of mubkit: spans around calls into each module's public functions.

``Tracer.install`` replaces each traced function at every import site
inside the package (``seq_product`` is imported by name into both
``analysis`` and ``observables``; ``hermitian_eig`` is reached through the
``mubkit.linalg`` module) and wraps ``__init__`` of the traced classes.
Nothing in ``src/`` changes; ``uninstall`` restores the originals.

A span is (name, start, end, parent span, op id). Spans stay in memory in
flat arrays and are summarized, and optionally saved, when the run ends.
"""
from __future__ import annotations

import functools
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Qualified names below "mubkit."; classes are traced through __init__.
TRACED = (
    "linalg.hermitian_eig",
    "effects.Effect",
    "effects.seq_product",
    "observables.Observable",
    "observables.conditioned",
    "observables.coarse_grain",
    "observables.conjugate",
    "analysis.classify_pair",
    "analysis.check_mu",
    "analysis.check_condition1",
    "analysis.check_condition2",
    "analysis.check_value_complementary",
    "analysis.check_generalized_mu",
    "cli.main",
    "cli.load_json",
    "cli.observable_from_json",
    "cli.dump_json",
    "fourier.momentum_observable",
    "oracle.random_observable",
    "oracle.random_unitary",
)

PAIR_ROOT = "analysis.classify_pair"


def _load_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _dump_bytes(args, kwargs):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    return os.path.getsize(out) if out is not None else None


# Byte counters: bytes read by load_json, bytes written to a file by dump_json.
BYTE_PROBES = {"cli.load_json": _load_bytes, "cli.dump_json": _dump_bytes}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.bytes: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int = -1):
        """A span the benchmark opens itself; ``op`` tags it and its descendants."""
        self.current_op = op
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)
            self.current_op = -1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        probe = BYTE_PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if probe is not None:
                n = probe(args, kwargs)
                if n is not None:
                    self.bytes.setdefault(name, []).append(n)
            return result

        return wrapper

    def _patch_sites(self, package) -> list[tuple[object, str, object, object]]:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
        patches = []
        for qualname in TRACED:
            mod_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                patches.append((original, "__init__", init, self._wrap(qualname, init)))
                continue
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def install(self, package) -> None:
        if self._patches is None:
            self._patches = self._patch_sites(package)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    # ---------------------------------------------------------- summary

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span once, at the end of the run."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarize(self, setup_root: str) -> dict:
        """Per-function calls, inclusive and self seconds, by where they ran.

        ``pair``: inside a classify_pair span, totals divided by the number
        of such spans. ``setup``: inside a ``setup_root`` span, totals divided
        by the number of those. ``call``: anywhere, mean per call.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - covered
        pair_id = self._ids.get(PAIR_ROOT, -1)
        setup_id = self._ids.get(setup_root, -1)
        # Region of each span: 1 inside a pair, 2 inside a setup, 0 elsewhere.
        # Parents precede their children, so one forward pass suffices.
        region_l = [0] * n
        for i, (name, p) in enumerate(zip(a["name"].tolist(), a["parent"].tolist())):
            if p >= 0 and region_l[p]:
                region_l[i] = region_l[p]
            elif name == pair_id:
                region_l[i] = 1
            elif name == setup_id:
                region_l[i] = 2
        region = np.array(region_l, dtype=np.int8)
        names = a["name"]
        n_pairs = int(np.sum(names == pair_id)) if pair_id >= 0 else 0
        n_setups = int(np.sum(names == setup_id)) if setup_id >= 0 else 0
        out = {"pairs": n_pairs, "setups": n_setups, "spans": n, "functions": {}}
        for name_id, name in enumerate(self.names):
            sel = names == name_id
            if not sel.any():
                continue
            row = {"calls_total": int(sel.sum()),
                   "s_per_call": float(dur[sel].mean())}
            for region_code, label, base in ((1, "pair", n_pairs), (2, "setup", n_setups)):
                rsel = sel & (region == region_code)
                if base and rsel.any():
                    row[f"{label}_calls"] = float(rsel.sum() / base)
                    row[f"{label}_s"] = float(dur[rsel].sum() / base)
                    row[f"{label}_self_s"] = float(self_s[rsel].sum() / base)
            if name in self.bytes:
                row["bytes_per_call"] = float(np.mean(self.bytes[name]))
            out["functions"][name] = row
        return out
