"""Seeded inputs for the benchmark workloads, and what each input must give.

Every generator draws from one numpy Generator made from the seed, so one
seed gives bit-identical inputs; ``inputs_digest`` hashes them to show it.
Inputs are built through mubkit's public constructors, looked up on the
module at call time so that the traced run sees them.

Each pair carries its family. ``EXPECTED`` states the verdicts that the
family's construction guarantees (for the random families: with
probability one), and ``check_report`` is the correctness gate applied to
every classification the benchmark makes.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mubkit import analysis, fourier, observables, oracle

VERDICTS = ("mu", "value_complementary", "condition1", "condition2", "generalized_mu")

# Verdict booleans in VERDICTS order (None: mu does not apply), then flags.
EXPECTED = {
    "mub": ((True, True, True, True, True), ()),
    "random-atomic": ((False, False, False, False, False), ()),
    "interval-residue": ((None, True, True, True, True), ()),
    "interval-interval": ((None, False, False, False, True), ()),
    "random-sharp": ((None, False, False, False, False), ()),
    "unsharp": ((None, True, False, False, False), ("vacuous",)),
}

# Trace-table deviations are recomputed by the oracle's entrywise sum; the
# two summation orders agree far below any verdict tolerance.
TRACE_TABLE_TOL = 1e-12


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark measures."""

    atomic_dim: int = 32
    atomic_pairs: int = 1          # pairs of each atomic family
    sharp_dims: tuple[int, ...] = (4, 8, 12, 16)
    sharp_pairs: int = 2           # pairs of each sharp family per dimension
    unsharp_dim: int = 32
    unsharp_outcomes: int = 16
    unsharp_pairs: int = 4
    cli_pair_dim: int = 16
    cli_big_dim: int = 64
    cli_residues: int = 4


FULL = Scale()
TINY = Scale(atomic_dim=4, atomic_pairs=1, sharp_dims=(4, 8), sharp_pairs=1,
             unsharp_dim=4, unsharp_outcomes=2, unsharp_pairs=1,
             cli_pair_dim=4, cli_big_dim=8, cli_residues=2)


@dataclass(frozen=True)
class Pair:
    family: str
    a: observables.Observable
    b: observables.Observable
    partitions: tuple | None = None   # (fa, fb) for interval-interval pairs

    @property
    def kind(self) -> str:
        """Timing class: the pair's shape, which with its path sets its cost.

        Families of one shape (unbiased and random atomic bases; interval
        coarse-grainings against residues or intervals) do the same work,
        so their samples are pooled.
        """
        return f"d{self.a.dim}/{len(self.a)}x{len(self.b)}"


# ------------------------------------------------------------ constructors

def interval_partition(outcomes, blocks: int) -> observables.PartitionMap:
    size = len(outcomes) // blocks
    mapping = {x: str(i // size) for i, x in enumerate(outcomes)}
    return observables.PartitionMap(tuple(outcomes), tuple(map(str, range(blocks))), mapping)


def residue_partition(outcomes, blocks: int) -> observables.PartitionMap:
    mapping = {x: str(i % blocks) for i, x in enumerate(outcomes)}
    return observables.PartitionMap(tuple(outcomes), tuple(map(str, range(blocks))), mapping)


def _position_momentum(dim: int):
    return fourier.position_observable(dim), fourier.momentum_observable(dim)


def mub_pair(dim: int, rng) -> Pair:
    """Position/momentum in a common Haar basis: all five predicates hold."""
    q, p = _position_momentum(dim)
    u = oracle.random_unitary(dim, rng)
    return Pair("mub", observables.conjugate(q, u), observables.conjugate(p, u))


def random_atomic_pair(dim: int, rng) -> Pair:
    """Two independent Haar bases: every predicate fails."""
    return Pair("random-atomic", oracle.random_observable(dim, dim, "atomic", rng),
                oracle.random_observable(dim, dim, "atomic", rng))


def sharp_blocks(dim: int) -> int:
    return 2 if dim < 8 else 4


def coarse_pair(dim: int, family: str, rng) -> Pair:
    """Interval blocks of position against residue classes or intervals of momentum."""
    q, p = _position_momentum(dim)
    blocks = sharp_blocks(dim)
    fa = interval_partition(q.outcomes, blocks)
    if family == "interval-residue":
        fb = residue_partition(p.outcomes, blocks)
    else:
        fb = interval_partition(p.outcomes, blocks)
    a = observables.coarse_grain(q, fa)
    b = observables.coarse_grain(p, fb)
    u = oracle.random_unitary(dim, rng)
    return Pair(family, observables.conjugate(a, u), observables.conjugate(b, u),
                (fa, fb) if family == "interval-interval" else None)


def random_sharp_pair(dim: int, rng) -> Pair:
    """Independent random block projections with 3 and 2 outcomes."""
    a = oracle.random_observable(dim, 3, "sharp", rng)
    b = oracle.random_observable(dim, 2, "sharp", rng)
    u = oracle.random_unitary(dim, rng)
    return Pair("random-sharp", observables.conjugate(a, u), observables.conjugate(b, u))


def unsharp_pair(dim: int, m: int, rng) -> Pair:
    """Two independent Wishart observables: full rank, no eigenvalue reaches 1."""
    return Pair("unsharp", oracle.random_observable(dim, m, "unsharp", rng),
                oracle.random_observable(dim, m, "unsharp", rng))


def atomic_inputs(seed: int, scale: Scale) -> list[Pair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(scale.atomic_pairs):
        pairs.append(mub_pair(scale.atomic_dim, rng))
        pairs.append(random_atomic_pair(scale.atomic_dim, rng))
    return pairs


def sharp_inputs(seed: int, scale: Scale) -> list[Pair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(scale.sharp_pairs):
        for dim in scale.sharp_dims:
            pairs.append(coarse_pair(dim, "interval-residue", rng))
            pairs.append(coarse_pair(dim, "interval-interval", rng))
            pairs.append(random_sharp_pair(dim, rng))
    return pairs


def unsharp_inputs(seed: int, scale: Scale) -> list[Pair]:
    rng = np.random.default_rng(seed)
    return [unsharp_pair(scale.unsharp_dim, scale.unsharp_outcomes, rng)
            for _ in range(scale.unsharp_pairs)]


def cli_pairs(seed: int, scale: Scale) -> list[Pair]:
    """One file pair from each of the three in-process workloads' families."""
    rng = np.random.default_rng(seed)
    d = scale.cli_pair_dim
    return [mub_pair(d, rng), coarse_pair(d, "interval-residue", rng),
            unsharp_pair(d, d // 2, rng)]


# ------------------------------------------------------------------ files

def observable_document(obs: observables.Observable) -> dict:
    """The CLI's observable file layout, encoded independently of mubkit.cli."""
    return {
        "dim": obs.dim,
        "outcomes": list(obs.outcomes),
        "effects": [np.stack([e.matrix.real, e.matrix.imag], axis=-1).tolist()
                    for e in obs.effects],
    }


def write_observable(obs: observables.Observable, path: Path) -> None:
    # indent=2 matches the files `mubkit construct` writes, so parse cost
    # is that of real CLI inputs.
    path.write_text(json.dumps(observable_document(obs), indent=2) + "\n", encoding="utf-8")


def observable_matches(doc, obs: observables.Observable) -> bool:
    """Entrywise equality of a parsed observable file with an in-process observable."""
    if not isinstance(doc, dict) or doc.get("dim") != obs.dim:
        return False
    if doc.get("outcomes") != list(obs.outcomes):
        return False
    effects = doc.get("effects")
    if not isinstance(effects, list) or len(effects) != len(obs.effects):
        return False
    for rows, e in zip(effects, obs.effects):
        m = np.asarray(rows, dtype=float)
        if m.shape != e.matrix.shape + (2,):
            return False
        if not (np.array_equal(m[..., 0], e.matrix.real) and np.array_equal(m[..., 1], e.matrix.imag)):
            return False
    return True


def inputs_digest(pairs: list[Pair], extra: list[observables.Observable] = ()) -> str:
    """sha256 over every generated matrix and label."""
    h = hashlib.sha256()
    for obs in [o for p in pairs for o in (p.a, p.b)] + list(extra):
        h.update(repr(obs.outcomes).encode())
        for e in obs.effects:
            h.update(np.ascontiguousarray(e.matrix).tobytes())
    return h.hexdigest()


# -------------------------------------------------------------------- gate

def verdict_tuple(report: analysis.PairReport) -> tuple:
    return tuple(None if getattr(report, k) is None else getattr(report, k).holds
                 for k in VERDICTS)


def check_report(pair: Pair, report: analysis.PairReport, tol: float,
                 brute: np.ndarray) -> list[str]:
    """Problems with one classification; empty when it is correct.

    ``brute`` is ``oracle.brute_trace_table(pair.a, pair.b)``.
    """
    problems = []
    verdicts, flags = EXPECTED[pair.family]
    got = verdict_tuple(report)
    if got != verdicts:
        problems.append(f"verdicts {dict(zip(VERDICTS, got))}, expected {dict(zip(VERDICTS, verdicts))}")
    if report.flags != flags:
        problems.append(f"flags {report.flags}, expected {flags}")
    for name in VERDICTS:
        v = getattr(report, name)
        if v is None:
            continue
        if v.holds and not v.max_deviation <= tol:
            problems.append(f"{name} holds with max_deviation {v.max_deviation:.3e} > tol {tol:.3e}")
        if not v.holds and v.witness is None:
            problems.append(f"{name} fails without a witness")
    d, m, n = pair.a.dim, len(pair.a), len(pair.b)
    alpha = d / (m * n)
    if report.generalized_mu.holds and report.alpha != alpha:
        problems.append(f"alpha {report.alpha}, expected {alpha}")
    targets = [("generalized_mu", alpha)]
    if report.mu is not None:
        targets.append(("mu", 1.0 / d))
    for name, target in targets:
        brute_dev = float(np.max(np.abs(brute - target)))
        if abs(getattr(report, name).max_deviation - brute_dev) > TRACE_TABLE_TOL:
            problems.append(f"{name} max_deviation {getattr(report, name).max_deviation:.3e} "
                            f"disagrees with brute_trace_table ({brute_dev:.3e})")
    if pair.partitions is not None:
        criterion = analysis.check_partition_criterion(*pair.partitions)
        if criterion.holds != report.generalized_mu.holds:
            problems.append(f"partition criterion {criterion.holds} disagrees with "
                            f"generalized_mu {report.generalized_mu.holds}")
    return problems


def expected_exit_code(report: analysis.PairReport) -> int:
    """`mubkit check all` exits 0 when every applicable verdict holds, else 1."""
    return 0 if all(h for h in verdict_tuple(report) if h is not None) else 1
