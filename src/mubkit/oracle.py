"""Seeded random generators and sampling-based cross-checks.

Everything here draws from a numpy Generator seeded per call, so a fixed
seed reproduces results bit-for-bit. The Monte-Carlo value-complementarity
check deliberately shares no deviation logic with the analytic decider; it
estimates probabilities on random vectors drawn inside certainty subspaces.

The ``naive_*`` functions and ``brute_trace_table`` are the reference path
for the deciders in ``analysis``: one dense product per outcome pair, the
way the definitions read, and every location's deviation returned so that
tests can check both the worst value and the witness the deciders name.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import linalg
from .effects import State, require_same_dim, seq_matrix
from .errors import InvalidParams
from .observables import Observable

Seed = int | np.random.Generator


def _rng(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unit_vector(dim: int, seed: Seed) -> np.ndarray:
    """Haar-uniform unit vector: normalized complex Gaussian."""
    if dim < 1:
        raise InvalidParams(f"dimension must be positive, got {dim!r}")
    rng = _rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return linalg.freeze(v / np.linalg.norm(v))


def random_unitary(dim: int, seed: Seed) -> np.ndarray:
    """Haar-distributed unitary via QR with the phase ambiguity fixed."""
    if dim < 1:
        raise InvalidParams(f"dimension must be positive, got {dim!r}")
    rng = _rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return linalg.freeze(q * (d / np.abs(d)))


def random_state(dim: int, rank: int, seed: Seed) -> State:
    """Random density operator of the given rank.

    Mixes ``rank`` orthonormal random vectors with Dirichlet(1,...,1)
    weights, so the spectrum is uniform on the simplex.
    """
    if not 1 <= rank <= dim:
        raise InvalidParams(f"rank must be in [1, {dim}], got {rank!r}")
    rng = _rng(seed)
    u = random_unitary(dim, rng)
    weights = rng.dirichlet(np.ones(rank))
    m = (u[:, :rank] * weights) @ u[:, :rank].conj().T
    return State((m + m.conj().T) / 2.0)


def _random_block_sizes(dim: int, m: int, rng: np.random.Generator) -> list[int]:
    cuts = np.sort(rng.choice(np.arange(1, dim), size=m - 1, replace=False)) if m > 1 else np.array([], dtype=int)
    edges = [0, *cuts.tolist(), dim]
    return [edges[i + 1] - edges[i] for i in range(m)]


def random_observable(dim: int, m: int, kind: str, seed: Seed) -> Observable:
    """Random observable with ``m`` outcomes labelled '0'..'m-1'.

    kind 'atomic' needs m = dim and gives rank-one projections onto a Haar
    basis; 'sharp' needs m <= dim and splits a Haar basis into m column
    blocks; 'unsharp' symmetrizes m random Wishart parts to sum to I.
    """
    if dim < 1:
        raise InvalidParams(f"dimension must be positive, got {dim!r}")
    if m < 1:
        raise InvalidParams(f"outcome count must be positive, got {m!r}")
    rng = _rng(seed)
    if kind == "atomic":
        if m != dim:
            raise InvalidParams(f"atomic observables need m = dim, got m={m}, dim={dim}")
        u = random_unitary(dim, rng)
        effs = [np.outer(u[:, j], u[:, j].conj()) for j in range(dim)]
    elif kind == "sharp":
        if m > dim:
            raise InvalidParams(f"sharp observables need m <= dim, got m={m}, dim={dim}")
        u = random_unitary(dim, rng)
        effs = []
        start = 0
        for size in _random_block_sizes(dim, m, rng):
            block = u[:, start:start + size]
            effs.append(block @ block.conj().T)
            start += size
    elif kind == "unsharp":
        parts = []
        for _ in range(m):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            parts.append(x @ x.conj().T)
        total = sum(parts)
        w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        effs = [inv_root @ g @ inv_root for g in parts]  # validation keeps (M + M*)/2
    else:
        raise InvalidParams(f"unknown kind {kind!r}")
    return Observable([str(j) for j in range(m)], effs)


@dataclass(frozen=True)
class McReport:
    """Result of the sampling cross-check.

    ``consistent`` means no sampled (or injected) vector pushed the other
    side's probability further than 10x tolerance from its target.
    ``injected`` holds one record per injected vector per certainty
    subspace it overlaps, in evaluation order, each with the observed
    probabilities it produced.
    """

    consistent: bool
    max_deviation: float
    witness: dict[str, Any] | None
    injected: tuple[dict[str, Any], ...]


def mc_value_complementarity(a: Observable, b: Observable, samples: int, seed: Seed,
                             tol: float | None = None,
                             inject: Sequence = ()) -> McReport:
    """Sample certainty subspaces and measure the other observable.

    For each effect with an eigenvalue-1 eigenspace, draw ``samples``
    Haar-uniform unit vectors inside that subspace (plus any ``inject``
    vectors, projected in and renormalized, evaluated first) and record
    how far the other side's outcome probabilities stray from uniform.
    """
    require_same_dim(a, b)
    if samples < 1:
        raise InvalidParams(f"samples must be positive, got {samples!r}")
    vectors_in = [np.asarray(raw, dtype=complex) for raw in inject]
    for v in vectors_in:
        if v.shape != (a.dim,):
            raise InvalidParams(f"injected vector has shape {v.shape}")
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    rng = _rng(seed)

    max_dev = 0.0
    witness = None
    injected: list[dict[str, Any]] = []

    def measure(psi: np.ndarray, second: Observable) -> list[tuple[str, float]]:
        return [(y, float(np.vdot(psi, fy.matrix @ psi).real))
                for y, fy in second.items()]

    for side, first, second, target in (("A", a, b, 1.0 / len(b)),
                                        ("B", b, a, 1.0 / len(a))):
        for x, ex in first.items():
            basis = ex.unit_eigenspace(eig_tol)
            k = basis.shape[1]
            if k == 0:
                continue
            for v in vectors_in:
                w = basis @ (basis.conj().T @ v)
                nrm = np.linalg.norm(w)
                if nrm < 1e-8:
                    continue
                psi = w / nrm
                values = measure(psi, second)
                record = {
                    "side": side,
                    "certain_outcome": x,
                    "state": tuple((float(z.real), float(z.imag)) for z in psi),
                    "observed": {y: p for y, p in values},
                    "target": target,
                }
                injected.append(record)
                for y, p in values:
                    dev = abs(p - target)
                    if dev > max_dev:
                        max_dev = dev
                        witness = {"side": side, "certain_outcome": x,
                                   "other_outcome": y, "observed": p,
                                   "target": target, "injected": True}
            coords = rng.standard_normal((samples, k)) + 1j * rng.standard_normal((samples, k))
            coords /= np.linalg.norm(coords, axis=1, keepdims=True)
            vectors = coords @ basis.T  # rows are unit vectors in the subspace
            for y, fy in second.items():
                probs = np.einsum("si,si->s", vectors.conj(), vectors @ fy.matrix.T).real
                devs = np.abs(probs - target)
                s = int(np.argmax(devs))
                if devs[s] > max_dev:
                    max_dev = float(devs[s])
                    witness = {"side": side, "certain_outcome": x,
                               "other_outcome": y, "observed": float(probs[s]),
                               "target": target, "injected": False}
    return McReport(max_dev <= 10 * mat_tol, max_dev, witness, tuple(injected))


def brute_trace_table(a: Observable, b: Observable) -> np.ndarray:
    """tr(A_x B_y) for every outcome pair, by direct entrywise summation.

    Kept free of any shared helper with the analytic checkers so the two
    paths can disagree if either is wrong.
    """
    require_same_dim(a, b)
    table = np.zeros((len(a), len(b)))
    for i, ax in enumerate(a.effects):
        for j, by in enumerate(b.effects):
            table[i, j] = np.sum(ax.matrix * by.matrix.T).real
    return linalg.freeze(table)


def naive_condition1(a: Observable, b: Observable) -> dict[tuple[str, str, str], float]:
    """max_abs(A_x o B_y - A_x/n) and max_abs(B_y o A_x - B_y/m), keyed
    (side, x, y) with side "A∘B" or "B∘A": reference for condition (1)."""
    require_same_dim(a, b)
    out = {}
    for x, ax in a.items():
        for y, by in b.items():
            for side, first, second, scale in (("A∘B", ax, by, 1.0 / len(b)),
                                               ("B∘A", by, ax, 1.0 / len(a))):
                out[side, x, y] = linalg.max_abs(seq_matrix(first, second) - scale * first.matrix)
    return out


def naive_condition2(a: Observable, b: Observable) -> dict[tuple[str, str], float]:
    """max_abs((B|A)_y - I/n) and max_abs((A|B)_x - I/m), keyed (side, outcome)
    with side "B|A" or "A|B", summing one product at a time: reference for
    condition (2)."""
    require_same_dim(a, b)
    eye = np.eye(a.dim)
    out = {}
    for side, obs, given in (("B|A", b, a), ("A|B", a, b)):
        for y, by in obs.items():
            total = sum(seq_matrix(ax, by) for ax in given.effects)
            out[side, y] = linalg.max_abs((total + total.conj().T) / 2.0 - eye / len(obs))
    return out


def naive_value_complementary(a: Observable, b: Observable,
                              tol: float | None = None) -> dict[tuple[str, str, str], float]:
    """max_abs(P S_y P - target P) for P the projection onto the eigenvalue-1
    eigenspace of F_x, keyed (side, x, y) with side "A" (F = A, S = B,
    target 1/n) or "B"; empty when no effect has a certainty subspace, the
    vacuous case. Reference for value complementarity."""
    require_same_dim(a, b)
    _, eig_tol = linalg.tols(a.dim, tol)
    out = {}
    for side, first, second, target in (("A", a, b, 1.0 / len(b)),
                                        ("B", b, a, 1.0 / len(a))):
        for x, ex in first.items():
            basis = ex.unit_eigenspace(eig_tol)
            if not basis.shape[1]:
                continue
            proj = basis @ basis.conj().T
            for y, fy in second.items():
                out[side, x, y] = linalg.max_abs(proj @ fy.matrix @ proj - target * proj)
    return out
