"""Unbiasedness predicates for pairs of observables, and a combined classifier.

Five related properties of a pair (A, B) in dimension d with m and n
outcomes:

* mutual unbiasedness, for atomic pairs: tr(A_x B_y) = 1/d;
* condition (1): A_x o B_y = (1/n) A_x and B_y o A_x = (1/m) B_y;
* condition (2): (B|A) and (A|B) are uniform, i.e. every conditioned
  effect equals I/n resp. I/m;
* value complementarity: certainty of any outcome on one side forces the
  uniform distribution on the other;
* generalized mutual unbiasedness: tr(A_x B_y) = d/(m n).

Each checker returns a Verdict carrying the worst deviation it saw and,
on failure, a witness locating it. ``classify_pair`` runs whatever applies
and cross-checks the verdicts against the implications that provably hold.

The observables are validated once, when they are built. The checkers
then compare unvalidated products (``seq_matrix``, ``conditioned_matrices``)
against their targets and construct no Effect or Observable; only the
public constructors (``seq_product``, ``conditioned``, ``coarse_grain``, ...)
validate. So ``tol`` reaches every comparison a checker makes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import linalg
from .effects import Effect, seq_matrix
from .errors import DimMismatch, InternalInconsistency, NotAtomic
from .observables import Observable, PartitionMap, conditioned_matrices


@dataclass(frozen=True)
class Verdict:
    """Outcome of one predicate check.

    ``max_deviation`` is the largest distance from the predicate's target
    that the check encountered (entrywise for matrix targets). ``witness``
    locates the worst offender when the predicate fails. ``vacuous`` marks
    a value-complementarity check that found no certainty subspace to test.
    """

    holds: bool
    max_deviation: float
    witness: dict[str, Any] | None = None
    vacuous: bool = False


@dataclass(frozen=True)
class PairReport:
    """All applicable verdicts for one pair, plus the forced constant alpha."""

    dim: int
    m: int
    n: int
    mu: Verdict | None
    value_complementary: Verdict
    condition1: Verdict
    condition2: Verdict
    generalized_mu: Verdict
    alpha: float | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class PartitionCriterion:
    """Whether fiber-size products are constant, and the constant if so."""

    holds: bool
    constant: int | None
    products: tuple[int, ...]


def _require_pair(a: Observable, b: Observable) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim} differ")


def _trace_verdict(a: Observable, b: Observable, target: float, mat_tol: float) -> Verdict:
    """Whether every tr(A_x B_y) equals ``target``; the witness is the worst pair."""
    table = np.array([[np.trace(ax.matrix @ by.matrix).real for by in b.effects]
                      for ax in a.effects])
    dev = np.abs(table - target)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    witness = None
    if dev[i, j] > mat_tol:
        witness = {"x": a.outcomes[i], "y": b.outcomes[j],
                   "observed": float(table[i, j]), "target": target}
    return Verdict(bool(dev[i, j] <= mat_tol), float(dev[i, j]), witness)


def check_mu(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """Mutual unbiasedness tr(A_x B_y) = 1/d. Both observables must be atomic."""
    _require_pair(a, b)
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    for name, obs in (("first", a), ("second", b)):
        if not obs.is_atomic(eig_tol):
            raise NotAtomic(f"{name} observable is not atomic")
    return _trace_verdict(a, b, 1.0 / a.dim, mat_tol)


def check_condition1(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """A_x o B_y = (1/n) A_x and B_y o A_x = (1/m) B_y, entrywise."""
    _require_pair(a, b)
    mat_tol, _ = linalg.tols(a.dim, tol)
    m, n = len(a), len(b)
    worst = 0.0
    witness = None
    for x, ax in a.items():
        for y, by in b.items():
            for side, first, second, scale in (("A∘B", ax, by, 1.0 / n),
                                               ("B∘A", by, ax, 1.0 / m)):
                dev = linalg.max_abs(seq_matrix(first, second) - scale * first.matrix)
                if dev > worst:
                    worst = dev
                    witness = {"x": x, "y": y, "side": side, "deviation": dev}
    return Verdict(worst <= mat_tol, worst, witness if worst > mat_tol else None)


def check_condition2(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """(B|A)_y = I/n and (A|B)_x = I/m, entrywise."""
    _require_pair(a, b)
    mat_tol, _ = linalg.tols(a.dim, tol)
    eye = np.eye(a.dim)
    worst = 0.0
    witness = None
    for side, obs, given in (("B|A", b, a), ("A|B", a, b)):
        for label, eff in zip(obs.outcomes, conditioned_matrices(obs, given)):
            dev = linalg.max_abs(eff - eye / len(obs))
            if dev > worst:
                worst = dev
                witness = {"outcome": label, "side": side, "deviation": dev}
    return Verdict(worst <= mat_tol, worst, witness if worst > mat_tol else None)


def _certainty_basis(e: Effect, eig_tol: float) -> np.ndarray | None:
    v = e.unit_eigenspace(eig_tol)
    return v if v.shape[1] else None


def check_value_complementary(a: Observable, b: Observable,
                              tol: float | None = None) -> Verdict:
    """Certainty of one side forces uniformity of the other.

    Decided without sampling: outcome x of A is certain exactly on the
    eigenvalue-1 eigenspace of A_x, so the predicate holds iff compressing
    each B_y to that subspace gives (1/n) times the subspace projection
    (and symmetrically with targets 1/m). A pair with no certainty
    subspaces on either side satisfies the predicate vacuously; the
    verdict says so.

    The witness on failure is a unit vector inside the worst subspace
    chosen to push the other side's probability as far from its target as
    possible (an extremal eigenvector of the compressed effect), together
    with the probability it observes.
    """
    _require_pair(a, b)
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    worst = 0.0
    worst_case = None
    found_subspace = False
    for side, first, second, target in (("A", a, b, 1.0 / len(b)),
                                        ("B", b, a, 1.0 / len(a))):
        for x, ex in first.items():
            basis = _certainty_basis(ex, eig_tol)
            if basis is None:
                continue
            found_subspace = True
            proj = basis @ basis.conj().T
            for y, fy in second.items():
                dev = linalg.max_abs(proj @ fy.matrix @ proj - target * proj)
                if dev > worst:
                    worst = dev
                    worst_case = (side, x, y, basis, fy, target)
    if not found_subspace:
        return Verdict(True, 0.0, None, vacuous=True)
    witness = None
    if worst > mat_tol:
        side, x, y, basis, fy, target = worst_case
        compressed = basis.conj().T @ fy.matrix @ basis
        w, v = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
        k = int(np.argmax(np.abs(w - target)))
        state = basis @ v[:, k]
        witness = {
            "side": side,
            "certain_outcome": x,
            "other_outcome": y,
            "state": tuple((float(z.real), float(z.imag)) for z in state),
            "observed": float(w[k]),
            "target": target,
        }
    return Verdict(worst <= mat_tol, worst, witness)


def forced_alpha(a: Observable, b: Observable) -> float:
    """The only constant generalized unbiasedness can take: d/(m*n)."""
    return a.dim / (len(a) * len(b))


def check_generalized_mu(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """tr(A_x B_y) = d/(m n) for every outcome pair."""
    _require_pair(a, b)
    mat_tol, _ = linalg.tols(a.dim, tol)
    return _trace_verdict(a, b, forced_alpha(a, b), mat_tol)


def check_partition_criterion(fa: PartitionMap, fb: PartitionMap) -> PartitionCriterion:
    """Fiber-size test: coarse-grainings of an unbiased atomic pair stay
    unbiased in the generalized sense iff |fa fibers| x |fb fibers| is the
    same for every target pair."""
    sizes_a = fa.fiber_sizes()
    sizes_b = fb.fiber_sizes()
    products = sorted({sa * sb for sa in sizes_a for sb in sizes_b})
    holds = len(products) == 1
    return PartitionCriterion(holds, products[0] if holds else None, tuple(products))


def check_trivial(a: Observable, tol: float | None = None) -> bool:
    """Whether every effect is the same multiple (1/m) of the identity."""
    mat_tol, _ = linalg.tols(a.dim, tol)
    eye = np.eye(a.dim)
    scale = 1.0 / len(a)
    return all(linalg.max_abs(e.matrix - scale * eye) <= mat_tol for e in a.effects)


def _reconcile(flags: list[str], name: str, failing: list[Verdict], limit: float) -> None:
    """A proven implication came out violated: decide marginal vs impossible."""
    worst = max(v.max_deviation for v in failing)
    if worst > limit:
        raise InternalInconsistency(
            f"{name}: counterpart fails with deviation {worst:.3e} > {limit:.3e}")
    if "marginal" not in flags:
        flags.append("marginal")


def classify_pair(a: Observable, b: Observable, tol: float | None = None) -> PairReport:
    """Run every applicable predicate and cross-check the implications.

    Mutual unbiasedness is attempted only when both observables are atomic.
    Violations of the proven implications (condition (1) implies condition
    (2) and generalized unbiasedness; the four predicates coincide for
    atomic pairs) raise InternalInconsistency, unless every failing verdict
    is within 10x tolerance of passing, which is recorded as a 'marginal'
    flag instead.
    """
    _require_pair(a, b)
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    both_atomic = a.is_atomic(eig_tol) and b.is_atomic(eig_tol)
    mu = check_mu(a, b, tol) if both_atomic else None
    vc = check_value_complementary(a, b, tol)
    c1 = check_condition1(a, b, tol)
    c2 = check_condition2(a, b, tol)
    gmu = check_generalized_mu(a, b, tol)

    flags: list[str] = []
    limit = 10 * mat_tol
    if c1.holds and not c2.holds:
        _reconcile(flags, "condition (1) holds but condition (2) fails", [c2], limit)
    if c1.holds and not gmu.holds:
        _reconcile(flags, "condition (1) holds but generalized unbiasedness fails",
                   [gmu], limit)
    if mu is not None:
        group = {"mu": mu, "value_complementary": vc,
                 "condition1": c1, "condition2": c2}
        failing = [v for v in group.values() if not v.holds]
        if failing and len(failing) < len(group):
            names = [k for k, v in group.items() if not v.holds]
            _reconcile(flags, f"atomic pair: {names} disagree with the rest",
                       failing, limit)
    if vc.vacuous:
        flags.append("vacuous")

    return PairReport(
        dim=a.dim, m=len(a), n=len(b),
        mu=mu, value_complementary=vc, condition1=c1, condition2=c2,
        generalized_mu=gmu,
        alpha=forced_alpha(a, b) if gmu.holds else None,
        flags=tuple(flags),
    )
