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
on failure, a witness locating it (``_verdict``). ``classify_pair`` runs
whatever applies and cross-checks the verdicts against the implications
that provably hold.

The observables are validated once, when they are built. The checkers
then compare unvalidated products against their targets and construct no
Effect or Observable; only the public constructors (``seq_product``,
``conditioned``, ``coarse_grain``, ...) validate. So ``tol`` reaches every
comparison a checker makes.

The checkers are array programs over each observable's (m, d, d) stack.
The (m, n, d, d) array of all products is never built. A product pass whose
effects are all rank one holds its line table and condition (2)'s sums 8 rows
at a time, O((m + n) d) numbers per row: no (m, d, d) stack, unless a line is
uncertified and its forms read the lines' projections. Any other pass holds
stacks of at most m or n matrices, O((m + n) d^2); one that lifts its effects
through their factors holds (B|A) and one block of at most
``linalg._CHUNK_ENTRIES`` lifts' entries beyond its factors and compressions.

* Conditions (1) and (2) read one product pass per ordered pair,
  ``observables.products``: it makes each A_x o B_y once, as one number per
  product for a rank-one A_x (``observables.line_table``), so an atomic pair
  costs O(d^4), not O(d^5); as U_x (s C_xy s) U_x* from the k x k
  compression C_xy = (U_x* B_y) U_x onto the factor of a low-rank A_x
  (``observables.compressions``), O(d^2 k) a product; and as sqrt(A_x) B_y
  sqrt(A_x) for the others.
* Value complementarity on a certainty subspace that is a rank-one
  effect's own line is |Re <B_y, P_x> - 1/n| max|v|^2, a column of that
  line table; other certainty subspaces are compressed to k x k: where the
  subspace is a factored effect's kept range, the pass's own C_xy, read a
  block of outcomes at a time, else one outcome at a time.
* The trace table behind ``check_mu`` and ``check_generalized_mu``, and the
  forms, are one d x d Gram GEMM of top eigenvectors where every effect
  they read is certified, else one real GEMM of the flattened stacks
  (``linalg.frobenius``).

``classify_pair`` builds the trace table and both product passes once and
reads every verdict from them, value complementarity included; called alone,
``check_value_complementary`` makes the same line tables and compressions
(``observables.line_table``, ``observables.compressions``), so it gives the
same verdict bit for bit.

Products are plain ``@``. Splitting the trace-table product into calls
small enough for OpenBLAS to run on one thread was measured and gave no
gain, at d = 32 or d = 64.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import linalg
from .effects import require_same_dim
from .errors import InternalInconsistency, NotAtomic
from .observables import (
    Compressions,
    LineTable,
    Observable,
    PartitionMap,
    Products,
    certified_forms,
    compressions,
    line_table,
    product_blocks,
    products,
)

#: Deviations within this many units in the last place of a verdict's maximum tie for its witness.
TIE_ULPS = 64


@dataclass(frozen=True)
class Verdict:
    """Outcome of one predicate check.

    ``max_deviation`` is the largest distance from the predicate's target
    that the check encountered (entrywise for matrix targets). ``witness``
    locates the worst offender when the predicate fails. ``vacuous`` marks
    a value-complementarity check that found no certainty subspace to test.
    """

    # the field order is the key order of a verdict in the CLI's report
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


def _trace_table(a: Observable, b: Observable) -> np.ndarray:
    """tr(A_x B_y), real part, as an (m, n) array: w_x w'_y |<u_y, v_x>|^2, one Gram GEMM,
    when every effect of both is certified as w v v* (``linalg.hermitian_eigs``); else
    Re <A_x, B_y> (``linalg.frobenius``), which is Re tr(A_x B_y) for Hermitian stacks."""
    if a._certified.all() and b._certified.all():
        return (certified_forms(b, a._spectral.eigenvectors[:, :, -1].T) * a.spectra()[:, -1]).T
    return linalg.frobenius(a.stack(), b.stack())


def _first_near_max(values: np.ndarray) -> int:
    """The first index in C order within TIE_ULPS ulps of the maximum: rounding picks no tie."""
    return int(np.argmax(values >= values.max() - TIE_ULPS * np.spacing(values.max())))


def _verdict(devs: np.ndarray, mat_tol: float, witness) -> Verdict:
    """The verdict of a nonempty deviation array, whose maximum is ``max_deviation``. Above
    ``mat_tol`` it names ``witness(index, deviation)`` at ``_first_near_max``."""
    worst = float(devs.max())
    if worst <= mat_tol:
        return Verdict(True, worst)
    k = _first_near_max(devs)
    return Verdict(False, worst, witness(k, float(devs.flat[k])))


def _trace_verdict(a: Observable, b: Observable, table: np.ndarray, target: float,
                   mat_tol: float) -> Verdict:
    """Whether every tr(A_x B_y) in ``table`` equals ``target``; the witness is the worst pair."""
    def witness(k, dev):
        i, j = divmod(k, len(b))
        return {"x": a.outcomes[i], "y": b.outcomes[j], "observed": float(table[i, j]), "target": target}
    return _verdict(np.abs(table - target), mat_tol, witness)


def check_mu(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """Mutual unbiasedness tr(A_x B_y) = 1/d. Both observables must be atomic."""
    require_same_dim(a, b)
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    for name, obs in (("first", a), ("second", b)):
        if not obs.is_atomic(eig_tol):
            raise NotAtomic(f"{name} observable is not atomic")
    return _trace_verdict(a, b, _trace_table(a, b), 1.0 / a.dim, mat_tol)


def _product_verdicts(a: Observable, b: Observable, passes: tuple[Products, Products],
                      mat_tol: float) -> tuple[Verdict, Verdict]:
    """Conditions (1) and (2), from the product passes of (A, B) and (B, A). Condition (1)'s
    deviations run A∘B by (x, y), then B∘A by (y, x); condition (2)'s (B|A) by y, then (A|B) by x."""
    (dev_ab, given_a, *_), (dev_ba, given_b, *_) = passes
    m, n = len(a), len(b)

    def witness1(k, dev):
        s, k = divmod(k, m * n)
        x, y = divmod(k, n) if s == 0 else divmod(k, m)[::-1]
        return {"x": a.outcomes[x], "y": b.outcomes[y], "side": ("A∘B", "B∘A")[s], "deviation": dev}

    def witness2(k, dev):
        side, obs, k = ("B|A", b, k) if k < n else ("A|B", a, k - n)
        return {"outcome": obs.outcomes[k], "side": side, "deviation": dev}

    return (_verdict(np.concatenate([dev_ab, dev_ba], axis=None), mat_tol, witness1),
            _verdict(np.concatenate([given_a, given_b]), mat_tol, witness2))


def check_condition1(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """A_x o B_y = (1/n) A_x and B_y o A_x = (1/m) B_y, entrywise."""
    require_same_dim(a, b)
    return _product_verdicts(a, b, (products(a, b), products(b, a)), linalg.tols(a.dim, tol)[0])[0]


def check_condition2(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """(B|A)_y = I/n and (A|B)_x = I/m, entrywise."""
    require_same_dim(a, b)
    return _product_verdicts(a, b, (products(a, b), products(b, a)), linalg.tols(a.dim, tol)[0])[1]


def _certainty_deviations(first: Observable, second: Observable, units: np.ndarray,
                          table: LineTable, comps: tuple[Compressions, ...]) -> np.ndarray:
    """max_abs(P S_y P - P / n) as an (m, n) table, S_y the n effects of
    ``second`` and P = U U* for the certainty subspace of A_x (the eigenvalue-1
    eigenspace, marked in ``units``, basis U). A row with none holds 0, P = 0.
    On A_x's own line (one unit eigenvalue, the top one, and A_x rank one) the
    matrix is (v* S_y v - 1/n) v v*, of entrywise max |Re <S_y, v v*> - 1/n|
    max_i |v_i|^2: a column of ``table``, the line table of (first, second).
    Every other subspace compresses S_y to k x k, (U* S_y) U, and lifts back:
    read from ``comps`` (``observables.compressions`` of (first, second)), a
    block of outcomes per call, where its unit eigenspace is exactly the kept
    columns U_x of a factored A_x, else made here, one outcome at a time."""
    target = 1.0 / len(second)
    devs = np.zeros((len(first), len(second)))
    counts = units.sum(axis=-1)
    own = ((counts == 1) & units[:, -1])[table.index]
    if own.any():
        scale = np.max(np.abs(table.vectors[:, own]), axis=0) ** 2
        devs[table.index[own]] = (np.abs(table.forms[:, own] - target) * scale).T
        counts[table.index[own]] = 0  # their lines are done
    for index, u, adj, matrices in comps:  # the rows whose unit eigenspace is their factor's U_x
        shared = (units[index] == (first.spectra()[index] >= first.effects[0]._zero)).all(axis=-1)
        if not shared.all():
            index, u, adj, matrices = index[shared], u[shared], adj[shared], matrices[shared]
        core = matrices - target * np.eye(u.shape[-1])
        for xs, ys in product_blocks(len(index), len(second), first.dim):
            devs[index[xs], ys] = linalg.max_abs_each(u[xs, None] @ core[xs, ys] @ adj[xs, None])
        counts[index] = 0
    for x in counts.nonzero()[0]:
        u = first.effects[x].spectral.eigenvectors[:, units[x]]  # unit_eigenspace(eig_tol)
        core = u.conj().T @ second.stack() @ u - target * np.eye(u.shape[1])
        devs[x] = linalg.max_abs_each(u @ core @ u.conj().T)
    return devs


def _complementarity_verdict(a: Observable, b: Observable, tol: float | None,
                             tables: tuple[LineTable, LineTable],
                             comps: tuple[tuple[Compressions, ...], tuple[Compressions, ...]]) -> Verdict:
    """Value complementarity, reading the line tables and compressions of (A, B) and (B, A).
    Its deviations run side A, then side B: each x in order, over the other side's y."""
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    sides = (("A", a, b), ("B", b, a))
    units = [np.abs(obs.spectra() - 1.0) <= eig_tol for obs in (a, b)]
    if not (units[0].any() or units[1].any()):
        return Verdict(True, 0.0, None, vacuous=True)

    def witness(k, dev):
        side, first, second = sides[k // (len(a) * len(b))]
        x, y = divmod(k % (len(a) * len(b)), len(second))
        target = 1.0 / len(second)
        basis = first.effects[x].unit_eigenspace(eig_tol)
        compressed = basis.conj().T @ second.effects[y].matrix @ basis
        w, v = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)  # both triangles count (``linalg``)
        j = _first_near_max(np.abs(w - target))  # ascending: the lowest of tied extremes
        return {"side": side, "certain_outcome": first.outcomes[x], "other_outcome": second.outcomes[y],
                "state": tuple((float(z.real), float(z.imag)) for z in basis @ v[:, j]),
                "observed": float(w[j]), "target": target}
    devs = [_certainty_deviations(first, second, u, table, made)
            for (_, first, second), u, table, made in zip(sides, units, tables, comps)]
    return _verdict(np.concatenate(devs, axis=None), mat_tol, witness)


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
    possible (an extremal eigenvector of the compressed effect; of extremes
    tied up to rounding, the lowest), together with the probability it observes.
    """
    require_same_dim(a, b)
    return _complementarity_verdict(a, b, tol, (line_table(a, b), line_table(b, a)),
                                    (compressions(a, b), compressions(b, a)))


def forced_alpha(a: Observable, b: Observable) -> float:
    """The only constant generalized unbiasedness can take: d/(m*n)."""
    return a.dim / (len(a) * len(b))


def check_generalized_mu(a: Observable, b: Observable, tol: float | None = None) -> Verdict:
    """tr(A_x B_y) = d/(m n) for every outcome pair."""
    require_same_dim(a, b)
    return _trace_verdict(a, b, _trace_table(a, b), forced_alpha(a, b), linalg.tols(a.dim, tol)[0])


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
    return bool(np.all(linalg.max_abs_each(a.stack() - np.eye(a.dim) / len(a)) <= mat_tol))


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
    is within the slack 10 max(d, m, n) tol of passing, which is recorded as
    a 'marginal' flag instead. The implications bound a failing counterpart
    only by a multiple of the tolerance the holding side meets: condition
    (2) sums m resp. n condition-(1) terms (max(m, n) tol); generalized
    unbiasedness takes traces of d x d matrices (2d tol); inside the atomic
    group, max|v|^2 >= 1/d scales one deviation into another by up to d
    (d tol). The factor 10 also covers the zero band of the square root.
    """
    require_same_dim(a, b)
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    table = _trace_table(a, b)
    both_atomic = a.is_atomic(eig_tol) and b.is_atomic(eig_tol)
    mu = _trace_verdict(a, b, table, 1.0 / a.dim, mat_tol) if both_atomic else None
    passes = products(a, b), products(b, a)
    vc = _complementarity_verdict(a, b, tol, (passes[0].lines, passes[1].lines),
                                  (passes[0].compressions, passes[1].compressions))
    c1, c2 = _product_verdicts(a, b, passes, mat_tol)
    gmu = _trace_verdict(a, b, table, forced_alpha(a, b), mat_tol)

    flags: list[str] = []
    limit = 10 * max(a.dim, len(a), len(b)) * mat_tol
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
