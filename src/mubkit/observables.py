"""Finite-outcome observables and the operations that combine them.

An observable is a labelled family of effects summing to the identity.
Only the public constructors validate: ``Observable`` itself and the
derived constructions (``obs_seq_product``, ``conditioned``,
``coarse_grain``, ``conjugate``), which validate their new matrices once,
as the observable. Products, conditioning and coarse-graining validate
with a 10x looser tolerance, since each entry accumulates roundoff from up
to m*n sequential products. Predicates compare the unvalidated products of
``products`` instead: products and sums of valid effects need no second check.

Every observable is one validated (m, d, d) stack, and the stacked decomposition and
certified mask its validation produced (``effects.effects_of``): each effect is a view
of the stack and decomposition. An ``Effect`` given to ``Observable`` counts as its
matrix and is validated again, under the observable's tolerance.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import linalg
from .effects import (
    Effect,
    State,
    atomic_spectra,
    effects_of,
    occurrence_probability,
    require_same_dim,
    seq_matrix,
    sharp_spectra,
)
from .errors import (
    DimMismatch,
    DuplicateLabel,
    InvalidParams,
    LabelMismatch,
    MubkitError,
    NotAnEffect,
    NotNormalized,
    SumNotIdentity,
)

PRODUCT_SEP = "⊗"  # the symbol joining outcome labels of a product observable


class Observable:
    """Effects A_x indexed by string outcome labels, with sum(A_x) = I."""

    __slots__ = ("outcomes", "effects", "dim", "_stack", "_spectral", "_certified")

    def __init__(self, outcomes: Sequence[str], effects, tol: float | None = None):
        labels = tuple(str(x) for x in outcomes)
        if len(set(labels)) != len(labels):
            seen = [x for i, x in enumerate(labels) if x in labels[:i]]
            raise DuplicateLabel(f"repeated outcome label(s): {sorted(set(seen))}")
        if len(labels) != len(effects):
            raise LabelMismatch(f"{len(labels)} labels for {len(effects)} effects")
        if not labels:
            raise LabelMismatch("observable needs at least one outcome")
        self._stack, validated, self._spectral, self._certified = _validated(labels, effects, tol)
        dim = self._stack.shape[-1]
        mat_tol, _ = linalg.tols(dim, tol)
        defect = linalg.max_abs(self._stack.sum(axis=0) - np.eye(dim))
        if defect > mat_tol:
            raise SumNotIdentity(f"effects sum misses identity by {defect:.3e} (tol {mat_tol:.3e})")
        self.outcomes = labels
        self.effects = tuple(validated)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.outcomes)

    def items(self) -> Iterator[tuple[str, Effect]]:
        return zip(self.outcomes, self.effects)

    def effect(self, label: str) -> Effect:
        try:
            return self.effects[self.outcomes.index(label)]
        except ValueError:
            raise LabelMismatch(f"no outcome {label!r}") from None

    def stack(self) -> np.ndarray:
        """The effect matrices as one read-only (m, d, d) array: the validated
        stack whose views they are."""
        return self._stack

    def spectra(self) -> np.ndarray:
        """Every effect's eigenvalues, ascending, as one read-only (m, d)
        array: the stacked decomposition's, whose views they are."""
        return self._spectral.eigenvalues

    def is_sharp(self, tol: float | None = None) -> bool:
        """Every effect is sharp (``Effect.is_sharp``), read from ``spectra``."""
        _, tol = linalg.tols(self.dim, tol)
        return sharp_spectra(self.spectra(), tol)

    def is_atomic(self, tol: float | None = None) -> bool:
        """Every effect is atomic (``Effect.is_atomic``), read from ``spectra``."""
        _, tol = linalg.tols(self.dim, tol)
        return atomic_spectra(self.spectra(), tol)

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim}, outcomes={list(self.outcomes)!r})"


def _validated(labels: tuple[str, ...], effects, tol: float | None
               ) -> tuple[np.ndarray, list[Effect], linalg.SpectralDecomposition, np.ndarray]:
    """The matrices as one validated stack, their effects, the stack's decomposition
    and certified mask (``effects_of``). An ``Effect`` counts as its matrix.

    When the stacked pass raises, the matrices go one by one, in order, so
    that an error names the first invalid outcome; if every one is valid,
    their dimensions differ.
    """
    matrices = [e.matrix if isinstance(e, Effect) else e for e in effects]
    try:
        stack = linalg.as_stack(matrices)
        return (stack, *effects_of(stack, tol))
    except (MubkitError, ValueError, TypeError, OverflowError):
        pass
    dims = set()
    for x, m in zip(labels, matrices):
        try:
            dims.add(Effect(m, tol).dim)
        except InvalidParams:  # the tolerance, not this effect
            raise
        except MubkitError as err:
            raise NotAnEffect(f"outcome {x!r}: {err}") from err
    raise DimMismatch(f"effects have mixed dimensions {sorted(dims)}")


def observable_new(dim: int, outcomes: Sequence[str], matrices, tol: float | None = None) -> Observable:
    """Validate raw matrices as an observable of the stated dimension."""
    obs = Observable(outcomes, matrices, tol)
    if obs.dim != dim:
        raise DimMismatch(f"declared dim {dim}, effects are {obs.dim}x{obs.dim}")
    return obs


@dataclass(frozen=True)
class Distribution:
    """Outcome probabilities of one observable in one state, summing to 1 within ``bound``."""

    outcomes: tuple[str, ...]
    probabilities: tuple[float, ...]
    bound: InitVar[float | None] = None

    def __post_init__(self, bound):
        s = sum(self.probabilities)
        if abs(s - 1.0) > (10 * linalg.default_tol(len(self.probabilities)) if bound is None else bound):
            raise NotNormalized(f"probabilities sum to {s!r}, not 1")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.outcomes, self.probabilities))

    def __getitem__(self, label: str) -> float:
        return self.as_dict()[label]


def distribution(rho: State, a: Observable, tol: float | None = None) -> Distribution:
    """The probabilities tr(rho A_x), each clamped by at most the matrix tolerance t. They sum
    to tr(rho (I + D)) with max |D_ij| <= t, and |tr(rho D)| <= d t: so to 1 within (d + m) t."""
    probs = tuple(occurrence_probability(rho, e, tol) for e in a.effects)
    return Distribution(a.outcomes, probs, (a.dim + len(a)) * linalg.tols(a.dim, tol)[0])


def obs_seq_product(a: Observable, b: Observable, tol: float | None = None) -> Observable:
    """Joint observable with effects A_x o B_y on outcomes 'x<sep>y'.

    Outcomes run in lexicographic input order: all of A's first outcome
    paired with each of B's outcomes, and so on. The products
    (``effects.seq_matrix``) are validated once, as the observable.
    """
    base, _ = linalg.tols(a.dim, tol)
    labels = [f"{x}{PRODUCT_SEP}{y}" for x in a.outcomes for y in b.outcomes]
    prods = [seq_matrix(ax, by) for ax in a.effects for by in b.effects]
    return Observable(labels, prods, 10 * base)


class LineTable(NamedTuple):
    """The rank-one effects of A as lines v v*, against every effect of B."""

    index: np.ndarray    # (K,): the x whose A_x is rank one, ascending
    vectors: np.ndarray  # (d, K): their unit vectors v, A_x's top eigenvector
    forms: np.ndarray    # (n, K): Re <B_y, v v*>


def line_table(a: Observable, b: Observable) -> tuple[LineTable, np.ndarray]:
    """The line table of the ordered pair (A, B), of one dimension, and the
    (K, d, d) projection stack P of its lines.

    A_x is rank one when exactly one eigenvalue is at least the zero band
    that A's effects share (the rule of ``Effect.factor``), counted for all
    x at once over ``spectra``; v is that eigenvalue's eigenvector, the last
    column, read from the eigenvector stack. The forms are one Gram GEMM
    (``certified_forms``) when all of B and A's lines are certified, else
    one real GEMM of B's stack against P's float view (``linalg.frobenius``).
    """
    require_same_dim(a, b)
    index = ((a.spectra() >= a.effects[0]._zero).sum(axis=-1) == 1).nonzero()[0]
    vectors = a._spectral.eigenvectors[index, :, -1].T
    projections = linalg.projections(vectors)
    certified = b._certified.all() and a._certified[index].all()
    forms = certified_forms(b, vectors) if certified else linalg.frobenius(b.stack(), projections)
    return LineTable(index, vectors, forms), projections


def certified_forms(b: Observable, vectors: np.ndarray) -> np.ndarray:
    """Re <B_y, v v*> = w'_y |<u_y, v>|^2 (n, K) for the effects of ``b``, all certified
    as their top eigenpairs w'_y u_y u_y*, and unit columns v of ``vectors`` (d, K)."""
    gram = b._spectral.eigenvectors[:, :, -1].conj() @ vectors
    return b.spectra()[:, -1, None] * (gram.real ** 2 + gram.imag ** 2)


class Products(NamedTuple):
    """Every sequential product A_x o B_y of a pair, reduced as it is made. A lifted or certified
    rank-one A_x fills its row of ``deviations``; an uncertified rank-one A_x only the y of its lowest
    and highest coefficient, the rest 0: the deviation is convex in it, so each row's max is exact."""

    deviations: np.ndarray   # (m, n): max_abs(A_x o B_y - A_x / n), as above
    conditioned: np.ndarray  # (n, d, d): (B|A)_y as summed; Hermitian within rounding; not validated
    lines: LineTable         # the rank-one A_x against B, without their projections


def products(a: Observable, b: Observable) -> Products:
    """Make every A_x o B_y once and reduce it as it is made: into condition
    (1)'s deviation table (``Products``) and into the running sum (B|A)_y, kept as summed.

    The one place that chooses how a product is made. For a rank-one
    effect A_x = w_x v v* (``line_table``), A_x o B_y = c_xy P_x with
    P_x = v v* and c_xy = w_x Re <B_y, P_x>, one real number per product
    from the table's forms. Their part of (B|A) is c @ P, one real
    (n, K) x (K, 2d^2) GEMM over P's float view. A certified A_x, w_x P_x within
    ``CERTIFICATE_TOL``, deviates from A_x / n by |c_xy - w_x / n| max_i |v_i|^2;
    for an uncertified one the deviation is convex in c_xy, so its max over y
    sits at the lowest or the highest c_xy, evaluated on P. Every other effect lifts
    R B_y R, R = sqrt(A_x), for all y in two GEMMs over B's stack viewed as (n d, d) rows:
    rows @ R gives every B_y R, whose conjugate transpose is R B_y (R and B_y are Hermitian
    in every bit), and a second GEMM gives (R B_y) R, into three (n, d, d) buffers made once
    per pass. The bits equal those of n separate d x d products only when d is a multiple
    of 4 (seen with OpenBLAS for d = 2-71); otherwise entries move by about 1e-16.
    """
    scale = 1.0 / len(b)
    devs = np.zeros((len(a), len(b)))
    lines, projections = line_table(a, b)
    ones = lines.index
    coeffs = lines.forms * a.spectra()[ones, -1]
    total = (coeffs @ linalg.real_rows(projections)).view(complex).reshape(len(b), a.dim, a.dim)
    if len(ones):  # w_x |f_xy - 1/n| max|v|^2, set to 0 on uncertified lines but at lo/hi
        peaks = np.max(np.abs(lines.vectors), axis=0) ** 2 * a._certified[ones]
        devs[ones] = (np.abs(lines.forms - scale) * a.spectra()[ones, -1] * peaks).T
        cols = np.flatnonzero(~a._certified[ones])
        if len(cols):
            xs, subset, targets = ones[cols], projections[cols], scale * a.stack()[ones[cols]]
            for ys in (coeffs[:, cols].argmin(axis=0), coeffs[:, cols].argmax(axis=0)):
                devs[xs, ys] = linalg.max_abs_each(coeffs[ys, cols, None, None] * subset - targets)
    lifted = np.bincount(ones, minlength=len(a)) == 0
    if lifted.any():
        rows = b.stack().reshape(len(b) * a.dim, a.dim)
        lifts, half = np.empty_like(total), np.empty_like(total)
        mag = np.empty(total.shape)
        lift_rows, half_rows = lifts.reshape(rows.shape), half.reshape(rows.shape)
        for x in lifted.nonzero()[0]:
            root = a.effects[x].sqrt()
            np.matmul(rows, root, out=lift_rows)
            np.conjugate(lifts.swapaxes(-1, -2), out=half)
            np.matmul(half_rows, root, out=lift_rows)
            np.subtract(lifts, scale * a.effects[x].matrix, out=half)
            np.max(np.abs(half, out=mag), axis=(-2, -1), out=devs[x])
            total += lifts
    return Products(devs, total, lines)


def conditioned(b: Observable, a: Observable, tol: float | None = None) -> Observable:
    """The observable (B|A), validated once."""
    base, _ = linalg.tols(a.dim, tol)
    return Observable(b.outcomes, products(a, b).conditioned, 10 * base)


@dataclass(frozen=True)
class PartitionMap:
    """Surjective map from one outcome set onto another, fiber by fiber."""

    source_outcomes: tuple[str, ...]
    target_outcomes: tuple[str, ...]
    mapping: Mapping[str, str]

    def __post_init__(self):
        src = tuple(str(x) for x in self.source_outcomes)
        tgt = tuple(str(y) for y in self.target_outcomes)
        if len(set(src)) != len(src) or len(set(tgt)) != len(tgt):
            raise DuplicateLabel("partition outcome labels must be unique")
        object.__setattr__(self, "source_outcomes", src)
        object.__setattr__(self, "target_outcomes", tgt)
        object.__setattr__(self, "mapping", dict(self.mapping))
        if set(self.mapping) != set(src):
            raise LabelMismatch("mapping must be defined on exactly the source outcomes")
        values = set(self.mapping.values())
        if not values <= set(tgt):
            raise LabelMismatch(f"mapping hits unknown target(s) {sorted(values - set(tgt))}")
        if values != set(tgt):
            raise LabelMismatch(f"target(s) never hit: {sorted(set(tgt) - values)}")

    def fibers(self) -> dict[str, tuple[str, ...]]:
        """Preimages keyed by target, each in source order."""
        return {
            y: tuple(x for x in self.source_outcomes if self.mapping[x] == y)
            for y in self.target_outcomes
        }

    def fiber_sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.fibers().values())


def coarse_grain(a: Observable, f: PartitionMap, tol: float | None = None) -> Observable:
    """Merge outcomes of ``a`` along the fibers of ``f``."""
    if set(f.source_outcomes) != set(a.outcomes):
        raise LabelMismatch("partition source must equal the observable's outcomes")
    base, _ = linalg.tols(a.dim, tol)
    source = [a.outcomes.index(x) for x in f.source_outcomes]
    target = [f.target_outcomes.index(f.mapping[x]) for x in f.source_outcomes]
    effs = np.zeros((len(f.target_outcomes), a.dim, a.dim), dtype=complex)
    np.add.at(effs, target, a.stack()[source])  # in source order from +0.0, as a loop would
    return Observable(f.target_outcomes, effs, 10 * base)


class CoexistenceWitness(NamedTuple):
    joint: Observable
    to_first: PartitionMap
    to_second: PartitionMap


def coexistence_witness(a: Observable, b: Observable, tol: float | None = None) -> CoexistenceWitness:
    """Exhibit A and (B|A) as coarse-grainings of the product A o B.

    The returned partitions recover A exactly (first marginal) and the
    conditioned observable (B|A) (second marginal), so both are parts of
    one joint observable.
    """
    joint = obs_seq_product(a, b, tol)
    pairs = [(x, y) for x in a.outcomes for y in b.outcomes]
    joined = [f"{x}{PRODUCT_SEP}{y}" for x, y in pairs]
    to_first = PartitionMap(tuple(joined), a.outcomes,
                            {lab: x for lab, (x, _) in zip(joined, pairs)})
    to_second = PartitionMap(tuple(joined), b.outcomes,
                             {lab: y for lab, (_, y) in zip(joined, pairs)})
    return CoexistenceWitness(joint, to_first, to_second)


def conjugate(a: Observable, u: np.ndarray, tol: float | None = None) -> Observable:
    """Apply the unitary change of basis E -> U E U* to every effect."""
    if np.shape(u) != (a.dim, a.dim):
        raise DimMismatch(f"unitary has shape {np.shape(u)}, the effects are {(a.dim, a.dim)}")
    return Observable(a.outcomes, u @ a.stack() @ np.conjugate(u).T, tol)


def iter_set_partitions(items: Sequence) -> Iterator[list[list]]:
    """Every partition of ``items`` into nonempty blocks.

    Blocks and items keep first-occurrence order; the count over n items
    is the n-th Bell number.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in iter_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def iter_partition_maps(a: Observable) -> Iterator[PartitionMap]:
    """All coarse-graining maps of an observable, targets labelled '0', '1', ..."""
    for blocks in iter_set_partitions(a.outcomes):
        ordered = sorted(blocks, key=lambda blk: a.outcomes.index(blk[0]))
        targets = tuple(str(i) for i in range(len(ordered)))
        mapping = {x: str(i) for i, blk in enumerate(ordered) for x in blk}
        yield PartitionMap(a.outcomes, targets, mapping)
