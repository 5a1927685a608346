"""Finite-outcome observables and the operations that combine them.

An observable is a labelled family of effects summing to the identity.
Only the public constructors validate: ``Observable`` itself and the
derived constructions (``obs_seq_product``, ``conditioned``,
``coarse_grain``, ``conjugate``), which validate their new matrices once,
as the observable. Products, conditioning and coarse-graining validate
with a 10x looser tolerance, since each entry accumulates roundoff from up
to m*n sequential products. Predicates compare the unvalidated products of
``products`` instead: products and sums of valid effects need no second check.

Every observable is one validated (m, d, d) stack, and the eigenvalues (m, d), top unit
eigenvectors (m, d), certified mask and factor ranks its validation produced
(``effects.effects_of``): each effect is a view of them, and of its full eigenvectors when
it is not certified (a certified one builds them only if ``Effect.spectral`` is read). So
it holds its stack, O(m d) numbers more and the eigenvectors of its uncertified effects.
An ``Effect`` given to ``Observable`` counts as its matrix and is validated again, under
the observable's tolerance.

``products`` makes every sequential product of a pair by the paper's taxonomy of ranks
(``Observable.ranks``): a rank-one effect as a line (``line_table``, which owns c_xy), a
low-rank one, such as a block of coarse-grained position, through its factor
(``compressions``), and any other, such as a full-rank unsharp one, as sqrt(A) B sqrt(A).

The tables that ``analysis`` turns into verdicts are made here, as array programs over
the (m, d, d) stacks; the (m, n, d, d) array of all products is never built.

* ``products`` makes each A_x o B_y once: one number per product for a rank-one A_x,
  so an atomic pair costs O(d^4), not O(d^5); U_x (s C_xy s) U_x* from the k x k
  compression C_xy = (U_x* B_y) U_x for a factored A_x, O(d^2 k) a product. A pass
  whose effects are all rank one holds its line table and (B|A) 8 rows at a time,
  O((m + n) d) numbers per row: no (m, d, d) stack, unless a line is uncertified and
  its forms read the lines' projections. Any other pass holds stacks of at most m or
  n matrices, O((m + n) d^2); one that lifts effects through their factors holds (B|A)
  and one tile of lifts (``linalg.blocks``) beyond its factors and compressions.
* ``certainty_deviations`` reads a certainty subspace that is a rank-one effect's own
  line as |Re <B_y, P_x> - 1/n| max|v|^2, a column of the line table; other subspaces
  are compressed to k x k: where the subspace is a factored effect's kept range, the
  pass's own C_xy, a block of outcomes at a time, else one outcome at a time (``certainty_compression``).
* ``trace_table`` and the line table's forms are one d x d Gram GEMM of top
  vectors where every effect they read is certified, else one real GEMM of the
  flattened stacks (``linalg.frobenius``).

Products are plain ``@``. Splitting the trace-table product into calls small enough
for OpenBLAS to run on one thread was measured and gave no gain, at d = 32 or 64.

On small pairs numpy's fixed cost per call, not flops, sets the time, so a pass makes no call
whose result it knows: with no line or nothing to factor, the empty line table or no
compressions come back at once. Every bit is kept; the README gives the costs.
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

    __slots__ = ("outcomes", "effects", "dim", "_stack", "_eigenvalues", "_top", "_certified", "_vectors", "_ranks")

    def __init__(self, outcomes: Sequence[str], effects, tol: float | None = None):
        labels = tuple(str(x) for x in outcomes)
        if len(set(labels)) != len(labels):
            seen = [x for i, x in enumerate(labels) if x in labels[:i]]
            raise DuplicateLabel(f"repeated outcome label(s): {sorted(set(seen))}")
        if len(labels) != len(effects):
            raise LabelMismatch(f"{len(labels)} labels for {len(effects)} effects")
        if not labels:
            raise LabelMismatch("observable needs at least one outcome")
        self._stack, validated, spectra, self._ranks = _validated(labels, effects, tol)
        self._eigenvalues, self._top, self._certified, self._vectors = spectra
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
        array, whose views they are."""
        return self._eigenvalues

    def ranks(self) -> np.ndarray:
        """Every effect's rank r_x as its square root sees it (``Effect.factor``), one read-only (m,)
        array counted at validation (``effects_of``), by which every pass chooses each effect's path."""
        return self._ranks

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
               ) -> tuple[np.ndarray, list[Effect], linalg.StackSpectra, np.ndarray]:
    """The matrices as one validated stack, their effects, the stack's spectra and
    ranks (``effects_of``). An ``Effect`` counts as its matrix.

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
    coeffs: np.ndarray   # (n, K): c_xy = w_x Re <B_y, v v*>, so that A_x o B_y = c_xy v v*
    peaks: np.ndarray    # (K,): max_i |v_i|^2 = max_abs(v v*), which scales every deviation on a line


def line_table(a: Observable, b: Observable) -> LineTable:
    """The line table of the ordered pair (A, B), of one dimension.

    A_x is rank one when ``Observable.ranks`` says so (the rank of ``Effect.factor``);
    v is its one eigenvector above the zero band, the top vector that validation kept,
    and w_x its top eigenvalue. The forms are one Gram GEMM
    (``certified_forms``) when all of B and A's lines are certified, else
    one real GEMM of B's stack against the lines' (K, d, d) projection stack
    (``linalg.frobenius``), made for that product and dropped. The table owns
    the coefficients c_xy = w_x forms and the peaks max_i |v_i|^2 of ``products`` and ``certainty_deviations``.

    With no rank-one effect the table is empty, in the shapes and dtypes the GEMM would give,
    and is returned before any test or product (about 9 us a pass at d <= 16).
    """
    require_same_dim(a, b)
    index = (a.ranks() == 1).nonzero()[0]
    if not len(index):  # no line: the empty table, without the tests and GEMM that would make it
        empty = np.empty((len(b.outcomes), 0))
        return LineTable(index, np.empty((a.dim, 0), dtype=complex), empty, empty, np.empty(0))
    vectors = a._top[index].T
    if b._certified.all() and a._certified[index].all():
        forms = certified_forms(b, vectors)
    else:
        forms = linalg.frobenius(b.stack(), linalg.projections(vectors))
    peaks = np.maximum.reduce(np.abs(vectors), axis=0) ** 2
    return LineTable(index, vectors, forms, forms * a.spectra()[index, -1], peaks)


class Compressions(NamedTuple):
    """B's effects compressed onto the factors of A's factored effects of one rank k."""

    index: np.ndarray     # (K,): the x whose A_x is lifted through its factor, of rank k, ascending
    vectors: np.ndarray   # (K, d, k): U_x, A_x's top k eigenvectors, the columns of its factor
    adjoints: np.ndarray  # (K, k, d): U_x*
    matrices: np.ndarray  # (K, n, k, k): C_xy = (U_x* B_y) U_x


def compressions(a: Observable, b: Observable) -> tuple[Compressions, ...]:
    """C_xy = (U_x* B_y) U_x for every A_x that ``products`` lifts through its factor: one
    ``Compressions`` per rank k, ascending.

    A_x is factored when its rank r (``Observable.ranks``) is neither 0 nor 1 (a line) and
    r (d + r) < d^2, so that its lifts cost fewer flops than R B_y R; and, while one outcome's
    n lifts fit in a block (n d^2 < ``linalg._CHUNK_ENTRIES``), only when another A_x has its
    rank: there numpy calls, not flops, set the cost, and a block of one makes more than its
    dense lift. Each numpy call makes a tile of products of one rank (``linalg.blocks``):
    per (x, y) the GEMMs U_x* @ B_y and then @ U_x of one outcome's shapes, so these are the
    bits of one outcome's products. (OpenBLAS rounds an entry by the GEMM's width, so a block
    padded to a larger rank would move them.) With nothing to factor it returns () before any array work.
    """
    require_same_dim(a, b)
    d = a.dim
    groups: dict[int, list[int]] = {}
    for x, r in enumerate(a.ranks().tolist()):
        if 1 < r and r * (r + d) < d * d:
            groups.setdefault(r, []).append(x)
    fits = len(b.outcomes) * d * d < linalg._CHUNK_ENTRIES  # then a rank held once stays dense
    groups = {k: index for k, index in groups.items() if len(index) > 1 or not fits}
    if not groups:
        return ()
    rows = np.cumsum(~a._certified) - 1  # of each effect in the uncertified effects' eigenvector stack
    out = []
    for k, index in sorted(groups.items()):
        index = np.array(index)
        vectors = a._vectors[rows[index], :, d - k:]  # uncertified: k > 1
        adjoints = vectors.conj().swapaxes(-1, -2)
        matrices = np.empty((len(index), len(b.outcomes), k, k), dtype=complex)
        for xs, ys in linalg.blocks(len(index), len(b.outcomes), d):
            np.matmul(adjoints[xs, None] @ b.stack()[ys], vectors[xs, None], out=matrices[xs, ys])
        out.append(Compressions(index, vectors, adjoints, matrices))
    return tuple(out)


def certified_forms(b: Observable, vectors: np.ndarray) -> np.ndarray:
    """Re <B_y, v v*> = w'_y |<u_y, v>|^2 (n, K) for the effects of ``b``, all certified
    as their top eigenpairs w'_y u_y u_y*, and unit columns v of ``vectors`` (d, K)."""
    gram = b._top.conj() @ vectors
    return b.spectra()[:, -1, None] * (gram.real ** 2 + gram.imag ** 2)


def trace_table(a: Observable, b: Observable) -> np.ndarray:
    """tr(A_x B_y), real part, as an (m, n) array: w_x w'_y |<u_y, v_x>|^2, one Gram GEMM,
    when every effect of both is certified as w v v* (``linalg.hermitian_eigs``); else
    Re <A_x, B_y> (``linalg.frobenius``), which is Re tr(A_x B_y) for Hermitian stacks."""
    require_same_dim(a, b)
    if a._certified.all() and b._certified.all():
        return (certified_forms(b, a._top.T) * a.spectra()[:, -1]).T
    return linalg.frobenius(a.stack(), b.stack())


def certainty_deviations(first: Observable, second: Observable, units: np.ndarray,
                         table: LineTable, comps: tuple[Compressions, ...]) -> np.ndarray:
    """max_abs(P S_y P - P / n) as an (m, n) table, S_y the n effects of
    ``second`` and P = U U* for the certainty subspace of A_x (the eigenvalue-1
    eigenspace, marked in ``units``, basis U). A row with none holds 0, P = 0.
    On A_x's own line (one unit eigenvalue, the top one, and A_x rank one) the
    matrix is (v* S_y v - 1/n) v v*, of entrywise max |Re <S_y, v v*> - 1/n|
    max_i |v_i|^2: a column of ``table``, the line table of (first, second).
    Every other subspace compresses S_y to k x k, (U* S_y) U, and lifts back:
    read from ``comps`` (``compressions`` of (first, second)), a block of
    outcomes per call, where its unit eigenspace is exactly the kept columns
    U_x of a factored A_x, its top k, else one outcome at a time (``certainty_compression``)."""
    n = len(second.outcomes)
    target = 1.0 / n
    devs = np.zeros((len(first.outcomes), n))
    counts = units.sum(axis=-1)
    own = ((counts == 1) & units[:, -1])[table.index] if len(table.index) else None
    if own is not None and own.any():
        devs[table.index[own]] = (np.abs(table.forms[:, own] - target) * table.peaks[own]).T
        counts[table.index[own]] = 0  # their lines are done
    for index, u, adj, matrices in comps:  # the rows whose unit eigenspace is their factor's U_x
        shared = (units[index] == (np.arange(first.dim) >= first.dim - u.shape[-1])).all(axis=-1)
        if not shared.all():
            index, u, adj, matrices = index[shared], u[shared], adj[shared], matrices[shared]
        core = matrices - target * np.eye(u.shape[-1])
        for xs, ys in linalg.blocks(len(index), n, first.dim):
            devs[index[xs], ys] = linalg.max_abs_each(u[xs, None] @ core[xs, ys] @ adj[xs, None])
        counts[index] = 0
    for x in counts.nonzero()[0]:
        u, core = certainty_compression(first, x, units[x], second.stack())
        core.reshape(n, -1)[:, ::u.shape[1] + 1] -= target  # - target I, in place
        devs[x] = linalg.max_abs_each(u @ core @ u.conj().T)
    return devs


def certainty_compression(first: Observable, x: int, mask: np.ndarray, matrices: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """U, A_x's certainty basis marked by ``mask`` (``Effect._unit_basis``), and (U* M) U for M in ``matrices``."""
    u = first.effects[x]._unit_basis(mask)
    return u, u.conj().T @ matrices @ u


#: Rows of (B|A) per block on a pass whose effects are all rank one (``products``). At d = 32
#: a block of P is then at most 128 KiB, glibc's default mmap threshold: 4 and 16 rows ran slower.
_BLOCK_ROWS = 8


class Products(NamedTuple):
    """Every sequential product A_x o B_y of a pair, reduced as it is made. A lifted or certified
    rank-one A_x fills its row of ``deviations``; an uncertified rank-one A_x only the y of its lowest
    and highest coefficient, the rest 0: the deviation is convex in it, so each row's max is exact."""

    deviations: np.ndarray   # (m, n): max_abs(A_x o B_y - A_x / n), as above
    conditioned: np.ndarray  # (n,): max_abs((B|A)_y - I / n), of (B|A) as summed, not validated
    lines: LineTable         # the rank-one A_x against B
    compressions: tuple[Compressions, ...]  # the factored A_x against B


def products(a: Observable, b: Observable) -> Products:
    """Make every A_x o B_y once and reduce it as it is made: into condition
    (1)'s deviation table and condition (2)'s deviations of (B|A)_y (``Products``).

    The one place that chooses how a product is made. For a rank-one
    effect A_x = w_x v v* (``line_table``), A_x o B_y = c_xy P_x with
    P_x = v v* and c_xy = w_x Re <B_y, P_x>, one real number per product
    from the table's forms. A certified A_x, w_x P_x within ``CERTIFICATE_TOL``,
    deviates from A_x / n by |c_xy - w_x / n| max_i |v_i|^2; for an uncertified
    one the deviation is convex in c_xy, so its max over y sits at the lowest or
    the highest c_xy, evaluated on its own P_x only. Every other effect is lifted
    (``_summed``), through its factor where that costs fewer flops (``compressions``).

    When every A_x is rank one, (B|A)_y = sum_x c_xy P_x is never built whole.
    For each block of _BLOCK_ROWS rows i0:i1, one real GEMM of c against P, made
    for those rows and the columns j >= i0 only, gives that upper trapezoid of
    every (B|A)_y: the sum is Hermitian within rounding, and |conj z| = |z|. The
    pass holds O((m + n) _BLOCK_ROWS d) numbers beyond its table. Otherwise
    (B|A) is summed whole (``_summed``) and its deviations are read from it.
    OpenBLAS rounds a GEMM's column by the GEMM's width, so the two ways can
    differ by a few ulps (seen at d = 25 and 27).
    """
    m, n = len(a.outcomes), len(b.outcomes)
    scale = 1.0 / n
    devs = np.zeros((m, n))
    lines = line_table(a, b)
    ones, coeffs = lines.index, lines.coeffs
    if len(ones):  # w_x |f_xy - 1/n| max|v|^2, set to 0 on uncertified lines but at lo/hi
        peaks = lines.peaks * a._certified[ones]
        devs[ones] = (np.abs(lines.forms - scale) * a.spectra()[ones, -1] * peaks).T
        cols = np.flatnonzero(~a._certified[ones])
        if len(cols):
            xs, targets = ones[cols], scale * a.stack()[ones[cols]]
            subset = linalg.projections(lines.vectors[:, cols])
            for ys in (coeffs[:, cols].argmin(axis=0), coeffs[:, cols].argmax(axis=0)):
                devs[xs, ys] = linalg.max_abs_each(coeffs[ys, cols, None, None] * subset - targets)
    if len(ones) < m:
        comps = compressions(a, b)
        summed = _summed(a, b, lines, comps, devs)
        return Products(devs, _uniform_deviations(summed, scale), lines, comps)
    rows = lines.vectors.T
    conj = rows.conj()
    gaps = np.zeros(n)
    for i0 in range(0, a.dim, _BLOCK_ROWS):
        block = np.multiply(rows[:, i0:i0 + _BLOCK_ROWS, None], conj[:, None, i0:], order="C")
        summed = (coeffs @ linalg.real_rows(block)).view(complex).reshape(n, *block.shape[1:])
        np.maximum(gaps, _uniform_deviations(summed, scale), out=gaps)
    return Products(devs, gaps, lines, ())


def _uniform_deviations(summed: np.ndarray, scale: float) -> np.ndarray:
    """max_abs(S_y - scale I) (n,) for a block S (n, h, w) of the rows i0:i0 + h and the
    columns i0: of n matrices, the whole matrices when h = w. Subtracts in place."""
    summed.reshape(len(summed), -1)[:, ::summed.shape[-1] + 1] -= scale
    return linalg.max_abs_each(summed)


def _summed(a: Observable, b: Observable, lines: LineTable, comps: tuple[Compressions, ...],
            devs: np.ndarray) -> np.ndarray:
    """(B|A)_y = sum_x A_x o B_y as an (n, d, d) array, summed, not validated. ``lines`` is
    ``line_table(a, b)`` and ``comps`` is ``compressions(a, b)``; each lifted row of ``devs``
    (m, n) gets max_abs(A_x o B_y - A_x / n).

    The rank-one effects' part is c @ P, c the table's c_xy, one real (n, K) x (K, 2d^2)
    GEMM over the float view of their (K, d, d) projection stack. A factored effect has
    sqrt(A_x) = U_x diag(s) U_x*, s = sqrt(w_x) for its k kept eigenvalues w_x
    (``Effect.factor``), so A_x o B_y = U_x (diag(s) C_xy diag(s)) U_x* with C_xy from
    ``comps``: two GEMMs per (x, y), O(d^2 k) instead of O(d^3), a tile of products per
    call (``linalg.blocks``), so the pass holds one tile of lifts beyond (B|A). Every other
    effect, of rank neither 1 nor factored (``Observable.ranks``), lifts R B_y R, R = sqrt(A_x),
    for all y in two GEMMs over B's stack viewed as (n d, d) rows: rows @ R gives every B_y R,
    whose conjugate transpose is R B_y (R and B_y are Hermitian in every bit), and a second GEMM
    gives (R B_y) R, into three (n, d, d) buffers made once per pass. By the same GEMM rounding,
    these differ from n separate d x d products by about 1e-16 at some d (with OpenBLAS, those
    not a multiple of 4).
    """
    n = len(b.outcomes)
    scale = 1.0 / n
    shape = (n, a.dim, a.dim)
    if len(lines.index):
        total = (lines.coeffs @ linalg.real_rows(linalg.projections(lines.vectors))).view(complex).reshape(shape)
    else:  # the bits of an empty GEMM, without its cost on small lifted passes
        total = np.zeros(shape, dtype=complex)
    lifted = a.ranks() != 1
    for index, vectors, adjoints, matrices in comps:
        roots = np.sqrt(a.spectra()[index, a.dim - vectors.shape[-1]:])
        scaled = matrices * (roots[:, None, :, None] * roots[:, None, None, :])  # diag(s) C_xy diag(s)
        for xs, ys in linalg.blocks(len(index), n, a.dim):
            lifts = vectors[xs, None] @ scaled[xs, ys] @ adjoints[xs, None]
            total[ys] += lifts[0] if len(lifts) == 1 else lifts.sum(axis=0)  # no copy of a block of one
            lifts -= scale * a.stack()[index[xs], None]
            devs[index[xs], ys] = linalg.max_abs_each(lifts)
        lifted[index] = False
    if lifted.any():
        rows = b.stack().reshape(n * a.dim, a.dim)
        lifts, half = np.empty_like(total), np.empty_like(total)
        mag = np.empty(total.shape)
        lift_rows, half_rows = lifts.reshape(rows.shape), half.reshape(rows.shape)
        for x in lifted.nonzero()[0]:
            root = a.effects[x].sqrt()
            np.matmul(rows, root, out=lift_rows)
            np.conjugate(lifts.swapaxes(-1, -2), out=half)
            np.matmul(half_rows, root, out=lift_rows)
            np.subtract(lifts, scale * a.effects[x].matrix, out=half)
            np.maximum.reduce(np.abs(half, out=mag), axis=(-2, -1), out=devs[x])  # max_abs_each
            total += lifts
    return total


def conditioned(b: Observable, a: Observable, tol: float | None = None) -> Observable:
    """The observable (B|A), summed as by a product pass with a lifted row (``_summed``, on
    the line table and compressions of (A, B)), validated once."""
    base, _ = linalg.tols(a.dim, tol)
    summed = _summed(a, b, line_table(a, b), compressions(a, b), np.zeros((len(a), len(b))))
    return Observable(b.outcomes, summed, 10 * base)


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

    Items in a block keep first-occurrence order, blocks do not (``[[2], [1, 3]]``
    is yielded, so ``iter_partition_maps`` sorts them); n items give Bell(n) of them.
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
