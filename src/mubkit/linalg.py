"""Dense complex matrix helpers and spectral decompositions.

All matrices are square ``complex128`` numpy arrays, write-protected once
validated. Validation writes H = (M + M*) / 2 over the stack it decomposes
(``hermitian_eigs``), so a validated stack is Hermitian in every bit and is
the matrix its decomposition describes. It is where asymmetry is dropped:
products and their sums stay as computed, Hermitian within rounding, until
validated. Only ``Effect.sqrt`` (the lift takes R B as the adjoint of B R, so
R must be Hermitian in every bit) and the value-complementarity witness (its
``eigh`` reads one triangle; both count) symmetrize as well. Routines here
assume nothing about physical meaning; the effect and observable layers build on top.

One routine validates: ``hermitian_eigs`` checks an (m, d, d) stack (of effects, or a
stack of one effect or state), reading finiteness from the asymmetry defect, and finds
every matrix's eigenvalues (m, d) and top unit eigenvector (m, d). The candidates, chosen
by trace, that it certifies as rank one within ``CERTIFICATE_TOL`` get both in O(d^2),
without ``eigh``, and are marked in a mask (only they may be read as w v v* in closed
forms). The rest go through ``eigh`` with the bits of ``hermitian_eig``, ``eigh`` on one
matrix after the same check: the reference, by which nothing validates. Their full
eigenvectors are kept, one (u, d, d) array. The Householder unitary ending in a
certified vector (``_unitary_ending_in``) is built only when ``Effect.spectral`` of that
effect is read.
"""
from __future__ import annotations

import math
import numbers
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimMismatch, InvalidParams, NonFinite, NotHermitian

#: Default tolerance for classifying individual eigenvalues (zero? one?), and
#: the least zero band: below max(eig_tol, EIGENVALUE_TOL) of its validation,
#: an effect's eigenvalue is zero for its rank (``effects.effects_of``).
EIGENVALUE_TOL = 1e-9

#: Largest ||H - v v*||_F at which ``hermitian_eigs`` certifies H as rank
#: one (capped by the eigenvalue tolerance in force). Rounded rank-one
#: projections leave at most 4.6e-16 up to d = 256; a spectrum 1e-12 off
#: rank one is not certified.
CERTIFICATE_TOL = 1e-13

#: The most entries (256 KiB of complex128) in one tile of ``blocks``, by which
#: ``hermitian_eigs`` works through its stack and a factored product pass through
#: its products, so that their temporaries stay small.
_CHUNK_ENTRIES = 1 << 14


def blocks(count: int, n: int, dim: int) -> Iterator[tuple[slice, slice]]:
    """Slices (xs, ys) that tile a count x n table of d x d matrices in C order, each tile of
    at most ``_CHUNK_ENTRIES`` entries, and of one matrix at least (for d >= 91, exactly one)."""
    per = max(1, _CHUNK_ENTRIES // dim ** 2)
    rows, cols = max(1, per // n), min(n, per)
    for i in range(0, count, rows):
        for j in range(0, n, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def default_tol(dim: int) -> float:
    """Default tolerance for matrix comparisons in dimension ``dim``.

    Scales linearly with the dimension because the quantities compared are
    built from d-term sums of rounded products.
    """
    return 1e-9 * dim


def tols(dim: int, tol: float | None) -> tuple[float, float]:
    """(matrix-comparison tol, eigenvalue-classification tol) for one ``tol`` knob.

    ``None`` gives ``default_tol(dim)`` and ``EIGENVALUE_TOL``; a number
    sets both, so a user's tolerance reaches every comparison it governs.
    It must be a finite positive real (not a bool): every comparison is
    ``deviation <= tol``, which NaN fails, infinity passes, and zero or a
    negative value turns into a rejection of exact inputs.
    """
    if tol is None:
        return default_tol(dim), EIGENVALUE_TOL
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    try:
        valid = real and 0 < float(tol) < math.inf
    except OverflowError:  # an int past the largest float
        valid = False
    if not valid:
        raise InvalidParams(f"tol must be a finite positive number, got {tol!r}")
    return tol, tol


def freeze(m: np.ndarray) -> np.ndarray:
    """Make an array read-only in place and return it."""
    m.setflags(write=False)
    return m


def as_one(entries) -> np.ndarray:
    """Coerce ``entries`` to one square complex matrix as a writable (1, d, d) stack: one
    copy, for ``hermitian_eigs``, which checks that its entries are finite."""
    return _square(np.array(entries, dtype=complex), 2, "a nonempty square matrix")[None]


def as_stack(entries) -> np.ndarray:
    """Coerce ``entries`` to an (m, d, d) complex stack: a writable copy, for
    ``hermitian_eigs``, which checks that its entries are finite."""
    return _square(np.array(entries, dtype=complex), 3, "a stack of nonempty square matrices")


def _square(m: np.ndarray, ndim: int, expected: str) -> np.ndarray:
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimMismatch(f"expected {expected}, got shape {m.shape}")
    return m


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(m))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm, the comparison norm used throughout."""
    return float(np.max(np.abs(m)))


def max_abs_each(stack: np.ndarray) -> np.ndarray:
    """``max_abs`` of every matrix in a stack: shape (n, d, d) gives (n,)."""
    return np.maximum.reduce(np.abs(stack), axis=(-2, -1))


def projections(vectors: np.ndarray) -> np.ndarray:
    """v_k v_k* for every column v_k of ``vectors`` (d, K), as one C-ordered
    (K, d, d) stack."""
    v = vectors.T
    return np.multiply(v[:, :, None], v.conj()[:, None, :], order="C")


def real_rows(stack: np.ndarray) -> np.ndarray:
    """A C-ordered complex (n, d, d) stack as n real rows of length 2 d^2:
    a float view, interleaving each entry's real and imaginary parts."""
    return stack.reshape(len(stack), stack.shape[-2] * stack.shape[-1]).view(float)


def frobenius(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Re <L_i, R_k> = Re tr(L_i* R_k) for every matrix L_i of ``left``
    (n, d, d) and R_k of ``right`` (K, d, d), both C-ordered, as an (n, K)
    real array.

    Re <L, R> = sum_ij (Re L_ij Re R_ij + Im L_ij Im R_ij), so this is one
    real (n, 2d^2) x (2d^2, K) product of the stacks' float views. For
    R = v v*, it is Re v* L v.
    """
    return real_rows(left) @ real_rows(right).T


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending, real) and matching orthonormal eigenvector
    columns: of one matrix, or stacked along a leading axis for a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class StackSpectra(NamedTuple):
    """What ``hermitian_eigs`` finds of an (m, d, d) stack, all read-only."""

    eigenvalues: np.ndarray   # (m, d): each matrix's, ascending
    top: np.ndarray           # (m, d): each matrix's top unit eigenvector, of eigenvalues[:, -1]
    certified: np.ndarray     # (m,) bool: within CERTIFICATE_TOL of eigenvalues[:, -1] top top*
    eigenvectors: np.ndarray  # (u, d, d): the full eigenvectors of the u uncertified matrices, in order


def hermitian_eig(m: np.ndarray, tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, by ``eigh``.

    Parameters
    ----------
    m : ndarray
        Square matrix, finite and Hermitian within ``tol``. It is checked and symmetrized
        as a stack is (``_hermitian_part``), so that both triangles contribute.
    tol : float, optional
        Hermiticity tolerance; defaults to ``default_tol(dim)``.

    Returns
    -------
    SpectralDecomposition
        ``eigenvalues`` ascending and real, ``eigenvectors`` unitary with
        column j belonging to eigenvalue j. ``V diag(w) V*`` reconstructs
        ``m`` up to roundoff. Deterministic: identical input bits give
        identical output bits.

    Raises
    ------
    NonFinite
        If an entry is not finite.
    NotHermitian
        If the asymmetry exceeds ``tol``; the message carries the defect.
    """
    w, v = np.linalg.eigh(_hermitian_part(m, tols(m.shape[0], tol)[0]))
    return SpectralDecomposition(freeze(w), freeze(v))


def hermitian_eigs(stack: np.ndarray, tol: float | None = None) -> StackSpectra:
    """Eigenvalues and top eigenvectors of every matrix in an (m, d, d) stack.

    Each matrix must be finite and Hermitian within the matrix tolerance of ``tol``
    (``tols``), and is symmetrized to H = (M + M*) / 2 as in ``hermitian_eig``, in place:
    ``stack`` must be writable, as from ``as_stack``, and is left frozen. A tile of
    ``blocks`` at a time, the tile is halved in place, its defect max |M - M*| taken and H
    written; then:

    * **Check.** The defect, which NaN and inf carry through, is the finiteness check: a
      non-finite entry raises ``NonFinite`` before any ``NotHermitian``. H is a rank-one
      candidate when 0 < tr H <= 1 + eig_tol, eig_tol being the eigenvalue tolerance of
      ``tol``. Every rank-one effect passes, and effects of trace 2 or more fail here.
    * **Certificate.** With j the largest diagonal entry, v = H[:, j] / sqrt(H_jj) and
      R = H - v v*, written into scratch made once per stack, H is certified when ||R||_F
      is at most min(CERTIFICATE_TOL, eig_tol). By Weyl's inequality every eigenvalue of
      H then lies within ||R||_F of (0, ..., 0, ||v||^2), which is the spectrum returned,
      and v / ||v|| is its top vector: O(d^2), and no other eigenvector is made. A
      non-effect whose trace or v v* overflows fails it (inf and NaN fail every test).
    * **Fallback.** Every other matrix goes through ``eigh`` on the same H, a tile at a
      time into one (u, d, d) array, so its decomposition has the bits ``hermitian_eig``
      gives. Its top vector is the last column, a view when no matrix is certified.

    Returns one read-only ``StackSpectra``. Of the first tile with an invalid matrix, raises
    ``NonFinite`` if one is not finite, else ``NotHermitian`` for the first too asymmetric.
    """
    mat_tol, eig_tol = tols(stack.shape[-1], tol)
    w = np.zeros(stack.shape[:-1])
    certified = np.zeros(len(stack), dtype=bool)
    top = None  # made at the first certificate
    tiles = list(blocks(len(stack), 1, stack.shape[-1]))
    adj = np.empty_like(stack[tiles[0][0]] if tiles else stack)  # scratch for every tile: M*, M - M*, R
    scratch = (adj, np.empty_like(adj), np.empty(adj.shape))
    for xs, _ in tiles:
        done, u = _certify(stack[xs], mat_tol, eig_tol, w[xs], scratch)
        if len(done):
            if top is None:
                top = np.empty(stack.shape[:-1], dtype=complex)
            top[xs][done], certified[xs][done] = u, True
    del adj, scratch  # before the eigenvectors are made
    freeze(stack)
    rest = np.flatnonzero(~certified)
    v = np.empty((len(rest), *stack.shape[1:]), dtype=complex)
    for ks, _ in blocks(len(rest), 1, stack.shape[-1]):
        rows = ks if top is None else rest[ks]  # with no certificate, rest is every row
        w[rows], v[ks] = np.linalg.eigh(stack[rows])
    if top is None:
        top = v[:, :, -1]
    else:
        top[rest] = v[:, :, -1]
    return StackSpectra(freeze(w), freeze(top), freeze(certified), freeze(v))


def _certify(h: np.ndarray, mat_tol: float, eig_tol: float, w: np.ndarray,
             scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray | None]:
    """``hermitian_eigs``' pass over one tile: check it and symmetrize it in place to H, and
    certify what it can, in ``scratch`` (two complex buffers and a real one, of at least
    the tile's shape). Writes the certified spectra into ``w`` (zeros on entry) and
    returns their rows in the tile and their top unit vectors (K, d), None with no candidate."""
    adj, work, mag = (buf[:len(h)] for buf in scratch)
    _hermitian_part(h, mat_tol, h, adj, work, mag)
    diag = np.diagonal(h, axis1=-2, axis2=-1).real
    with np.errstate(over="ignore", invalid="ignore"):  # a non-effect's trace or col col* may overflow: fails
        traces = diag.sum(axis=-1)
        cand = np.flatnonzero((traces > 0.0) & (traces <= 1.0 + eig_tol))
        if not len(cand):
            return cand, None
        j = diag[cand].argmax(axis=-1)
        col = h[cand, :, j] / np.sqrt(diag[cand, j])[:, None]
        resid = np.multiply(col[:, :, None], col.conj()[:, None, :], out=work[:len(cand)])
        np.subtract(resid, h if len(cand) == len(h) else h[cand], out=resid)
        resid = real_rows(resid)
        ok = np.einsum("ki,ki->k", resid, resid) <= min(CERTIFICATE_TOL, eig_tol) ** 2
    done, col = cand[ok], col[ok]
    norm2 = np.einsum("ki,ki->k", col.conj(), col).real
    w[done, -1] = norm2
    return done, col / np.sqrt(norm2)[:, None]


def _hermitian_part(m: np.ndarray, tol: float, out: np.ndarray | None = None, adj: np.ndarray | None = None,
                    work: np.ndarray | None = None, mag: np.ndarray | None = None) -> np.ndarray:
    """Check a matrix, or every matrix in a stack, and write H = (M + M*) / 2 into ``out``
    (which may be ``m``), through the C-ordered scratch ``adj`` and ``work`` (complex) and
    ``mag`` (real) when given. Raises ``NonFinite`` if an entry is not finite, else
    ``NotHermitian`` for the first matrix whose asymmetry max |M - M*| exceeds ``tol``.

    Halving first keeps entries near the float limit from overflowing into a NaN
    spectrum. Halving is exact above the subnormal range, so the defect has the bits
    of max |M - M*| / 2 and the result those of (M + M*) / 2. The defect is NaN or inf
    where an entry is not finite; with finite entries, only where a modulus overflows.
    """
    with np.errstate(invalid="ignore"):  # inf * (0.5 + 0j) and inf - inf: NaN, raised below
        half = np.multiply(m, 0.5, out=out)
        adj = np.conjugate(np.swapaxes(half, -1, -2), out=adj)
        defect = np.abs(np.subtract(half, adj, out=work), out=mag).max(axis=(-2, -1))  # max_abs_each
    if not defect.max() < math.inf and not np.isfinite(half).all():  # NaN fails the first test too
        raise NonFinite("matrix entries must be finite")
    bad = defect > tol / 2.0
    if bad.any():
        worst = 2.0 * float(defect.flat[bad.argmax()])  # the first; a Python float: inf, not a warning
        raise NotHermitian(f"max asymmetry {worst:.3e} exceeds tol {tol:.3e}")
    return np.add(half, adj, out=half)


def _unitary_ending_in(u: np.ndarray) -> np.ndarray:
    """For unit rows u_k of ``u`` (K, d), unitaries Q_k (K, d, d) with last
    column u_k.

    Each is the Householder reflector I - 2 w w* / (w* w) with
    w = u + c e_d, c = u_d / |u_d| (1 if u_d = 0), which maps e_d to
    -u / c; w* w = 2 (1 + |u_d|) never cancels. Its other columns are
    e_k - w conj(u_k) / (1 + |u_d|), and the last is set to u itself.
    """
    last = u[:, -1]
    w = u.copy()
    w[:, -1] += np.exp(1j * np.angle(last))
    q = w[:, :, None] * (u.conj() / -(1.0 + np.abs(last))[:, None])[:, None, :]
    q.reshape(len(u), u.shape[-1] ** 2)[:, ::u.shape[-1] + 1] += 1.0
    q[:, :, -1] = u
    return q
