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

Two routines diagonalize. ``hermitian_eig`` runs ``eigh`` on one matrix.
``hermitian_eigs`` decomposes a whole (m, d, d) stack into one stacked decomposition,
eigenvalues (m, d) and eigenvectors (m, d, d): matrices it can certify as rank one
within ``CERTIFICATE_TOL`` get theirs in O(d^2) without ``eigh`` and are marked in
a mask (only they may be read as their top eigenpair w v v* in closed forms); the
rest go through ``eigh`` with the bits ``hermitian_eig`` gives.
"""
from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, InvalidParams, NonFinite, NotHermitian

#: Default tolerance for classifying individual eigenvalues (zero? one?), and
#: the least zero band: below max(eig_tol, EIGENVALUE_TOL) of its validation,
#: an effect's eigenvalue is zero for its square root and the line table.
EIGENVALUE_TOL = 1e-9

#: Largest ||H - v v*||_F at which ``hermitian_eigs`` certifies H as rank
#: one (capped by the eigenvalue tolerance in force). Rounded rank-one
#: projections leave at most 4.6e-16 up to d = 256; a spectrum 1e-12 off
#: rank one is not certified.
CERTIFICATE_TOL = 1e-13

#: ``hermitian_eigs`` works through its stack in chunks of at most this
#: many entries (256 KiB of complex128), so that its temporaries stay small.
_CHUNK_ENTRIES = 1 << 14


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


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a validated, frozen square complex matrix."""
    return freeze(_finite_square(np.array(entries, dtype=complex), 2, "a nonempty square matrix"))


def as_stack(entries) -> np.ndarray:
    """Coerce ``entries`` to a validated (m, d, d) complex stack: a writable copy, for ``hermitian_eigs``."""
    return _finite_square(np.array(entries, dtype=complex), 3, "a stack of nonempty square matrices")


def _finite_square(m: np.ndarray, ndim: int, expected: str) -> np.ndarray:
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimMismatch(f"expected {expected}, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFinite("matrix entries must be finite")
    return m


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(m))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm, the comparison norm used throughout."""
    return float(np.max(np.abs(m)))


def max_abs_each(stack: np.ndarray) -> np.ndarray:
    """``max_abs`` of every matrix in a stack: shape (n, d, d) gives (n,)."""
    return np.abs(stack).max(axis=(-2, -1))


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


def hermitian_eig(m: np.ndarray, tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, by ``eigh``.

    Parameters
    ----------
    m : ndarray
        Square matrix, Hermitian within ``tol``. It is symmetrized before
        the solver runs so that both triangles contribute (see
        ``_hermitian``).
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
    NotHermitian
        If the asymmetry exceeds ``tol``; the message carries the defect.
    """
    w, v = np.linalg.eigh(_hermitian(m, tols(m.shape[0], tol)[0]))
    return SpectralDecomposition(freeze(w), freeze(v))


def hermitian_eigs(stack: np.ndarray, tol: float | None = None
                   ) -> tuple[SpectralDecomposition, np.ndarray]:
    """Spectral decomposition of every matrix in an (m, d, d) stack.

    Each matrix must be Hermitian within the matrix tolerance of ``tol``
    (``tols``) and is symmetrized to H = (M + M*) / 2 as in ``hermitian_eig``, in place:
    ``stack`` must be writable, as from ``as_stack``, and is left frozen. Then, at once:

    * **Gate.** H is a rank-one candidate when max |H_ij| <= 1 + eig_tol
      and 0 < tr H <= 1 + eig_tol, eig_tol being the eigenvalue tolerance
      of ``tol``. Every rank-one effect passes; effects of trace 2 or more
      fail here, and entries near the float limit never reach the sums.
    * **Certificate.** With j the largest diagonal entry, v = H[:, j] /
      sqrt(H_jj) and R = H - v v*, H is certified when ||R||_F is at most
      min(CERTIFICATE_TOL, eig_tol). By Weyl's inequality every eigenvalue
      of H then lies within ||R||_F of (0, ..., 0, ||v||^2), which is the
      spectrum returned. The eigenvectors are one Householder reflector
      with its last column set to v / ||v||: unitary, O(d^2).
    * **Fallback.** Every other matrix goes through ``eigh`` on the same
      H, so its decomposition has the bits ``hermitian_eig`` gives.

    Returns one read-only ``SpectralDecomposition`` of the whole stack:
    eigenvalues (m, d), each row ascending, and eigenvectors (m, d, d),
    whose k-th matrix belongs to the k-th row; and a read-only (m,) bool
    mask, true exactly for the certified matrices. Raises ``NotHermitian``
    for the first matrix whose asymmetry exceeds the tolerance.
    """
    mat_tol, eig_tol = tols(stack.shape[-1], tol)
    w = np.zeros(stack.shape[:-1])
    v = np.empty_like(stack)
    certified = np.zeros(len(stack), dtype=bool)
    step = max(1, _CHUNK_ENTRIES // stack.shape[-1] ** 2)
    for i in range(0, len(stack), step):
        _chunk_eigs(stack[i:i + step], mat_tol, eig_tol, w[i:i + step], v[i:i + step], certified[i:i + step])
    freeze(stack)
    return SpectralDecomposition(freeze(w), freeze(v)), freeze(certified)


def _chunk_eigs(h: np.ndarray, mat_tol: float, eig_tol: float, w: np.ndarray, v: np.ndarray,
                certified: np.ndarray) -> None:
    """``hermitian_eigs`` of one chunk of its stack, symmetrized in place to H
    first, written into ``w`` (zeros on entry), ``v`` and ``certified`` (false on entry)."""
    _hermitian(h, mat_tol, out=h)
    diag = np.diagonal(h, axis1=-2, axis2=-1).real
    cand = np.flatnonzero(max_abs_each(h) <= 1.0 + eig_tol)
    traces = diag[cand].sum(axis=-1)
    cand = cand[(traces > 0.0) & (traces <= 1.0 + eig_tol)]
    if not len(cand):
        w[:], v[:] = np.linalg.eigh(h)
        return
    j = diag[cand].argmax(axis=-1)
    col = h[cand, :, j] / np.sqrt(diag[cand, j])[:, None]
    resid = real_rows(col[:, :, None] * col.conj()[:, None, :] - h[cand])
    ok = np.einsum("ki,ki->k", resid, resid) <= min(CERTIFICATE_TOL, eig_tol) ** 2
    done, col = cand[ok], col[ok]
    norm2 = np.einsum("ki,ki->k", col.conj(), col).real
    w[done, -1] = norm2
    v[done] = _unitary_ending_in(col / np.sqrt(norm2)[:, None])
    certified[done] = True
    rest = ~certified
    if rest.any():
        w[rest], v[rest] = np.linalg.eigh(h[rest])


def _hermitian(m: np.ndarray, tol: float, out: np.ndarray | None = None) -> np.ndarray:
    """(M + M*) / 2 of a matrix or of every matrix in a stack, after
    checking max |M - M*| <= tol for each; into ``out`` when given.

    It halves first, so entries near the float limit cannot overflow into
    a NaN spectrum. Halving is exact above the subnormal range, so the
    defect has the bits of max |M - M*| and the result those of
    (M + M*) / 2.
    """
    half = m * 0.5
    half_adj = np.conjugate(np.swapaxes(half, -1, -2))
    half_defect = max_abs_each(half - half_adj)
    bad = np.flatnonzero(half_defect > tol / 2.0)
    if len(bad):
        defect = 2.0 * float(half_defect.flat[bad[0]])  # a Python float: inf, not a warning
        raise NotHermitian(f"max asymmetry {defect:.3e} exceeds tol {tol:.3e}")
    return np.add(half, half_adj, out=out)


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
