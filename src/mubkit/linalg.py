"""Dense complex matrix helpers and spectral decompositions.

All matrices are square ``complex128`` numpy arrays, write-protected once
validated. Routines here assume nothing about physical meaning; the effect
and observable layers build on top.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, NonFinite, NotHermitian

#: Tolerance used when classifying individual eigenvalues (zero? one?).
EIGENVALUE_TOL = 1e-9


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
    """
    if tol is None:
        return default_tol(dim), EIGENVALUE_TOL
    return tol, tol


def freeze(m: np.ndarray) -> np.ndarray:
    """Make an array read-only in place and return it."""
    m.setflags(write=False)
    return m


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a validated, frozen square complex matrix."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFinite("matrix entries must be finite")
    return freeze(m)


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(m))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm, the comparison norm used throughout."""
    return float(np.max(np.abs(m)))


def max_abs_each(stack: np.ndarray) -> np.ndarray:
    """``max_abs`` of every matrix in a stack: shape (n, d, d) gives (n,)."""
    return np.abs(stack).max(axis=(-2, -1))


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M*|, taken as 2 max |H - H*| with H = M/2 so that entries
    near the float limit cannot overflow. Above the subnormal range the
    halving is exact, so the bits are those of max |M - M*|."""
    half = m * 0.5
    return 2.0 * max_abs(half - half.conj().T)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, of a matrix or of every matrix in a stack.

    Made in place on one C-ordered copy of the transposed view: conjugate,
    add M, halve. Addition commutes, so the bits are those of (M + M*) / 2.
    """
    out = np.swapaxes(m, -1, -2).copy()
    np.conjugate(out, out=out)
    out += m
    out /= 2.0
    return out


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
    """Eigenvalues (ascending, real) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray, tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Parameters
    ----------
    m : ndarray
        Square matrix, Hermitian within ``tol``. It is symmetrized before
        the solver runs so that both triangles contribute. It halves
        first, so entries near the float limit cannot overflow into a NaN
        spectrum; halving is exact above the subnormal range, so the
        result has the bits of (M + M*) / 2.
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
    half = m * 0.5
    half_adj = half.conj().T
    defect = 2.0 * max_abs(half - half_adj)  # hermiticity_defect(m), from the same half
    tol, _ = tols(m.shape[0], tol)
    if defect > tol:
        raise NotHermitian(f"max asymmetry {defect:.3e} exceeds tol {tol:.3e}")
    w, v = np.linalg.eigh(half + half_adj)
    return SpectralDecomposition(freeze(w), freeze(v))
