"""Effects, states, and the sequential product A o B = sqrt(A) B sqrt(A).

Effects are validated once, as a stack (``effects_of``; ``Effect`` is a
stack of one), and are views of that stack and of its stacked decomposition.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimMismatch, InvalidProbability, NotNormalized, NotPositive, SpectrumOutOfRange


class Effect:
    """A Hermitian operator with spectrum inside [0, 1] (within tolerance).

    Validation happens once, at construction, and computes the spectral
    decomposition through ``linalg.hermitian_eigs`` (a stack of one here;
    ``effects_of`` validates a whole stack): rank-one effects are certified
    without ``eigh``. It is kept on the instance so later predicate and
    square root calls never re-diagonalize. Instances are immutable.
    """

    __slots__ = ("matrix", "_spectral", "_rank", "_factor", "_sqrt", "_complement")

    def __init__(self, matrix, tol: float | None = None):
        (checked,), *_ = effects_of(linalg.as_matrix(matrix)[None].copy(), tol)
        self._set(checked.matrix, checked.spectral, checked._rank)

    def _set(self, m: np.ndarray, spectral: linalg.SpectralDecomposition, rank: int) -> "Effect":
        """Keep a matrix, its checked decomposition and rank (``factor``); returns the effect."""
        self.matrix = m
        self._spectral = spectral
        self._rank = rank
        self._factor = None
        self._sqrt = None
        self._complement = None
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectral(self) -> linalg.SpectralDecomposition:
        return self._spectral

    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank factor (V_r, sqrt(w_r)) of the square root, computed once.

        r is the rank counted at validation (``effects_of``), so V_r (d x r) is the
        last r eigenvectors, whose eigenvalues w_r are at least the zero band; those
        inside it are snapped to zero, since otherwise the root amplifies 1e-17 solver
        noise on projections to 3e-9 (six digits lost in sequential products) and
        gives an effect validated as atomic a rank-two root. So
        sqrt(A) = V_r diag(sqrt(w_r)) V_r*, and r is the rank the products
        see: 1 for atomic effects, whose products A o B are then w v*Bv vv*.
        """
        if self._factor is None:
            w, v = self._spectral
            top = len(w) - self._rank
            self._factor = (linalg.freeze(v[:, top:]), linalg.freeze(np.sqrt(w[top:])))
        return self._factor

    def sqrt(self) -> np.ndarray:
        """The positive square root V_r diag(sqrt(w_r)) V_r*, computed once (see ``factor``)."""
        if self._sqrt is None:
            v, s = self.factor()
            r = (v * s) @ v.conj().T
            self._sqrt = linalg.freeze((r + r.conj().T) / 2.0)  # Hermitian in every bit (``linalg``)
        return self._sqrt

    def complement(self, tol: float | None = None) -> "Effect":
        """I - A, validated with ``tol``; built once for the default tolerance.

        Complementing twice returns the original object exactly.
        """
        if tol is None and self._complement is not None:
            return self._complement
        comp = Effect(np.eye(self.dim, dtype=complex) - self.matrix, tol)
        comp._complement = self
        if tol is None:
            self._complement = comp
        return comp

    def is_sharp(self, tol: float | None = None) -> bool:
        """True when every eigenvalue sits at 0 or 1 within ``tol``."""
        _, tol = linalg.tols(self.dim, tol)
        return sharp_spectra(self._spectral.eigenvalues, tol)

    def is_atomic(self, tol: float | None = None) -> bool:
        """True for rank-one projections: sharp with exactly one unit eigenvalue."""
        _, tol = linalg.tols(self.dim, tol)
        return atomic_spectra(self._spectral.eigenvalues, tol)

    def unit_eigenspace(self, tol: float | None = None) -> np.ndarray:
        """Orthonormal basis (d x k, possibly k = 0) of the eigenvalue-1 eigenspace."""
        _, tol = linalg.tols(self.dim, tol)
        w, v = self._spectral
        return v[:, np.abs(w - 1.0) <= tol]

    def __repr__(self) -> str:
        return f"Effect(dim={self.dim})"


def effects_of(stack: np.ndarray, tol: float | None = None
               ) -> tuple[list[Effect], linalg.SpectralDecomposition, np.ndarray, np.ndarray]:
    """Validate every matrix of a writable (m, d, d) stack as an effect: one ``linalg.hermitian_eigs``
    pass, which leaves the stack symmetrized and frozen, then one vector test that every
    spectrum lies in [0, 1] within the eigenvalue tolerance (NaN fails it).

    Returns the effects (read-only views of the stack and of its stacked
    decomposition), that decomposition, its (m,) mask of certified rank-one
    matrices and the read-only (m,) ranks of ``Effect.factor``: each matrix's
    eigenvalues at least the zero band max(eig_tol, ``EIGENVALUE_TOL``).
    Raises the error of some invalid matrix, not necessarily the first.
    """
    spectral, certified = linalg.hermitian_eigs(stack, tol)
    _, eig_tol = linalg.tols(stack.shape[-1], tol)
    low, high = spectral.eigenvalues[:, 0], spectral.eigenvalues[:, -1]
    bad = np.flatnonzero(~((low >= -eig_tol) & (high <= 1.0 + eig_tol)))
    if len(bad):
        value = float(low[bad[0]] if not low[bad[0]] >= -eig_tol else high[bad[0]])
        raise SpectrumOutOfRange(f"eigenvalue {value!r} outside [0, 1] by more than {eig_tol:.3e}")
    ranks = linalg.freeze((spectral.eigenvalues >= max(eig_tol, linalg.EIGENVALUE_TOL)).sum(axis=-1))
    return [Effect.__new__(Effect)._set(m, linalg.SpectralDecomposition(w, v), r)
            for m, w, v, r in zip(stack, *spectral, ranks.tolist())], spectral, certified, ranks


def require_same_dim(a, b) -> None:
    """Raise DimMismatch unless ``a`` and ``b`` (anything with a ``dim``) share a dimension."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim} differ")


def sharp_spectra(w: np.ndarray, tol: float) -> bool:
    """Whether every eigenvalue in ``w``, one spectrum or a stack of them,
    sits at 0 or 1 within ``tol``."""
    return bool(np.all((np.abs(w) <= tol) | (np.abs(w - 1.0) <= tol)))


def atomic_spectra(w: np.ndarray, tol: float) -> bool:
    """Whether every spectrum in ``w`` (along its last axis) is sharp with
    exactly one eigenvalue at 1 within ``tol``."""
    units = np.abs(w - 1.0) <= tol
    return sharp_spectra(w, tol) and bool(np.all(units.sum(axis=-1) == 1))


def seq_matrix(a: Effect, b: Effect) -> np.ndarray:
    """The matrix sqrt(A) B sqrt(A) as computed, Hermitian within rounding.

    Not validated: the sequential product of two effects is an effect, so
    the reference checkers in ``oracle`` compare this matrix directly, and
    ``seq_product`` and ``observables.obs_seq_product`` validate it.
    """
    require_same_dim(a, b)
    return a.sqrt() @ b.matrix @ a.sqrt()


def seq_product(a: Effect, b: Effect, tol: float | None = None) -> Effect:
    """Sequential product sqrt(A) B sqrt(A), validated as an effect.

    Not commutative and not associative in general.
    """
    return Effect(seq_matrix(a, b), tol)


class State:
    """Density operator: positive semidefinite with unit trace.

    Validated as an ``Effect`` is, by ``linalg.hermitian_eigs`` on a stack of
    one, so ``matrix`` is its frozen Hermitian part (a pure state is certified
    without ``eigh``).
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: float | None = None):
        stack = linalg.as_matrix(matrix)[None].copy()
        low = linalg.hermitian_eigs(stack, tol)[0].eigenvalues[0, 0]
        mat_tol, eig_tol = linalg.tols(stack.shape[-1], tol)
        if not low >= -eig_tol:  # NaN fails too
            raise NotPositive(f"state eigenvalue {low:.3e} below -{eig_tol:.3e}")
        tr = linalg.trace(stack[0])
        if abs(tr - 1.0) > mat_tol:
            raise NotNormalized(f"state trace {tr} is not 1 within {mat_tol:.3e}")
        self.matrix = stack[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "State":
        """Rank-one state |v><v| from a (not necessarily normalized) 1-D vector."""
        v = np.asarray(vector, dtype=complex)
        if v.ndim != 1:
            raise DimMismatch(f"expected a vector, got shape {v.shape}")
        n = np.linalg.norm(v)
        if n == 0:
            raise NotNormalized("zero vector cannot define a state")
        v = v / n
        return cls(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"State(dim={self.dim})"


def occurrence_probability(rho: State, a: Effect, tol: float | None = None) -> float:
    """tr(rho A): probability of the effect in the state, clamped to [0, 1]."""
    require_same_dim(rho, a)
    mat_tol, _ = linalg.tols(a.dim, tol)
    raw = linalg.trace(rho.matrix @ a.matrix)
    if abs(raw.imag) > mat_tol:
        raise InvalidProbability(f"probability has imaginary part {raw.imag:.3e}")
    p = raw.real
    if p < -mat_tol or p > 1.0 + mat_tol:
        raise InvalidProbability(f"probability {p!r} outside [0, 1] by more than {mat_tol:.3e}")
    return float(min(max(p, 0.0), 1.0))
