"""Effects, states, and the sequential product A o B = sqrt(A) B sqrt(A).

Effects are validated once, as a stack (``effects_of``; ``Effect`` is a
stack of one), and are views of that stack and of what its validation found
(``linalg.hermitian_eigs``): the eigenvalues and top unit eigenvector of every
effect, and the full eigenvectors of those not certified as rank one. A
certified effect's eigenvector unitary is built when ``Effect.spectral`` is
first read; below tolerance 1 no checker reads it (``Effect._unit_basis``).
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimMismatch, InvalidProbability, NotNormalized, NotPositive, SpectrumOutOfRange

#: A finite matrix's NaN spectrum: ``eigh`` scales by max |H_ij|, inf when a complex modulus overflows.
NAN_SPECTRUM = "spectrum is not finite: an entry's modulus overflows the float range"


class Effect:
    """A Hermitian operator with spectrum inside [0, 1] (within tolerance).

    Validation happens once, at construction, through ``linalg.hermitian_eigs``
    (a stack of one here, of one private copy, ``linalg.as_one``; ``effects_of``
    validates a whole stack): rank-one
    effects are certified without ``eigh``. Its eigenvalues and top eigenvector
    are kept on the instance, with the full eigenvectors of an uncertified
    effect, so later predicate and square root calls never re-diagonalize.
    Instances are immutable.
    """

    __slots__ = ("matrix", "_eigenvalues", "_top", "_spectral", "_rank", "_factor", "_sqrt", "_complement")

    def __init__(self, matrix, tol: float | None = None):
        (checked,), *_ = effects_of(linalg.as_one(matrix), tol)
        self._set(checked.matrix, checked._eigenvalues, checked._top, checked._spectral, checked._rank)

    def _set(self, m: np.ndarray, w: np.ndarray, top: np.ndarray,
             spectral: linalg.SpectralDecomposition | None, rank: int) -> "Effect":
        """Keep a matrix, its checked eigenvalues, top eigenvector, decomposition (None when
        certified: ``spectral`` builds it) and rank (``factor``); returns the effect."""
        self.matrix = m
        self._eigenvalues = w
        self._top = top
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
        """Eigenvalues (ascending) and eigenvectors, whose last column is the top vector. A
        certified effect's eigenvectors are the Householder unitary ending in it, built on
        first read (``linalg._unitary_ending_in``)."""
        if self._spectral is None:
            unitary = linalg._unitary_ending_in(self._top[None])[0]
            self._spectral = linalg.SpectralDecomposition(self._eigenvalues, linalg.freeze(unitary))
        return self._spectral

    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank factor (V_r, sqrt(w_r)) of the square root, computed once.

        r is the rank counted at validation (``effects_of``), so V_r (d x r) is the
        last r eigenvectors, whose eigenvalues w_r are at least the zero band; those
        inside it are snapped to zero, since otherwise the root amplifies 1e-17 solver
        noise on projections to 3e-9 (six digits lost in sequential products) and
        gives an effect validated as atomic a rank-two root. So
        sqrt(A) = V_r diag(sqrt(w_r)) V_r*, and r is the rank the products
        see: 1 for atomic effects, whose products A o B are then w v*Bv vv*. A factor of
        rank 0 or 1 is read from the top vector, so a certified effect (rank at most 1)
        builds no unitary.
        """
        if self._factor is None:
            w, r = self._eigenvalues, self._rank
            v = self._top[:, None] if r <= 1 else self.spectral.eigenvectors
            self._factor = (linalg.freeze(v[:, v.shape[1] - r:]), linalg.freeze(np.sqrt(w[len(w) - r:])))
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
        return sharp_spectra(self._eigenvalues, tol)

    def is_atomic(self, tol: float | None = None) -> bool:
        """True for rank-one projections: sharp with exactly one unit eigenvalue."""
        _, tol = linalg.tols(self.dim, tol)
        return atomic_spectra(self._eigenvalues, tol)

    def unit_eigenspace(self, tol: float | None = None) -> np.ndarray:
        """Orthonormal basis (d x k, possibly k = 0) of the eigenvalue-1 eigenspace."""
        _, tol = linalg.tols(self.dim, tol)
        return self._unit_basis(unit_mask(self._eigenvalues, tol))

    def _unit_basis(self, mask: np.ndarray) -> np.ndarray:
        """The one certainty basis: the ``spectral`` columns ``mask`` marks, a ``_top`` copy if at most the top."""
        return self.spectral.eigenvectors[:, mask] if mask[:-1].any() else self._top[:, None][:, mask[-1:]]

    def __repr__(self) -> str:
        return f"Effect(dim={self.dim})"


def effects_of(stack: np.ndarray, tol: float | None = None
               ) -> tuple[list[Effect], linalg.StackSpectra, np.ndarray]:
    """Validate every matrix of a writable (m, d, d) stack as an effect: one ``linalg.hermitian_eigs``
    pass, which leaves the stack symmetrized and frozen, then one vector test that every
    spectrum lies in [0, 1] within the eigenvalue tolerance.

    Returns the effects (read-only views of the stack and of what the pass found), the
    pass's ``StackSpectra`` and the read-only (m,) ranks of ``Effect.factor``: each matrix's
    eigenvalues at least the zero band max(eig_tol, ``EIGENVALUE_TOL``).
    Raises the error of some invalid matrix, not necessarily the first.
    """
    spectra = linalg.hermitian_eigs(stack, tol)
    _, eig_tol = linalg.tols(stack.shape[-1], tol)
    low, high = spectra.eigenvalues[:, 0], spectra.eigenvalues[:, -1]
    bad = np.flatnonzero(~((low >= -eig_tol) & (high <= 1.0 + eig_tol)))
    if len(bad):
        value = float(low[bad[0]] if not low[bad[0]] >= -eig_tol else high[bad[0]])
        raise SpectrumOutOfRange(NAN_SPECTRUM if np.isnan(value) else
                                 f"eigenvalue {value!r} outside [0, 1] by more than {eig_tol:.3e}")
    ranks = linalg.freeze((spectra.eigenvalues >= max(eig_tol, linalg.EIGENVALUE_TOL)).sum(axis=-1))
    full = iter(spectra.eigenvectors)  # the uncertified effects', in order
    decomposed = [None if c else next(full) for c in spectra.certified.tolist()]
    effects = [Effect.__new__(Effect)._set(m, w, u, None if v is None else linalg.SpectralDecomposition(w, v), r)
               for m, w, u, v, r in zip(stack, spectra.eigenvalues, spectra.top, decomposed, ranks.tolist())]
    return effects, spectra, ranks


def require_same_dim(a, b) -> None:
    """Raise DimMismatch unless ``a`` and ``b`` (anything with a ``dim``) share a dimension."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim} differ")


def sharp_spectra(w: np.ndarray, tol: float) -> bool:
    """Whether every eigenvalue in ``w``, one spectrum or a stack of them,
    sits at 0 or 1 within ``tol``."""
    return bool(np.all((np.abs(w) <= tol) | (np.abs(w - 1.0) <= tol)))


def unit_mask(w: np.ndarray, tol: float) -> np.ndarray:
    """Which eigenvalues in ``w`` sit at 1 within ``tol``: the certainty subspaces."""
    return np.abs(w - 1.0) <= tol


def atomic_spectra(w: np.ndarray, tol: float, units: np.ndarray | None = None) -> bool:
    """Whether every spectrum in ``w`` (along its last axis) is sharp with
    exactly one eigenvalue at 1 within ``tol``; ``units`` is ``unit_mask(w, tol)``
    when the caller has it."""
    units = unit_mask(w, tol) if units is None else units
    return bool((units.sum(axis=-1) == 1).all() and ((np.abs(w) <= tol) | units).all())


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
        stack = linalg.as_one(matrix)
        low = linalg.hermitian_eigs(stack, tol).eigenvalues[0, 0]
        mat_tol, eig_tol = linalg.tols(stack.shape[-1], tol)
        if not low >= -eig_tol:  # NaN fails too
            raise NotPositive(f"state {NAN_SPECTRUM}" if np.isnan(low) else
                              f"state eigenvalue {low:.3e} below -{eig_tol:.3e}")
        with np.errstate(over="ignore"):  # a finite matrix's trace may overflow: inf, rejected below
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
