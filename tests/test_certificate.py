"""Certified rank-one validation (``linalg.hermitian_eigs``) against ``eigh``.

``hermitian_eigs`` certifies a matrix as rank one when H - v v* is within
rounding of zero and decomposes it without ``eigh``; every other matrix
goes through ``eigh``. Whether a matrix was certified is observed by
counting the matrices handed to ``np.linalg.eigh``. The reference is
``linalg.hermitian_eig``, which always runs ``eigh``.
"""
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hermitian_formula
from mubkit import (
    Effect,
    Observable,
    analysis,
    conjugate,
    linalg,
    position_observable,
    random_observable,
    random_unitary,
)
from mubkit.errors import DimMismatch, NotAnEffect
from test_differential import KINDS, build_pair

TOLS = [None, 1e-6, 1e-12]
VERDICTS = ("mu", "value_complementary", "condition1", "condition2", "generalized_mu")


@contextmanager
def eigh_matrices():
    """Count the matrices ``np.linalg.eigh`` diagonalizes (a stack counts each)."""
    seen = []
    real_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        seen.append(1 if a.ndim == 2 else len(a))
        return real_eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", counting):
        yield seen


def eigh_only(stack, tol=None):
    """``hermitian_eigs`` without the certificate: ``hermitian_eig`` per
    matrix, the stack symmetrized in place and frozen, and no matrix marked
    certified, so no closed form applies."""
    mat_tol, _ = linalg.tols(stack.shape[-1], tol)
    w, v = zip(*(linalg.hermitian_eig(m, mat_tol) for m in stack))
    stack[:] = hermitian_formula(stack)
    linalg.freeze(stack)
    v = linalg.freeze(np.stack(v))
    return linalg.StackSpectra(linalg.freeze(np.stack(w)), v[:, :, -1],
                               linalg.freeze(np.zeros(len(stack), dtype=bool)), v)


def _projection(u):
    return np.outer(u, u.conj())


def _input(kind, dim, rng, tol, weight, sign):
    """One matrix of the given kind; the second basis vector, when used, is
    orthogonal to the first."""
    u = random_unitary(dim, rng)
    p, q = _projection(u[:, 0]), _projection(u[:, -1])
    if kind == "projection":
        return p
    if kind == "weighted":
        return weight * p
    if kind == "perturbed-eigenvalue-tol":
        return p + sign * linalg.EIGENVALUE_TOL * q
    if kind == "perturbed-tol":
        return p + sign * linalg.tols(dim, tol)[1] * q
    if kind == "rank-two":
        return weight * p + (1.0 - weight) * q
    if kind == "snap-band":
        return p + 5e-10 * q
    if kind == "zero":
        return np.zeros((dim, dim), dtype=complex)
    raise AssertionError(kind)


CERTIFIED = {"projection": True, "weighted": True, "perturbed-eigenvalue-tol": False,
             "perturbed-tol": False, "rank-two": False, "snap-band": False, "zero": False}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(CERTIFIED)), dim=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1), tol=st.sampled_from(TOLS),
       weight=st.floats(linalg.EIGENVALUE_TOL, 1.0, exclude_min=True),
       sign=st.sampled_from([1.0, -1.0]))
def test_certificate_matches_eigh(kind, dim, seed, tol, weight, sign):
    if dim == 1 and kind not in ("projection", "weighted", "zero"):
        dim = 2  # the other kinds need a second, orthogonal direction
    if kind == "rank-two":
        weight = min(weight, 0.5)
    m = linalg.as_one(_input(kind, dim, np.random.default_rng(seed), tol, weight, sign))[0]
    with eigh_matrices() as seen:
        spectra = linalg.hermitian_eigs(m[None].copy(), tol)
    ref = linalg.hermitian_eig(m, linalg.tols(dim, tol)[0])
    assert (sum(seen) == 0) == CERTIFIED[kind]
    certified, w, u = spectra.certified, spectra.eigenvalues[0], spectra.top[0]
    assert certified.dtype == bool and certified.tolist() == [CERTIFIED[kind]]
    assert not certified.flags.writeable
    if not CERTIFIED[kind]:
        assert np.array_equal(w, ref.eigenvalues)
        assert np.array_equal(spectra.eigenvectors, ref.eigenvectors[None])
        assert np.array_equal(u, ref.eigenvectors[:, -1])
        return
    assert spectra.eigenvectors.shape == (0, dim, dim)  # no unitary is made
    v = linalg._unitary_ending_in(spectra.top)[0]  # as ``Effect.spectral`` builds it
    assert np.array_equal(v[:, -1], u)
    assert np.all(w[:-1] == 0.0)
    assert np.max(np.abs(w - ref.eigenvalues)) <= 2e-15  # eigh alone is off by up to 1.1e-15
    assert linalg.max_abs((v * w) @ v.conj().T - m) <= 1e-15 * dim
    assert linalg.max_abs(v.conj().T @ v - np.eye(dim)) <= 1e-15 * dim
    assert not w.flags.writeable and not u.flags.writeable


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), dim=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_certified_observables_classify_as_under_eigh(kind, dim, seed):
    certified = build_pair(kind, dim, seed)
    with mock.patch.object(linalg, "hermitian_eigs", eigh_only):
        reference = build_pair(kind, dim, seed)
    for obs, ref in zip(certified, reference):
        assert np.array_equal(obs.stack(), ref.stack())
    for tol in TOLS:
        for obs, ref in zip(certified, reference):
            assert obs.is_sharp(tol) == ref.is_sharp(tol)
            assert obs.is_atomic(tol) == ref.is_atomic(tol)
            eig_tol = linalg.tols(obs.dim, tol)[1]
            for e, r in zip(obs.effects, ref.effects):
                assert e.is_sharp(tol) == r.is_sharp(tol)
                assert e.is_atomic(tol) == r.is_atomic(tol)
                assert (e.spectral.eigenvalues[0] >= eig_tol) == (r.spectral.eigenvalues[0] >= eig_tol)
                assert len(e.factor()[1]) == len(r.factor()[1])
                assert e.unit_eigenspace(tol).shape == r.unit_eigenspace(tol).shape
        # both orders: the certified build takes the closed forms (Gram
        # trace table and forms, closed condition (1) rows) where its masks
        # allow, the eigh build the general path throughout
        for order in (slice(None), slice(None, None, -1)):
            got = analysis.classify_pair(*certified[order], tol)
            want = analysis.classify_pair(*reference[order], tol)
            for name in VERDICTS:
                g, w = getattr(got, name), getattr(want, name)
                assert (g is None) == (w is None)
                if g is not None:
                    assert (g.holds, g.vacuous) == (w.holds, w.vacuous)
                    # the proven bound is 2 CERTIFICATE_TOL; certified eigenvectors
                    # differ from eigh's by rounding, which moved deviations near
                    # 0.45 by up to 1.7e-15 over 1500 draws
                    assert abs(g.max_deviation - w.max_deviation) <= 1e-14
            assert (got.alpha, got.flags) == (want.alpha, want.flags)


class TestEighCalls:
    """Regression guards: which observables reach ``eigh`` at all."""

    def test_haar_position_validates_without_eigh(self):
        q = position_observable(64)
        u = random_unitary(64, 11)
        with eigh_matrices() as seen:
            a = conjugate(q, u)
        assert sum(seen) == 0
        assert a.is_atomic()

    def test_unsharp_effects_each_take_eigh_once(self):
        obs = random_observable(32, 16, "unsharp", 5)
        with eigh_matrices() as seen:
            Observable(obs.outcomes, [e.matrix for e in obs.effects])
        assert sum(seen) == 16

    def test_snap_band_effect_falls_back_to_eigh(self):
        u = random_unitary(5, 3)
        p, q = _projection(u[:, 0]), _projection(u[:, 1])
        with eigh_matrices() as seen:
            Effect(p + 5e-10 * q)
        assert sum(seen) == 1
        with eigh_matrices() as seen:
            e = Effect((1 - 5e-10) * q)
        assert sum(seen) == 0
        assert e.is_atomic() and not e.is_atomic(1e-12)


def test_effects_are_views_of_the_validated_stack():
    a = random_observable(6, 6, "atomic", 2)
    stack = a.stack()
    assert stack is a.stack() and not stack.flags.writeable
    for k, e in enumerate(a.effects):
        assert np.shares_memory(e.matrix, stack) and not e.matrix.flags.writeable
        assert np.array_equal(e.matrix, stack[k])


def test_certified_eigenvector_is_the_normalized_column():
    v = random_unitary(4, 8)[:, 2] * 0.6
    spectra = linalg.hermitian_eigs(linalg.as_stack([np.outer(v, v.conj())]))
    assert spectra.certified.tolist() == [True]
    u = spectra.top[0]
    assert spectra.eigenvalues[0, -1] == pytest.approx(0.36, abs=1e-15)
    # the certified column is v / |v| up to the phase of v's largest entry
    assert abs(abs(np.vdot(u, v / np.linalg.norm(v))) - 1.0) <= 1e-15


@pytest.mark.parametrize("effects, message", [
    # the stacked pass fails; the error still names the first invalid outcome
    ([[[0.5, 0.3], [0.0, 0.5]], [[np.nan, 0.0], [0.0, 0.5]]],
     "outcome '0': max asymmetry 3.000e-01 exceeds tol 2.000e-09"),
    ([np.diag([1.2, -0.2]), [[0.5, 0.3], [0.0, 0.5]]],
     "outcome '0': eigenvalue -0.2 outside [0, 1] by more than 1.000e-09"),
    ([np.eye(2) / 2, np.eye(3) * 2],
     "outcome '1': eigenvalue 2.0 outside [0, 1] by more than 1.000e-09"),
])
def test_stacked_validation_names_the_first_invalid_outcome(effects, message):
    with pytest.raises(NotAnEffect) as err:
        Observable(["0", "1"], effects)
    assert str(err.value) == message


def test_mixed_dimensions_after_valid_effects():
    with pytest.raises(DimMismatch, match=r"mixed dimensions \[2, 3\]"):
        Observable(["0", "1"], [np.eye(2) / 2, np.eye(3) / 2])
