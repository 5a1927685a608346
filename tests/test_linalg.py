import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mat_approx_eq
from mubkit import linalg
from mubkit.effects import Effect
from mubkit.errors import DimMismatch, NotHermitian

F2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_psd(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


def random_effect(dim, rng):
    """Random PSD matrix scaled so its largest eigenvalue is 0.9."""
    m = random_psd(dim, rng)
    return 0.9 * m / np.linalg.eigvalsh(m)[-1]


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(DimMismatch):
        linalg.as_matrix([[1, 2, 3], [4, 5, 6]])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.inf, 0], [0, 1]])


def test_as_matrix_freezes():
    m = linalg.as_matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m[0, 0] = 5


def test_trace_fixture():
    assert linalg.trace(np.diag([1.0, 2.0, 3.0]).astype(complex)) == 6.0


def test_trace_of_hermitian_product_nearly_real():
    rng = np.random.default_rng(5)
    a = random_psd(4, rng)
    b = random_psd(4, rng)
    assert abs(linalg.trace(a @ b).imag) < 1e-12


def test_mat_approx_eq_boundary():
    a = np.zeros((2, 2), dtype=complex)
    b = np.full((2, 2), 1e-10, dtype=complex)
    assert mat_approx_eq(a, b, tol=1e-10)
    assert not mat_approx_eq(a, b, tol=0.99e-10)


def test_mat_approx_eq_default_tol_scales_with_dim():
    a = np.zeros((4, 4), dtype=complex)
    b = np.full((4, 4), 3.9e-9, dtype=complex)
    assert mat_approx_eq(a, b)  # default 1e-9 * 4
    assert not mat_approx_eq(a, b, tol=1e-9)


def test_fourier2_unitary_fixture():
    assert mat_approx_eq(F2 @ F2.conj().T, np.eye(2), tol=1e-12)


def test_hermitian_eig_diagonal_fixture():
    dec = linalg.hermitian_eig(np.diag([9.0, 4.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [4.0, 9.0])  # ascending
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert mat_approx_eq(recon, np.diag([9.0, 4.0]), tol=1e-12)


def test_hermitian_eig_rejects_asymmetry():
    with pytest.raises(NotHermitian) as err:
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert "1.0" in str(err.value)


def test_hermitian_eig_accepts_asymmetry_within_tol():
    m = np.array([[0.0, 1e-12], [0.0, 0.0]])
    linalg.hermitian_eig(m)  # within default 2e-9


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 5, 8, 13, 16):
        m = random_hermitian(dim, rng)
        w, v = linalg.hermitian_eig(m)
        assert np.all(np.diff(w) >= 0)
        assert linalg.max_abs(v @ v.conj().T - np.eye(dim)) < 1e-12
        assert linalg.max_abs((v * w) @ v.conj().T - m) < 1e-10


def test_hermitian_eig_deterministic():
    rng = np.random.default_rng(23)
    m = random_hermitian(6, rng)
    first = linalg.hermitian_eig(m)
    second = linalg.hermitian_eig(m.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


# The PSD square root lives on Effect, computed from the cached spectrum,
# so these cases are scaled to spectra inside [0, 1].

def test_psd_sqrt_fixture():
    got = Effect(np.diag([0.25, 0.81])).sqrt()
    assert mat_approx_eq(got, np.diag([0.5, 0.9]), tol=1e-12)


def test_psd_sqrt_projection_is_itself():
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert mat_approx_eq(Effect(p).sqrt(), p, tol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(29)
    for dim in (2, 4, 7):
        m = random_effect(dim, rng)
        r = Effect(m).sqrt()
        assert linalg.max_abs(r @ r - m) < 1e-9
        assert linalg.max_abs(r - r.conj().T) < 1e-12


def test_psd_sqrt_matches_scipy():
    # independent route: scipy's general matrix square root
    rng = np.random.default_rng(31)
    for dim in (2, 3, 6):
        m = random_effect(dim, rng)
        ours = Effect(m).sqrt()
        theirs = scipy.linalg.sqrtm(m)
        assert linalg.max_abs(ours - theirs) < 1e-9


def test_psd_sqrt_clamps_slightly_negative():
    m = np.diag([1.0, -1e-12]).astype(complex)
    r = Effect(m).sqrt()
    assert mat_approx_eq(r, np.diag([1.0, 0.0]), tol=1e-6)


def test_default_tol():
    assert linalg.default_tol(4) == pytest.approx(4e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=6))
def test_psd_sqrt_of_squared_diagonal(values):
    m = np.diag([v * v for v in values]).astype(complex)
    r = Effect(m).sqrt()
    # squares below the eigenvalue tolerance are treated as exact zeros, so
    # the root can never be off by more than sqrt(tol) and is tight above it
    expected = [abs(v) if v * v >= linalg.EIGENVALUE_TOL else 0.0 for v in values]
    assert linalg.max_abs(r - np.diag(expected)) < 1e-7
    assert linalg.max_abs(r - np.diag([abs(v) for v in values])) < np.sqrt(linalg.EIGENVALUE_TOL)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
def test_hermiticity_defect_of_hermitian_is_zero(seed, dim):
    # hermitian_eig rejects any asymmetry above its tol
    m = random_hermitian(dim, np.random.default_rng(seed))
    linalg.hermitian_eig(m, tol=1e-15)



def test_hermiticity_defect_does_not_overflow():
    # M - M* overflows, M/2 - (M/2)* does not: no numpy warning, and
    # hermitian_eig rejects the matrix by its (infinite) asymmetry
    m = np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="asymmetry inf"):
            linalg.hermitian_eig(m)
        with pytest.raises(NotHermitian, match=r"asymmetry 1\.000e\+308"):
            linalg.hermitian_eig(m / 2.0)


def _random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_projections_stack_is_c_ordered_outer_products():
    rng = np.random.default_rng(41)
    v = _random_complex((5, 3), rng)
    p = linalg.projections(v)
    assert p.shape == (3, 5, 5) and p.flags.c_contiguous
    for k in range(3):
        assert np.array_equal(p[k], np.outer(v[:, k], v[:, k].conj()))
    assert linalg.projections(np.empty((4, 0), dtype=complex)).shape == (0, 4, 4)


def test_frobenius_of_projections_is_the_quadratic_form():
    # Re v* S_y v by an explicit loop, over unit vectors and effect-sized S:
    # effects, and non-Hermitian matrices of like scale
    rng = np.random.default_rng(43)
    for dim, n, k in ((2, 1, 1), (5, 3, 4), (8, 6, 2), (16, 4, 16)):
        v = _random_complex((dim, k), rng)
        v /= np.linalg.norm(v, axis=0)
        stacks = (np.stack([random_effect(dim, rng) for _ in range(n)]),
                  _random_complex((n, dim, dim), rng) / (2 * dim))
        for s in stacks:
            got = linalg.frobenius(s, linalg.projections(v))
            expected = np.array([[(v[:, j].conj() @ s[y] @ v[:, j]).real for j in range(k)]
                                 for y in range(n)])
            assert got.shape == (n, k)
            assert np.max(np.abs(got - expected)) <= 1e-15
        assert linalg.frobenius(stacks[0], linalg.projections(v[:, :0])).shape == (n, 0)
