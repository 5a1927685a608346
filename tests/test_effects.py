import numpy as np
import pytest

from helpers import mat_approx_eq
from mubkit import linalg
from mubkit.effects import (
    Effect,
    State,
    occurrence_probability,
    seq_product,
)
from mubkit.errors import (
    DimMismatch,
    InvalidProbability,
    MubkitError,
    NotHermitian,
    NotNormalized,
    NotPositive,
    SpectrumOutOfRange,
)

Q0_DIM2 = np.diag([1.0, 0.0]).astype(complex)
P0_DIM2 = np.array([[1, 1], [1, 1]], dtype=complex) / 2.0

# the two rank-two momentum merges in dimension 4, halves and parity
P_HALF_0 = np.array([[2, 1 + 1j, 0, 1 - 1j],
                     [1 - 1j, 2, 1 + 1j, 0],
                     [0, 1 - 1j, 2, 1 + 1j],
                     [1 + 1j, 0, 1 - 1j, 2]], dtype=complex) / 4.0
P_PARITY_0 = np.array([[1, 0, 1, 0],
                       [0, 1, 0, 1],
                       [1, 0, 1, 0],
                       [0, 1, 0, 1]], dtype=complex) / 2.0
P_PARITY_1 = np.array([[1, 0, -1, 0],
                       [0, 1, 0, -1],
                       [-1, 0, 1, 0],
                       [0, -1, 0, 1]], dtype=complex) / 2.0

MIXED_PRODUCT = np.array([[2, 1 + 1j, 0, 0],
                          [1 - 1j, 2, 0, 0],
                          [0, 0, 0, 0],
                          [0, 0, 0, 0]], dtype=complex) / 4.0

Q_HALF_0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)

# finite entries whose symmetrization (M + M*)/2 overflows to inf
OVERFLOWING = [np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex),
               np.diag([1e308, 1e308]).astype(complex),
               np.array([[0.2, 0.0, 1.7e308], [0.0, 0.3, 0.0], [1.7e308, 0.0, 0.5]], dtype=complex)]


def random_effect(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = g @ g.conj().T
    return Effect(h / (np.linalg.norm(h, 2) + 0.5))


class TestEffectValidation:
    def test_accepts_projection(self):
        e = Effect(Q0_DIM2)
        assert e.dim == 2

    def test_accepts_block_effect(self):
        Effect(P_HALF_0)

    def test_rejects_spectrum_above_one(self):
        with pytest.raises(SpectrumOutOfRange):
            Effect(2.0 * np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(SpectrumOutOfRange):
            Effect(np.diag([0.5, -0.2]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            Effect(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimMismatch):
            Effect(np.ones((2, 3)))

    @pytest.mark.parametrize("m", OVERFLOWING, ids=["off-diagonal", "diagonal", "dim3"])
    def test_rejects_overflowing_symmetrization(self, m):
        w = linalg.hermitian_eig(m).eigenvalues
        assert np.all(np.isfinite(w)) and w[-1] >= 1e308
        with pytest.raises(SpectrumOutOfRange, match="e\\+308"):
            Effect(m)

    def test_tolerates_tiny_negative_eigenvalue(self):
        Effect(np.diag([0.5, -5e-10]).astype(complex))

    def test_explicit_tol_is_single_knob(self):
        m = np.diag([1.0 + 5e-7, 0.0]).astype(complex)
        Effect(m, tol=1e-6)
        with pytest.raises(SpectrumOutOfRange):
            Effect(m, tol=1e-8)

    def test_matrix_frozen(self):
        e = Effect(Q0_DIM2)
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 3

    def test_spectral_cached(self):
        e = Effect(P_HALF_0)
        assert e.spectral is e.spectral
        assert e.sqrt() is e.sqrt()


class TestComplement:
    def test_identity_to_zero(self):
        comp = Effect(np.eye(3, dtype=complex)).complement()
        assert linalg.max_abs(comp.matrix) == 0.0

    def test_parity_pair(self):
        comp = Effect(P_PARITY_0).complement()
        assert mat_approx_eq(comp.matrix, P_PARITY_1, tol=1e-15)

    def test_uniform(self):
        comp = Effect(np.eye(2, dtype=complex) / 2.0).complement()
        assert mat_approx_eq(comp.matrix, np.eye(2) / 2.0, tol=1e-15)

    def test_double_complement_is_same_object(self):
        e = Effect(np.diag([0.3, 1e-18]).astype(complex))
        assert e.complement().complement() is e
        assert np.array_equal(e.complement().complement().matrix, e.matrix)

    def test_tol_reaches_complement(self):
        m = np.diag([1.0 + 5e-7, 0.0]).astype(complex)
        with pytest.raises(SpectrumOutOfRange):
            Effect(m, tol=1e-6).complement()
        comp = Effect(m, tol=1e-6).complement(tol=1e-6)
        assert comp.spectral.eigenvalues[0] == pytest.approx(-5e-7, abs=1e-15)
        e = Effect(m, tol=1e-6)
        assert e.complement(tol=1e-6).complement() is e
        with pytest.raises(SpectrumOutOfRange):
            e.complement()


class TestFactor:
    def test_projection_has_rank_one(self):
        v, s = Effect(P0_DIM2).factor()
        assert v.shape == (2, 1) and s == pytest.approx([1.0], abs=1e-15)
        assert mat_approx_eq(np.outer(v[:, 0], v[:, 0].conj()), P0_DIM2, tol=1e-15)

    def test_snap_band_is_dropped(self):
        e = Effect(np.diag([0.5, 5e-10, 0.0]).astype(complex))
        v, s = e.factor()
        assert v.shape == (3, 1) and s == pytest.approx([np.sqrt(0.5)], abs=1e-15)

    def test_reproduces_sqrt(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            e = random_effect(4, rng)
            v, s = e.factor()
            assert mat_approx_eq((v * s) @ v.conj().T, e.sqrt(), tol=1e-14)
            assert e.factor() is e.factor()


class TestSeqProduct:
    def test_position_momentum_dim2(self):
        got = seq_product(Effect(Q0_DIM2), Effect(P0_DIM2))
        assert mat_approx_eq(got.matrix, Q0_DIM2 / 2.0, tol=1e-14)

    def test_identity_neutral_both_sides(self):
        rng = np.random.default_rng(2)
        b = random_effect(4, rng)
        eye = Effect(np.eye(4, dtype=complex))
        assert mat_approx_eq(seq_product(eye, b).matrix, b.matrix, tol=1e-13)
        assert mat_approx_eq(seq_product(b, eye).matrix, b.matrix, tol=1e-13)

    def test_zero_absorbs(self):
        zero = Effect(np.zeros((3, 3), dtype=complex))
        b = Effect(np.eye(3, dtype=complex) / 3.0)
        assert linalg.max_abs(seq_product(zero, b).matrix) < 1e-15
        assert linalg.max_abs(seq_product(b, zero).matrix) < 1e-15

    def test_mixed_block_product_fixture(self):
        got = seq_product(Effect(Q_HALF_0), Effect(P_HALF_0))
        assert mat_approx_eq(got.matrix, MIXED_PRODUCT, tol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            seq_product(Effect(np.eye(2, dtype=complex)), Effect(np.eye(3, dtype=complex)))

    def test_noncommutative_example(self):
        a = Effect(Q0_DIM2)
        b = Effect(P0_DIM2)
        ab = seq_product(a, b).matrix
        ba = seq_product(b, a).matrix
        assert linalg.max_abs(ab - ba) > 0.2

    def test_result_is_valid_effect_for_random_inputs(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 8):
            for _ in range(5):
                a = random_effect(dim, rng)
                b = random_effect(dim, rng)
                out = seq_product(a, b)
                w = out.spectral.eigenvalues
                assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12

    def test_atomic_absorption(self):
        # rank-one a turns the product into tr(ab) * a
        rng = np.random.default_rng(13)
        for dim in (2, 4, 7):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            a = Effect(np.outer(v, v.conj()))
            b = random_effect(dim, rng)
            expected = np.trace(a.matrix @ b.matrix).real * a.matrix
            assert linalg.max_abs(seq_product(a, b).matrix - expected) < 1e-12

    def test_dominated_by_sharp_first_factor(self):
        rng = np.random.default_rng(19)
        proj = Effect(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        b = random_effect(4, rng)
        gap = proj.matrix - seq_product(proj, b).matrix
        assert linalg.hermitian_eig(gap).eigenvalues[0] > -1e-12


class TestPredicates:
    def test_projection_sharp_atomic(self):
        e = Effect(Q0_DIM2)
        assert e.is_sharp() and e.is_atomic()
        assert e.spectral.eigenvalues[0] < linalg.EIGENVALUE_TOL  # not invertible

    def test_identity_sharp_not_atomic(self):
        e = Effect(np.eye(2, dtype=complex))
        assert e.is_sharp() and not e.is_atomic()
        assert e.spectral.eigenvalues[0] >= linalg.EIGENVALUE_TOL  # invertible

    def test_uniform_invertible_not_sharp(self):
        e = Effect(np.eye(3, dtype=complex) / 3.0)
        assert e.spectral.eigenvalues[0] >= linalg.EIGENVALUE_TOL and not e.is_sharp()

    def test_rank_two_projection_not_atomic(self):
        e = Effect(P_HALF_0)
        assert e.is_sharp() and not e.is_atomic()

    def test_classification_tolerance_boundary(self):
        e = Effect(np.diag([1.0 - 5e-10, 0.0]).astype(complex))
        assert e.is_sharp()
        assert not Effect(np.diag([1.0 - 1e-6, 0.0]).astype(complex)).is_sharp()

    def test_unit_eigenspace(self):
        basis = Effect(Q_HALF_0).unit_eigenspace()
        assert basis.shape == (4, 2)
        span = basis @ basis.conj().T
        assert mat_approx_eq(span, Q_HALF_0, tol=1e-12)
        assert Effect(np.eye(4, dtype=complex) / 2.0).unit_eigenspace().shape == (4, 0)


class TestState:
    def test_projection_is_state(self):
        State(Q0_DIM2)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            State(np.eye(2, dtype=complex))

    def test_errors_are_mubkit_value_errors(self):
        for bad in (lambda: State(np.eye(2, dtype=complex)), lambda: State.pure([0.0, 0.0])):
            with pytest.raises(NotNormalized) as info:
                bad()
            assert isinstance(info.value, MubkitError) and isinstance(info.value, ValueError)

    def test_rejects_negative(self):
        with pytest.raises(NotPositive):
            State(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("m", [OVERFLOWING[0], OVERFLOWING[2]], ids=["off-diagonal", "dim3"])
    def test_rejects_overflowing_symmetrization(self, m):
        with pytest.raises(NotPositive, match="e\\+308"):
            State(m)

    def test_pure_normalizes(self):
        s = State.pure([2.0, 0.0])
        assert mat_approx_eq(s.matrix, Q0_DIM2, tol=1e-15)

    @pytest.mark.parametrize("vector", [1.0, np.eye(2), np.ones((2, 2, 2))], ids=["scalar", "matrix", "3d"])
    def test_pure_takes_only_a_vector(self, vector):
        with pytest.raises(DimMismatch, match="expected a vector"):
            State.pure(vector)


class TestOccurrenceProbability:
    def test_momentum_in_position_state(self):
        val = occurrence_probability(State(Q0_DIM2), Effect(P0_DIM2))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_certainty(self):
        val = occurrence_probability(State.pure([1.0, 0.0]), Effect(Q0_DIM2))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_clamps_to_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            e = random_effect(3, rng)
            rho = State.pure(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            p = occurrence_probability(rho, e)
            assert 0.0 <= p <= 1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            occurrence_probability(State(Q0_DIM2), Effect(np.eye(3, dtype=complex) / 3))

    def test_out_of_range_is_mubkit_value_error(self):
        e = Effect(np.diag([1.0 + 5e-7, 0.0]).astype(complex), tol=1e-6)
        with pytest.raises(InvalidProbability) as info:
            occurrence_probability(State(Q0_DIM2), e)
        assert isinstance(info.value, MubkitError) and isinstance(info.value, ValueError)
        assert occurrence_probability(State(Q0_DIM2), e, tol=1e-6) == 1.0
