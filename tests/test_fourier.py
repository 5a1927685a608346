import numpy as np
import pytest

from mubkit import linalg
from mubkit.errors import InvalidDim
from mubkit.fourier import (
    example_partitions,
    fourier_matrix,
    momentum_observable,
    position_observable,
)

F2 = np.array([[1, 1],
               [1, -1]], dtype=complex) / np.sqrt(2.0)

F4 = np.array([[1, 1, 1, 1],
               [1, -1j, -1, 1j],
               [1, -1, 1, -1],
               [1, 1j, -1, -1j]], dtype=complex) / 2.0

P4_EXPECTED = [
    np.full((4, 4), 0.25, dtype=complex),
    np.array([[1, 1j, -1, -1j],
              [-1j, 1, 1j, -1],
              [-1, -1j, 1, 1j],
              [1j, -1, -1j, 1]], dtype=complex) / 4.0,
    np.array([[1, -1, 1, -1],
              [-1, 1, -1, 1],
              [1, -1, 1, -1],
              [-1, 1, -1, 1]], dtype=complex) / 4.0,
    np.array([[1, -1j, -1, 1j],
              [1j, 1, -1j, -1],
              [-1, 1j, 1, -1j],
              [-1j, -1, 1j, 1]], dtype=complex) / 4.0,
]

P2_EXPECTED = [np.array([[1, 1], [1, 1]], dtype=complex) / 2.0,
               np.array([[1, -1], [-1, 1]], dtype=complex) / 2.0]

QPRIME_EXPECTED = [np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
                   np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)]

PPRIME_EXPECTED = [np.array([[1, 0, 1, 0],
                             [0, 1, 0, 1],
                             [1, 0, 1, 0],
                             [0, 1, 0, 1]], dtype=complex) / 2.0,
                   np.array([[1, 0, -1, 0],
                             [0, 1, 0, -1],
                             [-1, 0, 1, 0],
                             [0, -1, 0, 1]], dtype=complex) / 2.0]

PDPRIME_EXPECTED = [np.array([[2, 1 + 1j, 0, 1 - 1j],
                              [1 - 1j, 2, 1 + 1j, 0],
                              [0, 1 - 1j, 2, 1 + 1j],
                              [1 + 1j, 0, 1 - 1j, 2]], dtype=complex) / 4.0,
                    np.array([[2, -1 - 1j, 0, -1 + 1j],
                              [-1 + 1j, 2, -1 - 1j, 0],
                              [0, -1 + 1j, 2, -1 - 1j],
                              [-1 - 1j, 0, -1 + 1j, 2]], dtype=complex) / 4.0]


def test_dim1_matrix():
    assert np.array_equal(fourier_matrix(1), np.array([[1.0 + 0j]]))


def test_dim2_fixture():
    assert linalg.max_abs(fourier_matrix(2) - F2) < 1e-12


def test_dim4_fixture():
    assert linalg.max_abs(fourier_matrix(4) - F4) < 1e-12


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True, False, np.True_, np.False_])
def test_invalid_dim(bad):
    with pytest.raises(InvalidDim):
        fourier_matrix(bad)
    with pytest.raises(InvalidDim):
        position_observable(bad)
    with pytest.raises(InvalidDim):
        momentum_observable(bad)


def test_unitarity_up_to_32():
    for dim in range(1, 33):
        f = fourier_matrix(dim)
        assert linalg.max_abs(f @ f.conj().T - np.eye(dim)) < 1e-12


def test_square_is_index_reversal():
    # F^2 permutes basis vector j to -j mod dim
    for dim in (2, 3, 4, 5, 8, 12, 16):
        f = fourier_matrix(dim)
        reversal = np.zeros((dim, dim))
        for j in range(dim):
            reversal[(-j) % dim, j] = 1.0
        assert linalg.max_abs(f @ f - reversal) < 1e-12


def test_reduced_exponent_gives_identical_bits():
    f = fourier_matrix(5)
    # 2*4 = 8 = 3 (mod 5) and 1*3 = 3: identical exponents, identical bits
    assert f[2, 4] == f[1, 3]
    f12 = fourier_matrix(12)
    assert f12[2, 9] == f12[6, 3]  # both exponents reduce to 6


def test_position_observable_structure():
    q = position_observable(4)
    assert q.outcomes == ("0", "1", "2", "3")
    assert q.is_atomic()
    for j, eff in enumerate(q.effects):
        want = np.zeros((4, 4))
        want[j, j] = 1.0
        assert np.array_equal(eff.matrix, want.astype(complex))


def test_momentum_observable_dim2_fixture():
    p = momentum_observable(2)
    for got, want in zip(p.effects, P2_EXPECTED):
        assert linalg.max_abs(got.matrix - want) < 1e-12


def test_momentum_observable_dim4_fixture():
    p = momentum_observable(4)
    assert p.is_atomic()
    for got, want in zip(p.effects, P4_EXPECTED):
        assert linalg.max_abs(got.matrix - want) < 1e-12


def test_momentum_is_conjugated_position():
    # independent construction route: P_j = F Q_j F*
    for dim in (2, 3, 4, 7, 11):
        f = fourier_matrix(dim)
        q = position_observable(dim)
        p = momentum_observable(dim)
        for qj, pj in zip(q.effects, p.effects):
            assert linalg.max_abs(f @ qj.matrix @ f.conj().T - pj.matrix) < 1e-13


def test_momentum_entries_have_uniform_modulus():
    for dim in (2, 5, 9):
        p = momentum_observable(dim)
        for eff in p.effects:
            assert linalg.max_abs(np.abs(eff.matrix) - 1.0 / dim) < 1e-12


def test_trace_pairing_is_uniform():
    for dim in range(2, 17):
        q = position_observable(dim)
        p = momentum_observable(dim)
        for qj in q.effects:
            for pk in p.effects:
                t = np.trace(qj.matrix @ pk.matrix).real
                assert abs(t - 1.0 / dim) < 1e-12


def test_example_partitions_fixtures():
    q_half, p_parity, p_half = example_partitions()
    for got, want in zip(q_half.effects, QPRIME_EXPECTED):
        assert linalg.max_abs(got.matrix - want) < 1e-12
    for got, want in zip(p_parity.effects, PPRIME_EXPECTED):
        assert linalg.max_abs(got.matrix - want) < 1e-12
    for got, want in zip(p_half.effects, PDPRIME_EXPECTED):
        assert linalg.max_abs(got.matrix - want) < 1e-12
    assert q_half.outcomes == ("0", "1")


def test_example_partitions_only_dim4():
    with pytest.raises(InvalidDim):
        example_partitions(6)
