"""Pair generators shared by the randomized suites, and a matrix comparison."""
import numpy as np

from mubkit import (
    Observable,
    PartitionMap,
    coarse_grain,
    conjugate,
    fourier_matrix,
    linalg,
    momentum_observable,
    position_observable,
    random_unitary,
)


def mat_approx_eq(a, b, tol=None):
    """Entrywise equality within ``tol`` (default ``linalg.default_tol(dim)``)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    mat_tol, _ = linalg.tols(a.shape[0], tol)
    return linalg.max_abs(a - b) <= mat_tol


def hermitian_formula(m):
    """(M + M*) / 2 of a matrix or of every matrix in a stack: the reference for validation's bits."""
    return (m + np.swapaxes(m, -1, -2).conj()) / 2.0


def rng_for(seed):
    return np.random.default_rng(seed)


def interval_partition(outcomes, blocks):
    """Split outcomes into ``blocks`` consecutive runs of equal length."""
    n = len(outcomes)
    size = n // blocks
    assert size * blocks == n
    mapping = {x: str(i // size) for i, x in enumerate(outcomes)}
    return PartitionMap(tuple(outcomes), tuple(str(i) for i in range(blocks)), mapping)


def residue_partition(outcomes, blocks):
    """Split outcomes by index mod ``blocks``."""
    mapping = {x: str(i % blocks) for i, x in enumerate(outcomes)}
    return PartitionMap(tuple(outcomes), tuple(str(i) for i in range(blocks)), mapping)


def coarse_matched_pair(dim, blocks, seed):
    """Sharp pair satisfying condition (1), in a random basis.

    Consecutive blocks of the standard basis against residue classes of the
    Fourier basis keep the sequential-product symmetry of the underlying
    atomic pair; conjugation by a random unitary hides the structure.
    """
    q = position_observable(dim)
    p = momentum_observable(dim)
    a = coarse_grain(q, interval_partition(q.outcomes, blocks))
    b = coarse_grain(p, residue_partition(p.outcomes, blocks))
    u = random_unitary(dim, seed)
    return conjugate(a, u), conjugate(b, u)


def coarse_mismatched_pair(dim, blocks, seed):
    """Sharp pair built from two interval coarse-grainings: breaks condition (1)."""
    q = position_observable(dim)
    p = momentum_observable(dim)
    a = coarse_grain(q, interval_partition(q.outcomes, blocks))
    b = coarse_grain(p, interval_partition(p.outcomes, blocks))
    u = random_unitary(dim, seed)
    return conjugate(a, u), conjugate(b, u)


def mu_atomic_pair(dim, seed):
    """Unbiased atomic pair: position/momentum in a common random basis."""
    u = random_unitary(dim, seed)
    return (conjugate(position_observable(dim), u),
            conjugate(momentum_observable(dim), u))


def random_atomic_pair(dim, seed):
    """Two independent random bases; unbiasedness fails almost surely."""
    rng = rng_for(seed)
    effs_a = _basis_effects(random_unitary(dim, rng))
    effs_b = _basis_effects(random_unitary(dim, rng))
    labels = [str(j) for j in range(dim)]
    return Observable(labels, effs_a), Observable(labels, effs_b)


def _basis_effects(u):
    return [np.outer(u[:, j], u[:, j].conj()) for j in range(u.shape[1])]


def random_sharp_pair(dim, m_a, m_b, seed):
    """Two independent random block-projection observables."""
    from mubkit import random_observable
    rng = rng_for(seed)
    return (random_observable(dim, m_a, "sharp", rng),
            random_observable(dim, m_b, "sharp", rng))


def trivial_observable(dim, m):
    eye = np.eye(dim, dtype=complex)
    return Observable([str(j) for j in range(m)], [eye / m] * m)


def perturbed_trivial(dim, m, eps, seed):
    """Trivial observable with +/- eps Hermitian noise on the first two effects."""
    assert m >= 2
    rng = rng_for(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h = h / np.max(np.abs(h))
    eye = np.eye(dim, dtype=complex)
    effs = [eye / m + eps * h, eye / m - eps * h] + [eye / m] * (m - 2)
    return Observable([str(j) for j in range(m)], effs)


def perturbed_chirp_pair(dim=17, eps=1e-6, seed=1):
    """The Fourier basis against the chirp basis C[j, k] = w^((j^2 + kj) mod d)/sqrt(d),
    an MU basis to it for odd prime d, turned by exp(i eps H) with H = (G + G*)/2, G
    complex Gaussian. At d = 17 condition (1) and value complementarity miss by 5.0e-8,
    condition (2) by 2.0e-7, mu and generalized unbiasedness by 8.5e-7: 17 times the first.
    """
    import scipy.linalg

    j, k = np.indices((dim, dim))
    chirp = np.exp(2j * np.pi / dim) ** ((j * j + k * j) % dim) / np.sqrt(dim)
    rng = rng_for(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    turn = scipy.linalg.expm(1j * eps * (g + g.conj().T) / 2.0)
    labels = [str(x) for x in range(dim)]
    return (Observable(labels, linalg.projections(fourier_matrix(dim))),
            Observable(labels, linalg.projections(turn @ chirp)))
