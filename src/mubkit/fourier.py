"""Finite Fourier transform and the position/momentum observable pair."""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidDim
from .observables import Observable, PartitionMap, coarse_grain


def _check_dim(dim) -> None:
    """Raise InvalidDim unless ``dim`` is a positive integer (not a bool)."""
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise InvalidDim(f"dimension must be a positive integer, got {dim!r}")


def fourier_matrix(dim: int) -> np.ndarray:
    """The dim x dim matrix with entries exp(-2*pi*i*m*n/dim)/sqrt(dim).

    The exponent is reduced mod dim before evaluating, so entries that
    should be exact roots of unity agree bit-for-bit across the matrix.
    """
    _check_dim(dim)
    m, n = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    phase = np.exp(-2j * np.pi * ((m * n) % dim) / dim)
    return linalg.freeze(phase / np.sqrt(dim))


def position_observable(dim: int) -> Observable:
    """Atomic observable of the standard basis: Q_j = |e_j><e_j|."""
    _check_dim(dim)
    return Observable([str(j) for j in range(dim)], linalg.projections(np.eye(dim, dtype=complex)))


def momentum_observable(dim: int) -> Observable:
    """Atomic observable of the Fourier basis: P_j = |F e_j><F e_j|."""
    f = fourier_matrix(dim)  # validates dim before the labels use it
    return Observable([str(j) for j in range(dim)], linalg.projections(f))


def example_partitions(dim: int = 4) -> tuple[Observable, Observable, Observable]:
    """The three dimension-4 coarse-grainings used throughout the fixtures.

    Returns (Q', P', P''): position merged as {0,1}/{2,3}, momentum merged
    as {0,2}/{1,3}, and momentum merged as {0,1}/{2,3}. The pair (Q', P')
    keeps the sequential-product symmetry of (Q, P); the pair (Q', P'')
    breaks it while still being unbiased in the generalized sense.
    """
    if dim != 4:
        raise InvalidDim(f"the partition examples are defined for dimension 4, got {dim!r}")
    q = position_observable(4)
    p = momentum_observable(4)
    halves = PartitionMap(q.outcomes, ("0", "1"), {"0": "0", "1": "0", "2": "1", "3": "1"})
    parity = PartitionMap(p.outcomes, ("0", "1"), {"0": "0", "2": "0", "1": "1", "3": "1"})
    q_half = coarse_grain(q, halves)
    p_parity = coarse_grain(p, parity)
    p_half = coarse_grain(p, halves)
    return q_half, p_parity, p_half
