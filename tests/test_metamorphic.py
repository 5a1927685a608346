"""Relabelings that must not change a classification.

Swapping A and B, or listing A's outcomes in another order, describes the
same pair. Every verdict, ``vacuous`` and the flags must stay as they are,
and ``max_deviation`` may move by rounding only: summation orders change,
so the bound is MOVE_TOL, not bit equality.
"""
import numpy as np
import pytest

from mubkit import Observable, analysis
from test_differential import KINDS, build_pair

MOVE_TOL = 1e-15


def assert_same_classification(got, want):
    assert (got.dim, got.alpha, got.flags) == (want.dim, want.alpha, want.flags)
    for name in ("mu", "value_complementary", "condition1", "condition2", "generalized_mu"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert (g.holds, g.vacuous) == (w.holds, w.vacuous), name
            assert abs(g.max_deviation - w.max_deviation) <= MOVE_TOL, name


def permuted(a, order):
    return Observable([a.outcomes[i] for i in order], a.stack()[order])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_swapping_the_pair(kind, dim):
    a, b = build_pair(kind, dim, 1000 + dim)
    want = analysis.classify_pair(a, b)
    got = analysis.classify_pair(b, a)
    assert (got.m, got.n) == (want.n, want.m)
    assert_same_classification(got, want)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_permuting_outcomes(kind, dim):
    a, b = build_pair(kind, dim, 2000 + dim)
    order = np.random.default_rng(dim).permutation(len(a))
    if len(a) > 1 and np.array_equal(order, np.arange(len(a))):
        order = np.roll(order, 1)
    want = analysis.classify_pair(a, b)
    got = analysis.classify_pair(permuted(a, order), b)
    assert (got.m, got.n) == (want.m, want.n)
    assert_same_classification(got, want)
