"""Relabelings that must not change a classification.

Swapping A and B, or listing A's outcomes in another order, describes the
same pair. Every verdict, ``vacuous`` and the flags must stay as they are,
and ``max_deviation`` may move by rounding only: summation orders change,
so the bound is MOVE_TOL, not bit equality. A swap also mirrors every
witness whose location the reference makes unique by more than UNIQUE_GAP.
"""
import numpy as np
import pytest

from mubkit import Observable, analysis, oracle
from test_differential import KINDS, build_pair, trace_deviations

MOVE_TOL = 1e-15
UNIQUE_GAP = 1e-12
# every verdict holds, or every failing one has a tied worst location
NOTHING_TO_MIRROR = ("mub", "coarse-matched", "coarse-mismatched", "snap-band-vs-momentum")
SWAPPED = {"A∘B": "B∘A", "B∘A": "A∘B", "B|A": "A|B", "A|B": "B|A", "A": "B", "B": "A"}
# verdict: (the oracle's deviations of (A, B), a witness's location, that location seen from (B, A))
MIRRORS = {
    "mu": (lambda a, b: trace_deviations(a, b, 1.0 / a.dim),
           lambda w: (w["x"], w["y"]), lambda x, y: (y, x)),
    "generalized_mu": (lambda a, b: trace_deviations(a, b, analysis.forced_alpha(a, b)),
                       lambda w: (w["x"], w["y"]), lambda x, y: (y, x)),
    "condition1": (oracle.naive_condition1, lambda w: (w["side"], w["x"], w["y"]),
                   lambda side, x, y: (SWAPPED[side], y, x)),
    "condition2": (oracle.naive_condition2, lambda w: (w["side"], w["outcome"]),
                   lambda side, outcome: (SWAPPED[side], outcome)),
    "value_complementary": (oracle.naive_value_complementary,
                            lambda w: (w["side"], w["certain_outcome"], w["other_outcome"]),
                            lambda side, x, y: (SWAPPED[side], x, y)),
}


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


@pytest.mark.parametrize("kind", KINDS)
def test_swapping_the_pair_mirrors_unique_witnesses(kind):
    """Trace verdicts and condition (1) swap x and y, and every side flips."""
    mirrored = 0
    for dim in (2, 3, 4, 5, 7):
        for seed in range(3):
            a, b = build_pair(kind, dim, seed)
            want, got = analysis.classify_pair(a, b), analysis.classify_pair(b, a)
            for name, (reference, locate, mirror) in MIRRORS.items():
                verdict = getattr(want, name)
                if verdict is None or verdict.holds:
                    continue
                devs = sorted(reference(a, b).values())
                if len(devs) > 1 and devs[-1] - devs[-2] <= UNIQUE_GAP:
                    continue
                assert locate(getattr(got, name).witness) == mirror(*locate(verdict.witness)), name
                mirrored += 1
    assert mirrored or kind in NOTHING_TO_MIRROR


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
