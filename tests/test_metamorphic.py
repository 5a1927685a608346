"""Relabelings that must not change a classification, and the paper's parts
of mutually unbiased observables.

Swapping A and B, or listing A's outcomes in another order, describes the
same pair. Every verdict, ``vacuous`` and the flags must stay as they are,
and ``max_deviation`` may move by rounding only: summation orders change,
so the bound is MOVE_TOL, not bit equality. A swap mirrors, and a
permutation keeps, every witness whose location the reference makes unique
by more than UNIQUE_GAP. A common unitary change of basis keeps every
verdict that is clear of the tolerance.
"""
import itertools

import numpy as np
import pytest

from mubkit import (
    Observable,
    analysis,
    coarse_grain,
    conjugate,
    iter_partition_maps,
    linalg,
    momentum_observable,
    oracle,
    position_observable,
    random_unitary,
)
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


VERDICTS = ("mu", "value_complementary", "condition1", "condition2", "generalized_mu")


def unique_failures(a, b, report):
    """(name, locate, mirror, verdict) of every failing verdict whose worst location
    the reference makes unique by more than UNIQUE_GAP."""
    for name, (reference, locate, mirror) in MIRRORS.items():
        verdict = getattr(report, name)
        if verdict is None or verdict.holds:
            continue
        devs = sorted(reference(a, b).values())
        if len(devs) == 1 or devs[-1] - devs[-2] > UNIQUE_GAP:
            yield name, locate, mirror, verdict


def assert_same_classification(got, want):
    assert (got.dim, got.alpha, got.flags) == (want.dim, want.alpha, want.flags)
    for name in VERDICTS:
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
            for name, locate, mirror, verdict in unique_failures(a, b, want):
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


@pytest.mark.parametrize("kind", KINDS)
def test_permuting_outcomes_keeps_unique_witnesses(kind):
    """A witness names outcomes by label, and labels travel with their
    effects: through the permutation, a unique witness names the same ones."""
    kept = 0
    for dim in (2, 3, 4, 5, 7):
        for seed in range(3):
            a, b = build_pair(kind, dim, seed)
            order = np.roll(np.random.default_rng(seed).permutation(len(a)), 1)
            want, got = analysis.classify_pair(a, b), analysis.classify_pair(permuted(a, order), b)
            for name, locate, _, verdict in unique_failures(a, b, want):
                assert locate(getattr(got, name).witness) == locate(verdict.witness), name
                kept += 1
    assert kept or kind in NOTHING_TO_MIRROR


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_a_common_haar_conjugation_keeps_clear_verdicts(kind, dim):
    """Trace verdicts are unitarily invariant. The others compare entrywise
    max-norms of conjugation-covariant matrices, which a unitary moves by at
    most a factor d < 10: so a deviation at most tol/10 (0 included) or at
    least 10 tol keeps its side of tol."""
    a, b = build_pair(kind, dim, 3000 + dim)
    u = random_unitary(a.dim, dim)
    want = analysis.classify_pair(a, b)
    got = analysis.classify_pair(conjugate(a, u), conjugate(b, u))
    mat_tol, _ = linalg.tols(a.dim, None)
    for name in VERDICTS:
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None and not mat_tol / 10 < w.max_deviation < 10 * mat_tol:
            assert (g.holds, g.vacuous) == (w.holds, w.vacuous), name


@pytest.mark.parametrize("dim, sample", [(4, None), (6, 400)])
def test_parts_of_mu_observables(dim, sample):
    """Coarse-grainings of position and momentum, in a common Haar basis, are
    unbiased in the generalized sense exactly when the partition criterion
    holds: every partition pair at d = 4 (15 x 15), a seeded sample at d = 6."""
    u = random_unitary(dim, dim)
    q, p = conjugate(position_observable(dim), u), conjugate(momentum_observable(dim), u)
    maps = list(iter_partition_maps(q))
    pairs = list(itertools.product(range(len(maps)), repeat=2))
    if sample is not None:
        pairs = [pairs[k] for k in np.random.default_rng(dim).choice(len(pairs), sample, replace=False)]
    parts_q, parts_p = {}, {}
    for i, j in pairs:
        fq = parts_q.setdefault(i, coarse_grain(q, maps[i]))
        fp = parts_p.setdefault(j, coarse_grain(p, maps[j]))
        holds = analysis.check_partition_criterion(maps[i], maps[j]).holds
        assert analysis.check_generalized_mu(fq, fp).holds == holds, (maps[i].mapping, maps[j].mapping)
