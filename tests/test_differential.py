"""The deciders in mubkit.analysis against the naive reference in mubkit.oracle.

The reference computes every outcome pair's deviation with one dense
product per pair. The deciders must agree on the verdict and on
``vacuous`` exactly, on ``max_deviation`` within DEV_TOL, and every
witness must name a location whose reference deviation is within DEV_TOL
of ``max_deviation`` (on exact ties either location will do).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mubkit import (
    Observable,
    PartitionMap,
    analysis,
    coarse_grain,
    conjugate,
    linalg,
    momentum_observable,
    observables,
    oracle,
    position_observable,
    random_observable,
    random_unitary,
)

DEV_TOL = 1e-12


def _labels(n):
    return [str(j) for j in range(n)]


def _projections(u):
    return [np.outer(c, c.conj()) for c in u.T]


def halved_bases(dim, rng):
    """Rank-one effects that are not projections: 0.5 v v* over two bases."""
    effs = [0.5 * p for _ in range(2) for p in _projections(random_unitary(dim, rng))]
    return Observable(_labels(2 * dim), effs)


def snap_band_basis(u):
    """Projections onto the columns of ``u``, with 5e-10 of the second moved
    onto the first: one effect has an eigenvalue inside the square root's
    snap band, another is rank one with eigenvalue 1 - 5e-10."""
    effs = _projections(u)
    effs[0] = effs[0] + 5e-10 * effs[1]
    effs[1] = (1 - 5e-10) * effs[1]
    return Observable(_labels(len(effs)), effs)


def uneven_position(dim, u):
    """Position merged into blocks of sizes 1, 2, ...: rank-one and higher-rank effects."""
    q = position_observable(dim)
    targets = [0] + [1 + (j - 1) // 2 for j in range(1, dim)]
    pmap = PartitionMap(q.outcomes, _labels(targets[-1] + 1),
                        {x: str(t) for x, t in zip(q.outcomes, targets)})
    return conjugate(coarse_grain(q, pmap), u)


def partial_certainty(dim, u):
    """diag(1, 1/2, 0, ...) and its complement in the basis ``u``: a
    certainty subspace that is one line of an effect that is not rank one."""
    first = u @ np.diag(np.r_[1.0, 0.5, np.zeros(dim - 2)]) @ u.conj().T
    return Observable(_labels(2), [first, np.eye(dim) - first])


def weighted_blocks(dim, u, weight=0.3):
    """weight P and (1 - weight) P for the projection P onto each run of four columns of
    ``u`` (the last run may be shorter): unsharp effects of rank up to four, and no
    eigenvalue at 1, so no certainty subspace."""
    effs = []
    for j in range(0, dim, 4):
        block = u[:, j:j + 4] @ u[:, j:j + 4].conj().T
        effs += [weight * block, (1 - weight) * block]
    return Observable(_labels(len(effs)), effs)


def build_pair(kind, dim, seed):
    rng = np.random.default_rng(seed)
    even = max(2, dim - dim % 2)
    if kind == "mub":
        return helpers.mu_atomic_pair(dim, rng)
    if kind == "random-atomic":
        return helpers.random_atomic_pair(dim, rng)
    if kind == "coarse-matched":
        return helpers.coarse_matched_pair(even, 2, rng)
    if kind == "coarse-mismatched":
        return helpers.coarse_mismatched_pair(even, 2, rng)
    if kind == "random-sharp":
        return helpers.random_sharp_pair(max(dim, 3), 3, 2, rng)
    if kind == "unsharp":
        return (random_observable(dim, 3, "unsharp", rng),
                random_observable(dim, 2, "unsharp", rng))
    if kind == "atomic-vs-sharp":
        return (random_observable(dim, dim, "atomic", rng),
                random_observable(dim, min(dim, 3), "sharp", rng))
    if kind == "halved-vs-atomic":
        return halved_bases(dim, rng), random_observable(dim, dim, "atomic", rng)
    if kind == "snap-band-vs-momentum":
        u = random_unitary(dim, rng)
        return snap_band_basis(u), conjugate(momentum_observable(dim), u)
    if kind == "mixed-rank-vs-momentum":
        u = random_unitary(dim, rng)
        return uneven_position(dim, u), conjugate(momentum_observable(dim), u)
    if kind == "partial-certainty":
        return partial_certainty(dim, random_unitary(dim, rng)), momentum_observable(dim)
    if kind == "weighted-blocks":
        return weighted_blocks(dim, random_unitary(dim, rng)), random_observable(dim, 2, "sharp", rng)
    raise AssertionError(kind)


KINDS = ["mub", "random-atomic", "coarse-matched", "coarse-mismatched", "random-sharp",
         "unsharp", "atomic-vs-sharp", "halved-vs-atomic", "snap-band-vs-momentum",
         "mixed-rank-vs-momentum", "partial-certainty", "weighted-blocks"]


def trace_deviations(a, b, target):
    table = oracle.brute_trace_table(a, b)
    return {(x, y): abs(table[i, j] - target)
            for i, x in enumerate(a.outcomes) for j, y in enumerate(b.outcomes)}


def assert_agrees(verdict, deviations, locate, mat_tol):
    worst = max(deviations.values(), default=0.0)
    assert verdict.vacuous == (not deviations)
    assert verdict.holds == (worst <= mat_tol)
    assert abs(verdict.max_deviation - worst) <= DEV_TOL
    if verdict.witness is None:
        assert verdict.holds
    else:
        assert abs(deviations[locate(verdict.witness)] - verdict.max_deviation) <= DEV_TOL


def assert_deciders_agree(a, b, tol):
    """Every checker against the naive reference, and ``classify_pair`` against every checker."""
    mat_tol, eig_tol = linalg.tols(a.dim, tol)
    cases = [
        (analysis.check_condition1(a, b, tol), oracle.naive_condition1(a, b),
         lambda w: (w["side"], w["x"], w["y"])),
        (analysis.check_condition2(a, b, tol), oracle.naive_condition2(a, b),
         lambda w: (w["side"], w["outcome"])),
        (analysis.check_value_complementary(a, b, tol), oracle.naive_value_complementary(a, b, tol),
         lambda w: (w["side"], w["certain_outcome"], w["other_outcome"])),
        (analysis.check_generalized_mu(a, b, tol),
         trace_deviations(a, b, analysis.forced_alpha(a, b)), lambda w: (w["x"], w["y"])),
    ]
    if a.is_atomic(eig_tol) and b.is_atomic(eig_tol):
        cases.append((analysis.check_mu(a, b, tol), trace_deviations(a, b, 1.0 / a.dim),
                      lambda w: (w["x"], w["y"])))
    for verdict, deviations, locate in cases:
        assert_agrees(verdict, deviations, locate, mat_tol)
    # classify_pair reads shared product passes and one trace table, not the
    # standalone checkers: pin the two paths to each other
    report = analysis.classify_pair(a, b, tol)
    assert report.condition1 == cases[0][0]
    assert report.condition2 == cases[1][0]
    assert report.value_complementary == cases[2][0]
    assert report.generalized_mu == cases[3][0]
    assert report.mu == (cases[4][0] if len(cases) == 5 else None)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), dim=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([None, 1e-6, 1e-12]))
def test_deciders_match_naive_reference(kind, dim, seed, tol):
    assert_deciders_agree(*build_pair(kind, dim, seed), tol)


@pytest.mark.parametrize("dim", [17, 27, 32])
def test_rounded_haar_pairs_match_naive_reference(dim):
    """Uncertified lines past d = 8: Haar-rotated position/momentum with entries rounded to
    9 decimals, as read from a file, validate at the CLI's tolerance with no effect certified."""
    tol = linalg.default_tol(dim)
    u = random_unitary(dim, dim)
    a, b = (Observable(o.outcomes, np.round(u @ o.stack() @ u.conj().T, 9), tol)
            for o in (position_observable(dim), momentum_observable(dim)))
    assert not a._certified.any() and not b._certified.any()
    assert_deciders_agree(a, b, tol)
    assert_deciders_agree(b, a, tol)


FACTORED_KINDS = ["coarse-matched", "coarse-mismatched", "random-sharp", "mixed-rank-vs-momentum",
                  "partial-certainty", "weighted-blocks"]


# at d = 96 a tile of ``linalg.blocks`` holds one product (d >= 91); there the naive
# reference takes seconds on mixed-rank-vs-momentum, whose effects are mostly lifted densely
@pytest.mark.parametrize("dim, kind", [(dim, kind) for dim in (8, 17, 27, 32, 64) for kind in FACTORED_KINDS]
                         + [(96, kind) for kind in FACTORED_KINDS if kind != "mixed-rank-vs-momentum"])
def test_factored_lifts_match_naive_reference(kind, dim):
    """The projector path past the hypothesis suite's d <= 7: blocks of outcomes lifted
    through their factors, and compressions that value complementarity reads."""
    a, b = build_pair(kind, dim, dim)
    factored = [x for first, second in ((a, b), (b, a))
                for comp in observables.compressions(first, second) for x in comp.index]
    # coarse-grainings in two blocks, runs of two or four columns: ranks held by two outcomes or
    # more; a lone rank-two effect against momentum once its n lifts fill a block (d^3 >= 2^14)
    if kind != "random-sharp" and (kind != "partial-certainty" or dim ** 3 >= linalg._CHUNK_ENTRIES):
        assert factored
    assert_deciders_agree(a, b, None)
