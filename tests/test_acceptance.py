"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The expected matrices below are hard-coded rather than imported so every
comparison here is against an independent copy of the target values.
"""
import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

import helpers
from mubkit import linalg
from mubkit.analysis import (
    check_condition1,
    check_condition2,
    check_generalized_mu,
    check_mu,
    check_partition_criterion,
    check_trivial,
    check_value_complementary,
    classify_pair,
    forced_alpha,
)
from mubkit.effects import seq_product
from mubkit.fourier import fourier_matrix, momentum_observable, position_observable
from mubkit.observables import PartitionMap, coarse_grain, conditioned, iter_partition_maps
from mubkit.oracle import mc_value_complementarity


@contextmanager
def criterion(num, name, capfd):
    def emit(outcome):
        with capfd.disabled():
            print(f"\ncriterion {num:02d} ({name}): {outcome}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


F2 = np.array([[1, 1],
               [1, -1]]) / np.sqrt(2)
F4 = np.array([[1, 1, 1, 1],
               [1, -1j, -1, 1j],
               [1, -1, 1, -1],
               [1, 1j, -1, -1j]]) / 2.0
QPRIME = [np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)]
PPRIME = [np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]) / 2.0,
          np.array([[1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1]]) / 2.0]
MIXED = np.array([[2, 1 + 1j, 0, 0],
                  [1 - 1j, 2, 0, 0],
                  [0, 0, 0, 0],
                  [0, 0, 0, 0]]) / 4.0
CROSS_WITNESS = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)

HALVES = PartitionMap(("0", "1", "2", "3"), ("0", "1"),
                      {"0": "0", "1": "0", "2": "1", "3": "1"})
PARITY = PartitionMap(("0", "1", "2", "3"), ("0", "1"),
                      {"0": "0", "2": "0", "1": "1", "3": "1"})


def max_abs(m):
    return float(np.max(np.abs(m)))


@pytest.fixture(scope="module")
def qp_pairs():
    return {n: (position_observable(n), momentum_observable(n)) for n in range(2, 17)}


@pytest.fixture(scope="module")
def example_pairs():
    q, p = position_observable(4), momentum_observable(4)
    q_half = coarse_grain(q, HALVES)
    return (q_half, coarse_grain(p, PARITY)), (q_half, coarse_grain(p, HALVES))


@pytest.fixture(scope="module")
def atomic_pairs():
    dims = itertools.cycle(range(2, 9))
    pairs = [helpers.mu_atomic_pair(next(dims), seed=1000 + i) for i in range(50)]
    pairs += [helpers.random_atomic_pair(next(dims), seed=2000 + i) for i in range(50)]
    return pairs


@pytest.fixture(scope="module")
def sharp_pairs():
    shapes = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)]
    pairs = []
    for i in range(30):
        dim, blocks = shapes[i % len(shapes)]
        pairs.append(helpers.coarse_matched_pair(dim, blocks, seed=3000 + i))
    for i in range(20):
        pairs.append(helpers.mu_atomic_pair(2 + i % 5, seed=4000 + i))
    for i in range(25):
        pairs.append(helpers.random_sharp_pair(4 + i % 3, 2, 2 + i % 2, seed=5000 + i))
    for i in range(25):
        dim, blocks = shapes[i % len(shapes)]
        pairs.append(helpers.coarse_mismatched_pair(dim, blocks, seed=6000 + i))
    return pairs


def test_criterion_01_transform_fixtures(capfd):
    with criterion(1, "transform fixtures", capfd):
        start = time.perf_counter()
        assert max_abs(fourier_matrix(2) - F2) <= 1e-12
        assert max_abs(fourier_matrix(4) - F4) <= 1e-12
        for f, p in ((F2, momentum_observable(2)), (F4, momentum_observable(4))):
            for j, eff in enumerate(p.effects):
                assert max_abs(eff.matrix - np.outer(f[:, j], f[:, j].conj())) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_products_at_scale(qp_pairs, capfd):
    with criterion(2, "products at scale", capfd):
        start = time.perf_counter()
        for n, (q, p) in qp_pairs.items():
            for a in q.effects:
                for b in p.effects:
                    assert max_abs(seq_product(a, b).matrix - a.matrix / n) <= 1e-10
                    assert max_abs(seq_product(b, a).matrix - b.matrix / n) <= 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_03_conditioning_uniform(qp_pairs, capfd):
    with criterion(3, "conditioning is uniform", capfd):
        for n, (q, p) in qp_pairs.items():
            target = np.eye(n) / n
            for cond in (conditioned(p, q), conditioned(q, p)):
                for eff in cond.effects:
                    assert max_abs(eff.matrix - target) <= 1e-10
            assert check_mu(q, p).holds
            assert check_value_complementary(q, p).holds


def test_criterion_04_matched_coarse_graining(example_pairs, capfd):
    with criterion(4, "matched coarse graining", capfd):
        (q_half, p_parity), _ = example_pairs
        for got, want in zip(q_half.effects, QPRIME):
            assert max_abs(got.matrix - want) <= 1e-12
        for got, want in zip(p_parity.effects, PPRIME):
            assert max_abs(got.matrix - want) <= 1e-12
        for a in q_half.effects:
            for b in p_parity.effects:
                assert max_abs(seq_product(a, b).matrix - a.matrix / 2) <= 1e-12
                assert max_abs(seq_product(b, a).matrix - b.matrix / 2) <= 1e-12
        assert check_value_complementary(q_half, p_parity).holds


def test_criterion_05_mismatched_coarse_graining(example_pairs, capfd):
    with criterion(5, "mismatched coarse graining", capfd):
        _, (q_half, p_half) = example_pairs
        product = seq_product(q_half.effect("0"), p_half.effect("0"))
        assert max_abs(product.matrix - MIXED) <= 1e-12
        assert not check_condition1(q_half, p_half).holds
        assert not check_condition2(q_half, p_half).holds
        assert not check_value_complementary(q_half, p_half).holds
        rep = mc_value_complementarity(q_half, p_half, samples=8, seed=5,
                                       inject=[CROSS_WITNESS])
        hits = [r for r in rep.injected
                if r["side"] == "A" and r["certain_outcome"] == "0"]
        assert hits and abs(hits[0]["observed"]["0"] - 0.75) <= 1e-12
        assert check_generalized_mu(q_half, p_half).holds
        assert forced_alpha(q_half, p_half) == 1.0


def test_criterion_06_atomic_agreement(atomic_pairs, capfd):
    with criterion(6, "atomic predicates agree", capfd):
        start = time.perf_counter()
        for a, b in atomic_pairs:
            rep = classify_pair(a, b)
            verdicts = [rep.mu.holds, rep.value_complementary.holds,
                        rep.condition1.holds, rep.condition2.holds]
            assert len(set(verdicts)) == 1
        assert time.perf_counter() - start < 60.0


def test_criterion_07_sharp_equivalences(sharp_pairs, capfd):
    with criterion(7, "sharp equivalences", capfd):
        for a, b in sharp_pairs:
            c1 = check_condition1(a, b).holds
            assert c1 == check_condition2(a, b).holds
            if c1:
                assert check_value_complementary(a, b).holds


def test_criterion_08_constant_trace_pairing(qp_pairs, example_pairs, atomic_pairs,
                                             sharp_pairs, capfd):
    with criterion(8, "constant trace pairing", capfd):
        pool = list(qp_pairs.values()) + list(example_pairs)
        pool += atomic_pairs + sharp_pairs
        positives = 0
        for a, b in pool:
            if check_condition1(a, b).holds:
                positives += 1
                assert check_generalized_mu(a, b).holds
        assert positives >= 60  # the pool is built to be rich in both kinds


def test_criterion_09_partition_criterion_exhaustive(capfd):
    with criterion(9, "partition criterion exhaustive", capfd):
        start = time.perf_counter()
        q, p = position_observable(4), momentum_observable(4)
        maps = list(iter_partition_maps(q))
        assert len(maps) == 15
        coarse_q = [coarse_grain(q, f) for f in maps]
        coarse_p = [coarse_grain(p, g) for g in maps]
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                predicted = check_partition_criterion(f, g).holds
                actual = check_generalized_mu(coarse_q[i], coarse_p[j]).holds
                assert predicted == actual
        assert time.perf_counter() - start < 30.0


def test_criterion_10_triviality(capfd):
    with criterion(10, "triviality characterization", capfd):
        combos = [(d, m, n) for d in (2, 3, 4, 5, 6) for m, n in
                  ((2, 2), (2, 3), (3, 4), (4, 2))]
        assert len(combos) >= 20
        for d, m, n in combos:
            a = helpers.trivial_observable(d, m)
            b = helpers.trivial_observable(d, n)
            v = check_condition1(a, b)
            assert v.holds and v.max_deviation <= 1e-12
            assert all((obs.spectra()[:, 0] >= linalg.EIGENVALUE_TOL).all() for obs in (a, b))  # invertible
            assert check_trivial(a) and check_trivial(b)
        for d, m, n in combos[:5]:
            bumped = helpers.perturbed_trivial(d, m, eps=1e-6, seed=d)
            assert (bumped.spectra()[:, 0] >= linalg.EIGENVALUE_TOL).all()
            assert not check_condition1(bumped, helpers.trivial_observable(d, n)).holds


def test_criterion_11_sampler_concordance(sharp_pairs, capfd):
    with criterion(11, "sampler concordance", capfd):
        subset = sharp_pairs[:25] + sharp_pairs[-25:]  # 25 matched, 25 mismatched
        for i, (a, b) in enumerate(subset):
            verdict = check_value_complementary(a, b)
            rep = mc_value_complementarity(a, b, samples=1000, seed=7000 + i)
            assert rep.consistent == verdict.holds
