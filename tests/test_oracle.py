import numpy as np
import pytest

import helpers
from mubkit import linalg
from mubkit.analysis import check_value_complementary
from mubkit.errors import InvalidParams
from mubkit.fourier import example_partitions, momentum_observable, position_observable
from mubkit.oracle import (
    brute_trace_table,
    mc_value_complementarity,
    random_observable,
    random_state,
    random_unit_vector,
    random_unitary,
)

CROSS_WITNESS = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)


class TestGenerators:
    def test_unit_vector_normalized(self):
        for dim in (1, 2, 7):
            v = random_unit_vector(dim, seed=3)
            assert v.shape == (dim,)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_is_unitary(self):
        u = random_unitary(5, seed=4)
        assert linalg.max_abs(u @ u.conj().T - np.eye(5)) < 1e-12

    def test_determinism_is_bitwise(self):
        assert np.array_equal(random_unitary(4, seed=9), random_unitary(4, seed=9))
        a1 = random_observable(4, 3, "unsharp", seed=9)
        a2 = random_observable(4, 3, "unsharp", seed=9)
        for e1, e2 in zip(a1.effects, a2.effects):
            assert np.array_equal(e1.matrix, e2.matrix)

    def test_seeds_differ(self):
        assert not np.array_equal(random_unitary(4, seed=1), random_unitary(4, seed=2))

    def test_generator_instance_advances(self):
        rng = np.random.default_rng(5)
        assert not np.array_equal(random_unitary(3, rng), random_unitary(3, rng))

    def test_random_state_valid(self):
        s = random_state(4, 3, seed=6)
        assert np.trace(s.matrix).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(s.matrix)
        assert w[0] > -1e-12
        assert w[0] < 1e-9  # rank 3 of 4 leaves a null direction

    def test_random_state_rank_bounds(self):
        with pytest.raises(InvalidParams):
            random_state(3, 0, seed=6)
        with pytest.raises(InvalidParams):
            random_state(3, 4, seed=6)

    def test_atomic_observable(self):
        a = random_observable(4, 4, "atomic", seed=7)
        assert a.outcomes == ("0", "1", "2", "3")
        assert a.is_atomic()

    def test_sharp_observable(self):
        a = random_observable(6, 3, "sharp", seed=8)
        assert a.is_sharp() and not a.is_atomic()
        ranks = [int(round(np.trace(e.matrix).real)) for e in a.effects]
        assert sum(ranks) == 6 and all(r >= 1 for r in ranks)

    def test_unsharp_observable(self):
        a = random_observable(3, 4, "unsharp", seed=10)
        assert not a.is_sharp()
        assert len(a) == 4 and a.dim == 3

    @pytest.mark.parametrize("dim,m,kind", [
        (3, 2, "atomic"),   # atomic needs m == dim
        (3, 5, "sharp"),    # sharp needs m <= dim
        (3, 0, "unsharp"),
        (0, 2, "unsharp"),
        (3, 2, "blurred"),  # unknown kind
    ])
    def test_invalid_params(self, dim, m, kind):
        with pytest.raises(InvalidParams):
            random_observable(dim, m, kind, seed=0)


class TestMonteCarlo:
    def test_transform_pair_consistent(self):
        q, p = position_observable(4), momentum_observable(4)
        rep = mc_value_complementarity(q, p, samples=200, seed=1)
        assert rep.consistent
        assert rep.max_deviation < 1e-10
        # the witness always records where the worst deviation occurred
        assert rep.witness["injected"] is False
        assert rep.injected == ()

    def test_mismatched_pair_inconsistent(self):
        q_half, _, p_half = example_partitions()
        rep = mc_value_complementarity(q_half, p_half, samples=500, seed=2)
        assert not rep.consistent
        assert rep.max_deviation > 0.2
        w = rep.witness
        assert w["side"] in ("A", "B")
        assert abs(w["observed"] - w["target"]) == pytest.approx(rep.max_deviation)

    def test_injected_state_is_deterministic(self):
        q_half, _, p_half = example_partitions()
        rep = mc_value_complementarity(q_half, p_half, samples=10, seed=3,
                                       inject=[CROSS_WITNESS])
        hits = [r for r in rep.injected
                if r["side"] == "A" and r["certain_outcome"] == "0"]
        assert hits
        assert hits[0]["observed"]["0"] == pytest.approx(0.75, abs=1e-12)
        assert hits[0]["observed"]["1"] == pytest.approx(0.25, abs=1e-12)
        assert rep.max_deviation >= 0.25 - 1e-12

    def test_injection_outside_subspace_is_skipped(self):
        # a vector orthogonal to the certainty subspace projects to zero there
        q, p = position_observable(2), momentum_observable(2)
        ortho = np.array([0.0, 1.0])
        rep = mc_value_complementarity(q, p, samples=5, seed=4, inject=[ortho])
        sides_a0 = [r for r in rep.injected
                    if r["side"] == "A" and r["certain_outcome"] == "0"]
        assert sides_a0 == []

    def test_trivial_against_identity(self):
        a = helpers.trivial_observable(3, 2)
        ident = helpers.trivial_observable(3, 1)
        rep = mc_value_complementarity(a, ident, samples=50, seed=5)
        assert rep.consistent

    def test_invalid_inputs(self):
        q, p = position_observable(2), momentum_observable(2)
        with pytest.raises(InvalidParams):
            mc_value_complementarity(q, p, samples=0, seed=6)
        with pytest.raises(InvalidParams):
            mc_value_complementarity(q, p, samples=5, seed=6,
                                     inject=[np.ones(3)])

    def test_bad_injection_raises_without_certainty_subspaces(self):
        # unsharp effects have no eigenvalue-1 eigenspace, so no vector is
        # ever projected in: the shape is checked before sampling
        a, b = (random_observable(4, 2, "unsharp", seed) for seed in (7, 8))
        with pytest.raises(InvalidParams, match=r"shape \(3,\)"):
            mc_value_complementarity(a, b, samples=5, seed=9, inject=[[1, 2, 3]])

    def test_agrees_with_decider(self):
        for seed in range(10):
            dim = 4 + 2 * (seed % 2)
            a, b = (helpers.coarse_matched_pair(dim, 2, seed=seed) if seed % 2
                    else helpers.random_sharp_pair(dim, 2, 2, seed=seed))
            verdict = check_value_complementary(a, b)
            rep = mc_value_complementarity(a, b, samples=200, seed=100 + seed)
            assert rep.consistent == verdict.holds


class TestBruteTraceTable:
    def test_transform_pair_uniform(self):
        q, p = position_observable(4), momentum_observable(4)
        table = brute_trace_table(q, p)
        assert table.shape == (4, 4)
        assert np.allclose(table, 0.25, atol=1e-12)

    def test_identical_bases_are_diagonal(self):
        q = position_observable(3)
        assert np.allclose(brute_trace_table(q, q), np.eye(3), atol=1e-12)

    def test_mismatched_coarse_pair(self):
        q_half, _, p_half = example_partitions()
        assert np.allclose(brute_trace_table(q_half, p_half), 1.0, atol=1e-12)

    def test_row_sums_give_traces(self):
        a = random_observable(5, 3, "unsharp", seed=11)
        b = random_observable(5, 4, "unsharp", seed=12)
        table = brute_trace_table(a, b)
        for i, e in enumerate(a.effects):
            assert table[i].sum() == pytest.approx(np.trace(e.matrix).real, abs=1e-10)
