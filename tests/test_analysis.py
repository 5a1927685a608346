import numpy as np
import pytest

import helpers
from mubkit import linalg, observables, oracle
from mubkit.analysis import (
    PairReport,
    Verdict,
    _reconcile,
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
from mubkit.effects import Effect, State
from mubkit.errors import DimMismatch, InternalInconsistency, InvalidParams, MubkitError, NotAtomic
from mubkit.fourier import example_partitions, momentum_observable, position_observable
from mubkit.observables import (
    Observable,
    PartitionMap,
    coarse_grain,
    conjugate,
    iter_partition_maps,
    products,
)
from mubkit.oracle import random_observable, random_unitary
from test_differential import build_pair


def equal_trace_diagonal():
    # three diagonal effects of trace one summing to the identity
    return Observable(["0", "1", "2"],
                      [np.diag([0.5, 0.3, 0.2]).astype(complex),
                       np.diag([0.3, 0.4, 0.3]).astype(complex),
                       np.diag([0.2, 0.3, 0.5]).astype(complex)])


class TestMu:
    def test_holds_for_transform_pairs(self):
        for dim in (2, 3, 4, 8):
            v = check_mu(position_observable(dim), momentum_observable(dim))
            assert v.holds and v.max_deviation < 1e-12

    def test_invariant_under_common_conjugation(self):
        a, b = helpers.mu_atomic_pair(5, seed=71)
        assert check_mu(a, b).holds

    def test_fails_for_identical_bases(self):
        q = position_observable(3)
        v = check_mu(q, q)
        assert not v.holds
        assert v.witness["observed"] == pytest.approx(1.0, abs=1e-12)
        assert v.witness["target"] == pytest.approx(1.0 / 3.0)
        assert v.max_deviation == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_non_atomic(self):
        q_half, p_parity, _ = example_partitions()
        with pytest.raises(NotAtomic):
            check_mu(q_half, p_parity)
        with pytest.raises(NotAtomic):
            check_mu(position_observable(3), helpers.trivial_observable(3, 3))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            check_mu(position_observable(2), position_observable(3))


class TestCondition1:
    def test_atomic_transform_pair(self):
        for dim in (2, 4, 6):
            v = check_condition1(position_observable(dim), momentum_observable(dim))
            assert v.holds and v.max_deviation < 1e-12

    def test_matched_coarse_pair(self):
        q_half, p_parity, _ = example_partitions()
        assert check_condition1(q_half, p_parity).holds

    def test_mismatched_coarse_pair_fails_with_witness(self):
        q_half, _, p_half = example_partitions()
        v = check_condition1(q_half, p_half)
        assert not v.holds
        assert v.max_deviation == pytest.approx(np.sqrt(2) / 4, abs=1e-10)
        assert v.witness["side"] in ("A∘B", "B∘A")

    def test_trivial_pair_is_exact(self):
        a = helpers.trivial_observable(4, 2)
        b = helpers.trivial_observable(4, 3)
        v = check_condition1(a, b)
        assert v.holds and v.max_deviation < 1e-13


class TestCondition2:
    def test_transform_and_matched_pairs(self):
        q, p = position_observable(4), momentum_observable(4)
        assert check_condition2(q, p).holds
        q_half, p_parity, _ = example_partitions()
        assert check_condition2(q_half, p_parity).holds

    def test_mismatched_pair_fails(self):
        q_half, _, p_half = example_partitions()
        v = check_condition2(q_half, p_half)
        assert not v.holds
        assert v.witness["side"] in ("B|A", "A|B")

    def test_trivial_pair(self):
        assert check_condition2(helpers.trivial_observable(3, 2),
                                helpers.trivial_observable(3, 2)).holds


class TestValueComplementary:
    def test_transform_pair_holds(self):
        for dim in (2, 3, 5):
            v = check_value_complementary(position_observable(dim), momentum_observable(dim))
            assert v.holds and not v.vacuous

    def test_mismatched_pair_witness_is_sound(self):
        q_half, _, p_half = example_partitions()
        v = check_value_complementary(q_half, p_half)
        assert not v.holds and not v.vacuous
        w = v.witness
        psi = np.array([re + 1j * im for re, im in w["state"]])
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        other = (p_half if w["side"] == "A" else q_half).effect(w["other_outcome"])
        certain = (q_half if w["side"] == "A" else p_half).effect(w["certain_outcome"])
        # the state really is certain on its side and really observes the value
        assert np.vdot(psi, certain.matrix @ psi).real == pytest.approx(1.0, abs=1e-10)
        assert np.vdot(psi, other.matrix @ psi).real == pytest.approx(w["observed"], abs=1e-10)
        assert abs(w["observed"] - w["target"]) > 0.1

    def test_unsharp_pair_is_vacuous(self):
        rng = np.random.default_rng(37)
        a = random_observable(3, 2, "unsharp", rng)
        b = random_observable(3, 2, "unsharp", rng)
        v = check_value_complementary(a, b)
        assert v.holds and v.vacuous and v.max_deviation == 0.0

    def test_one_sided_certainty_is_not_vacuous(self):
        # sharp against unsharp: only one side contributes subspaces
        rng = np.random.default_rng(41)
        sharp = position_observable(3)
        unsharp = random_observable(3, 3, "unsharp", rng)
        v = check_value_complementary(sharp, unsharp)
        assert not v.vacuous
        assert not v.holds  # a random POVM is nowhere near uniform on eigenstates

    def test_merging_one_side_breaks_it(self):
        # merged momentum keeps unbiased position eigenstates, but superpositions
        # inside its rank-two certainty subspace are no longer uniform over position
        q = position_observable(4)
        p = momentum_observable(4)
        merged = coarse_grain(p, helpers.residue_partition(p.outcomes, 2))
        v = check_value_complementary(q, merged)
        assert not v.holds and not v.vacuous
        w = v.witness
        assert w["side"] == "B" and w["target"] == pytest.approx(0.25)
        psi = np.array([re + 1j * im for re, im in w["state"]])
        other = q.effect(w["other_outcome"])
        assert np.vdot(psi, other.matrix @ psi).real == pytest.approx(w["observed"], abs=1e-10)
        # 0 and 1/2 are tied extremes around 1/4: the witness takes the first, ascending
        assert w["observed"] == pytest.approx(0.0, abs=1e-10)


class TestGeneralizedMu:
    def test_mismatched_pair_alpha_one(self):
        q_half, _, p_half = example_partitions()
        v = check_generalized_mu(q_half, p_half)
        assert v.holds and v.max_deviation < 1e-12
        assert forced_alpha(q_half, p_half) == 1.0

    def test_uniform_against_equal_trace(self):
        trivial = helpers.trivial_observable(3, 3)
        v = check_generalized_mu(trivial, equal_trace_diagonal())
        assert v.holds
        assert forced_alpha(trivial, equal_trace_diagonal()) == pytest.approx(1.0 / 3.0)

    def test_atomic_case_reduces_to_mu(self):
        q, p = position_observable(4), momentum_observable(4)
        assert forced_alpha(q, p) == pytest.approx(0.25)
        assert check_generalized_mu(q, p).holds

    def test_fails_with_witness(self):
        q = position_observable(3)
        v = check_generalized_mu(q, q)
        assert not v.holds
        assert v.witness["observed"] == pytest.approx(1.0)
        assert v.witness["target"] == pytest.approx(1.0 / 3.0)


class TestPartitionCriterion:
    def test_balanced_blocks(self):
        outcomes = ("0", "1", "2", "3")
        even = helpers.interval_partition(outcomes, 2)
        res = check_partition_criterion(even, even)
        assert res.holds and res.constant == 4 and res.products == (4,)

    def test_skewed_blocks_fail(self):
        outcomes = ("0", "1", "2", "3")
        skew = PartitionMap(outcomes, ("0", "1"), {"0": "0", "1": "1", "2": "1", "3": "1"})
        even = helpers.interval_partition(outcomes, 2)
        res = check_partition_criterion(skew, even)
        assert not res.holds and res.constant is None and res.products == (2, 6)

    def test_extreme_partitions(self):
        outcomes = ("0", "1", "2", "3")
        whole = PartitionMap(outcomes, ("0",), {x: "0" for x in outcomes})
        singles = PartitionMap(outcomes, outcomes, {x: x for x in outcomes})
        assert check_partition_criterion(whole, whole).constant == 16
        assert check_partition_criterion(singles, singles).constant == 1
        assert check_partition_criterion(whole, singles).constant == 4


class TestTrivial:
    def test_uniform_observable(self):
        assert check_trivial(helpers.trivial_observable(3, 4))

    def test_position_is_not(self):
        assert not check_trivial(position_observable(3))

    def test_equal_trace_is_not(self):
        assert not check_trivial(equal_trace_diagonal())


class TestPredicateRelations:
    def test_condition1_implies_condition2_and_gmu(self):
        pairs = [helpers.coarse_matched_pair(6, 3, seed=1),
                 helpers.coarse_matched_pair(8, 2, seed=2),
                 helpers.mu_atomic_pair(5, seed=3),
                 (helpers.trivial_observable(4, 2), helpers.trivial_observable(4, 4))]
        for a, b in pairs:
            assert check_condition1(a, b).holds
            assert check_condition2(a, b).holds
            assert check_generalized_mu(a, b).holds

    def test_sharp_equivalence_of_conditions(self):
        cases = [helpers.coarse_matched_pair(6, 2, seed=11),
                 helpers.coarse_mismatched_pair(6, 2, seed=12),
                 helpers.mu_atomic_pair(4, seed=13),
                 helpers.random_atomic_pair(4, seed=14),
                 helpers.random_sharp_pair(6, 2, 3, seed=15)]
        for a, b in cases:
            assert a.is_sharp() and b.is_sharp()
            assert check_condition1(a, b).holds == check_condition2(a, b).holds

    def test_condition1_matches_support_compression_form(self):
        # independent formulation: compress each B_y to the support of A_x
        def support_form(a, b, tol=1e-9):
            for first, second in ((a, b), (b, a)):
                n = len(second)
                for ex in first.effects:
                    w, v = ex.spectral
                    kept = v[:, w > linalg.EIGENVALUE_TOL]
                    proj = kept @ kept.conj().T
                    for fy in second.effects:
                        if linalg.max_abs(proj @ fy.matrix @ proj - proj / n) > tol:
                            return False
            return True

        cases = [helpers.coarse_matched_pair(4, 2, seed=21),
                 helpers.coarse_mismatched_pair(4, 2, seed=22),
                 helpers.mu_atomic_pair(3, seed=23),
                 helpers.random_atomic_pair(3, seed=24),
                 (helpers.trivial_observable(3, 3), helpers.trivial_observable(3, 3)),
                 (helpers.trivial_observable(3, 3), equal_trace_diagonal())]
        for a, b in cases:
            assert check_condition1(a, b).holds == support_form(a, b)

    def test_condition1_implies_value_complementarity(self):
        for seed, (dim, blocks) in enumerate([(4, 2), (6, 2), (6, 3), (8, 4)]):
            a, b = helpers.coarse_matched_pair(dim, blocks, seed=31 + seed)
            assert check_condition1(a, b).holds
            assert check_value_complementary(a, b).holds
        # unsharp case: trivial pairs hold vacuously
        a = helpers.trivial_observable(4, 2)
        b = helpers.trivial_observable(4, 2)
        assert check_condition1(a, b).holds
        v = check_value_complementary(a, b)
        assert v.holds and v.vacuous

    def test_atomic_four_way_agreement(self):
        for seed in range(10):
            dim = 2 + seed % 5
            a, b = (helpers.mu_atomic_pair(dim, seed=41 + seed) if seed % 2
                    else helpers.random_atomic_pair(dim, seed=41 + seed))
            rep = classify_pair(a, b)
            assert rep.mu is not None
            verdicts = [rep.mu.holds, rep.value_complementary.holds,
                        rep.condition1.holds, rep.condition2.holds]
            assert len(set(verdicts)) == 1
            assert "marginal" not in rep.flags

    def test_atomic_gmu_iff_mu(self):
        for seed in range(6):
            dim = 2 + seed
            a, b = (helpers.mu_atomic_pair(dim, seed=61 + seed) if seed % 2
                    else helpers.random_atomic_pair(dim, seed=61 + seed))
            assert check_mu(a, b).holds == check_generalized_mu(a, b).holds

    def test_partition_criterion_matches_gmu_dim6(self):
        q = position_observable(6)
        p = momentum_observable(6)
        maps = list(iter_partition_maps(q))
        rng = np.random.default_rng(67)
        picks = rng.choice(len(maps), size=(40, 2))
        for ia, ib in picks:
            fa, fb = maps[ia], maps[ib]
            coarse_q = coarse_grain(q, fa)
            coarse_p = coarse_grain(p, fb)
            assert (check_partition_criterion(fa, fb).holds
                    == check_generalized_mu(coarse_q, coarse_p).holds)

    def test_invertible_condition1_pairs_are_trivial(self):
        a = helpers.trivial_observable(5, 2)
        b = helpers.trivial_observable(5, 3)
        assert check_condition1(a, b).holds
        assert (a.spectra()[:, 0] >= linalg.EIGENVALUE_TOL).all()  # every effect invertible
        assert check_trivial(a) and check_trivial(b)
        # breaking triviality while keeping invertibility breaks condition (1)
        bumped = helpers.perturbed_trivial(5, 2, eps=1e-5, seed=71)
        assert (bumped.spectra()[:, 0] >= linalg.EIGENVALUE_TOL).all()
        assert not check_condition1(bumped, b).holds


class TestClassifyPair:
    def test_transform_pair_report(self):
        q, p = position_observable(4), momentum_observable(4)
        rep = classify_pair(q, p)
        assert rep.dim == 4 and rep.m == 4 and rep.n == 4
        assert rep.mu.holds and rep.condition1.holds and rep.condition2.holds
        assert rep.value_complementary.holds and rep.generalized_mu.holds
        assert rep.alpha == pytest.approx(0.25)
        assert rep.flags == ()

    def test_matched_coarse_report(self):
        q_half, p_parity, _ = example_partitions()
        rep = classify_pair(q_half, p_parity)
        assert rep.mu is None
        assert rep.condition1.holds and rep.condition2.holds
        assert rep.value_complementary.holds and rep.generalized_mu.holds
        assert rep.alpha == 1.0

    def test_mismatched_coarse_report(self):
        q_half, _, p_half = example_partitions()
        rep = classify_pair(q_half, p_half)
        assert not rep.condition1.holds and not rep.condition2.holds
        assert not rep.value_complementary.holds
        assert rep.generalized_mu.holds and rep.alpha == 1.0
        assert rep.flags == ()

    def test_vacuous_flag_for_unsharp_pair(self):
        rng = np.random.default_rng(73)
        a = random_observable(3, 2, "unsharp", rng)
        b = random_observable(3, 2, "unsharp", rng)
        rep = classify_pair(a, b)
        assert "vacuous" in rep.flags
        assert rep.mu is None

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            classify_pair(position_observable(2), position_observable(3))

    def test_atomic_pairs_at_dimension_64(self):
        names = ("mu", "value_complementary", "condition1", "condition2", "generalized_mu")
        rep = classify_pair(*helpers.mu_atomic_pair(64, 64))
        assert all(getattr(rep, k).holds for k in names)
        assert rep.alpha == 1 / 64 and rep.flags == ()
        rep = classify_pair(*helpers.random_atomic_pair(64, 65))
        assert not any(getattr(rep, k).holds for k in names)
        assert rep.alpha is None and rep.flags == ()

    @staticmethod
    def count_calls(monkeypatch, a, b):
        """classify_pair(a, b), its ``line_table``, ``linalg.projections`` and ``linalg.frobenius``
        calls, and the line tables it made, in order."""
        calls = {"line_table": 0, "projections": 0, "frobenius": 0}
        tables = []
        for module, name in ((observables, "line_table"), (linalg, "projections"), (linalg, "frobenius")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                out = _fn(*args)
                if _name == "line_table":
                    tables.append(out)
                return out
            monkeypatch.setattr(module, name, counted)
        return classify_pair(a, b), calls, tables

    def test_atomic_pair_builds_each_line_table_once(self, monkeypatch):
        # one line table per product pass, read again by value complementarity;
        # every effect is certified, so the trace table and both passes' forms
        # are Gram GEMMs, not frobenius, and condition (2) runs in row blocks:
        # no projection stack is made
        a, b = helpers.mu_atomic_pair(8, 8)
        assert a._certified.all() and b._certified.all()
        rep, calls, _ = self.count_calls(monkeypatch, a, b)
        assert rep.value_complementary.holds and not rep.value_complementary.vacuous
        assert calls == {"line_table": 2, "projections": 0, "frobenius": 0}

    def test_an_uncertified_effect_keeps_the_frobenius_forms(self, monkeypatch):
        # the snap-band effect is rank one only by the zero band: the trace
        # table and both passes' forms are frobenius products of the stacks,
        # and its lo/hi condition (1) products read its own projection only
        a, b = build_pair("snap-band-vs-momentum", 8, 8)
        assert not a._certified.all() and b._certified.all()
        rep, calls, _ = self.count_calls(monkeypatch, a, b)
        assert rep.mu.holds and rep.condition1.holds
        assert calls == {"line_table": 2, "projections": 3, "frobenius": 3}

    @pytest.mark.parametrize("dim", [4, 8, 12, 16])
    @pytest.mark.parametrize("pair", [helpers.coarse_matched_pair, helpers.coarse_mismatched_pair])
    def test_interval_pair_makes_empty_line_tables_without_forms(self, monkeypatch, pair, dim):
        # interval blocks against residue classes or intervals: no effect is rank one, so
        # neither pass has a line; the one frobenius call is the trace table's, and each
        # empty table has the shapes and dtypes that the forms' GEMM would give
        a, b = pair(dim, 2 if dim < 8 else 4, dim)
        assert (a.ranks() > 1).all() and (b.ranks() > 1).all()
        rep, calls, tables = self.count_calls(monkeypatch, a, b)
        assert rep.generalized_mu.holds and rep.condition1.holds == (pair is helpers.coarse_matched_pair)
        assert calls == {"line_table": 2, "projections": 0, "frobenius": 1}
        for table, other in zip(tables, (b, a)):
            want = {"index": ((0,), np.intp), "vectors": ((dim, 0), complex), "peaks": ((0,), float),
                    "forms": ((len(other), 0), float), "coeffs": ((len(other), 0), float)}
            assert {k: (v.shape, v.dtype) for k, v in table._asdict().items()} == want


class TestUserTolerance:
    """A tol= that accepts the inputs reaches every comparison in the checkers."""

    @staticmethod
    def edge_observable():
        # eigenvalue 1 + 5e-7: rejected at the default tolerance, accepted at 1e-6
        return Observable(["0", "1"], [np.diag([1 + 5e-7, 0.0]).astype(complex),
                                       np.diag([-5e-7, 1.0]).astype(complex)], tol=1e-6)

    def test_conditions_give_verdicts(self):
        a = self.edge_observable()
        for check in (check_condition1, check_condition2):
            verdict = check(a, a, tol=1e-6)
            assert not verdict.holds
            assert verdict.max_deviation == pytest.approx(0.5, abs=1e-5)

    def test_classify_pair_gives_report(self):
        a = self.edge_observable()
        rep = classify_pair(a, a, tol=1e-6)
        assert rep.condition1 == check_condition1(a, a, tol=1e-6)
        assert rep.condition2 == check_condition2(a, a, tol=1e-6)
        assert not rep.mu.holds and not rep.generalized_mu.holds
        assert rep.flags == ()

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9, float("inf"), -float("inf"),
                                     True, 10**400, "1e-9", 1e-9j, np.array(1e-9)])
    def test_invalid_tol_is_rejected(self, tol):
        # NaN failed every comparison, 0 raised InternalInconsistency, a
        # negative tol called an unbiased pair biased, inf passed everything
        q, p = position_observable(4), momentum_observable(4)
        for build in (lambda: classify_pair(q, p, tol=tol),
                      lambda: check_condition1(q, p, tol=tol),
                      lambda: Observable(q.outcomes, q.stack(), tol=tol),
                      lambda: Effect(q.stack()[0], tol=tol),
                      lambda: State(np.eye(4) / 4, tol=tol)):
            with pytest.raises(InvalidParams, match="finite positive"):
                build()

    @pytest.mark.parametrize("tol", [1e-6, 1, np.float64(1e-9), np.float32(1e-6)])
    def test_real_positive_tol_is_accepted(self, tol):
        assert check_condition1(position_observable(4), momentum_observable(4), tol=tol).holds

    @staticmethod
    def near_certain_pair(dim=8):
        """diag(0.8, 0.8) and diag(0.8, 0.5) on their own columns of a Haar basis, and the
        full-rank rest, against a sharp observable. The two rank-two effects are lifted through
        their factors; at tol 0.3 the first's unit eigenspace is its factor's two columns, the
        second's only one of them, so value complementarity compresses it itself."""
        rng = np.random.default_rng(dim)
        u = random_unitary(dim, rng)
        first = np.diag(np.r_[0.8, 0.8, np.zeros(dim - 2)])
        second = np.diag(np.r_[0.0, 0.0, 0.8, 0.5, np.zeros(dim - 4)])
        effs = [u @ e @ u.conj().T for e in (first, second, np.eye(dim) - first - second)]
        return Observable(["0", "1", "2"], effs), random_observable(dim, 2, "sharp", rng)

    @pytest.mark.parametrize("tol", [None, 1e-6, 0.3])
    @pytest.mark.parametrize("pair", ["sharp", "near-certain"])
    def test_value_complementarity_shares_compressions_by_tol(self, pair, tol):
        a, b = helpers.coarse_matched_pair(8, 2, 8) if pair == "sharp" else self.near_certain_pair()
        assert [c.index.tolist() for c in observables.compressions(a, b)] == [[0, 1]]
        if pair == "near-certain":
            units, kept = np.abs(a.spectra() - 1) <= 0.3, a.spectra() >= linalg.EIGENVALUE_TOL
            assert (units[0] == kept[0]).all() and units[1].any() and (units[1] != kept[1]).any()
        got = classify_pair(a, b, tol).value_complementary
        assert got == check_value_complementary(a, b, tol)
        naive = oracle.naive_value_complementary(a, b, tol)
        worst = max(naive.values(), default=0.0)
        assert got.vacuous == (not naive)
        assert got.holds == (worst <= linalg.tols(a.dim, tol)[0])
        assert abs(got.max_deviation - worst) <= 1e-12
        # every location of side A, where the shared and the compressed-here rows are
        units = np.abs(a.spectra() - 1) <= linalg.tols(a.dim, tol)[1]
        table = observables.certainty_deviations(a, b, units, observables.line_table(a, b),
                                                 observables.compressions(a, b))
        want = np.array([[naive.get(("A", x, y), 0.0) for y in b.outcomes] for x in a.outcomes])
        assert np.abs(table - want).max() <= 1e-12


def test_loosely_atomic_pair_has_mu_at_its_tolerance():
    # ranks [2, 1]: diag(1, 0.2) is not rank one, but at tol 0.3 both effects are sharp with one
    # unit eigenvalue, so the pair is atomic there and mu applies; at the default tolerance it is not
    a = Observable(["0", "1"], [np.diag([1.0, 0.2]).astype(complex), np.diag([0.0, 0.8]).astype(complex)])
    b = momentum_observable(2)
    assert a.ranks().tolist() == [2, 1]
    rep = classify_pair(a, b, tol=0.3)
    assert rep.mu is not None and rep.mu.holds
    assert rep.mu.max_deviation == pytest.approx(0.1, abs=1e-12)
    assert rep.mu == check_mu(a, b, tol=0.3)
    assert classify_pair(a, b).mu is None


class TestToleranceEdges:
    """An observable is classified at the tolerance it was validated with:
    an eigenvalue that validation counts as zero is zero for the square root
    and the line table too."""

    TOL = 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_moved_weight_gives_verdicts(self, dim):
        # weight eps moved between two effects of a Haar rank-one basis; at
        # eps = tol/2 the square root once kept a sqrt(eps) line and
        # classify_pair raised InternalInconsistency
        rng = np.random.default_rng(dim)
        u = random_unitary(dim, rng)
        partners = [conjugate(momentum_observable(dim), u), conjugate(position_observable(dim), u),
                    random_observable(dim, dim, "atomic", rng)]
        classified = 0
        for eps in (self.TOL / 2, self.TOL, 2 * self.TOL, linalg.CERTIFICATE_TOL):
            for signed in (eps, -eps):
                effs = [np.outer(c, c.conj()) for c in u.T]
                effs[0] = effs[0] + signed * effs[1]
                effs[1] = (1 - signed) * effs[1]
                try:
                    a = Observable([str(j) for j in range(dim)], effs, tol=self.TOL)
                except MubkitError:  # outside [0, 1] by more than tol
                    continue
                for b in partners:
                    for first, second in ((a, b), (b, a)):
                        assert isinstance(classify_pair(first, second, tol=self.TOL), PairReport)
                        classified += 1
        assert classified >= 4 * 2 * len(partners)

    def test_square_root_snaps_inside_the_validation_tolerance(self):
        m = np.diag([1 - 5e-7, 5e-7, 0.0]).astype(complex)
        assert Effect(m, tol=self.TOL).factor()[0].shape == (3, 1)
        assert Effect(m).factor()[0].shape == (3, 2)


class TestTies:
    """Ties, exact or within ``TIE_ULPS``, name the first location in each
    verdict's order (dyadic, diagonal inputs: the same bits on every platform)."""

    def test_trace_verdicts_name_the_first_pair(self):
        q = position_observable(2)
        for verdict in (check_mu(q, q), check_generalized_mu(q, q), check_condition1(q, q)):
            assert verdict.max_deviation == 0.5
            assert (verdict.witness["x"], verdict.witness["y"]) == ("0", "0")

    def test_product_and_certainty_verdicts_name_the_first_location(self):
        q = position_observable(4)
        a = coarse_grain(q, PartitionMap(q.outcomes, ("0", "1"), {"0": "0", "1": "0", "2": "1", "3": "1"}))
        b = coarse_grain(q, PartitionMap(q.outcomes, ("0", "1"), {"0": "0", "2": "0", "1": "1", "3": "1"}))
        rep = classify_pair(a, b)
        for verdict in (rep.condition1, rep.condition2, rep.value_complementary):
            assert verdict.max_deviation == 0.5
        assert rep.condition1.witness == {"x": "0", "y": "0", "side": "A∘B", "deviation": 0.5}
        assert rep.condition2.witness == {"outcome": "0", "side": "B|A", "deviation": 0.5}
        vc = dict(rep.value_complementary.witness)
        del vc["state"]
        assert vc == {"side": "A", "certain_outcome": "0", "other_outcome": "0",
                      "observed": 0.0, "target": 0.5}
        for first, second in ((a, b), (b, a)):
            assert products(first, second).deviations.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_a_near_tie_names_the_first_location(self):
        """tr(A_1 B_0) is 2 ulps further from 1/2 than tr(A_0 B_0): it is the
        maximum, but the witness names the first pair within TIE_ULPS of it."""
        later = 0.75 + np.spacing(0.75)
        b = Observable(["0", "1"], [np.diag([0.75, later]), np.diag([0.25, 1.0 - later])])
        verdict = check_generalized_mu(position_observable(2), b)
        assert verdict.max_deviation == later - 0.5 > 0.25
        assert verdict.witness == {"x": "0", "y": "0", "observed": 0.75, "target": 0.5}

    def test_tied_certainty_extremes_name_the_lowest_eigenvalue(self):
        """Compressed to A_0's certainty subspace, B_0 has eigenvalues 1/2 -+ sqrt(2)/4, equally
        far from 1/2 up to rounding: the witness takes the first, in ascending order."""
        a, b = build_pair("coarse-mismatched", 4, 0)
        for verdict in (check_value_complementary(a, b), classify_pair(a, b).value_complementary):
            witness = verdict.witness
            assert (witness["side"], witness["certain_outcome"], witness["other_outcome"]) == ("A", "0", "0")
            assert witness["observed"] == pytest.approx(0.5 - 2 ** 0.5 / 4, abs=1e-12)
            state = np.array([complex(*z) for z in witness["state"]])
            assert (state.conj() @ b.effects[0].matrix @ state).real == pytest.approx(witness["observed"], abs=1e-12)


class TestReconcile:
    def test_close_miss_flags_marginal(self):
        flags = []
        _reconcile(flags, "test", [Verdict(False, 5e-9)], limit=4e-8)
        assert flags == ["marginal"]

    def test_far_miss_raises(self):
        with pytest.raises(InternalInconsistency):
            _reconcile([], "test", [Verdict(False, 1e-3)], limit=4e-8)

    def test_no_duplicate_flag(self):
        flags = ["marginal"]
        _reconcile(flags, "test", [Verdict(False, 5e-9)], limit=4e-8)
        assert flags == ["marginal"]

    VERDICTS = ("mu", "value_complementary", "condition1", "condition2", "generalized_mu")

    @pytest.mark.parametrize("tol", [5.2e-8, 6e-8, 8.4e-8])
    def test_slack_scales_with_the_dimension(self, tol):
        # condition (1) holds by 5.0e-8 and generalized unbiasedness misses by
        # 8.5e-7, 17 times more at d = 17: a flat 10 * tol slack raised here
        a, b = helpers.perturbed_chirp_pair()
        rep = classify_pair(a, b, tol)
        assert rep.flags == ("marginal",)
        assert [getattr(rep, name).holds for name in self.VERDICTS] == [False, True, True, False, False]
        assert rep.mu == check_mu(a, b, tol) and rep.generalized_mu == check_generalized_mu(a, b, tol)
        assert rep.condition1 == check_condition1(a, b, tol)
        assert rep.condition2 == check_condition2(a, b, tol)
        assert rep.value_complementary == check_value_complementary(a, b, tol)

    def test_every_implication_is_cross_checked(self, monkeypatch):
        # condition (1) holding reaches the condition (2) and generalized
        # unbiasedness checks, and the split atomic group the third
        calls = []

        def spy(flags, name, failing, limit):
            calls.append(name.split(":")[0])
            return _reconcile(flags, name, failing, limit)

        monkeypatch.setattr("mubkit.analysis._reconcile", spy)
        assert classify_pair(*helpers.perturbed_chirp_pair(), 1e-7).flags == ("marginal",)
        assert calls == ["condition (1) holds but condition (2) fails",
                         "condition (1) holds but generalized unbiasedness fails", "atomic pair"]
