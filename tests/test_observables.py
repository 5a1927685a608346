import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coarse_matched_pair, hermitian_formula, mat_approx_eq, mu_atomic_pair, random_atomic_pair
from mubkit import analysis, linalg, observables
from mubkit.effects import Effect, State, seq_matrix, seq_product
from mubkit.errors import (
    DimMismatch,
    DuplicateLabel,
    LabelMismatch,
    NotAnEffect,
    NotNormalized,
    SumNotIdentity,
)
from mubkit.fourier import example_partitions, momentum_observable, position_observable
from mubkit.observables import (
    Observable,
    Distribution,
    PartitionMap,
    coarse_grain,
    coexistence_witness,
    conditioned,
    conjugate,
    distribution,
    iter_partition_maps,
    iter_set_partitions,
    obs_seq_product,
    products,
)
from mubkit.oracle import random_observable, random_state, random_unitary
from test_differential import KINDS, build_pair, halved_bases, partial_certainty, snap_band_basis

COND_HALF_0 = np.array([[2, 1 + 1j, 0, 0],
                        [1 - 1j, 2, 0, 0],
                        [0, 0, 2, 1 + 1j],
                        [0, 0, 1 - 1j, 2]], dtype=complex) / 4.0


def two_outcome(dim=2):
    q0 = np.zeros((dim, dim), dtype=complex)
    q0[0, 0] = 1.0
    return Observable(["0", "1"], [q0, np.eye(dim, dtype=complex) - q0])


class TestValidation:
    def test_position_is_valid(self):
        obs = position_observable(4)
        assert obs.dim == 4 and len(obs) == 4

    def test_duplicate_label(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(DuplicateLabel):
            Observable(["a", "a"], [eye / 2, eye / 2])

    def test_sum_not_identity(self):
        q0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SumNotIdentity) as err:
            Observable(["0", "1"], [q0, q0])
        assert "1.0" in str(err.value)

    def test_not_an_effect_names_outcome(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(NotAnEffect) as err:
            Observable(["ok", "bad"], [eye / 2, 3 * eye])
        assert "bad" in str(err.value)

    def test_label_count_mismatch(self):
        with pytest.raises(LabelMismatch):
            Observable(["0"], [np.eye(2, dtype=complex) / 2] * 2)
        with pytest.raises(LabelMismatch, match="^observable needs at least one outcome$"):
            Observable([], [])

    def test_mixed_dims(self):
        with pytest.raises(DimMismatch):
            Observable(["0", "1"], [np.eye(2, dtype=complex), np.zeros((3, 3), dtype=complex)])

    def test_effect_arguments_count_as_their_matrices(self):
        obs = random_observable(5, 3, "unsharp", 4)
        for effects in (list(obs.effects), [obs.effects[0], *obs.stack()[1:]]):
            again = Observable(obs.outcomes, effects)
            assert np.array_equal(again.stack(), obs.stack())
            assert np.array_equal(again.spectra(), obs.spectra())
            for got, want in zip(again.effects, obs.effects):
                assert np.array_equal(got.spectral.eigenvectors, want.spectral.eigenvectors)

    def test_effect_arguments_are_validated_under_the_observables_tol(self):
        loose = [Effect(np.diag(w), tol=1e-6) for w in ([1.0 + 1e-7, 0.0], [-1e-7, 1.0])]
        with pytest.raises(NotAnEffect, match=r"outcome 'x': eigenvalue 1\.0000001 outside"):
            Observable(["x", "y"], loose)
        assert Observable(["x", "y"], loose, tol=1e-6).dim == 2

    def test_labels_coerced_to_str(self):
        obs = Observable([0, 1], [np.eye(2, dtype=complex) / 2] * 2)
        assert obs.outcomes == ("0", "1")

    def test_effect_lookup(self):
        obs = position_observable(3)
        assert obs.effect("2").matrix[2, 2] == 1.0
        with pytest.raises(LabelMismatch):
            obs.effect("9")


class TestDistribution:
    def test_position_eigenstate(self):
        rho = State.pure([1.0, 0.0, 0.0, 0.0])
        dist = distribution(rho, position_observable(4))
        assert dist.probabilities == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_momentum_is_uniform_on_position_eigenstate(self):
        rho = State.pure([1.0, 0.0, 0.0, 0.0])
        dist = distribution(rho, momentum_observable(4))
        assert dist.probabilities == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_maximally_mixed_gives_trace_over_dim(self):
        rho = State(np.eye(4, dtype=complex) / 4.0)
        dist = distribution(rho, momentum_observable(4))
        assert dist.probabilities == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_state(5, 3, rng)
            obs = random_observable(5, 4, "unsharp", rng)
            dist = distribution(rho, obs)
            assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-10)

    def test_bad_total_is_mubkit_value_error(self):
        with pytest.raises(NotNormalized) as info:
            Distribution(("0", "1"), (0.5, 0.6))
        assert isinstance(info.value, ValueError)

    def test_sum_is_bounded_by_the_tolerance_in_force(self):
        """The effects sum to (1 + 1e-7) I, within the observable's tol 1e-6."""
        obs = Observable(["0", "1"], [0.5 * (1 + 1e-7) * np.eye(4)] * 2, tol=1e-6)
        rho = State(np.eye(4) / 4)
        assert sum(distribution(rho, obs, tol=1e-6).probabilities) == pytest.approx(1 + 1e-7, abs=1e-15)
        with pytest.raises(NotNormalized, match="sum to 1.0000001"):
            distribution(rho, obs)

    def test_mapping_access(self):
        rho = State.pure([0.0, 1.0])
        dist = distribution(rho, two_outcome())
        assert dist["1"] == pytest.approx(1.0, abs=1e-12)
        assert dist.as_dict() == {"0": dist.probabilities[0], "1": dist.probabilities[1]}


class TestSeqProductObservable:
    def test_labels_lexicographic_in_input_order(self):
        a = two_outcome()
        joint = obs_seq_product(a, a)
        assert joint.outcomes == ("0⊗0", "0⊗1", "1⊗0", "1⊗1")

    def test_dim2_fixture(self):
        q, p = position_observable(2), momentum_observable(2)
        joint = obs_seq_product(q, p)
        q0 = np.diag([1.0, 0.0]).astype(complex)
        q1 = np.diag([0.0, 1.0]).astype(complex)
        for label, expected in (("0⊗0", q0 / 2), ("0⊗1", q0 / 2),
                                ("1⊗0", q1 / 2), ("1⊗1", q1 / 2)):
            assert mat_approx_eq(joint.effect(label).matrix, expected, tol=1e-12)

    def test_first_marginal_recovers_left_factor(self):
        rng = np.random.default_rng(5)
        a = random_observable(4, 3, "unsharp", rng)
        b = random_observable(4, 2, "unsharp", rng)
        joint = obs_seq_product(a, b)
        for x, ax in a.items():
            total = sum(joint.effect(f"{x}⊗{y}").matrix for y in b.outcomes)
            assert linalg.max_abs(total - ax.matrix) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            obs_seq_product(two_outcome(2), two_outcome(3))

    @pytest.mark.parametrize("kind, dim, m", [("atomic", 5, 5), ("atomic", 12, 12),
                                              ("sharp", 6, 3), ("unsharp", 6, 3)])
    def test_validates_once_as_validating_each_product_did(self, kind, dim, m):
        """One ``hermitian_eigs`` pass (two chunks at d = 12) and no ``Effect``
        per product, with the stack and spectra of one ``seq_product`` each."""
        a, b = (random_observable(dim, m, kind, seed) for seed in (1, 2))
        calls = []
        real_eigs, real_init = linalg.hermitian_eigs, Effect.__init__

        def eigs(stack, tol=None):
            calls.append("hermitian_eigs")
            spectra = real_eigs(stack, tol)
            assert spectra.certified.shape == (len(stack),) and spectra.certified.dtype == bool
            return spectra

        def init(self, matrix, tol=None):
            calls.append("Effect")
            real_init(self, matrix, tol)

        with mock.patch.object(linalg, "hermitian_eigs", eigs), \
                mock.patch.object(Effect, "__init__", init):
            joint = obs_seq_product(a, b)
        assert calls == ["hermitian_eigs"]
        each = [seq_product(x, y) for x in a.effects for y in b.effects]
        assert np.array_equal(joint.stack(), [e.matrix for e in each])
        assert np.array_equal(joint.spectra(), [e.spectral.eigenvalues for e in each])


class TestConditioned:
    def test_momentum_given_position_uniform(self):
        for dim in (2, 4):
            q, p = position_observable(dim), momentum_observable(dim)
            for eff in conditioned(p, q).effects:
                assert mat_approx_eq(eff.matrix, np.eye(dim) / dim, tol=1e-12)
            for eff in conditioned(q, p).effects:
                assert mat_approx_eq(eff.matrix, np.eye(dim) / dim, tol=1e-12)

    def test_trivial_condition_leaves_observable_alone(self):
        rng = np.random.default_rng(7)
        b = random_observable(3, 3, "unsharp", rng)
        eye = np.eye(3, dtype=complex)
        trivial = Observable(["0", "1"], [eye / 2, eye / 2])
        cond = conditioned(b, trivial)
        for eff, orig in zip(cond.effects, b.effects):
            assert linalg.max_abs(eff.matrix - orig.matrix) < 1e-12

    def test_sharp_self_conditioning_is_identity_map(self):
        q_half, _, _ = example_partitions()
        cond = conditioned(q_half, q_half)
        for eff, orig in zip(cond.effects, q_half.effects):
            assert linalg.max_abs(eff.matrix - orig.matrix) < 1e-12

    def test_mismatched_pair_fixture(self):
        q_half, _, p_half = example_partitions()
        cond = conditioned(p_half, q_half)
        assert cond.outcomes == p_half.outcomes
        assert mat_approx_eq(cond.effects[0].matrix, COND_HALF_0, tol=1e-12)

    @pytest.mark.parametrize("build", [conditioned, lambda b, a: products(a, b)])
    def test_dim_mismatch(self, build):
        for b, a in ((position_observable(4), position_observable(3)),
                     (position_observable(3), momentum_observable(4)),
                     (two_outcome(2), random_observable(3, 2, "unsharp", 1))):
            with pytest.raises(DimMismatch, match="dims"):
                build(b, a)

    def test_conditioning_can_break_sharpness(self):
        q_half, _, p_half = example_partitions()
        cond = conditioned(p_half, q_half)
        assert p_half.is_sharp()
        assert not cond.is_sharp()
        w = cond.effects[0].spectral.eigenvalues
        assert w[0] == pytest.approx((2 - np.sqrt(2)) / 4, abs=1e-12)
        assert w[-1] == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)


class TestPartitionMap:
    def test_fibers_keep_source_order(self):
        pm = PartitionMap(("a", "b", "c"), ("0", "1"), {"a": "0", "c": "0", "b": "1"})
        assert pm.fibers() == {"0": ("a", "c"), "1": ("b",)}
        assert pm.fiber_sizes() == (2, 1)

    def test_must_be_total(self):
        with pytest.raises(LabelMismatch):
            PartitionMap(("a", "b"), ("0",), {"a": "0"})

    def test_must_be_surjective(self):
        with pytest.raises(LabelMismatch):
            PartitionMap(("a", "b"), ("0", "1"), {"a": "0", "b": "0"})

    def test_rejects_unknown_target(self):
        with pytest.raises(LabelMismatch):
            PartitionMap(("a",), ("0",), {"a": "x"})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DuplicateLabel):
            PartitionMap(("a", "a"), ("0",), {"a": "0"})


class TestCoarseGrain:
    def test_position_halves_fixture(self):
        q = position_observable(4)
        pm = PartitionMap(q.outcomes, ("0", "1"), {"0": "0", "1": "0", "2": "1", "3": "1"})
        merged = coarse_grain(q, pm)
        assert mat_approx_eq(merged.effects[0].matrix,
                                    np.diag([1.0, 1.0, 0.0, 0.0]), tol=1e-15)
        assert mat_approx_eq(merged.effects[1].matrix,
                                    np.diag([0.0, 0.0, 1.0, 1.0]), tol=1e-15)

    def test_identity_partition(self):
        p = momentum_observable(3)
        pm = PartitionMap(p.outcomes, p.outcomes, {x: x for x in p.outcomes})
        merged = coarse_grain(p, pm)
        for got, want in zip(merged.effects, p.effects):
            assert np.array_equal(got.matrix, want.matrix)

    def test_merge_all_gives_identity(self):
        p = momentum_observable(3)
        pm = PartitionMap(p.outcomes, ("all",), {x: "all" for x in p.outcomes})
        merged = coarse_grain(p, pm)
        assert mat_approx_eq(merged.effects[0].matrix, np.eye(3), tol=1e-12)

    def test_source_must_match(self):
        q = position_observable(3)
        pm = PartitionMap(("x", "y"), ("0",), {"x": "0", "y": "0"})
        with pytest.raises(LabelMismatch):
            coarse_grain(q, pm)

    def test_pushforward_of_distribution(self):
        rng = np.random.default_rng(11)
        obs = random_observable(4, 4, "unsharp", rng)
        pm = PartitionMap(obs.outcomes, ("0", "1"), {"0": "0", "2": "0", "1": "1", "3": "1"})
        merged = coarse_grain(obs, pm)
        for _ in range(5):
            rho = random_state(4, 2, rng)
            fine = distribution(rho, obs).as_dict()
            coarse = distribution(rho, merged).as_dict()
            for y, fiber in pm.fibers().items():
                assert coarse[y] == pytest.approx(sum(fine[x] for x in fiber), abs=1e-10)

    def test_sharpness_survives_merging(self):
        rng = np.random.default_rng(13)
        obs = random_observable(6, 6, "atomic", rng)
        pm = PartitionMap(obs.outcomes, ("0", "1"),
                          {x: str(int(x) % 2) for x in obs.outcomes})
        assert coarse_grain(obs, pm).is_sharp()

    @pytest.mark.parametrize("build", [
        # momentum 64 into 4 residue classes, summed in reversed source order
        lambda: (momentum_observable(64), 4, lambda outcomes: tuple(reversed(outcomes))),
        # -0.0 off the diagonal of both merged effects: a sum from the first
        # term keeps it, a sum from +0.0 does not
        lambda: (Observable("012", [np.array([[0.25, -0.0], [-0.0, 0.25]])] * 2 + [np.eye(2) / 2]),
                 2, tuple),
    ])
    def test_matches_the_per_effect_loop_bit_for_bit(self, build):
        obs, blocks, order = build()
        source = order(obs.outcomes)
        pm = PartitionMap(source, tuple(map(str, range(blocks))),
                          {x: str(obs.outcomes.index(x) % blocks) for x in source})
        want = []
        for fiber in pm.fibers().values():
            total = np.zeros((obs.dim, obs.dim), dtype=complex)
            for x in fiber:
                total = total + obs.effect(x).matrix
            want.append(total)
        assert coarse_grain(obs, pm).stack().tobytes() == np.array(want).tobytes()

    def test_atomicity_does_not_survive(self):
        q_half, _, _ = example_partitions()
        assert q_half.is_sharp() and not q_half.is_atomic()


class TestCoexistence:
    def test_marginals_recover_factors(self):
        rng = np.random.default_rng(17)
        a = random_observable(3, 2, "unsharp", rng)
        b = random_observable(3, 3, "unsharp", rng)
        joint, to_first, to_second = coexistence_witness(a, b)
        back_a = coarse_grain(joint, to_first)
        for got, want in zip(back_a.effects, a.effects):
            assert linalg.max_abs(got.matrix - want.matrix) < 1e-12
        back_cond = coarse_grain(joint, to_second)
        cond = conditioned(b, a)
        for got, want in zip(back_cond.effects, cond.effects):
            assert linalg.max_abs(got.matrix - want.matrix) < 1e-12

    def test_identity_partner_reproduces_observable(self):
        a = position_observable(3)
        eye = Observable(["0"], [np.eye(3, dtype=complex)])
        joint, to_first, _ = coexistence_witness(a, eye)
        assert joint.outcomes == ("0⊗0", "1⊗0", "2⊗0")
        for got, want in zip(joint.effects, a.effects):
            assert linalg.max_abs(got.matrix - want.matrix) < 1e-13
        assert to_first.fiber_sizes() == (1, 1, 1)


class TestConjugate:
    def test_preserves_predicates(self):
        rng = np.random.default_rng(19)
        u = random_unitary(4, rng)
        q = position_observable(4)
        moved = conjugate(q, u)
        assert moved.is_atomic()
        assert moved.outcomes == q.outcomes

    def test_identity_unitary_is_noop(self):
        q = position_observable(3)
        same = conjugate(q, np.eye(3, dtype=complex))
        for got, want in zip(same.effects, q.effects):
            assert linalg.max_abs(got.matrix - want.matrix) < 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 32, 64])
    def test_matches_the_per_effect_loop_bit_for_bit(self, dim):
        unsharp = random_observable(dim, min(dim, 3), "unsharp", dim)
        for obs, u in ((unsharp, random_unitary(dim, 1)),
                       (momentum_observable(dim), random_unitary(dim, 2)),
                       (position_observable(dim), np.eye(dim))):
            want = np.array([u @ e.matrix @ u.conj().T for e in obs.effects])
            assert conjugate(obs, u).stack().tobytes() == hermitian_formula(want).tobytes()

    def test_a_nested_list_is_a_unitary(self):
        u = random_unitary(4, 3)
        want = conjugate(position_observable(4), u)
        got = conjugate(position_observable(4), u.tolist())
        assert got.stack().tobytes() == want.stack().tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (3, 4), (4,), (), (1, 4, 4)])
    def test_a_unitary_of_another_shape_is_a_dim_mismatch(self, shape):
        with pytest.raises(DimMismatch, match=rf"{re.escape(str(shape))}.*\(4, 4\)"):
            conjugate(position_observable(4), np.ones(shape, dtype=complex))


class TestStackedPredicates:
    """``Observable.is_sharp`` and ``is_atomic`` read one eigenvalue stack;
    they must equal the per-effect loop they replaced."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_match_the_per_effect_loop(self, kind):
        seen = set()
        for dim in range(2, 8):
            for seed in range(3):
                for obs in build_pair(kind, dim, seed):
                    for tol in (None, 1e-6, 1e-12):
                        sharp = obs.is_sharp(tol)
                        atomic = obs.is_atomic(tol)
                        assert sharp == all(e.is_sharp(tol) for e in obs.effects)
                        assert atomic == all(e.is_atomic(tol) for e in obs.effects)
                        seen.add((sharp, atomic))
        if kind == "snap-band-vs-momentum":
            # 1 - 5e-10 is a unit eigenvalue within 1e-6, not within 1e-12
            assert {(True, True), (False, False)} <= seen

    def test_spectra_is_one_frozen_stack(self):
        obs = random_observable(4, 3, "unsharp", np.random.default_rng(3))
        w = obs.spectra()
        assert w is obs.spectra() and not w.flags.writeable
        assert np.array_equal(w, [e.spectral.eigenvalues for e in obs.effects])
        assert all(np.shares_memory(w, e.spectral.eigenvalues) for e in obs.effects)


def mixed_rank(dim, m, rng):
    """m outcomes in a Haar basis: (1/m) v v* for x < m - 1, cycling
    through the basis vectors, and the full-rank rest I - sum of them."""
    u = random_unitary(dim, rng)
    lines = [np.outer(u[:, x % dim], u[:, x % dim].conj()) / m for x in range(m - 1)]
    return Observable([str(x) for x in range(m)], lines + [np.eye(dim) - sum(lines, np.zeros((dim, dim)))])


def exactly_hermitian(m):
    return np.array_equal(m, m.conj().swapaxes(-1, -2))


HAAR_CASES = {
    "atomic": lambda dim, rng: momentum_observable(dim),
    "unsharp": lambda dim, rng: random_observable(dim, 3, "unsharp", rng),
    "sharp": lambda dim, rng: random_observable(dim, 2, "sharp", rng),
    "snap-band": lambda dim, rng: snap_band_basis(random_unitary(dim, rng)),
    "rank-deficient": lambda dim, rng: partial_certainty(dim, random_unitary(dim, rng)),
}


class TestProducts:
    """``products`` against one ``seq_matrix`` per (x, y), at the sizes the
    differential suite does not draw: n = 1 and row stacks past d = 7."""

    @pytest.mark.parametrize("n, dim, kind", [  # a snap-band basis needs two basis vectors
        (n, dim, kind) for n in (1, 2, 5) for dim in (1, 5, 8, 9, 16, 17, 32)
        for kind in ("unsharp", "mixed-rank", "snap-band") if dim > 1 or kind != "snap-band"])
    def test_match_the_per_product_loop(self, kind, dim, n):
        rng = np.random.default_rng(100 * dim + n)
        a = {"unsharp": lambda: random_observable(dim, n, "unsharp", rng),
             "mixed-rank": lambda: mixed_rank(dim, n, rng),
             "snap-band": lambda: snap_band_basis(random_unitary(dim, rng))}[kind]()
        b = random_observable(dim, n, "unsharp", rng)
        got = products(a, b)
        lifts = np.array([[seq_matrix(ax, by) for by in b.effects] for ax in a.effects])
        devs = np.abs(lifts - a.stack()[:, None] / n).max(axis=(-2, -1))
        summed = lifts.sum(axis=0)
        assert np.abs(got.conditioned - linalg.max_abs_each(summed - np.eye(dim) / n)).max() <= 1e-15
        assert np.abs(conditioned(b, a).stack() - hermitian_formula(summed)).max() <= 1e-15
        assert np.abs(got.deviations.max(axis=1) - devs.max(axis=1)).max() <= 1e-15
        # a lifted or certified rank-one row holds every y; an uncertified
        # rank-one row its lowest- and highest-coefficient y, else 0
        evaluated = np.ones(devs.shape, dtype=bool)
        coeffs = got.lines.forms * a.spectra()[got.lines.index, -1]
        open_lines = got.lines.index[~a._certified[got.lines.index]]
        evaluated[open_lines] = False
        for k, x in enumerate(got.lines.index):
            if x in open_lines:
                evaluated[x, [coeffs[:, k].argmin(), coeffs[:, k].argmax()]] = True
        assert np.abs(got.deviations - devs)[evaluated].max() <= 1e-15
        assert not got.deviations[~evaluated].any()
        if kind == "snap-band":  # effect 0 is rank one by the zero band only, the rest certified
            assert open_lines.tolist() == [0] and a._certified[1:].all()
        elif kind == "mixed-rank":
            assert len(open_lines) == 0 and a._certified[:-1].all()

    @pytest.mark.parametrize("build", sorted(HAAR_CASES))
    def test_lift_factors_are_exactly_hermitian(self, build):
        """The lift takes R B_y as the adjoint of B_y R, which needs sqrt(A_x)
        and B's stack Hermitian in every bit. The effects are conjugated by a
        Haar unitary, whose products are Hermitian only within rounding."""
        for dim in (3, 5, 8, 17):
            rng = np.random.default_rng(dim)
            obs = conjugate(HAAR_CASES[build](dim, rng), random_unitary(dim, rng))
            assert exactly_hermitian(obs.stack())
            assert all(exactly_hermitian(e.sqrt()) for e in obs.effects)


class TestHermitianStacks:
    """Validation writes H = (M + M*)/2 over the stack it decomposes, so every
    validated matrix is Hermitian in every bit, and so is every construction's,
    though a Haar-conjugated input is Hermitian only within rounding."""

    @pytest.mark.parametrize("kind", sorted(HAAR_CASES))
    @pytest.mark.parametrize("dim", [3, 5, 8, 17])
    def test_validated_stacks_are_their_hermitian_part(self, kind, dim):
        rng = np.random.default_rng(dim)
        base = HAAR_CASES[kind](dim, rng)
        u = random_unitary(dim, rng)
        raw = u @ base.stack() @ u.conj().T
        before = raw.tobytes()
        assert not exactly_hermitian(raw)
        obs = Observable(base.outcomes, raw)
        assert obs.stack().tobytes() == hermitian_formula(raw).tobytes()
        assert all(exactly_hermitian(e.matrix) for e in obs.effects)
        assert all(exactly_hermitian(Effect(m).matrix) for m in raw)
        assert raw.tobytes() == before  # validation writes its own copy only
        other = conjugate(position_observable(dim), u)
        pm = PartitionMap(obs.outcomes, ("0", "1"), {x: str(k % 2) for k, x in enumerate(obs.outcomes)})
        for derived in (other, coarse_grain(obs, pm), conditioned(obs, other), conditioned(other, obs),
                        obs_seq_product(obs, other), obs_seq_product(other, obs)):
            assert exactly_hermitian(derived.stack())
        # (B|A) is summed as computed, Hermitian within rounding; validation symmetrizes it
        for first, second in ((obs, other), (other, obs)):
            lines = observables.line_table(first, second)
            made = observables.compressions(first, second)
            summed = observables._summed(first, second, lines, made, np.zeros((len(first), len(second))))
            assert np.abs(summed - summed.conj().swapaxes(-1, -2)).max() <= 1e-15
            assert conditioned(second, first).stack().tobytes() == hermitian_formula(summed).tobytes()
            gaps = linalg.max_abs_each(summed - np.eye(dim) / len(second))
            assert np.abs(products(first, second).conditioned - gaps).max() <= 1e-15


def decided_once_case(name):
    """(observable, the tol it was validated at): certified lines, rank-four blocks, an uncertified
    line, a rank-two effect with a certain line, full-rank Wishart effects, and eigenvalues 5e-7 and
    1 - 5e-7, inside the zero band of tol 1e-6 but not of the default's."""
    rng = np.random.default_rng(24)
    small = [np.diag([1, 5e-7, 0]), np.diag([0, 1 - 5e-7, 1])]
    return {
        "position": lambda: (mu_atomic_pair(8, rng)[0], None),
        "momentum": lambda: (mu_atomic_pair(8, rng)[1], None),
        "interval-blocks": lambda: (coarse_matched_pair(16, 4, rng)[0], None),
        "snap-band": lambda: (snap_band_basis(random_unitary(8, rng)), None),
        "partial-certainty": lambda: (partial_certainty(8, random_unitary(8, rng)), None),
        "wishart": lambda: (random_observable(8, 3, "unsharp", rng), None),
        "small-tol-1e-6": lambda: (Observable(["0", "1"], small, 1e-6), 1e-6),
        "small-default-tol": lambda: (Observable(["0", "1"], small), None),
    }[name]()


DECIDED_RANKS = {"position": [1] * 8, "momentum": [1] * 8, "interval-blocks": [4] * 4, "snap-band": [1] * 8,
                 "partial-certainty": [2, 7], "wishart": [8] * 3, "small-tol-1e-6": [1, 2],
                 "small-default-tol": [2, 2]}


class TestDecidedOnce:
    """Each input of a product pass has one owner: validation counts the factor ranks and the
    line table makes c_xy. mu of an atomic pair equals the generalized verdict."""

    @pytest.mark.parametrize("name", sorted(DECIDED_RANKS))
    def test_ranks_are_the_factors_of_validation(self, name):
        obs, tol = decided_once_case(name)
        ranks = obs.ranks()
        assert not ranks.flags.writeable and ranks is obs.ranks()
        assert ranks.tolist() == DECIDED_RANKS[name] == [e.factor()[1].size for e in obs.effects]
        for e, r in zip(obs.effects, ranks.tolist()):
            w, v = e.spectral
            top = obs.dim - r
            want = v[:, top:].tobytes() + np.sqrt(w[top:]).tobytes()
            assert b"".join(f.tobytes() for f in e.factor()) == want
            assert b"".join(f.tobytes() for f in Effect(e.matrix, tol).factor()) == want

    def test_line_table_owns_the_coefficients(self):
        for kind in KINDS:
            a, b = build_pair(kind, 8, 24)
            for first, second in ((a, b), (b, a)):
                lines = observables.line_table(first, second)
                assert np.array_equal(lines.coeffs, lines.forms * first.spectra()[lines.index, -1])
                assert (first.ranks()[lines.index] == 1).all() and lines.coeffs.shape == (len(second), len(lines.index))

    def test_mu_of_an_atomic_pair_is_the_generalized_verdict(self):
        seen = 0
        for kind in KINDS:
            for dim in (2, 3, 5, 8):
                a, b = build_pair(kind, dim, dim)
                for tol in (None, 1e-6, 1e-12, 0.3):
                    for first, second in ((a, b), (b, a)):
                        report = analysis.classify_pair(first, second, tol)
                        if report.mu is not None:
                            seen += 1
                            assert report.mu == report.generalized_mu == analysis.check_mu(first, second, tol)
        assert seen >= 100

    def test_loosely_atomic_pair_keeps_its_own_mu(self):
        """Three 0.75 v v* on a trine are atomic within tol 0.3 with m = 3 > d = 2, so 1/d is not
        the generalized target d/(m n): mu keeps its own verdict, the one ``check_mu`` gives."""
        trine = [np.array([np.cos(t), np.sin(t)]) for t in (0, 2 * np.pi / 3, 4 * np.pi / 3)]
        a = Observable(["0", "1", "2"], [0.75 * np.outer(v, v) for v in trine], 0.3)
        b = position_observable(2)
        for first, second in ((a, b), (b, a), (a, a)):
            report = analysis.classify_pair(first, second, 0.3)
            assert report.mu == analysis.check_mu(first, second, 0.3) != report.generalized_mu
            assert report.mu.witness["target"] == 0.5


ROW_BLOCK_DIMS = [1, 2, 3, 5, 8, 17, 18, 27, 32, 33, 64]  # around the block height and multiples of 4


def rank_one_pairs(dim, rng):
    """Named pairs whose effects are all rank one, so both of their product passes run in row blocks:
    Haar position/momentum, two Haar bases, 0.5 v v* over two bases against a basis in both orders,
    and a snap-band basis, whose first effect is rank one only by the zero band, against momentum."""
    yield ("position-momentum", *mu_atomic_pair(dim, rng))
    yield ("two-bases", *random_atomic_pair(dim, rng))
    halved, basis = halved_bases(dim, rng), random_observable(dim, dim, "atomic", rng)
    yield "halved-basis", halved, basis
    yield "basis-halved", basis, halved
    if dim > 1:
        yield ("snap-band", *build_pair("snap-band-vs-momentum", dim, rng))


class TestRowBlocks:
    """A pass whose effects are all rank one gives condition (2)'s deviations a block
    of rows at a time, never summing (B|A) whole."""

    @pytest.mark.parametrize("dim", ROW_BLOCK_DIMS)
    def test_match_the_dense_sum(self, dim):
        rng = np.random.default_rng(dim)
        for name, a, b in rank_one_pairs(dim, rng):
            passes = products(a, b), products(b, a)
            dense = []
            for first, second, made in ((a, b, passes[0]), (b, a, passes[1])):
                assert len(made.lines.index) == len(first), name
                coeffs = made.lines.forms * first.spectra()[made.lines.index, -1]
                summed = np.tensordot(coeffs, linalg.projections(made.lines.vectors), axes=1)
                dense.append(made._replace(conditioned=linalg.max_abs_each(summed - np.eye(dim) / len(second))))
                assert np.abs(made.conditioned - dense[-1].conditioned).max() <= 1e-15, name
            mat_tol = linalg.default_tol(dim)
            got, want = (analysis._product_verdicts(a, b, ps, mat_tol)[1] for ps in (passes, dense))
            assert got.holds == want.holds and abs(got.max_deviation - want.max_deviation) <= 1e-15, name
            labels = [None if v.witness is None else (v.witness["side"], v.witness["outcome"]) for v in (got, want)]
            assert labels[0] == labels[1], name
            assert analysis.check_condition2(a, b) == got
            if name == "snap-band":  # an uncertified rank-one row on the row-block path
                assert not a._certified[0] and a._certified[1:].all()

    @pytest.mark.parametrize("check", [products, analysis.classify_pair])
    def test_hold_no_stack_of_d_matrices(self, check):
        dim = 64
        a, b = mu_atomic_pair(dim, 5)
        tracemalloc.start()
        try:
            check(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim ** 3 * 16  # one (d, d, d) complex stack, 4 MiB

    def test_factored_pass_holds_one_block(self):
        """A pass that lifts its effects through their factors holds (B|A), one (n, d, d) stack,
        and one block of products at a time: at most ``linalg._CHUNK_ENTRIES`` lifts' entries,
        whose magnitudes, targets and the compressions stay within three more such blocks. All
        m n lifts would take 4 MiB here, and the dense lift peaks at 2.5 MiB."""
        dim, m = 64, 8
        a, b = coarse_matched_pair(dim, m, 5)
        assert [c.index.tolist() for c in observables.compressions(a, b)] == [list(range(m))]
        tracemalloc.start()
        try:
            products(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (m * dim ** 2 + 4 * linalg._CHUNK_ENTRIES)  # 1.5 MiB


BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


class TestSetPartitions:
    @pytest.mark.parametrize("n", sorted(BELL))
    def test_counts_are_bell_numbers(self, n):
        assert sum(1 for _ in iter_set_partitions(range(n))) == BELL[n]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5))
    def test_blocks_partition_the_set(self, n):
        items = list(range(n))
        for blocks in iter_set_partitions(items):
            flat = [x for blk in blocks for x in blk]
            assert sorted(flat) == items
            assert all(blk for blk in blocks)

    def test_partition_maps_enumeration(self):
        q = position_observable(4)
        maps = list(iter_partition_maps(q))
        assert len(maps) == 15
        for pm in maps:
            assert set(pm.source_outcomes) == set(q.outcomes)
            assert sum(pm.fiber_sizes()) == 4
            coarse_grain(q, pm)  # validates
