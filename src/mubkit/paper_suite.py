"""Built-in regression fixtures over the worked low-dimensional examples.

``FIXTURES`` is an ordered table of ``(name, fixture)`` rows; a fixture
takes the seed and returns its detail line or raises. ``_identity`` rows
compare computed values with the hard-coded constants below, ``_verdicts``
rows check a predicate on the three worked dimension-4 pairs. Nothing is
built before ``run_paper_suite`` runs. The CLI exposes the table as the
``paper-suite`` command; tests carry their own copies of the constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis, linalg
from .effects import State, occurrence_probability, seq_product
from .fourier import example_partitions, fourier_matrix, momentum_observable, position_observable
from .observables import Observable, PartitionMap, conditioned
from .oracle import mc_value_complementarity

TIGHT = 1e-12

F2 = np.array([[1, 1],
               [1, -1]], dtype=complex) / np.sqrt(2.0)

F4 = np.array([[1, 1, 1, 1],
               [1, -1j, -1, 1j],
               [1, -1, 1, -1],
               [1, 1j, -1, -1j]], dtype=complex) / 2.0

Q2 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]

P2 = [np.array([[1, 1], [1, 1]], dtype=complex) / 2.0,
      np.array([[1, -1], [-1, 1]], dtype=complex) / 2.0]

Q4 = [np.diag([1.0 if i == j else 0.0 for i in range(4)]).astype(complex) for j in range(4)]

P4 = [
    np.full((4, 4), 0.25, dtype=complex),
    np.array([[1, 1j, -1, -1j],
              [-1j, 1, 1j, -1],
              [-1, -1j, 1, 1j],
              [1j, -1, -1j, 1]], dtype=complex) / 4.0,
    np.array([[1, -1, 1, -1],
              [-1, 1, -1, 1],
              [1, -1, 1, -1],
              [-1, 1, -1, 1]], dtype=complex) / 4.0,
    np.array([[1, -1j, -1, 1j],
              [1j, 1, -1j, -1],
              [-1, 1j, 1, -1j],
              [-1j, -1, 1j, 1]], dtype=complex) / 4.0,
]

Q_HALF = [np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
          np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)]

P_PARITY = [np.array([[1, 0, 1, 0],
                      [0, 1, 0, 1],
                      [1, 0, 1, 0],
                      [0, 1, 0, 1]], dtype=complex) / 2.0,
            np.array([[1, 0, -1, 0],
                      [0, 1, 0, -1],
                      [-1, 0, 1, 0],
                      [0, -1, 0, 1]], dtype=complex) / 2.0]

P_HALF = [np.array([[2, 1 + 1j, 0, 1 - 1j],
                    [1 - 1j, 2, 1 + 1j, 0],
                    [0, 1 - 1j, 2, 1 + 1j],
                    [1 + 1j, 0, 1 - 1j, 2]], dtype=complex) / 4.0,
          np.array([[2, -1 - 1j, 0, -1 + 1j],
                    [-1 + 1j, 2, -1 - 1j, 0],
                    [0, -1 + 1j, 2, -1 - 1j],
                    [-1 - 1j, 0, -1 + 1j, 2]], dtype=complex) / 4.0]

MIXED_PRODUCT = np.array([[2, 1 + 1j, 0, 0],
                          [1 - 1j, 2, 0, 0],
                          [0, 0, 0, 0],
                          [0, 0, 0, 0]], dtype=complex) / 4.0

CROSS_WITNESS = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)


def _require(cond, msg: str = "") -> None:
    """A fixture check that also runs under ``python -O``, which strips
    ``assert``; it raises the same AssertionError, so details are unchanged."""
    if not cond:
        raise AssertionError(msg)


def _pm(dim):
    return position_observable(dim), momentum_observable(dim)


def _worked_pairs():
    """(Q, P) in dimension 4, the matched (Q', P') and the mismatched (Q', P'')."""
    q_half, p_parity, p_half = example_partitions()
    return _pm(4), (q_half, p_parity), (q_half, p_half)


def _matrices(*observables):
    return [e.matrix for obs in observables for e in obs.effects]


def _both_orders(a, b):
    """(A_x∘B_y, A_x/n) and (B_y∘A_x, B_y/m) for every pair of effects."""
    return [pair for x in a.effects for y in b.effects
            for pair in ((seq_product(x, y).matrix, x.matrix / len(b.effects)),
                         (seq_product(y, x).matrix, y.matrix / len(a.effects)))]


def _identity(detail: str, pairs: Callable) -> Callable:
    """Fixture: every ``(got, want)`` from ``pairs()`` agrees within ``TIGHT``;
    ``detail`` is formatted with the worst entrywise deviation."""
    def fixture(seed):
        worst = max(linalg.max_abs(np.asarray(got) - np.asarray(want)) for got, want in pairs())
        _require(worst <= TIGHT, f"deviation {worst:.3e} exceeds {TIGHT:.3e}")
        return detail.format(worst)
    return fixture


def _verdicts(check: Callable, detail: str) -> Callable:
    """Fixture: ``check`` holds on both matched worked pairs and fails with a
    witness on the mismatched one; ``detail`` gets the failing deviation."""
    def fixture(seed):
        full, matched, mismatched = _worked_pairs()
        _require(check(*full).holds and check(*matched).holds)
        v = check(*mismatched)
        _require(not v.holds and v.witness is not None and not v.vacuous)
        return detail.format(v.max_deviation)
    return fixture


def _fx_sharp_not_atomic(seed):
    for obs in example_partitions():
        _require(obs.is_sharp(), "merged observable should stay sharp")
        _require(not obs.is_atomic(), "rank-two projections are not atomic")
    return "all three merged observables sharp, none atomic"


def _fx_conditioning_not_sharp(seed):
    q_half, _, p_half = example_partitions()
    cond = conditioned(p_half, q_half)
    _require(not cond.is_sharp(), "conditioning should break sharpness here")
    return "(P''|Q') is unsharp although P'' is sharp"


def _fx_mu(seed):
    for dim in (2, 4, 8):
        v = analysis.check_mu(*_pm(dim))
        _require(v.holds, f"dim {dim}: deviation {v.max_deviation:.3e}")
    return "position/momentum unbiased for dims 2, 4, 8"


def _fx_injected_witness(seed):
    q_half, _, p_half = example_partitions()
    rep = mc_value_complementarity(q_half, p_half, samples=50, seed=seed,
                                   inject=(CROSS_WITNESS,))
    hits = [r for r in rep.injected if r["side"] == "A" and r["certain_outcome"] == "0"]
    _require(hits, "witness never overlapped the first certainty subspace")
    observed = hits[0]["observed"]["0"]
    _require(abs(observed - 0.75) <= TIGHT, f"observed {observed}")
    _require(not rep.consistent)
    return f"equal-weight witness sees probability {observed:.4f} (target 1/2)"


def _fx_generalized_mu(seed):
    q_half, _, p_half = example_partitions()
    v = analysis.check_generalized_mu(q_half, p_half)
    _require(v.holds, f"deviation {v.max_deviation:.3e}")
    _require(abs(analysis.forced_alpha(q_half, p_half) - 1.0) == 0.0)
    trivial = Observable(["0", "1", "2"], [np.eye(3, dtype=complex) / 3.0] * 3)
    diagonal = Observable(["0", "1", "2"],
                          [np.diag([0.5, 0.3, 0.2]).astype(complex),
                           np.diag([0.3, 0.4, 0.3]).astype(complex),
                           np.diag([0.2, 0.3, 0.5]).astype(complex)])
    v2 = analysis.check_generalized_mu(trivial, diagonal)
    _require(v2.holds and abs(analysis.forced_alpha(trivial, diagonal) - 1.0 / 3.0) <= TIGHT)
    return "alpha = 1 for the mismatched pair, 1/3 for uniform-vs-equal-trace"


def _fx_classify(seed):
    full, matched, mismatched = (analysis.classify_pair(a, b) for a, b in _worked_pairs())
    _require(full.mu is not None and full.mu.holds)
    _require(full.condition1.holds and full.condition2.holds)
    _require(full.value_complementary.holds and full.generalized_mu.holds)
    _require(matched.mu is None)
    _require(matched.condition1.holds and matched.condition2.holds)
    _require(matched.value_complementary.holds and matched.generalized_mu.holds)
    _require(mismatched.mu is None)
    _require(not mismatched.condition1.holds and not mismatched.condition2.holds)
    _require(not mismatched.value_complementary.holds)
    _require(mismatched.generalized_mu.holds and mismatched.alpha == 1.0)
    return "three reference reports match expectations"


def _fx_partition_criterion(seed):
    outcomes = ("0", "1", "2", "3")
    even = PartitionMap(outcomes, ("0", "1"), {"0": "0", "1": "0", "2": "1", "3": "1"})
    skew = PartitionMap(outcomes, ("0", "1"), {"0": "0", "1": "1", "2": "1", "3": "1"})
    ok = analysis.check_partition_criterion(even, even)
    _require(ok.holds and ok.constant == 4)
    bad = analysis.check_partition_criterion(skew, even)
    _require(not bad.holds and bad.products == (2, 6))
    return "2x2 blocks give constant 4; 1/3 split is rejected"


def _fx_trivial(seed):
    trivial = Observable(["0", "1"], [np.eye(2, dtype=complex) / 2.0] * 2)
    _require(analysis.check_trivial(trivial))
    _require(not analysis.check_trivial(position_observable(2)))
    return "uniform observable trivial, position observable not"


FIXTURES: tuple[tuple[str, Callable], ...] = (
    ("fourier-matrix-dim2", _identity(
        "transform entries within {:.1e}", lambda: [(fourier_matrix(2), F2)])),
    ("fourier-matrix-dim4", _identity(
        "transform entries within {:.1e}", lambda: [(fourier_matrix(4), F4)])),
    ("position-momentum-dim2", _identity(
        "all four effects within {:.1e}", lambda: zip(_matrices(*_pm(2)), Q2 + P2))),
    ("position-momentum-dim4", _identity(
        "all eight effects within {:.1e}", lambda: zip(_matrices(*_pm(4)), Q4 + P4))),
    ("trace-pairing-dim2", _identity(
        "tr(Q0 P0) = 1/2",
        lambda: [(linalg.trace(q.effects[0].matrix @ p.effects[0].matrix), 0.5)
                 for q, p in [_pm(2)]])),
    ("atomic-pair-products", _identity(
        "Q_j o P_k = Q_j/dim in both orders within {:.1e}",
        lambda: [pair for dim in (2, 4) for pair in _both_orders(*_pm(dim))])),
    ("occurrence-probability", _identity(
        "P0 in state Q0 has probability 1/2",
        lambda: [(occurrence_probability(State(q.effects[0].matrix), p.effects[0]), 0.5)
                 for q, p in [_pm(2)]])),
    ("conditioned-uniform", _identity(
        "(P|Q) and (Q|P) uniform within {:.1e} for dims 2 and 4",
        lambda: [(m, np.eye(q.dim) / q.dim) for q, p in map(_pm, (2, 4))
                 for m in _matrices(conditioned(p, q), conditioned(q, p))])),
    ("coarse-grainings-dim4", _identity(
        "all six merged effects within {:.1e}",
        lambda: zip(_matrices(*example_partitions()), Q_HALF + P_PARITY + P_HALF))),
    ("halved-pair-products", _identity(
        "both orders equal half the first factor within {:.1e}",
        lambda: _both_orders(*_worked_pairs()[1]))),
    ("mismatched-pair-product", _identity(
        "asymmetric product matrix within {:.1e}",
        lambda: [(seq_product(q.effects[0], p.effects[0]).matrix, MIXED_PRODUCT)
                 for q, p in [_worked_pairs()[2]]])),
    ("sharp-but-not-atomic", _fx_sharp_not_atomic),
    ("conditioning-breaks-sharpness", _fx_conditioning_not_sharp),
    ("mutual-unbiasedness", _fx_mu),
    ("condition1-verdicts", _verdicts(
        analysis.check_condition1, "holds for the matched pairs, fails mismatched (dev {:.2e})")),
    ("condition2-verdicts", _verdicts(
        analysis.check_condition2, "holds for the matched pairs, fails mismatched (dev {:.2e})")),
    ("value-complementarity-verdicts", _verdicts(
        analysis.check_value_complementary, "fails only for the mismatched pair (dev {:.2e})")),
    ("injected-witness-probability", _fx_injected_witness),
    ("generalized-unbiasedness", _fx_generalized_mu),
    ("classification-reports", _fx_classify),
    ("partition-size-criterion", _fx_partition_criterion),
    ("trivial-observables", _fx_trivial),
    ("complement-pairing", _identity(
        "complement of the first parity effect is the second (within {:.1e})",
        lambda: [(p.effects[0].complement().matrix, p.effects[1].matrix)
                 for p in [example_partitions()[1]]])),
)


@dataclass(frozen=True)
class FixtureResult:
    # the field order is the key order of a fixture in `mubkit paper-suite` output
    name: str
    passed: bool
    detail: str


def run_paper_suite(seed: int = 0) -> list[FixtureResult]:
    """Run every fixture; never raises, failures land in the results."""
    results = []
    for name, fn in FIXTURES:
        try:
            detail = fn(seed)
            results.append(FixtureResult(name, True, str(detail)))
        except Exception as exc:  # noqa: BLE001 -- report, don't crash the runner
            results.append(FixtureResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
