"""What validation keeps, and how it checks in few passes (``linalg.hermitian_eigs``).

A certified effect keeps its top unit vector, not an eigenvector unitary: the
public ``Effect.spectral`` builds the Householder unitary ending in that vector
on first read. Finiteness is read from the asymmetry defect and rank-one
candidates are chosen by trace, so the error classes and texts on malformed
input are those of a separate finiteness pass before the defect, and those of
an entrywise bound on the candidates before the certificate.
"""
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from mubkit import (
    Effect,
    Observable,
    State,
    analysis,
    conjugate,
    linalg,
    momentum_observable,
    oracle,
    position_observable,
    random_unitary,
)
from mubkit.cli import main
from mubkit.errors import NonFinite, NotAnEffect, NotHermitian, NotNormalized, NotPositive, SpectrumOutOfRange
from test_certificate import eigh_only
from test_differential import build_pair, snap_band_basis

TOLS = [None, 1e-6, 1e-12, 0.3]
HOUSEHOLDER = linalg._unitary_ending_in  # the reference, never counted


def haar_pair(dim, seed=None):
    u = random_unitary(dim, dim if seed is None else seed)
    return conjugate(position_observable(dim), u), conjugate(momentum_observable(dim), u)


def reports(a, b):
    return [repr(analysis.classify_pair(x, y, tol)) for x, y in ((a, b), (b, a)) for tol in TOLS]


@pytest.fixture
def householders():
    """Count the calls of ``linalg._unitary_ending_in``, by which ``Effect.spectral``
    builds a certified effect's unitary."""
    calls = []

    def counting(u):
        calls.append(len(u))
        return HOUSEHOLDER(u)

    with mock.patch.object(linalg, "_unitary_ending_in", counting):
        yield calls


class TestLazySpectral:
    @pytest.mark.parametrize("dim", [2, 5, 17, 64])
    def test_haar_position_momentum(self, dim, householders):
        pair = haar_pair(dim)
        before = reports(*pair)
        assert householders == []  # neither validation nor any report built a unitary
        for obs in pair:
            assert obs._certified.all() and obs.is_atomic()
            raw = obs.stack().copy()
            want = HOUSEHOLDER(linalg.hermitian_eigs(raw).top)
            for k, e in enumerate(obs.effects):
                spectral = e.spectral
                assert e.spectral is spectral
                assert spectral.eigenvalues.tobytes() == obs.spectra()[k].tobytes()
                assert spectral.eigenvectors.tobytes() == want[k].tobytes()
                assert not spectral.eigenvectors.flags.writeable
                assert e.factor()[0].tobytes() == want[k][:, -1:].tobytes()
        assert reports(*pair) == before  # reading every unitary changed no report

    def test_snap_band_basis(self, householders):
        u = random_unitary(6, 3)
        a, b = snap_band_basis(u), conjugate(momentum_observable(6), u)
        assert householders == []
        assert 0 < a._certified.sum() < len(a)
        before = reports(a, b)
        assert householders == []  # a failing witness reads a certified line's kept top vector
        tops = linalg.hermitian_eigs(a.stack().copy()).top
        for x, e in enumerate(a.effects):
            if a._certified[x]:
                assert e.spectral.eigenvectors.tobytes() == HOUSEHOLDER(tops[x:x + 1])[0].tobytes()
            else:  # eigh's, as validated
                assert e.spectral.eigenvectors[:, -1].tobytes() == tops[x].tobytes()
            built = len(householders)
            assert e.spectral is e.spectral and len(householders) == built
        assert reports(a, b) == before

    def test_pure_state(self, householders):
        v = random_unitary(9, 4)[:, 2]
        rho = State.pure(v)
        e = Effect(rho.matrix)
        assert e.is_atomic() and householders == []  # eigenvalues only
        top = linalg.hermitian_eigs(rho.matrix[None].copy()).top
        assert e.spectral.eigenvectors.tobytes() == HOUSEHOLDER(top)[0].tobytes()
        assert e.spectral is e.spectral and householders == [1]

    @pytest.mark.parametrize("tol", [1.0, 1.5])
    def test_huge_tol_takes_the_zero_eigenvalues_columns(self, tol):
        """At tol >= 1 every eigenvalue in [0, 1] is a unit eigenvalue, so the unit
        eigenspace is the whole unitary, the Householder columns included."""
        for dim, deviation in ((2, 0.4860028491157827), (5, 0.4493198252971528),
                               (17, 0.3279776409562671)):
            q, p = haar_pair(dim)
            for e in q.effects:
                assert e.unit_eigenspace(tol).tobytes() == e.spectral.eigenvectors.tobytes()
            got = analysis.check_value_complementary(q, p, tol)
            assert (got.holds, got.vacuous, got.witness) == (True, False, None)
            assert got.max_deviation == pytest.approx(deviation, abs=1e-15)
            if tol > 1.0:  # eigh's zero eigenvalues, such as -1e-17, can miss tol = 1
                with mock.patch.object(linalg, "hermitian_eigs", eigh_only):
                    ref = analysis.check_value_complementary(*haar_pair(dim), tol)
                assert abs(got.max_deviation - ref.max_deviation) <= 1e-14


@pytest.mark.parametrize("dim", [5, 17, 32])
@pytest.mark.parametrize("kind", ["random-atomic", "halved-vs-atomic", "snap-band-vs-momentum"])
def test_no_checker_builds_a_unitary_below_tol_1(kind, dim, householders):
    """Below tol 1 a certified effect's certainty basis is at most its top vector, so value
    complementarity's rows and witness and the reference build no Householder unitary."""
    a, b = build_pair(kind, dim, dim)
    for tol in TOLS:
        for x, y in ((a, b), (b, a)):
            analysis.classify_pair(x, y, tol)
            analysis.check_value_complementary(x, y, tol)
        oracle.naive_value_complementary(a, b, tol)
    assert householders == []


def test_validated_observable_holds_its_stack_and_little_more():
    """A d = 64 Haar momentum observable holds its stack, its eigenvalues and top
    vectors: with the Householder stack it held twice its stack's bytes."""
    p = momentum_observable(64)
    u = random_unitary(64, 64)
    raw = u @ p.stack() @ u.conj().T
    tracemalloc.start()
    try:
        obs = Observable(p.outcomes, raw)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obs._certified.all()
    nbytes = obs.stack().nbytes
    assert held <= 1.05 * nbytes and peak <= 1.5 * nbytes


def test_uncertified_stack_reads_top_vectors_from_its_eigenvectors():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    spectra = linalg.hermitian_eigs(g @ g.conj().swapaxes(-1, -2))
    assert not spectra.certified.any()
    assert np.shares_memory(spectra.top, spectra.eigenvectors)
    assert spectra.top.tobytes() == np.ascontiguousarray(spectra.eigenvectors[:, :, -1]).tobytes()


INF, NAN = np.inf, np.nan
MALFORMED = {  # (matrix, error class, text)
    "inf-hermitian": ([[0.5, INF], [INF, 0.5]], NonFinite, "matrix entries must be finite"),
    "nan-hermitian": ([[0.5, NAN], [NAN, 0.5]], NonFinite, "matrix entries must be finite"),
    "inf-asymmetric": ([[0.5, INF], [0.0, 0.5]], NonFinite, "matrix entries must be finite"),
    "nan-asymmetric": ([[0.5, NAN], [0.3, 0.5]], NonFinite, "matrix entries must be finite"),
    "imaginary-inf-asymmetric": ([[0.5, -1j * INF], [0.0, 0.5]], NonFinite, "matrix entries must be finite"),
    "nan-diagonal": ([[NAN, 0.0], [0.0, 0.5]], NonFinite, "matrix entries must be finite"),
    "finite-asymmetry": ([[0.5, 0.3], [0.0, 0.5]], NotHermitian,
                         "max asymmetry 3.000e-01 exceeds tol 2.000e-09"),
    "asymmetry-past-the-float-limit": ([[0.5, 1e308], [-1e308, 0.5]], NotHermitian,
                                       "max asymmetry inf exceeds tol 2.000e-09"),
    # finite, but |M_01 - conj(M_10)| / 2 overflows: an inf defect that is no finiteness failure
    "asymmetry-modulus-past-the-float-limit": ([[0.5, 1.7e308 * (1 + 1j)], [-1.7e308 * (1 - 1j), 0.5]],
                                               NotHermitian, "max asymmetry inf exceeds tol 2.000e-09"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_raises_as_before(name):
    """NonFinite wins over NotHermitian, in the stacked pass itself, in a stack of one,
    in a later tile (d = 100: one matrix a tile), through an observable and in the
    ``eigh`` reference, with no warning."""
    entries, error, text = MALFORMED[name]
    m = np.array(entries, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            linalg.hermitian_eig(m)
        assert str(err.value) == text
        for stack in (m[None].copy(), np.stack([np.eye(2) / 2, m])):
            with pytest.raises(error) as err:
                linalg.hermitian_eigs(stack)
            assert str(err.value) == text
        for make in (Effect, State):
            with pytest.raises(error) as err:
                make(m)
            assert str(err.value) == text
        with pytest.raises(NotAnEffect) as err:
            Observable(["0", "1"], [np.eye(2) / 2, m])
        assert str(err.value) == f"outcome '1': {text}"
        big = np.zeros((3, 100, 100), dtype=complex)
        big[:2] = np.eye(100) / 2
        big[2, :2, :2] = m
        with pytest.raises(error) as err:
            linalg.hermitian_eigs(big.copy(), 1e-7)
        assert str(err.value) == text.replace("2.000e-09", "1.000e-07")
        with pytest.raises(NotAnEffect) as err:
            Observable(["0", "1", "2"], big)
        assert str(err.value) == f"outcome '2': {text.replace('2.000e-09', '1.000e-07')}"


# finite, Hermitian and past the entry bound |H_ij| <= 1 + eig_tol that every effect meets:
# (matrix, Effect's text, State's error and text); the first three overflow a trace or v v*
PAST_THE_ENTRY_BOUND = {
    "diagonal-near-the-float-limit": (np.diag([1e308, 1e308]),
                                      "eigenvalue 1e+308 outside [0, 1] by more than 1.000e-09",
                                      NotNormalized, "state trace (inf+0j) is not 1 within 2.000e-09"),
    "off-diagonal-1e200": ([[0.5, 1e200], [1e200, 0.5]],
                           "eigenvalue -1e+200 outside [0, 1] by more than 1.000e-09",
                           NotPositive, "state eigenvalue -1.000e+200 below -1.000e-09"),
    "tiny-trace-large-off-diagonal": ([[1e-300, 1e160], [1e160, 1e-300]],
                                      "eigenvalue -1e+160 outside [0, 1] by more than 1.000e-09",
                                      NotPositive, "state eigenvalue -1.000e+160 below -1.000e-09"),
    "unit-trace-entry-3": ([[1.0, 3.0], [3.0, 0.0]],
                           "eigenvalue -2.54138126514911 outside [0, 1] by more than 1.000e-09",
                           NotPositive, "state eigenvalue -2.541e+00 below -1.000e-09"),
    # Hermitian with finite parts, but |H_01| overflows: eigh scales by it and gives a NaN spectrum
    "modulus-past-the-float-limit": ([[0.0, 1.7e308 * (1 + 1j)], [1.7e308 * (1 - 1j), 0.0]],
                                     "spectrum is not finite: an entry's modulus overflows the float range",
                                     NotPositive,
                                     "state spectrum is not finite: an entry's modulus overflows the float range"),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_ENTRY_BOUND))
def test_finite_input_past_the_entry_bound_raises_as_before(name):
    """Rank-one candidates are chosen by trace alone: a finite non-effect that reaches the
    certificate fails it, overflow included, and gets ``eigh``'s spectrum, with no warning."""
    entries, effect_text, state_error, state_text = PAST_THE_ENTRY_BOUND[name]
    m = np.array(entries, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = linalg.hermitian_eig(m).eigenvalues
        for stack in (m[None].copy(), np.stack([np.eye(2) / 2, m])):
            spectra = linalg.hermitian_eigs(stack)
            assert not spectra.certified[-1]
            assert spectra.eigenvalues[-1].tobytes() == ref.tobytes()
        with pytest.raises(SpectrumOutOfRange) as err:
            Effect(m)
        assert str(err.value) == effect_text
        with pytest.raises(state_error) as err:
            State(m)
        assert str(err.value) == state_text
        with pytest.raises(NotAnEffect) as err:
            Observable(["0", "1"], [np.eye(2) / 2, m])
        assert str(err.value) == f"outcome '1': {effect_text}"


@pytest.mark.parametrize("name", ["inf-hermitian", "nan-asymmetric", "nan-diagonal", "inf-asymmetric",
                                  "finite-asymmetry"])
def test_malformed_file_exits_2_with_the_error(name, tmp_path, capsys):
    entries = np.array(MALFORMED[name][0], dtype=complex)
    effect = [[[z.real, z.imag] for z in row] for row in entries]
    half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    doc = {"dim": 2, "outcomes": ["0", "1"], "effects": [half, effect]}
    (tmp_path / "bad.json").write_text(json.dumps(doc))  # NaN and Infinity as JSON's extension writes them
    main(["construct", "position", "2", "--out", str(tmp_path / "q2.json")])
    capsys.readouterr()
    assert main(["check", "all", str(tmp_path / "bad.json"), str(tmp_path / "q2.json")]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: {tmp_path / 'bad.json'}: outcome '1': {MALFORMED[name][2]}\n"
