import gc
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import mubkit
from mubkit import cli, linalg
from mubkit.analysis import classify_pair
from mubkit.cli import (
    declared_dim,
    dump_json,
    main,
    observable_from_json,
    parse_partition_spec,
    report_from_json,
    report_to_json,
)
from mubkit.errors import BadPartition, ParseError
from mubkit.fourier import (
    example_partitions,
    fourier_matrix,
    momentum_observable,
    position_observable,
)
from mubkit.observables import Observable, coarse_grain
from mubkit.oracle import random_observable
from test_differential import KINDS, build_pair


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture()
def files(tmp_path, capsys):
    main(["construct", "position", "4", "--out", str(tmp_path / "q4.json")])
    main(["construct", "momentum", "4", "--out", str(tmp_path / "p4.json")])
    main(["construct", "position", "2", "--out", str(tmp_path / "q2.json")])
    main(["construct", "example5", "4", "--out", str(tmp_path / "ex5.json")])
    main(["construct", "example6", "4", "--out", str(tmp_path / "ex6.json")])
    capsys.readouterr()
    return tmp_path


class TestConstruct:
    def test_file_output_matches_library(self, tmp_path, capsys):
        out = tmp_path / "q3.json"
        code, _, err = run(["construct", "position", "3", "--out", str(out)], capsys)
        assert code == 0 and f"wrote {out}" in err
        assert out.read_text("utf-8") == _observable_text(position_observable(3))

    def test_stdout_mode(self, capsys):
        code, out, _ = run(["construct", "momentum", "2"], capsys)
        assert code == 0
        obs = observable_from_json(json.loads(out))
        expected = momentum_observable(2)
        for got, want in zip(obs.effects, expected.effects):
            assert np.allclose(got.matrix, want.matrix, atol=1e-15)

    def test_fourier_output(self, capsys):
        code, out, _ = run(["construct", "fourier", "4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 4
        pairs = np.array(obj["matrix"])
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], fourier_matrix(4))

    def test_example5_writes_pair(self, files):
        q_half, p_parity, _ = example_partitions()
        got_q = (files / "ex5.qprime.json").read_text("utf-8")
        got_p = (files / "ex5.pprime.json").read_text("utf-8")
        assert got_q == _observable_text(q_half)
        assert got_p == _observable_text(p_parity)

    def test_example6_writes_pair(self, files):
        _, _, p_half = example_partitions()
        assert (files / "ex6.qprime.json").exists()
        got = (files / "ex6.pdprime.json").read_text("utf-8")
        assert got == _observable_text(p_half)

    def test_example_kind_needs_dim4(self, tmp_path, capsys):
        code, _, err = run(["construct", "example5", "3",
                            "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2 and "error:" in err

    def test_example_kind_needs_out(self, capsys):
        code, _, err = run(["construct", "example6", "4"], capsys)
        assert code == 2 and "error:" in err

    def test_bad_dimension(self, capsys):
        code, _, err = run(["construct", "fourier", "0"], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("kind, builder", [("position", "position_observable"),
                                               ("momentum", "momentum_observable"),
                                               ("fourier", "fourier_matrix")])
    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 14.6 TiB"), "error: Unable to allocate 14.6 TiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_out_of_memory_is_input_error(self, capsys, monkeypatch, kind, builder, exc, line):
        def exhausted(n):
            raise exc

        monkeypatch.setattr(mubkit.cli, builder, exhausted)
        assert run(["construct", kind, "1000000"], capsys) == (2, "", line)

    def test_tol_is_not_an_option(self, capsys):
        # construct compares nothing, so it takes no tolerance
        with pytest.raises(SystemExit) as exc:
            main(["construct", "position", "4", "--tol", "nan"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestMatrixJson:
    """``observable_from_json`` reads every effect's [re, im] pairs as they were written."""

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(47)
        obs = random_observable(5, 3, "unsharp", rng)
        assert np.array_equal(observable_from_json(json.loads(_observable_text(obs))).stack(), obs.stack())
        doc = json.loads(_observable_text(position_observable(3)))
        doc["effects"][0][1][1] = [-0.0, 0.0]  # validation's (M + M*)/2 keeps the sign of -0.0 + -0.0
        got = observable_from_json(doc).stack()
        assert np.array_equal(got, position_observable(3).stack()) and np.signbit(got[0, 1, 1].real)
        one = {"dim": 1, "outcomes": ["0"], "effects": [[[[1, -0.0]]]]}
        assert np.array_equal(observable_from_json(one).stack(), [[[1 + 0j]]])

    @pytest.mark.parametrize("rows", [
        7, "ab", {"a": 1}, [], [[]], [[{}]],
        [[[1.0, 0.0, 0.0]]], [[[1.0]]], [[[1.0, 0.0]], [[0.0, 0.0]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        [[["1", 0.0]]], [[[None, 0.0]]], [[[[1.0], 0.0]]], [[[True, 0.0]]], [[[0.0, False]]],
        [[[10**400, 0.0]]],
    ])
    def test_malformed_matrices_are_parse_errors(self, rows):
        # the malformed matrix follows a valid first effect, which fixes "dim" at 1
        doc = {"dim": 1, "outcomes": ["0", "1"], "effects": [[[[1.0, 0.0]]], rows]}
        with pytest.raises(ParseError):
            observable_from_json(doc)


def _pairs_by_entry(m) -> list:
    """The [re, im] list form of a matrix, one entry at a time (the reference)."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _observable_text(obs) -> str:
    return _json_text({"dim": obs.dim, "outcomes": list(obs.outcomes),
                       "effects": [_pairs_by_entry(e.matrix) for e in obs.effects]})


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.5, 1.0, 0.1]


class TestFileText:
    """Files and stdout are exactly json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"."""

    @settings(max_examples=60, deadline=None)
    @given(values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4),
        elements=st.one_of(st.sampled_from(_EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))))
    def test_float_arrays_are_written_as_json_dumps(self, tmp_path_factory, values):
        doc = {"dim": 3, "effects": values, "outcomes": ["0⊗1", "é", "\n\"x\""],
               "nested": {"a": [1, {"b": []}], "c": {}}, "last": values[..., :1]}
        expected = _json_text({key: value.tolist() if isinstance(value, np.ndarray) else value
                               for key, value in doc.items()})
        out = tmp_path_factory.mktemp("text") / "doc.json"
        dump_json(doc, str(out))
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_construct_kinds(self, tmp_path, capsys, n):
        for kind, expected in (
                ("position", _observable_text(position_observable(n))),
                ("momentum", _observable_text(momentum_observable(n))),
                ("fourier", _json_text({"dim": n, "matrix": _pairs_by_entry(fourier_matrix(n))}))):
            code, out, _ = run(["construct", kind, str(n)], capsys)
            assert code == 0 and out == expected
            path = tmp_path / f"{kind}.json"
            assert run(["construct", kind, str(n), "--out", str(path)], capsys)[0] == 0
            assert path.read_bytes() == expected.encode("utf-8")

    def test_example_kinds_and_coarse_grain(self, tmp_path, capsys):
        q_half, p_parity, p_half = example_partitions()
        for kind, second in (("example5", ("pprime", p_parity)), ("example6", ("pdprime", p_half))):
            assert run(["construct", kind, "4", "--out", str(tmp_path / f"{kind}.json")], capsys)[0] == 0
            for tag, obs in (("qprime", q_half), second):
                assert (tmp_path / f"{kind}.{tag}.json").read_text("utf-8") == _observable_text(obs)
        source = tmp_path / "p8.json"
        main(["construct", "momentum", "8", "--out", str(source)])
        spec = "0,2,4,6|1,3,5,7"
        merged = coarse_grain(momentum_observable(8),
                              parse_partition_spec(spec, momentum_observable(8).outcomes))
        code, out, _ = run(["coarse-grain", str(source), spec], capsys)
        assert code == 0 and out == _observable_text(merged)
        path = tmp_path / "cg.json"
        assert run(["coarse-grain", str(source), spec, "--out", str(path)], capsys)[0] == 0
        assert path.read_text("utf-8") == out

    def test_momentum_64_round_trip(self, tmp_path, capsys):
        path = tmp_path / "p64.json"
        assert run(["construct", "momentum", "64", "--out", str(path)], capsys)[0] == 0
        raw = json.loads(path.read_text("utf-8"))
        want = momentum_observable(64)
        assert declared_dim(raw) == 64
        assert np.array_equal(observable_from_json(raw).stack(), want.stack())
        # every field, and every number bit for bit with signed zeros (the
        # indented layout is pinned by test_construct_kinds and the writer test)
        assert list(raw) == ["dim", "outcomes", "effects"] and raw["outcomes"] == list(want.outcomes)
        bits = np.stack([want.stack().real, want.stack().imag], -1).view(np.uint64)
        assert np.array_equal(np.array(raw["effects"], dtype=float).view(np.uint64), bits)


WORKED_PAIRS = {
    "Q,P": lambda: (position_observable(4), momentum_observable(4)),
    "Q',P'": lambda: example_partitions()[:2],
    "Q',P''": lambda: example_partitions()[::2],
}


def _check_all(a, b, tmp_path, capsys, monkeypatch):
    """`mubkit check all q.json p.json` on the files of ``a`` and ``b``, run in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(_observable_text(a), encoding="utf-8")
    (tmp_path / "p.json").write_text(_observable_text(b), encoding="utf-8")
    return run(["check", "all", "q.json", "p.json"], capsys)


EXAMPLE6_CHECK_ALL = """{
  "tool": {
    "name": "mubkit",
    "version": "0.1.0"
  },
  "inputs": [
    "q.json",
    "p.json"
  ],
  "tolerance": 4e-09,
  "report": {
    "dim": 4,
    "m": 2,
    "n": 2,
    "verdicts": {
      "mu": null,
      "value_complementary": {
        "holds": false,
        "max_deviation": 0.3535533905932738,
        "witness": {
          "side": "A",
          "certain_outcome": "0",
          "other_outcome": "0",
          "state": [
            [
              -0.7071067811865474,
              0.0
            ],
            [
              0.4999999999999999,
              -0.5
            ],
            [
              0.0,
              0.0
            ],
            [
              0.0,
              0.0
            ]
          ],
          "observed": 0.1464466094067261,
          "target": 0.5
        },
        "vacuous": false
      },
      "condition1": {
        "holds": false,
        "max_deviation": 0.3535533905932738,
        "witness": {
          "x": "0",
          "y": "0",
          "side": "A∘B",
          "deviation": 0.3535533905932738
        },
        "vacuous": false
      },
      "condition2": {
        "holds": false,
        "max_deviation": 0.3535533905932738,
        "witness": {
          "outcome": "0",
          "side": "B|A",
          "deviation": 0.3535533905932738
        },
        "vacuous": false
      },
      "generalized_mu": {
        "holds": true,
        "max_deviation": 0.0,
        "witness": null,
        "vacuous": false
      }
    },
    "alpha": 1.0,
    "flags": []
  }
}
"""


class TestCheck:
    def test_all_holds_exit_zero(self, files, capsys):
        code, out, err = run(["check", "all", str(files / "q4.json"),
                              str(files / "p4.json")], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["tool"]["name"] == "mubkit"
        assert obj["inputs"] == [str(files / "q4.json"), str(files / "p4.json")]
        assert obj["tolerance"] == pytest.approx(4e-9)
        rep = obj["report"]
        assert rep["dim"] == 4 and rep["m"] == 4 and rep["n"] == 4
        assert rep["verdicts"]["mu"]["holds"] and rep["verdicts"]["condition1"]["holds"]
        assert rep["alpha"] == pytest.approx(0.25)
        assert "mu: holds" in err

    def test_failing_predicate_exit_one(self, files, capsys):
        code, out, err = run(["check", "condition1", str(files / "ex6.qprime.json"),
                              str(files / "ex6.pdprime.json")], capsys)
        assert code == 1
        obj = json.loads(out)
        verdict = obj["report"]["verdicts"]["condition1"]
        assert not verdict["holds"]
        assert verdict["witness"]["side"] in ("A∘B", "B∘A")
        assert "condition1: FAILS" in err

    def test_gmu_still_holds_for_failing_pair(self, files, capsys):
        code, out, _ = run(["check", "generalized-mu", str(files / "ex6.qprime.json"),
                            str(files / "ex6.pdprime.json")], capsys)
        assert code == 0
        assert json.loads(out)["report"]["alpha"] == 1.0

    def test_mu_on_non_atomic_is_usage_error(self, files, capsys):
        code, _, err = run(["check", "mu", str(files / "ex5.qprime.json"),
                            str(files / "ex5.pprime.json")], capsys)
        assert code == 2 and "error:" in err

    def test_dim_mismatch(self, files, capsys):
        code, _, err = run(["check", "all", str(files / "q2.json"),
                            str(files / "q4.json")], capsys)
        assert code == 2 and "error:" in err

    def test_unreadable_and_malformed_files(self, files, capsys):
        code, _, err = run(["check", "all", str(files / "nope.json"),
                            str(files / "q4.json")], capsys)
        assert code == 2 and "error:" in err
        bad = files / "bad.json"
        bad.write_text("[1, 2]")
        code, _, err = run(["check", "all", str(bad), str(files / "q4.json")], capsys)
        assert code == 2 and "not an observable file" in err

    @pytest.mark.parametrize("path, value", [
        (["outcomes"], 5),
        (["effects"], 7),
        (["effects", 0, 0, 0], [float("nan"), 0.0]),
        (["dim"], "abc"),
        (["dim"], None),
        (["dim"], [2]),
        (["dim"], -1),
        (["dim"], True),
        (["effects", 0, 0, 0], [10**400, 0]),
        (["effects", 0, 0, 0], [True, False]),
        (["outcomes", 0], ["0"]),
        (["outcomes", 0], 0),
    ], ids=["outcomes-not-list", "effects-not-list", "nan-entry",
            "dim-string", "dim-null", "dim-list", "dim-negative", "dim-bool", "int-overflow",
            "bool-entry", "list-label", "int-label"])
    def test_malformed_fields_are_input_errors(self, files, capsys, path, value):
        doc = json.loads((files / "q4.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = files / "bad.json"
        bad.write_text(json.dumps(doc))
        for argv in (["check", "all", str(files / "q4.json"), str(bad)],
                     ["check", "all", str(bad), str(bad)],
                     ["coarse-grain", str(bad), "0,1|2,3"]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            if path == ["dim"]:
                assert "positive integer" in lines[0]

    @pytest.mark.parametrize("kind", ["deep-nesting", "not-utf8", "huge-int-literal",
                                      "huge-dim", "dim-not-effect-size", "no-effects"])
    def test_unparseable_files_are_input_errors(self, files, capsys, kind):
        text = (files / "q4.json").read_text()
        payload = {
            "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
            "not-utf8": text.replace('"0"', '"\xe9"', 1).encode("latin-1"),
            "huge-int-literal": text.replace('"dim": 4', '"dim": 1' + "0" * 5000).encode(),
            "huge-dim": text.replace('"dim": 4', '"dim": 1' + "0" * 400).encode(),
            "dim-not-effect-size": text.replace('"dim": 4', '"dim": 3').encode(),
            "no-effects": json.dumps({"dim": 10**400, "outcomes": [], "effects": []}).encode(),
        }[kind]
        bad = files / "bad.json"
        bad.write_bytes(payload)
        for argv in (["check", "all", str(bad), str(bad)],
                     ["check", "all", str(files / "q4.json"), str(bad)],
                     ["coarse-grain", str(bad), "0,1|2,3"]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")

    def test_overflowing_effect_is_input_error(self, files, capsys):
        # finite entries, but (M + M*)/2 overflows (Hermitian case) or M - M*
        # overflows (skew case): no NaN spectrum may pass validation, and no
        # numpy overflow warning may precede the one error line
        for lower in (1e308, -1e308):
            effect = [[[0.5, 0.0], [1e308, 0.0]], [[lower, 0.0], [0.5, 0.0]]]
            partner = [[[0.5, 0.0], [-1e308, 0.0]], [[-lower, 0.0], [0.5, 0.0]]]
            bad = files / "overflow.json"
            bad.write_text(json.dumps({"dim": 2, "outcomes": ["0", "1"],
                                       "effects": [effect, partner]}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(["check", "all", str(bad), str(files / "q2.json")], capsys)
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")

    def test_report_round_trip_is_lossless(self, tmp_path, capsys, monkeypatch):
        # the report `check all` prints, on the differential kinds and the worked pairs
        pairs = [build_pair(kind, dim, 100 + dim) for kind in KINDS for dim in (2, 3, 5)]
        for a, b in pairs + [worked() for worked in WORKED_PAIRS.values()]:
            code, out, _ = _check_all(a, b, tmp_path, capsys, monkeypatch)
            report = classify_pair(a, b, linalg.default_tol(a.dim))
            assert code in (0, 1)
            assert report_from_json(json.loads(out)["report"]) == report
            assert report_from_json(report_to_json(report)) == report

    @pytest.mark.parametrize("dim", [16, 32])
    def test_rounded_momentum_file_checks_clean(self, tmp_path, capsys, dim):
        # rounding to 9 decimals leaves eigenvalues between EIGENVALUE_TOL and
        # the validation tolerance 1e-9*dim; the square root once kept them,
        # and `check all` exited 2 with an InternalInconsistency
        p = momentum_observable(dim)
        doc = {"dim": dim, "outcomes": list(p.outcomes),
               "effects": np.round(np.stack([p.stack().real, p.stack().imag], -1), 9).tolist()}
        (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "q.json").write_text(_observable_text(position_observable(dim)), encoding="utf-8")
        code, out, err = run(["check", "all", str(tmp_path / "p.json"), str(tmp_path / "q.json")], capsys)
        assert code == 0, err
        verdicts = json.loads(out)["report"]["verdicts"]
        assert all(v["holds"] for v in verdicts.values())

    def test_report_text_is_the_dataclass_fields_in_order(self, tmp_path, capsys, monkeypatch):
        # (Q', P''): a value-complementarity witness with a state, and no mu
        code, out, _ = _check_all(*WORKED_PAIRS["Q',P''"](), tmp_path, capsys, monkeypatch)
        assert code == 1 and out == EXAMPLE6_CHECK_ALL

    def test_marginal_pair_is_not_an_inconsistency(self, tmp_path, capsys, monkeypatch):
        # condition (1) holds and generalized unbiasedness misses by 17 times
        # as much at d = 17; with a flat 10 * tol slack this exited 2
        monkeypatch.chdir(tmp_path)
        for name, obs in zip(("q.json", "p.json"), helpers.perturbed_chirp_pair()):
            (tmp_path / name).write_text(_observable_text(obs), encoding="utf-8")
        code, out, err = run(["check", "all", "q.json", "p.json", "--tol", "6e-8"], capsys)
        assert code == 1 and err.splitlines()[-1] == "flags: marginal"
        verdicts = json.loads(out)["report"]["verdicts"]
        assert [v["holds"] for v in verdicts.values()] == [False, True, True, False, False]

    def test_eigenvalue_error_prints_a_plain_float(self, tmp_path, capsys, monkeypatch):
        # momentum 8 rounded to 9 decimals has an eigenvalue -2e-9, outside [0, 1] at tol 1e-9
        p = momentum_observable(8)
        doc = {"dim": 8, "outcomes": list(p.outcomes),
               "effects": np.round(np.stack([p.stack().real, p.stack().imag], -1), 9).tolist()}
        (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "q.json").write_text(_observable_text(position_observable(8)), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["check", "all", "q.json", "p.json", "--tol", "1e-9"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: p.json: outcome '1': eigenvalue -1.9894112800229873e-09"
                       " outside [0, 1] by more than 1.000e-09\n")

    @pytest.mark.parametrize("dim", [True, 1.0, 0, "1"])
    def test_reader_takes_only_a_positive_int_dim(self, dim):
        doc = {"dim": dim, "outcomes": ["0"], "effects": [[[[1.0, 0.0]]]]}
        with pytest.raises(ParseError, match="positive integer"):
            observable_from_json(doc)
        assert observable_from_json({**doc, "dim": 1}).dim == 1


_JUNK = [None, True, False, 0, -1, 3, 10**400, -10**400, 1.5, float("nan"), float("inf"),
         -float("inf"), "x", "", [], [[]], {}, {"dim": 2}]


def _drop_field(doc, data):
    doc.pop(data.draw(st.sampled_from(["dim", "outcomes", "effects"])), None)


def _retype_field(doc, data):
    doc[data.draw(st.sampled_from(["dim", "outcomes", "effects"]))] = data.draw(st.sampled_from(_JUNK))


def _wrong_dim(doc, data):
    doc["dim"] = data.draw(st.one_of(st.integers(-2, 5), st.sampled_from([10**400, True, 2.0, "2"])))


def _bad_labels(doc, data):
    doc["outcomes"] = data.draw(st.sampled_from([["0", "0"], ["0"], ["0", "1", "2"], [0, 1],
                                                 ["0", None], ["0", ["1"]], ["1", "0"], ["é", "x"]]))


def _matrix(doc, data):
    """One effect matrix of the document, if it still has one."""
    effects = doc.get("effects")
    if isinstance(effects, list) and effects:
        matrix = effects[data.draw(st.integers(0, len(effects) - 1))]
        if isinstance(matrix, list) and matrix and all(isinstance(row, list) and row for row in matrix):
            return matrix
    return None


def _entry(doc, data):
    """(row, column) of one [re, im] entry of the document, if it still has one."""
    matrix = _matrix(doc, data)
    if matrix is None:
        return None
    row = matrix[data.draw(st.integers(0, len(matrix) - 1))]
    return row, data.draw(st.integers(0, len(row) - 1))


def _ragged_row(doc, data):
    matrix = _matrix(doc, data)
    if matrix is not None:
        row = matrix[data.draw(st.integers(0, len(matrix) - 1))]
        if data.draw(st.booleans()):
            row.pop()
        else:
            row.append([0.0, 0.0])


def _bad_entry(doc, data):
    """A non-number, NaN, infinity, huge int or bool where a number or a pair belongs."""
    entry = _entry(doc, data)
    if entry is not None:
        row, col = entry
        junk = data.draw(st.sampled_from(_JUNK))
        if data.draw(st.booleans()) and isinstance(row[col], list) and row[col]:
            row[col][data.draw(st.integers(0, len(row[col]) - 1))] = junk
        else:
            row[col] = junk


def _pair_length(doc, data):
    entry = _entry(doc, data)
    if entry is not None:
        row, col = entry
        row[col] = data.draw(st.sampled_from([[], [0.5], [0.5, 0.0, 0.0], {}]))


def _any_number(doc, data):
    """Any float, or an entry that breaks Hermiticity, at one place."""
    entry = _entry(doc, data)
    if entry is not None:
        row, col = entry
        row[col] = [data.draw(st.floats()), data.draw(st.floats(-1, 1))]


def _scaled_effect(doc, data):
    """A spectrum outside [0, 1] (the identity sum breaks with it)."""
    matrix = _matrix(doc, data)
    factor = data.draw(st.sampled_from([2.0, -1.0, 1 + 1e-6, 0.5]))
    for row in matrix or []:
        for z in row:
            if isinstance(z, list) and all(isinstance(v, float) for v in z):
                z[:] = [factor * v for v in z]


def _mixed_dims(doc, data):
    effects = doc.get("effects")
    if isinstance(effects, list) and effects:
        size = data.draw(st.sampled_from([1, 3]))
        effects[data.draw(st.integers(0, len(effects) - 1))] = (
            [[[1.0 / size if i == j else 0.0, 0.0] for j in range(size)] for i in range(size)])


def _not_an_object(doc, data):
    doc.clear()
    doc["effects"] = data.draw(st.sampled_from(_JUNK))


_MUTATIONS = [_drop_field, _retype_field, _wrong_dim, _bad_labels, _ragged_row, _bad_entry,
              _pair_length, _any_number, _scaled_effect, _mixed_dims, _not_an_object]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "good.json").write_text(_observable_text(momentum_observable(2)), encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_files_keep_the_exit_code_contract(fuzz_dir, data):
    # 0 or 1 with a JSON document on stdout; or 2 with one error line and no
    # stdout; never an exception or a warning
    doc = json.loads(_observable_text(momentum_observable(2)))
    for mutate in data.draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        mutate(doc, data)
    good, bad = str(fuzz_dir / "good.json"), str(fuzz_dir / "bad.json")
    (fuzz_dir / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["check", "all", good, bad], ["check", "all", bad, bad],
                 ["coarse-grain", bad, "0|1"]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error:")
        else:
            assert code in (0, 1)
            json.loads(out.getvalue())


#: A command's exits: its argv over the ``files`` fixture, and the exit code it
#: returns or the exception it raises.
EXITS = {
    "exit-0": (["check", "all", "q4.json", "p4.json"], 0),
    "exit-1": (["check", "condition1", "ex6.qprime.json", "ex6.pdprime.json"], 1),
    "exit-2": (["check", "all", "q4.json", "missing.json"], 2),
    "argparse": (["check", "no-such-predicate", "q4.json", "p4.json"], SystemExit),
    "exception": (["check", "all", "q4.json", "p4.json"], RuntimeError),
}


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collecting(request):
    """The cyclic collector on or off during the test; the suite's state after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollector:
    """A command runs with the cyclic collector off and gives the caller its state back."""

    def test_off_while_reading_and_writing(self, files, capsys, monkeypatch, collecting):
        seen = []

        def probe(fn):
            def recording(*args):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args)
            return recording

        monkeypatch.setattr(cli, "load_json", probe(cli.load_json))
        monkeypatch.setattr(cli, "dump_json", probe(cli.dump_json))
        assert run(["check", "all", str(files / "q4.json"), str(files / "p4.json")],
                   capsys)[0] == 0
        assert run(["coarse-grain", str(files / "p4.json"), "0,2|1,3"], capsys)[0] == 0
        assert seen == [("load_json", False), ("load_json", False), ("dump_json", False),
                        ("load_json", False), ("dump_json", False)]

    @pytest.mark.parametrize("exit_kind", list(EXITS))
    def test_caller_state_is_restored(self, files, monkeypatch, exit_kind, collecting):
        argv, outcome = EXITS[exit_kind]
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        if outcome is RuntimeError:
            def failing_step(path):
                raise RuntimeError("a failing step")
            monkeypatch.setattr(cli, "load_json", failing_step)
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is collecting


class TestToleranceResolution:
    def test_env_variable_applies(self, files, capsys, monkeypatch):
        args = ["check", "condition1", str(files / "ex6.qprime.json"),
                str(files / "ex6.pdprime.json")]
        monkeypatch.setenv("MUBKIT_TOL", "0.5")
        code, _, _ = run(args, capsys)
        assert code == 0  # deviation 0.354 now counts as holding

    def test_flag_beats_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("MUBKIT_TOL", "0.5")
        code, _, _ = run(["check", "condition1", str(files / "ex6.qprime.json"),
                          str(files / "ex6.pdprime.json"), "--tol", "1e-9"], capsys)
        assert code == 1

    def test_bad_env_value(self, files, capsys, monkeypatch):
        monkeypatch.setenv("MUBKIT_TOL", "lots")
        code, _, err = run(["check", "all", str(files / "q4.json"),
                            str(files / "p4.json")], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("env, flag", [
        ("nan", None), ("inf", None), ("-1e-9", None), ("0", None),
        (None, "nan"), (None, "-1"), (None, "0"), ("0.5", "inf"),
    ])
    def test_non_finite_or_non_positive_tol_is_input_error(self, files, capsys,
                                                           monkeypatch, env, flag):
        if env is not None:
            monkeypatch.setenv("MUBKIT_TOL", env)
        extra = [] if flag is None else ["--tol", flag]
        for argv in (["check", "all", str(files / "q4.json"), str(files / "p4.json")],
                     ["coarse-grain", str(files / "q4.json"), "0,1|2,3"]):
            code, out, err = run(argv + extra, capsys)
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and "finite positive" in lines[0]

    def test_default_is_one_dimension_scaled_tol(self, tmp_path, capsys, monkeypatch):
        """With no --tol and no MUBKIT_TOL, the CLI passes 1e-9 * d as the one tol, so its
        eigenvalue tolerance is 1e-9 * d too, not EIGENVALUE_TOL: at d = 16, an eigenvalue
        5e-9 below 1 marks a certainty subspace for the CLI but not for classify_pair(a, a)."""
        monkeypatch.delenv("MUBKIT_TOL", raising=False)
        a0 = np.diag([1.0 - 5e-9] + [0.5] * 15).astype(complex)
        a = Observable(["0", "1"], [a0, np.eye(16) - a0])
        library = classify_pair(a, a)
        assert library.value_complementary.vacuous and library.flags == ("vacuous",)
        (tmp_path / "a.json").write_text(_observable_text(a), encoding="utf-8")
        code, out, _ = run(["check", "value-complementary", str(tmp_path / "a.json"),
                            str(tmp_path / "a.json")], capsys)
        doc = json.loads(out)
        assert code == 1 and doc["tolerance"] == 1.6e-08 == linalg.default_tol(16)
        assert doc["report"]["verdicts"]["value_complementary"]["vacuous"] is False
        # the CLI validates and classifies at that one tol
        same = Observable(a.outcomes, a.stack(), linalg.default_tol(16))
        assert report_from_json(doc["report"]) == classify_pair(same, same, linalg.default_tol(16))


class TestCoarseGrain:
    def test_merge_to_stdout(self, files, capsys):
        code, out, _ = run(["coarse-grain", str(files / "q4.json"), "0,1|2,3"], capsys)
        assert code == 0
        obs = observable_from_json(json.loads(out))
        q_half, _, _ = example_partitions()
        assert obs.outcomes == ("0", "1")
        for got, want in zip(obs.effects, q_half.effects):
            assert np.allclose(got.matrix, want.matrix, atol=1e-15)

    def test_identity_and_total_merge(self, files, capsys):
        code, out, _ = run(["coarse-grain", str(files / "q4.json"), "0|1|2|3"], capsys)
        assert code == 0 and len(json.loads(out)["effects"]) == 4
        code, out, _ = run(["coarse-grain", str(files / "q4.json"), "0,1,2,3"], capsys)
        assert code == 0
        merged = observable_from_json(json.loads(out))
        assert np.allclose(merged.effects[0].matrix, np.eye(4), atol=1e-15)

    def test_spaces_tolerated(self, files, capsys):
        code, out, _ = run(["coarse-grain", str(files / "q4.json"), "0, 1 | 2 ,3"], capsys)
        assert code == 0 and len(json.loads(out)["effects"]) == 2

    def test_file_output(self, files, capsys):
        out_path = files / "merged.json"
        code, _, err = run(["coarse-grain", str(files / "q4.json"), "0,1|2,3",
                            "--out", str(out_path)], capsys)
        assert code == 0 and out_path.exists() and "wrote" in err

    @pytest.mark.parametrize("spec", ["0,1|2", "0,1|1,2,3", "0,1|2,3,9", "0,,1|2,3"])
    def test_bad_specs_are_usage_errors(self, files, capsys, spec):
        code, _, err = run(["coarse-grain", str(files / "q4.json"), spec], capsys)
        assert code == 2 and "error:" in err

    def test_parse_partition_spec_messages(self):
        outcomes = ("0", "1", "2")
        with pytest.raises(BadPartition, match="not covered"):
            parse_partition_spec("0|1", outcomes)
        with pytest.raises(BadPartition, match="more than one fiber"):
            parse_partition_spec("0,1|1,2", outcomes)
        with pytest.raises(BadPartition, match="unknown"):
            parse_partition_spec("0,1|2,7", outcomes)


PAPER_SUITE_NAMES = [
    "fourier-matrix-dim2", "fourier-matrix-dim4",
    "position-momentum-dim2", "position-momentum-dim4",
    "trace-pairing-dim2", "atomic-pair-products", "occurrence-probability",
    "conditioned-uniform", "coarse-grainings-dim4", "halved-pair-products",
    "mismatched-pair-product", "sharp-but-not-atomic", "conditioning-breaks-sharpness",
    "mutual-unbiasedness", "condition1-verdicts", "condition2-verdicts",
    "value-complementarity-verdicts", "injected-witness-probability",
    "generalized-unbiasedness", "classification-reports", "partition-size-criterion",
    "trivial-observables", "complement-pairing",
]


class TestPaperSuite:
    def test_runs_green(self, capsys):
        code, out, err = run(["paper-suite"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert [f["name"] for f in obj["fixtures"]] == PAPER_SUITE_NAMES
        assert all(f["passed"] for f in obj["fixtures"])
        assert "23/23 fixtures passed" in err

    def test_raising_row_is_reported(self, capsys, monkeypatch):
        from mubkit import paper_suite

        def broken(seed):
            raise KeyError("no such effect")

        monkeypatch.setattr(paper_suite, "FIXTURES",
                            paper_suite.FIXTURES[:1] + (("broken-row", broken),))
        code, out, err = run(["paper-suite"], capsys)
        assert code == 1
        obj = json.loads(out)
        assert obj["passed"] is False
        assert obj["fixtures"][0]["passed"] is True
        assert obj["fixtures"][1] == {"name": "broken-row", "passed": False,
                                      "detail": "KeyError: 'no such effect'"}
        assert "broken-row" in err and "FAIL" in err and "1/2 fixtures passed" in err

    def test_checks_run_under_optimize(self, tmp_path):
        # python -O strips assert statements; a corrupted fixture must still fail
        script = textwrap.dedent("""
            import sys
            from mubkit import paper_suite
            if sys.flags.optimize != 1:
                sys.exit("expected python -O")
            paper_suite.F4 = paper_suite.F4 * 1.5
            for r in paper_suite.run_paper_suite():
                print(r.name, r.passed, r.detail)
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, cwd=tmp_path, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr
        rows = {line.split(" ", 1)[0]: line for line in proc.stdout.splitlines()}
        assert len(rows) == len(PAPER_SUITE_NAMES)
        assert rows["fourier-matrix-dim4"].startswith(
            "fourier-matrix-dim4 False AssertionError: deviation 2.500e-01 exceeds 1.000e-12")
        assert sum(" True " in line for line in rows.values()) == len(PAPER_SUITE_NAMES) - 1

    def test_negative_seed_is_input_error(self, capsys):
        code, out, err = run(["paper-suite", "--seed", "-1"], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "--seed" in lines[0]


def _subprocess_env():
    # cwd moves away from the repo, so a relative PYTHONPATH would not resolve
    root = os.path.dirname(os.path.dirname(os.path.abspath(mubkit.__file__)))
    path = [root, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_cli_import_leaves_the_fixture_table_unbuilt(tmp_path):
    # a check/construct/coarse-grain process must not load paper_suite, and
    # loading it must not build an observable before the suite runs
    script = textwrap.dedent("""
        import sys
        import mubkit.cli
        assert "mubkit.paper_suite" not in sys.modules
        from mubkit.observables import Observable
        built = []
        init = Observable.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        Observable.__init__ = counting_init
        import mubkit.paper_suite
        assert built == [], built
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_the_oracle_unloaded(tmp_path):
    # no command but paper-suite calls the reference implementations, so neither
    # they nor numpy.random load with the CLI; the package's names still resolve
    script = textwrap.dedent("""
        import sys
        import mubkit.cli
        loaded = {"mubkit.oracle", "numpy.random"} & sys.modules.keys()
        assert not loaded, loaded
        import mubkit
        missing = set(mubkit.__all__) - set(dir(mubkit))
        assert not missing, missing
        for name in mubkit.__all__:
            getattr(mubkit, name)
        from mubkit import random_unitary
        import mubkit.oracle
        assert random_unitary is mubkit.random_unitary is mubkit.oracle.random_unitary
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "mubkit", "construct", "fourier", "2"],
                          capture_output=True, text=True, cwd=tmp_path, env=_subprocess_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
