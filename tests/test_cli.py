import argparse
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from oplebesgue import cli, lebesgue, psd_from_json, truncate_to_matrix
from oplebesgue.cli import main
from oplebesgue.psd_core import RANK_CUTOFF
from conftest import graded_panel, make_rng, random_unitary, screens_inconclusive, structured_pair

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, err = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                                DATA / "t_diag10.json", out], capsys)
        assert code == 0 and err == ""
        report = json.loads(out.read_text())
        report.pop("timing")
        assert report == json.loads((GOLDEN / "decompose_ones.json").read_text())

    def test_deterministic_across_runs(self, tmp_path, capsys):
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                                  DATA / "t_diag10.json", out], capsys)
            assert code == 0
            blob = json.loads(out.read_text())
            blob.pop("timing")
            payloads.append(json.dumps(blob, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_report_round_trips_through_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_cli(["--quiet", "decompose", DATA / "s_ones.json", DATA / "t_diag10.json", out],
                capsys)
        body = json.loads(out.read_text())["decomposition"]
        # the emitted parts parse back as valid PSD matrices that re-serialize
        # to identical payloads
        for key in ("ac", "sing"):
            part = psd_from_json(body[key])
            assert part.dim == 2
        total = psd_from_json(body["ac"]).array + psd_from_json(body["sing"]).array
        np.testing.assert_allclose(total.real, np.ones((2, 2)), atol=1e-12)

    def test_sequence_pair(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["--quiet", "decompose", DATA / "s_seq.json",
                              DATA / "t_seq.json", out], capsys)
        assert code == 0
        body = json.loads(out.read_text())["decomposition"]
        assert body["ac"]["prefix"] == [1.0, 0.0]
        assert body["sing"]["prefix"] == [0.0, 1.0]
        assert body["unique"] is True and body["iterations"] == []

    def test_decomposes_once(self, tmp_path, capsys, monkeypatch):
        from oplebesgue import cli, lebesgue

        calls = []
        original = lebesgue.decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lebesgue, "decompose", counted)
        monkeypatch.setattr(cli, "decompose", counted)
        code, _, _ = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                              DATA / "t_diag10.json", tmp_path / "r.json"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_non_hermitian_input_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "decompose", DATA / "bad_nonherm.json",
                                DATA / "t_diag10.json", tmp_path / "r.json"], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Hermitian" in err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                                DATA / "t_eye3.json", tmp_path / "r.json"], capsys)
        assert code == 2 and err.startswith("error:")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "decompose", DATA / "not_json.json",
                                DATA / "t_diag10.json", tmp_path / "r.json"], capsys)
        assert code == 2 and err.startswith("error:") and "JSON" in err

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                                DATA / "t_seq.json", tmp_path / "r.json"], capsys)
        assert code == 2 and "kinds" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "decompose", tmp_path / "absent.json",
                                DATA / "t_diag10.json", tmp_path / "r.json"], capsys)
        assert code == 2 and err.startswith("error:")

    def test_oracle_disagreement_exits_3(self, tmp_path, capsys, monkeypatch):
        # a stopping threshold of 1e-3 leaves the iterative route 1e-3 short of
        # the closed form, far outside the 1e-8 agreement the two must reach
        monkeypatch.setattr(lebesgue, "CONV_TOL", 1e-3)
        code, _, err = run_cli(["--quiet", "decompose",
                                DATA / "t_eye3.json", DATA / "t_eye3.json",
                                tmp_path / "r.json"], capsys)
        assert code == 3
        assert err.startswith("error:") and "independent computations" in err

    @pytest.mark.parametrize("floor", [1.01e-10, 2e-10, 4e-10])
    def test_reference_near_the_rank_cutoff_exits_0(self, tmp_path, capsys, floor):
        # about 60 scale doublings, all within the bound the pair derives
        s_path, t_path, out = tmp_path / "s.json", tmp_path / "t.json", tmp_path / "r.json"
        s_path.write_text(json.dumps({"dim": 2, "real": [[1.0, 0.0], [0.0, 1.0]]}))
        t_path.write_text(json.dumps({"dim": 2, "real": [[1.0, 0.0], [0.0, floor]]}))
        code, _, err = run_cli(["--quiet", "decompose", s_path, t_path, out], capsys)
        assert code == 0 and err == ""
        body = json.loads(out.read_text())["decomposition"]
        assert body["ac"]["real"] == [[1.0, 0.0], [0.0, 1.0]]
        assert body["c"] == pytest.approx(1.0 / floor, rel=1e-12)

    def test_graded_full_rank_reference_exits_0(self, tmp_path, capsys):
        # T's eigenvalues run down to 3e-10 lambda_max(T): the iterative and
        # closed routes must agree on a regular part equal to S
        s, t = graded_panel(3e-10)[0]
        s_path, t_path, out = tmp_path / "s.json", tmp_path / "t.json", tmp_path / "r.json"
        _write_matrix(s_path, s.array)
        _write_matrix(t_path, t.array)
        code, _, err = run_cli(["--quiet", "decompose", s_path, t_path, out], capsys)
        assert code == 0 and err == ""
        assert not any(map(any, json.loads(out.read_text())["decomposition"]["sing"]["real"]))


class TestCheckUnique:
    def test_matrix_pair(self, capsys):
        code, out, _ = run_cli(["check-unique", DATA / "s_ones.json",
                                DATA / "t_diag10.json"], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["unique"] is True and verdict["c"] == pytest.approx(0.0, abs=1e-12)

    def test_self_pair_constant_one(self, capsys):
        code, out, _ = run_cli(["check-unique", DATA / "t_diag10.json",
                                DATA / "t_diag10.json"], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["unique"] is True and verdict["c"] == pytest.approx(1.0)

    def test_accepts_functional_json(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({
            "kind": "matrix",
            "rep": {"dim": 2, "real": [[1.0, 0.0], [0.0, 1.0]]},
            "label": "g",
        }))
        code, out, _ = run_cli(["check-unique", g, g], capsys)
        assert code == 0
        assert json.loads(out)["unique"] is True

    def test_tails_one_float64_apart_exit_0(self, tmp_path, capsys):
        # the reported witnesses of the unbounded ratio are found in closed form
        s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
        for path, r in ((s_path, math.nextafter(1e-300, 1.0)), (t_path, 1e-300)):
            path.write_text(json.dumps({"prefix": [], "tail": {"type": "geometric", "a": 1.0, "r": r}}))
        code, out, err = run_cli(["check-unique", s_path, t_path], capsys)
        assert code == 0 and err == ""
        assert json.loads(out) == {"c": None, "unique": False}

    def test_non_unique_sequence_pair_still_exits_0(self, tmp_path, capsys):
        built = tmp_path / "pair.json"
        code, _, _ = run_cli(["--quiet", "counterexample", DATA / "lam_half.json", built],
                             capsys)
        assert code == 0
        pair = json.loads(built.read_text())
        s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
        s_path.write_text(json.dumps(pair["s"]))
        t_path.write_text(json.dumps(pair["t"]))
        code, out, _ = run_cli(["check-unique", s_path, t_path], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict == {"c": None, "unique": False}


class TestCounterexample:
    def test_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        code, _, _ = run_cli(["--quiet", "counterexample", DATA / "lam_half.json", out], capsys)
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "counterexample_half.json").read_bytes()

    @pytest.mark.parametrize("horizon", ["12", "1000001"])
    def test_horizon_is_accepted_and_ignored(self, tmp_path, capsys, horizon):
        out = tmp_path / "ce.json"
        code, _, err = run_cli(["--quiet", "counterexample", DATA / "lam_half.json", out,
                                "--horizon", horizon], capsys)
        assert code == 0 and err == ""
        assert out.read_bytes() == (GOLDEN / "counterexample_half.json").read_bytes()

    def test_companion_is_a_slower_geometric_tail(self, tmp_path, capsys):
        # over 2^-n the companion is (3/4)^n, so the ratio is (3/2)^n and each
        # witness is the first n with (3/2)^n >= bound
        out = tmp_path / "ce.json"
        run_cli(["--quiet", "counterexample", DATA / "lam_half.json", out], capsys)
        body = json.loads(out.read_text())
        assert body["s"] == {"prefix": [], "tail": {"type": "geometric", "a": 1.0, "r": 0.75}}
        assert body["unique"] is False
        witnesses = body["certificate"]["witnesses"]
        assert [w["bound"] for w in witnesses] == [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
        for witness in witnesses:
            n = witness["index"]
            assert witness["ratio"] == pytest.approx(1.5 ** n, rel=1e-13)
            assert 1.5 ** n >= witness["bound"]
            assert n == 1 or 1.5 ** (n - 1) < witness["bound"]

    @pytest.mark.parametrize("a", [1e50, 5e-324], ids=["scale_1e50", "subnormal_scale"])
    def test_extreme_tail_scale_exits_0(self, tmp_path, capsys, a):
        lam_path, out = tmp_path / "lam.json", tmp_path / "ce.json"
        r = 0.9 if a > 1 else 0.5
        lam_path.write_text(json.dumps({"prefix": [1.0], "tail": {"type": "geometric", "a": a, "r": r}}))
        code, _, err = run_cli(["--quiet", "counterexample", lam_path, out], capsys)
        assert code == 0 and err == ""
        body = json.loads(out.read_text())
        assert body["s"]["prefix"] == [1.0] and body["s"]["tail"]["r"] == (1.0 + r) / 2.0
        assert all(w["ratio"] >= w["bound"] for w in body["certificate"]["witnesses"])

    def test_ratio_past_float64_is_written_as_null(self, tmp_path, capsys):
        # at r = 5e-324 the log ratio at the first tail index is about 743.7:
        # every witness sits there, and its ratio, past float64, is null
        lam_path, out = tmp_path / "lam.json", tmp_path / "ce.json"
        lam_path.write_text(json.dumps({"prefix": [1.0], "tail": {"type": "geometric", "a": 1.0, "r": 5e-324}}))
        code, _, err = run_cli(["--quiet", "counterexample", lam_path, out], capsys)
        assert code == 0 and err == ""

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        witnesses = json.loads(out.read_text(), parse_constant=reject)["certificate"]["witnesses"]
        assert [(w["index"], w["ratio"]) for w in witnesses] == [(2, None)] * 7

    def test_ratio_one_float_below_1_exits_3(self, tmp_path, capsys):
        # (1 + r)/2 rounds to 1.0: no slower tail exists in float64, a
        # numerical limit of the construction, not invalid input
        lam_path, out = tmp_path / "lam.json", tmp_path / "ce.json"
        r = 1.0 - 2.0 ** -53
        lam_path.write_text(json.dumps({"prefix": [1.0], "tail": {"type": "geometric", "a": 1.0, "r": r}}))
        code, _, err = run_cli(["--quiet", "counterexample", lam_path, out], capsys)
        assert code == 3 and err.startswith("error:") and err.count("\n") == 1
        assert repr(r) in err and "1.0," not in err
        assert not out.exists()

    def test_finite_support_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "counterexample", DATA / "lam_finite.json",
                                tmp_path / "ce.json"], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unique" in err

    def test_non_summable_tail_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["--quiet", "counterexample", DATA / "lam_bad_tail.json",
                                tmp_path / "ce.json"], capsys)
        assert code == 2 and "summab" in err


class TestSequenceRequestsSplitOnce:
    """Each sequence request splits its pair once, aligns it with at most one
    materialization past a prefix, and validates only the sequences it reads."""

    @pytest.fixture
    def pair(self, tmp_path, capsys):
        lam = {"prefix": [0.5, 0.0, 0.25, 0.0, 0.125],
               "tail": {"type": "geometric", "a": 0.1, "r": 0.9}}
        lam_path, built = tmp_path / "lam.json", tmp_path / "ce.json"
        lam_path.write_text(json.dumps(lam))
        assert run_cli(["--quiet", "counterexample", lam_path, built], capsys)[0] == 0
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps(json.loads(built.read_text())["s"]))
        return mu_path, lam_path

    @pytest.mark.parametrize("command", ["decompose", "check-unique", "counterexample"])
    def test_one_split(self, tmp_path, capsys, monkeypatch, pair, command):
        from oplebesgue import cli, diagonal, functionals
        from oplebesgue.diagonal import L1Sequence

        counts = {"split": 0, "materialized": 0, "validated": 0}
        split = diagonal._diag_split
        materialized, validate = L1Sequence.materialized, L1Sequence.__post_init__

        def counted_split(*args):
            counts["split"] += 1
            return split(*args)

        def counted_materialized(self, upto):
            counts["materialized"] += upto > self.prefix_len
            return materialized(self, upto)

        def counted_validate(self):
            counts["validated"] += 1
            validate(self)

        for module in (diagonal, cli, functionals):
            monkeypatch.setattr(module, "_diag_split", counted_split)
        monkeypatch.setattr(L1Sequence, "materialized", counted_materialized)
        monkeypatch.setattr(L1Sequence, "__post_init__", counted_validate)
        mu_path, lam_path = pair
        argv = {
            "decompose": ["decompose", mu_path, lam_path, tmp_path / "r.json"],
            "check-unique": ["check-unique", mu_path, lam_path],
            "counterexample": ["counterexample", lam_path, tmp_path / "c.json"],
        }[command]
        assert run_cli(["--quiet", *argv], capsys)[0] == 0
        assert counts["split"] == 1 and counts["materialized"] <= 1
        assert counts["validated"] == (1 if command == "counterexample" else 2)


class TestConvergeReport:
    def test_singular_pair_single_row_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(["--quiet", "converge-report", DATA / "s_ones.json",
                              DATA / "t_diag10.json", out], capsys)
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "converge_singular.csv").read_bytes()
        lines = out.read_text().splitlines()
        assert lines[0] == "k,n,gap_trace,c_bound"
        assert len(lines) == 2  # singular pair: approximants identically zero

    def test_sequence_truncation_has_increasing_c_bound(self, tmp_path, capsys):
        built = tmp_path / "pair.json"
        run_cli(["--quiet", "counterexample", DATA / "lam_half.json", built], capsys)
        pair = json.loads(built.read_text())
        s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
        s_path.write_text(json.dumps(pair["s"]))
        t_path.write_text(json.dumps(pair["t"]))
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(["--quiet", "--truncate", "32", "converge-report",
                              s_path, t_path, out], capsys)
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        bounds = [float(row.split(",")[3]) for row in rows]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        # the last approximant's constant nears the ratio (3/2)^32 at index 32
        assert bounds[-1] == pytest.approx(1.5 ** 32, rel=1e-4)

    def test_deterministic_bytes(self, tmp_path, capsys):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(["--quiet", "converge-report",
                                  DATA / "s_ones.json", DATA / "t_diag10.json", out], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


HUGE = "1" + "0" * 400  # an integer JSON reads exactly and no float can hold
MATRIX_1 = '{"dim": 1, "real": [[1.0]]}'
SEQUENCE_1 = '{"prefix": [1.0], "tail": null}'


def assert_invalid(code, err, *needles):
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err, err


class TestOutOfRangeNumbers:
    """Numbers JSON can carry but float64 cannot are invalid input, exit 2."""

    @pytest.mark.parametrize("s_text, t_text", [
        ('{"dim": 1, "real": [[%s]]}' % HUGE, MATRIX_1),
        ('{"dim": 1, "real": [[1.0]], "imag": [[%s]]}' % HUGE, MATRIX_1),
        ('{"prefix": [1.0, %s], "tail": null}' % HUGE, SEQUENCE_1),
        ('{"prefix": [], "tail": {"type": "geometric", "a": %s, "r": 0.5}}' % HUGE, SEQUENCE_1),
        ('{"prefix": [], "tail": {"type": "geometric", "a": 1.0, "r": %s}}' % HUGE, SEQUENCE_1),
        # past the 4300-digit limit of Python's int parsing
        ('{"prefix": [%s], "tail": null}' % ("1" * 5000), SEQUENCE_1),
    ], ids=["real", "imag", "prefix", "tail_a", "tail_r", "past_the_digit_limit"])
    def test_integer_that_does_not_fit_a_float_exits_2(self, tmp_path, capsys, s_text, t_text):
        s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
        s_path.write_text(s_text)
        t_path.write_text(t_text)
        code, _, err = run_cli(["--quiet", "decompose", s_path, t_path, tmp_path / "r.json"],
                               capsys)
        assert_invalid(code, err, f"cannot read {s_path} as JSON", "does not fit a float")

    def test_infinite_imaginary_part_exits_2(self, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        s_path.write_text('{"dim": 1, "real": [[1.0]], "imag": [[1e400]]}')
        code, _, err = run_cli(["--quiet", "decompose", s_path, DATA / "t_diag10.json",
                                tmp_path / "r.json"], capsys)
        assert_invalid(code, err, "finite")

    def test_trace_norm_that_overflows_exits_2(self, tmp_path, capsys):
        # every entry fits a float64, but lambda_max = 3e308 does not
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps({"dim": 2, "real": [[1.5e308, 1.5e308], [1.5e308, 1.5e308]]}))
        code, _, err = run_cli(["--quiet", "decompose", s_path, DATA / "t_diag10.json",
                                tmp_path / "r.json"], capsys)
        assert_invalid(code, err, "trace norm must fit a float64")

    def test_prefix_whose_sum_overflows_exits_2(self, tmp_path, capsys):
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps({"prefix": [1e308, 1e308], "tail": None}))
        code, _, err = run_cli(["--quiet", "decompose", s_path, DATA / "t_seq.json",
                                tmp_path / "r.json"], capsys)
        assert_invalid(code, err, "float64 range")


class TestSequenceConstantPastFloat64:
    """A bounded sequence ratio past float64 is an answer the format cannot
    carry: exit 3 with one error line naming the domination stage, as for
    matrices, never a null c with unique true or a traceback."""

    @pytest.mark.parametrize("s_obj, t_obj", [
        ({"prefix": [1e300]}, {"prefix": [1e-300]}),
        ({"prefix": [], "tail": {"type": "geometric", "a": 1e300, "r": 0.5}},
         {"prefix": [], "tail": {"type": "geometric", "a": 1e-300, "r": 0.5}}),
    ], ids=["prefix", "tails"])
    @pytest.mark.parametrize("command", ["decompose", "check-unique"])
    def test_exits_3(self, tmp_path, capsys, s_obj, t_obj, command):
        s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
        s_path.write_text(json.dumps(s_obj))
        t_path.write_text(json.dumps(t_obj))
        extra = [tmp_path / "r.json"] if command == "decompose" else []
        code, out, err = run_cli(["--quiet", command, s_path, t_path, *extra], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "exceeds float64" in err and "10^600.0" in err
        assert not (tmp_path / "r.json").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["decompose", DATA / "s_ones.json", DATA / "t_diag10.json"],
        ["counterexample", DATA / "lam_half.json"],
        ["converge-report", DATA / "s_ones.json", DATA / "t_diag10.json"],
    ], ids=lambda command: command[0])
    def test_output_in_a_missing_directory_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out"
        code, _, err = run_cli(["--quiet", *command, out], capsys)
        assert_invalid(code, err, f"cannot write {out}")
        assert list(tmp_path.iterdir()) == []


class TestOptionMaxima:
    """``--truncate`` past its supported maximum, 2048, is invalid input,
    rejected before the builder it sizes is called; at the maximum the
    builder is called with it.  The spy builds small, so no test allocates
    what the maximum asks for."""

    def test_truncate(self, tmp_path, capsys, monkeypatch):
        sizes = []

        def spy(x, n):
            sizes.append(n)
            if n > 2048:
                raise AssertionError(f"a {n} x {n} operand was built")
            return truncate_to_matrix(x, 4)

        monkeypatch.setattr(cli, "truncate_to_matrix", spy)
        argv = ["converge-report", DATA / "s_seq.json", DATA / "t_seq.json", tmp_path / "trace.csv"]
        code, _, err = run_cli(["--quiet", "--truncate", 2049, *argv], capsys)
        assert_invalid(code, err, "truncation size must be <= 2048, got 2049")
        assert sizes == [] and list(tmp_path.iterdir()) == []
        assert run_cli(["--quiet", "--truncate", 2048, *argv], capsys)[0] == 0
        assert sizes == [2048, 2048]


class TestDigests:
    @pytest.mark.parametrize("command, hashed", [
        (["decompose", DATA / "s_ones.json", DATA / "t_diag10.json", "out"], 2),
        (["counterexample", DATA / "lam_half.json", "out", "--horizon", "12"], 1),
        (["check-unique", DATA / "s_ones.json", DATA / "t_diag10.json"], 0),
        (["converge-report", DATA / "s_ones.json", DATA / "t_diag10.json", "out"], 0),
    ], ids=["decompose", "counterexample", "check-unique", "converge-report"])
    def test_only_echoed_inputs_are_hashed(self, tmp_path, capsys, monkeypatch, command, hashed):
        payloads = []

        class Hashlib:
            @staticmethod
            def sha256(payload):
                payloads.append(payload)
                return hashlib.sha256(payload)

        monkeypatch.setattr(cli, "hashlib", Hashlib)
        argv = [tmp_path / "o" if arg == "out" else arg for arg in command]
        assert run_cli(["--quiet", *argv], capsys)[0] == 0
        assert len(payloads) == hashed


class TestOneCopyPerRequest:
    """A request holds one working copy of its operands: each decoded file is
    dropped once parsed, and the report is written chunk by chunk as it is
    laid out.  Each bound sits midway between the traced peak of a writer that kept
    the decoded files and the whole report text alive (10.5 MB and 16.1 MB)
    and that of this one (4.7 MB and 8.3 MB)."""

    @staticmethod
    def traced_peak(argv):
        gc.collect()
        tracemalloc.start()
        try:
            code = main([str(a) for a in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    @pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
    def test_load_json_drops_the_bytes_before_parsing(self, tmp_path, hashed):
        # a 1.0 MB file of 50 000 floats: the bytes are dropped once decoded,
        # so they are never held with the object; the bound sits midway
        # between the traced peak of a loader that parsed the bytes directly
        # (3.68 MB) and this one (2.66 MB)
        path = tmp_path / "seq.json"
        prefix = np.random.default_rng(0).uniform(0.0, 1.0, 50_000).tolist()
        path.write_text(json.dumps({"prefix": prefix, "tail": None}))
        gc.collect()
        tracemalloc.start()
        try:
            obj, digest = cli._load_json(str(path), hashed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obj["prefix"] == prefix and (digest is not None) == hashed
        assert peak < 3.17e6, f"traced peak {peak / 1e6:.2f} MB"

    def test_complex_matrix_decompose(self, tmp_path):
        paths = [tmp_path / "s.json", tmp_path / "t.json"]
        for path, a in zip(paths, structured_pair("generic", 128, 0)):
            _write_matrix(path, a)
        peak = self.traced_peak(["--quiet", "decompose", *paths, tmp_path / "r.json"])
        assert peak < 7.6e6, f"traced peak {peak / 1e6:.2f} MB"

    def test_long_sequence_decompose(self, tmp_path):
        # a 100 000-entry companion of a gapped base with tail ratio 0.999
        rng = np.random.default_rng(0)
        size, r = 100_000, 0.999
        prefix = rng.uniform(0.05, 1.0, 256)
        prefix[rng.random(256) < 0.25] = 0.0
        base = np.concatenate([prefix, 0.5 * r ** np.arange(1, size - 255)])
        companion = base * rng.uniform(0.5, 2.0, size)
        companion[:256][prefix == 0.0] = 0.5
        s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
        s_path.write_text(json.dumps({"prefix": companion.tolist(), "tail": {
            "type": "geometric", "a": 0.35 * r ** (size - 256), "r": r}}))
        t_path.write_text(json.dumps({"prefix": prefix.tolist(), "tail": {
            "type": "geometric", "a": 0.5, "r": r}}))
        peak = self.traced_peak(["--quiet", "decompose", s_path, t_path, tmp_path / "r.json"])
        assert peak < 12.2e6, f"traced peak {peak / 1e6:.2f} MB"


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from oplebesgue import cli

        target = tmp_path / "out.json"
        target.write_text("previous report\n")
        real_open = open

        class FullDisk:
            """A file handle whose write stores a few bytes, then fails."""

            def __init__(self, *args, **kwargs):
                self.handle = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[:4])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            cli._write_atomic(str(target), lambda handle: handle.write("new report\n"),
                              quiet=True)
        assert list(tmp_path.glob("*.tmp-*")) == []
        assert target.read_text() == "previous report\n"


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "oplebesgue", "--quiet", "decompose",
             str(DATA / "s_ones.json"), str(DATA / "t_diag10.json"), str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_import_builds_no_parser(self):
        # the parser is built by the first main call, not on import
        proc = subprocess.run([sys.executable, "-c", "import oplebesgue.cli as c; print(c._PARSER)"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "None\n", proc.stderr

    def test_quiet_flag_silences_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                                   DATA / "t_diag10.json", out], capsys)
        assert code == 0 and stdout == ""
        code, stdout, _ = run_cli(["decompose", DATA / "s_ones.json",
                                   DATA / "t_diag10.json", out], capsys)
        assert code == 0 and str(out) in stdout


def _write_matrix(path, a):
    path.write_text(json.dumps({"dim": a.shape[0], "real": a.real.tolist(),
                                "imag": a.imag.tolist()}))


RESCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)


class TestValidInputNeverExits2:
    """A valid pair exits 0 at every rescale: the input gate, the monotone
    schedule and every certificate judge each operand at its own scale."""

    @pytest.mark.parametrize("entry", [1e-308, 1e-315, 5e-324])
    def test_operand_at_the_bottom_of_the_float_range_exits_0(self, tmp_path, capsys, entry):
        # the two operands' scales are 4^shift apart for an integer shift far
        # beyond the float range, so no ratio of them is ever formed
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps({"dim": 2, "real": [[entry, entry], [entry, entry]]}))
        out = tmp_path / "r.json"
        code, _, err = run_cli(["--quiet", "decompose", s_path, DATA / "t_diag10.json", out], capsys)
        assert code == 0 and err == "", err
        body = json.loads(out.read_text())["decomposition"]
        assert body["unique"] is True and body["c"] == 0.0
        # subnormal entries carry only a few bits: the part is S to a few of their units
        np.testing.assert_allclose(body["sing"]["real"], np.full((2, 2), entry), rtol=1e-12, atol=1e-322)

    @pytest.mark.parametrize("structure, dim, seed", [
        ("generic", 16, 0),
        ("singular", 8, 0),
        ("full_rank_t", 32, 1),
    ])
    def test_exit_codes_over_rescales(self, tmp_path, capsys, structure, dim, seed):
        s, t = structured_pair(structure, dim, seed)
        for alpha in RESCALES:
            for beta in RESCALES:
                s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
                _write_matrix(s_path, alpha * s)
                _write_matrix(t_path, beta * t)
                code, _, err = run_cli(["--quiet", "decompose", s_path, t_path,
                                        tmp_path / "r.json"], capsys)
                where = f"{structure} at ({alpha:g}, {beta:g}): {err.strip()}"
                assert code == 0 and err == "", where


def _aligned_pair(dim, theta, seed):
    """A rank-2 S and a rank-2 T in C^dim sharing one direction at angle
    theta: near the rank cut of the engine's Gram and of the range join for
    tan(theta / 2)^2 near RANK_CUTOFF, and past float64's resolution below."""
    q = random_unitary(make_rng(seed), dim)
    tilted = math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1]
    s = np.outer(q[:, 0], q[:, 0].conj()) + 0.5 * np.outer(q[:, 2], q[:, 2].conj())
    return s, np.outer(tilted, tilted.conj()) + 2.0 * np.outer(q[:, 3], q[:, 3].conj())


class TestScreens:
    """A certificate screen decides only what the exact solve decides the
    same way: with every screen inconclusive, decompose writes the same
    report bytes, or the same error, with the same exit code."""

    @staticmethod
    def run(args, capsys, out):
        out.unlink(missing_ok=True)
        code, stdout, err = run_cli(args, capsys)
        report = re.sub(rb'"elapsed_seconds": [^\n]*', b"", out.read_bytes()) if out.exists() else None
        return code, stdout, err, report

    def cases(self, tmp_path):
        yield DATA / "s_ones.json", DATA / "t_diag10.json"
        yield DATA / "t_eye3.json", DATA / "t_eye3.json"
        yield DATA / "s_seq.json", DATA / "t_seq.json"
        pairs = [structured_pair(structure, 16, seed)
                 for structure in ("generic", "singular", "full_rank_t") for seed in (0, 1)]
        pairs += [(1e-100 * s, 1e100 * t) for s, t in pairs[::2]]
        pairs += [(s.array, t.array) for s, t in graded_panel(1.5e-10)[:2]]
        cut = 2.0 * math.atan(math.sqrt(RANK_CUTOFF))
        pairs += [_aligned_pair(6, theta, 0) for theta in (1e-3, 1.2 * cut, cut, 0.8 * cut, 1e-9)]
        for i, (s, t) in enumerate(pairs):
            s_path, t_path = tmp_path / f"s{i}.json", tmp_path / f"t{i}.json"
            _write_matrix(s_path, s)
            _write_matrix(t_path, t)
            yield s_path, t_path

    def test_reports_do_not_depend_on_the_screens(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        codes = set()
        for s_path, t_path in self.cases(tmp_path):
            args = ["--quiet", "decompose", s_path, t_path, out]
            screened = self.run(args, capsys, out)
            with pytest.MonkeyPatch.context() as patch:
                screens_inconclusive(patch)
                exact = self.run(args, capsys, out)
            assert screened == exact, f"{s_path.name}, {t_path.name}"
            codes.add(screened[0])
        assert codes == {0, 3}  # the panel reaches a numerical failure too


class TestParserReuse:
    """main builds its parser on its first call and parses every later call
    with that same parser, which no call leaves changed for the next."""

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []

        class Counted(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)

        monkeypatch.setattr(cli, "_PARSER", None)
        # argparse's own __init__ looks ArgumentParser up in its module, so
        # the counting class is handed to the CLI module alone
        monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Counted,
                                                                   SUPPRESS=argparse.SUPPRESS))
        for _ in range(5):
            code, out, err = run_cli(["check-unique", DATA / "s_ones.json", DATA / "t_diag10.json"], capsys)
            assert code == 0 and err == "" and json.loads(out)["unique"] is True
        # the parser and its four subcommand parsers, all during the first call
        assert built.count("oplebesgue") == 1 and len(built) == 5
        assert isinstance(cli._PARSER, Counted)

    def test_an_option_does_not_carry_into_the_next_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)
        pair = [DATA / "lam_half.json", DATA / "lam_half.json"]  # infinite support: the size shows
        first, short, plain = tmp_path / "first.csv", tmp_path / "short.csv", tmp_path / "plain.csv"
        explicit = tmp_path / "explicit.csv"
        assert run_cli(["--quiet", "converge-report", *pair, first], capsys)[0] == 0
        assert run_cli(["--quiet", "--truncate", "4", "converge-report", *pair, short], capsys)[0] == 0
        assert run_cli(["--quiet", "converge-report", *pair, plain], capsys)[0] == 0
        assert run_cli(["--quiet", "--truncate", "32", "converge-report", *pair, explicit], capsys)[0] == 0
        assert short.read_bytes() != first.read_bytes()
        assert plain.read_bytes() == first.read_bytes() == explicit.read_bytes()

    def test_a_rejected_command_line_changes_no_later_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)

        def outputs():
            report = tmp_path / "report.json"
            code, out, err = run_cli(["--quiet", "decompose", DATA / "s_ones.json",
                                      DATA / "t_diag10.json", report], capsys)
            body = json.loads(report.read_text())
            body.pop("timing")
            verdict = run_cli(["check-unique", DATA / "s_seq.json", DATA / "t_seq.json"], capsys)
            return code, out, err, body, verdict

        before = outputs()
        for argv in (["frobnicate"], ["--truncate", "x", "converge-report", "a", "b", "c"],
                     ["decompose", "only-one-path"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1].startswith("oplebesgue")
        assert outputs() == before


class TestSubnormalOperand:
    """An operand whose trace is below the smallest normal float answers like
    any other: the monotone schedule's stop test runs in the engine's frame."""

    @pytest.fixture
    def paths(self, tmp_path):
        tiny, unit = tmp_path / "tiny.json", tmp_path / "unit.json"
        tiny.write_text('{"dim":1,"real":[[1e-320]]}')
        unit.write_text('{"dim":1,"real":[[1.0]]}')
        return tiny, unit

    @pytest.mark.parametrize("against, expected", [("unit", '{"c": 1e-320, "unique": true}\n'),
                                                   ("tiny", '{"c": 1.0, "unique": true}\n')])
    def test_every_pair_command_exits_0(self, paths, tmp_path, capsys, against, expected):
        tiny, unit = paths
        t_path = unit if against == "unit" else tiny
        assert run_cli(["check-unique", tiny, t_path], capsys) == (0, expected, "")
        out = tmp_path / "report.json"
        assert run_cli(["--quiet", "decompose", tiny, t_path, out], capsys) == (0, "", "")
        body = json.loads(out.read_text())["decomposition"]
        assert body["unique"] is True and body["c"] == json.loads(expected)["c"]
        assert body["ac"]["real"] == [[1e-320]] and body["sing"]["real"] == [[0.0]]
        csv_path = tmp_path / "trace.csv"
        assert run_cli(["--quiet", "converge-report", tiny, t_path, csv_path], capsys) == (0, "", "")
        assert csv_path.read_text().startswith("k,n,gap_trace,c_bound\n0,1,")

    def test_last_constant_of_a_subnormal_pair_is_the_unit_one(self, tmp_path, capsys):
        # S = T = [[2^-1060]]: the last approximant is checked against T in
        # the engine's frame, so its constant is the unit pair's, not inf
        rows = {}
        for name, entry in (("unit", 1.0), ("tiny", 2.0**-1060)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"dim": 1, "real": [[entry]]}))
            csv_path = tmp_path / f"{name}.csv"
            assert run_cli(["--quiet", "converge-report", path, path, csv_path], capsys) == (0, "", "")
            rows[name] = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert rows["tiny"][-1][3] == rows["unit"][-1][3] == "0.9999999981373553"
        assert [row[:2] + row[3:] for row in rows["tiny"]] == [row[:2] + row[3:] for row in rows["unit"]]


def _float_range_pairs(count, seed):
    """(s, t, complex) for ``count`` PSD pairs with n <= 3, each side of any
    rank, scaled by 2^k with k from -1074 to 1023: half of the scales uniform
    over that range, half near either end of it.  Pairs share a direction
    half of the time, so ac is often nonzero."""
    rng = np.random.default_rng(seed)
    bands = [(-1074, 1024), (-1074, 1024), (-1074, -1000), (950, 1024)]
    for _ in range(count):
        n, cplx = int(rng.integers(1, 4)), bool(rng.integers(0, 2))
        shared = rng.standard_normal(n) if rng.integers(0, 2) else None
        sides = []
        for _ in range(2):
            rank = int(rng.integers(0, n + 1))
            g = rng.standard_normal((n, rank)) + (1j * rng.standard_normal((n, rank)) if cplx else 0)
            if shared is not None and rank:
                g[:, 0] = shared
            m = g @ g.conj().T
            top = np.abs(m).max(initial=0.0)
            m = m / top if top else m
            low, high = bands[int(rng.integers(0, 4))]
            k = int(rng.integers(low, high))
            sides.append(np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k))
        yield sides[0], sides[1], cplx


class TestExitCodesAcrossTheFloatRange:
    """Every pair command on every valid or invalid pair exits 0, 2 or 3:
    0 with nothing on stderr, 2 or 3 with exactly one error: line, never a
    traceback or a RuntimeWarning, whatever power of two scales each side."""

    @pytest.mark.parametrize("seed", range(4))
    def test_scale_sweep(self, tmp_path, capsys, seed):
        s_path, t_path, out = tmp_path / "s.json", tmp_path / "t.json", tmp_path / "out"
        codes = {0: 0, 2: 0, 3: 0}
        for s, t, cplx in _float_range_pairs(100, seed):
            for path, m in ((s_path, s), (t_path, t)):
                obj = {"dim": m.shape[0], "real": m.real.tolist()}
                if cplx:
                    obj["imag"] = m.imag.tolist()
                path.write_text(json.dumps(obj))
            for command in ("decompose", "check-unique", "converge-report"):
                argv = ["--quiet", command, s_path, t_path] + ([] if command == "check-unique" else [out])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, _, err = run_cli(argv, capsys)
                where = f"{command} on {s_path.read_text()} and {t_path.read_text()}"
                assert code in codes, where
                codes[code] += 1
                if code == 0:
                    assert err == "", where
                else:
                    lines = err.splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: "), where
        # most calls answer; past float64's top, a trace norm exits 2 and a
        # domination constant exits 3
        assert codes[0] > 200
