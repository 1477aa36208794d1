import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oplebesgue import psd_from_json
from oplebesgue.cli import main
from conftest import graded_panel, structured_pair

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

    def test_oracle_disagreement_exits_3(self, tmp_path, capsys):
        # a stopping threshold of 1e-3 leaves the iterative route 1e-3 short of
        # the closed form, far outside the 1e-8 agreement the two must reach
        code, _, err = run_cli(["--quiet", "--tol", "1e-3", "decompose",
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
        code, _, _ = run_cli(["--quiet", "counterexample", DATA / "lam_half.json",
                              out, "--horizon", "12"], capsys)
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "counterexample_half_h12.json").read_bytes()

    def test_weights_are_linear_over_halving(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        run_cli(["--quiet", "counterexample", DATA / "lam_half.json", out, "--horizon", "12"],
                capsys)
        body = json.loads(out.read_text())
        assert body["s"]["prefix"][:4] == [0.5, 0.5, 0.375, 0.25]
        assert body["unique"] is False
        bounds = [w["bound"] for w in body["certificate"]["witnesses"]]
        assert bounds == [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
        for witness in body["certificate"]["witnesses"]:
            assert witness["ratio"] >= witness["bound"]

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
        assert run_cli(["--quiet", "counterexample", lam_path, built,
                        "--horizon", "2000"], capsys)[0] == 0
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
            "counterexample": ["counterexample", lam_path, tmp_path / "c.json",
                               "--horizon", "2000"],
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
        assert bounds[-1] == pytest.approx(32.0, rel=1e-6)

    def test_deterministic_bytes(self, tmp_path, capsys):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(["--quiet", "converge-report",
                                  DATA / "s_ones.json", DATA / "t_diag10.json", out], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


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
