"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oplebesgue import (
    GeometricTail,
    L1Sequence,
    NormalFunctional,
    PsdMatrix,
    ac_part_closed,
    ac_part_iterative,
    construct_unbounded_ratio,
    decompose,
    diag_decompose,
    diag_is_dominated,
    diag_uniqueness,
    evaluate,
    functional_leq,
    is_dominated,
    is_singular_pair,
    kvn_sup_estimate,
    loewner_leq,
    nonzero_common_minorant,
    normality_gap,
    op_norm,
    range_contained,
    counterexample_pair,
    trace,
    trace_norm,
    truncate_to_matrix,
    uniqueness_certificate,
)
from oplebesgue import lebesgue
from oplebesgue.cli import main as cli_main
from conftest import random_hermitian, random_psd, random_sequence, random_unitary

PANEL_SEED = 20260808
DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

HALF = L1Sequence((), GeometricTail(1.0, 0.5))
THIRD = L1Sequence((), GeometricTail(1.0, 1.0 / 3.0))


def report(number, ok, detail):
    print(f"\ncriterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def matrix_panel():
    """200 seeded PSD pairs, dims 2..30, reference ranks spanning 1..dim."""
    rng = np.random.default_rng(PANEL_SEED)
    pairs = []
    for i in range(200):
        dim = int(rng.integers(2, 31))
        rank = 1 if i % 5 == 0 else (dim if i % 5 == 1 else int(rng.integers(1, dim + 1)))
        pairs.append((random_psd(rng, dim), random_psd(rng, dim, rank=rank)))
    return pairs


@pytest.fixture(scope="module")
def panel_decompositions(matrix_panel):
    return [decompose(s, t) for s, t in matrix_panel]


def test_criterion_1_oracle_equivalence(matrix_panel):
    started = time.perf_counter()
    worst = 0.0
    for s, t in matrix_panel:
        iterative, _ = ac_part_iterative(s, t)
        closed = ac_part_closed(s, t)
        gap = trace_norm(iterative.array - closed.array) / max(1.0, trace_norm(s))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    report(1, ok, f"iterative vs closed on 200 pairs: worst rel gap {worst:.2e} "
                  f"(<= 1e-8), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_2_decomposition_certificates(matrix_panel, panel_decompositions):
    worst_add = worst_idem = 0.0
    singular_ok = range_ok = True
    for (s, t), dec in zip(matrix_panel, panel_decompositions):
        scale = max(1.0, trace_norm(s))
        worst_add = max(worst_add, trace_norm(dec.ac.array + dec.sing.array - s.array) / scale)
        singular_ok = singular_ok and is_singular_pair(dec.sing, t)
        range_ok = range_ok and range_contained(dec.ac, t)
        worst_idem = max(
            worst_idem, trace_norm(decompose(dec.ac, t).ac.array - dec.ac.array) / scale
        )
        worst_idem = max(worst_idem, trace_norm(decompose(dec.sing, t).ac.array) / scale)
    ok = worst_add <= 1e-9 and singular_ok and range_ok and worst_idem <= 1e-8
    report(2, ok, f"additivity {worst_add:.2e} (<= 1e-9), singular remainder {singular_ok}, "
                  f"range containment {range_ok}, idempotence {worst_idem:.2e} (<= 1e-8)")


def test_criterion_3_matrix_uniqueness(matrix_panel, panel_decompositions):
    certified = 0
    for (s, t), dec in zip(matrix_panel, panel_decompositions):
        cert = uniqueness_certificate(s, t)
        if cert.unique and math.isfinite(cert.c) and loewner_leq(dec.ac.array, cert.c * t.array):
            certified += 1
    ok = certified == len(matrix_panel)
    report(3, ok, f"uniqueness certified with finite constant on {certified}/200 pairs")


def test_criterion_4_sequence_non_uniqueness():
    checks = []
    for lam in (HALF, THIRD):
        t, s = counterexample_pair(lam)
        _, sing = diag_decompose(s, t)
        probe = range(1, 200)
        supports_equal = (
            s.has_infinite_support == t.has_infinite_support
            and all((s.value_at(n) > 0) == (t.value_at(n) > 0) for n in probe)
        )
        unique, _ = diag_uniqueness(s, t)
        checks.append(
            supports_equal
            and sing.total() == 0.0
            and diag_is_dominated(s, t) is None
            and not unique
        )
    t, s = counterexample_pair(HALF)
    constants = {}
    previous = 0.0
    escalation = True
    for size in (4, 8, 16, 32):
        c = is_dominated(truncate_to_matrix(s, size), truncate_to_matrix(t, size))
        constants[size] = c
        escalation = escalation and c is not None and c >= size / 2 and c >= previous - 1e-9
        previous = c
    ok = all(checks) and escalation and constants[32] >= 16.0
    report(4, ok, f"both instances certified non-unique with vanishing singular part; "
                  f"truncated constants {[(k, round(v, 2)) for k, v in constants.items()]} "
                  f"escalate, c_32 = {constants[32]:.1f} >= 16")


def test_criterion_5_constructive_witnesses():
    started = time.perf_counter()
    bases = [
        HALF,
        THIRD,
        L1Sequence((), GeometricTail(1.0, 0.25)),
        L1Sequence((5.0, 0.0, 0.125), GeometricTail(0.25, 0.5)),
    ]
    bounds = (1, 10, 100, 1e3, 1e4, 1e5, 1e6)
    all_ok = True
    for lam in bases:
        mu, cert = construct_unbounded_ratio(lam)
        total = mu.total()
        count = mu.prefix_len + 1
        while mu.sum_beyond(count) > 1e-13 * total:
            count *= 2
        sum_ok = abs(mu.partial_sum(count) + mu.sum_beyond(count) - total) <= 1e-12 * total
        positive_ok = bool(np.all(mu.values(mu.prefix_len) >= 0.0)) and mu.tail.a > 0
        witness_ok = all(cert.verify_witness(b) for b in bounds)
        all_ok = all_ok and sum_ok and positive_ok and witness_ok
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 5.0
    report(5, ok, f"4 constructions: closed-form sums within 1e-12, values nonnegative, "
                  f"all witnesses up to 1e6 verified, runtime {elapsed:.2f}s (< 5s)")


def test_criterion_6_trace_inequality_and_order():
    rng = np.random.default_rng(PANEL_SEED + 6)
    inequality_ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 31))
        a = random_hermitian(rng, dim)
        t = random_psd(rng, dim)
        lhs = abs(trace(np.asarray(a, dtype=complex) @ t.array))
        if lhs > op_norm(a) * trace_norm(t) + 1e-9:
            inequality_ok = False
    agreements = 0
    witness_ok = True
    for trial in range(200):
        dim = int(rng.integers(2, 12))
        low = random_psd(rng, dim)
        if trial % 2 == 0:
            high = PsdMatrix(low.array + random_psd(rng, dim).array)
        else:
            high = random_psd(rng, dim)
        ordered = functional_leq(NormalFunctional(low), NormalFunctional(high))
        if ordered == loewner_leq(low, high):
            agreements += 1
        if ordered:
            for _ in range(50):
                raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                e = raw / np.linalg.norm(raw)
                if (e.conj() @ low.array @ e).real > (e.conj() @ high.array @ e).real + 1e-9:
                    witness_ok = False
    ok = inequality_ok and agreements == 200 and witness_ok
    report(6, ok, f"trace inequality on 200 pairs: {inequality_ok}; functional order agrees "
                  f"with Loewner {agreements}/200, rank-one witnesses clean: {witness_ok}")


def test_criterion_7_singularity_correspondence():
    rng = np.random.default_rng(PANEL_SEED + 7)
    disagreements = 0
    for trial in range(100):
        dim = int(rng.integers(2, 16))
        if trial % 2 == 0:
            u = random_unitary(rng, dim)
            r1 = int(rng.integers(1, dim))
            r2 = int(rng.integers(1, dim - r1 + 1))
            d1, d2 = np.zeros(dim), np.zeros(dim)
            d1[:r1] = rng.uniform(0.3, 4, r1)
            d2[r1:r1 + r2] = rng.uniform(0.3, 4, r2)
            s = PsdMatrix(u @ np.diag(d1) @ u.conj().T)
            t = PsdMatrix(u @ np.diag(d2) @ u.conj().T)
        else:
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
        singular = is_singular_pair(s, t)
        witness = nonzero_common_minorant(s, t)
        if singular != (witness is None):
            disagreements += 1
            continue
        if witness is not None:
            h = NormalFunctional(witness)
            if not (
                trace(witness) > 0
                and functional_leq(h, NormalFunctional(s))
                and functional_leq(h, NormalFunctional(t))
            ):
                disagreements += 1
    ok = disagreements == 0
    report(7, ok, f"singularity matches functional minorant existence on 100 pairs "
                  f"({disagreements} disagreements)")


def test_criterion_8_kvn_criterion():
    rng = np.random.default_rng(PANEL_SEED + 8)
    worst_final = worst_gap = 0.0
    monotone_ok = True
    for _ in range(50):
        dim = int(rng.integers(2, 12))
        f = NormalFunctional(random_psd(rng, dim))
        for x in (np.eye(dim), random_hermitian(rng, dim)):
            values = kvn_sup_estimate(f, x, list(range(1, dim + 1)))
            target = evaluate(f, np.asarray(x).conj().T @ np.asarray(x))
            worst_final = max(worst_final, abs(values[-1] - target) / max(1.0, abs(target)))
            if any(b < a - 1e-9 * max(1.0, target) for a, b in zip(values, values[1:])):
                monotone_ok = False
        worst_gap = max(worst_gap, abs(normality_gap(f)) / max(1.0, trace(f.rep)))
    ok = worst_final <= 1e-9 and monotone_ok and worst_gap <= 1e-9
    report(8, ok, f"full-rank supremum matches f(X*X) to {worst_final:.2e} (<= 1e-9), "
                  f"lists nondecreasing: {monotone_ok}, normality gap {worst_gap:.2e} (<= 1e-9)")


def test_criterion_9_truncation_consistency():
    rng = np.random.default_rng(PANEL_SEED + 9)
    worst = 0.0
    for _ in range(20):
        s, t = random_sequence(rng), random_sequence(rng)
        ac_seq, _ = diag_decompose(s, t)
        for size in (4, 8, 16, 32, 64):
            dec = decompose(truncate_to_matrix(s, size), truncate_to_matrix(t, size))
            expected = truncate_to_matrix(ac_seq, size)
            worst = max(worst, trace_norm(dec.ac.array - expected.array))
    ok = worst <= 1e-10
    report(9, ok, f"matrix engine matches diagonal rules on 20 pairs x 5 truncations: "
                  f"worst gap {worst:.2e} (<= 1e-10)")


def test_criterion_10_cli_contract(tmp_path, capsys, monkeypatch):
    def run(args):
        code = cli_main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    checks = {}

    out = tmp_path / "dec.json"
    code, _, _ = run(["--quiet", "decompose", DATA / "s_ones.json", DATA / "t_diag10.json", out])
    blob = json.loads(out.read_text())
    blob.pop("timing")
    checks["decompose golden"] = (
        code == 0 and blob == json.loads((GOLDEN / "decompose_ones.json").read_text())
    )

    code, stdout, _ = run(["check-unique", DATA / "s_ones.json", DATA / "t_diag10.json"])
    verdict = json.loads(stdout)
    checks["check-unique golden"] = code == 0 and verdict["unique"] is True

    ce = tmp_path / "ce.json"
    code, _, _ = run(["--quiet", "counterexample", DATA / "lam_half.json", ce])
    checks["counterexample golden"] = (
        code == 0 and ce.read_bytes() == (GOLDEN / "counterexample_half.json").read_bytes()
    )

    csv_out = tmp_path / "trace.csv"
    code, _, _ = run(["--quiet", "converge-report", DATA / "s_ones.json",
                      DATA / "t_diag10.json", csv_out])
    checks["converge golden"] = (
        code == 0 and csv_out.read_bytes() == (GOLDEN / "converge_singular.csv").read_bytes()
    )

    code2a, _, err2a = run(["--quiet", "decompose", DATA / "bad_nonherm.json",
                            DATA / "t_diag10.json", tmp_path / "x.json"])
    code2b, _, err2b = run(["--quiet", "counterexample", DATA / "lam_finite.json",
                            tmp_path / "y.json"])
    # a stopping threshold of 1e-3 leaves the two routes to ac 1e-3 apart
    with monkeypatch.context() as patch:
        patch.setattr(lebesgue, "CONV_TOL", 1e-3)
        code3, _, err3 = run(["--quiet", "decompose", DATA / "t_eye3.json",
                              DATA / "t_eye3.json", tmp_path / "z.json"])
    checks["exit codes 2/2/3"] = (
        (code2a, code2b, code3) == (2, 2, 3)
        and err2a.startswith("error:") and err2b.startswith("error:") and err3.startswith("error:")
        and "independent computations" in err3
    )

    payloads = []
    for name in ("d1.json", "d2.json"):
        target = tmp_path / name
        run(["--quiet", "decompose", DATA / "s_ones.json",
             DATA / "t_diag10.json", target])
        blob = json.loads(target.read_text())
        blob.pop("timing")
        payloads.append(json.dumps(blob, sort_keys=True))
    csvs = []
    for name in ("c1.csv", "c2.csv"):
        target = tmp_path / name
        run(["--quiet", "converge-report", DATA / "s_ones.json",
             DATA / "t_diag10.json", target])
        csvs.append(target.read_bytes())
    checks["byte determinism"] = payloads[0] == payloads[1] and csvs[0] == csvs[1]

    ok = all(checks.values())
    report(10, ok, "; ".join(f"{name}: {'ok' if good else 'FAIL'}"
                             for name, good in checks.items()))
