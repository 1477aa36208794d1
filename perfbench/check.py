"""Output checks that share no route with the program.

Matrix requests are compared with the shorted operator of S onto range(T),
computed as a generalized Schur complement (Anderson-Trapp): in an orthonormal
basis [U W] adapted to range(T) and its complement,

    S = [[A, B], [B*, C]]   ->   ac = U (A - B C^+ B*) U*.

Sequence requests are re-derived from the written JSON: the split is checked
entrywise against the supports, uniqueness against the tail-ratio rule, and
every counterexample witness by evaluating the ratio in log scale.

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

AC_RTOL = 1e-8  # ac against the reference, relative trace norm
ADD_RTOL = 1e-9  # ac + sing against S, relative trace norm
C_RTOL = 1e-6  # domination constant against the reference
# Last converge-report row against the reference c: unit-scale requests of the
# dense workloads land at about 1.2e-8, so this leaves a margin of 8.
LIMIT_RTOL = 1e-7
C_ZERO = 1e-8  # |c| allowed, relative to its natural scale, when ac vanishes
# Reference ac counts as zero below this share of trace(S).  It is about
# 1e-14 on pairs whose ranges meet at angles >= 0.1 and 3e-10 on the
# near-aligned pair, where the Schur complement divides by angle^2.
VANISH = 1e-8
RANK_RTOL = 1e-10  # rank cut of T; inputs must have a clean gap around it
SEQ_RTOL = 1e-12


@dataclass(frozen=True)
class MatrixReference:
    s: np.ndarray
    ac: np.ndarray
    c: float
    c_scale: float  # lambda_max of T^{+1/2} S T^{+1/2} restricted to range(T)
    s_norm: float
    vanishes: bool  # the reference ac is zero at the VANISH share of trace(S)


def shorted_reference(s: np.ndarray, t: np.ndarray) -> MatrixReference:
    """Absolutely continuous part of S relative to T as the short of S to range(T)."""
    w, v = np.linalg.eigh(t)
    top = float(w[-1])
    keep = w > RANK_RTOL * top
    if np.any((w > 1e-13 * top) & (w <= 1e-7 * top)):
        raise ValueError("reference operator has no clean rank gap")
    u, comp = v[:, keep], v[:, ~keep]
    a = u.conj().T @ s @ u
    b = u.conj().T @ s @ comp
    c = comp.conj().T @ s @ comp
    wc, vc = np.linalg.eigh((c + c.conj().T) / 2)
    live = wc > 1e-12 * max(float(wc[-1]), 0.0) if wc.size else wc > 0
    c_pinv = (vc[:, live] / wc[live]) @ vc[:, live].conj().T
    short = a - b @ c_pinv @ b.conj().T
    short = (short + short.conj().T) / 2
    inv_root = 1.0 / np.sqrt(w[keep])

    def top_compressed(m):
        return float(np.linalg.eigvalsh(inv_root[:, None] * m * inv_root[None, :])[-1])

    s_norm = float(np.trace(s).real)
    return MatrixReference(
        s=s,
        ac=u @ short @ u.conj().T,
        c=max(top_compressed(short), 0.0),
        c_scale=top_compressed((a + a.conj().T) / 2),
        s_norm=s_norm,
        vanishes=_trace_norm(short) <= VANISH * s_norm,
    )


def _trace_norm(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum())


def _matrix(obj) -> np.ndarray:
    real = np.array(obj["real"], dtype=float)
    imag = np.array(obj["imag"], dtype=float) if obj.get("imag") is not None else 0.0
    return real + 1j * imag


def check_c(c, ref: MatrixReference, alpha: float, beta: float, what: str = "c") -> list:
    if c is None or not math.isfinite(c):
        return [f"{what} is {c!r}, expected a finite domination constant"]
    expected, scale = ref.c * alpha / beta, ref.c_scale * alpha / beta
    if ref.vanishes:
        if abs(c) > C_ZERO * scale:
            return [f"{what}={c:.6g} but the reference ac vanishes (allowed {C_ZERO * scale:.3g})"]
        return []
    if abs(c - expected) > C_RTOL * expected:
        return [f"{what}={c!r} differs from reference {expected!r}"]
    return []


def check_split(ac: np.ndarray, sing: np.ndarray, ref: MatrixReference,
                alpha: float) -> list:
    problems = []
    scale = alpha * ref.s_norm
    gap = _trace_norm(ac - alpha * ref.ac) / scale
    if not gap <= AC_RTOL:
        problems.append(f"ac differs from the shorted-operator reference by {gap:.3e} (relative)")
    residual = _trace_norm(ac + sing - alpha * ref.s) / scale
    if not residual <= ADD_RTOL:
        problems.append(f"ac + sing differs from S by {residual:.3e} (relative)")
    return problems


def check_decompose_matrix(text: str, ref: MatrixReference, alpha: float, beta: float) -> list:
    body = json.loads(text)["decomposition"]
    problems = check_split(_matrix(body["ac"]), _matrix(body["sing"]), ref, alpha)
    if body["unique"] is not True:
        problems.append(f"unique={body['unique']!r}, expected true for matrices")
    return problems + check_c(body["c"], ref, alpha, beta)


def check_unique_matrix(text: str, ref: MatrixReference, alpha: float, beta: float) -> list:
    body = json.loads(text)
    problems = [] if body["unique"] is True else [f"unique={body['unique']!r}, expected true"]
    return problems + check_c(body["c"], ref, alpha, beta)


def check_converge_report(text: str, ref: MatrixReference, alpha: float, beta: float) -> list:
    """The approximants (2^k T):S increase to ac, so their domination
    constants are nondecreasing, bounded by the reference c, and the last one
    has reached it."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["k", "n", "gap_trace", "c_bound"] or len(rows) < 2:
        return ["converge-report CSV has no header or no rows"]
    problems, previous = [], 0.0
    limit = ref.c * alpha / beta * (1 + C_RTOL) + C_ZERO * ref.c_scale * alpha / beta
    for k, row in enumerate(rows[1:]):
        step, scale, gap, c_bound = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        if step != k or scale != 2 ** k:
            problems.append(f"row {k} is numbered k={step}, n={scale}")
        if not (math.isfinite(gap) and gap >= 0):
            problems.append(f"row {k} has gap {gap!r}")
        if not c_bound <= limit:
            problems.append(f"row {k} has c_bound {c_bound!r} above the reference c {limit!r}")
        if c_bound < previous * (1 - C_RTOL) - C_ZERO * ref.c_scale * alpha / beta:
            problems.append(f"row {k} c_bound {c_bound!r} decreases from {previous!r}")
        previous = max(previous, c_bound)
    expected = ref.c * alpha / beta
    if not ref.vanishes and not abs(c_bound - expected) <= LIMIT_RTOL * expected:
        problems.append(f"last row ({len(rows) - 1} steps) has c_bound {c_bound!r}, "
                        f"off the reference c {expected!r}")
    return problems


# --- sequences ---------------------------------------------------------------


class Sequence:
    """A parsed sequence JSON with entries evaluated independently of the program."""

    def __init__(self, obj):
        self.prefix = np.array(obj["prefix"], dtype=float)
        tail = obj.get("tail")
        self.tail = None if tail is None else (float(tail["a"]), float(tail["r"]))

    def values(self, count: int) -> np.ndarray:
        out = np.zeros(count)
        head = min(count, self.prefix.size)
        out[:head] = self.prefix[:head]
        if self.tail is not None and count > self.prefix.size:
            a, r = self.tail
            out[self.prefix.size:] = a * r ** np.arange(1, count - self.prefix.size + 1)
        return out

    def log_value(self, n: int) -> float:
        if n <= self.prefix.size:
            v = float(self.prefix[n - 1])
            return math.log(v) if v > 0 else -math.inf
        if self.tail is None:
            return -math.inf
        a, r = self.tail
        return math.log(a) + (n - self.prefix.size) * math.log(r)


def _ratio_rule(s: Sequence, t: Sequence):
    """(unique, c) for s relative to t: the s-part on t's support is dominated
    iff its prefix ratios are finite and its tail decays no slower than t's."""
    n = max(s.prefix.size, t.prefix.size)
    sv, tv = s.values(n), t.values(n)
    ac = np.where(tv > 0, sv, 0.0)
    sup = float(np.max(ac[tv > 0] / tv[tv > 0], initial=0.0))
    ac_tail = s.tail if t.tail is not None else None
    if ac_tail is None:
        return True, sup
    if ac_tail[1] > t.tail[1]:
        return False, None
    first = n + 1
    return True, max(sup, math.exp(s.log_value(first) - t.log_value(first)))


def _check_unique_fields(unique, c, s: Sequence, t: Sequence) -> list:
    expected_unique, expected_c = _ratio_rule(s, t)
    if unique is not expected_unique:
        return [f"unique={unique!r} but the tail-ratio rule says {expected_unique}"]
    if expected_c is None:
        return [] if c is None else [f"c={c!r} reported for a non-unique split"]
    if c is None or abs(c - expected_c) > SEQ_RTOL * max(expected_c, 1e-300):
        return [f"c={c!r} differs from the supremum ratio {expected_c!r}"]
    return []


def check_decompose_sequence(text: str, s_obj: dict, t_obj: dict) -> list:
    body = json.loads(text)["decomposition"]
    s, t = Sequence(s_obj), Sequence(t_obj)
    ac, sing = Sequence(body["ac"]), Sequence(body["sing"])
    problems = []
    n = max(s.prefix.size, t.prefix.size)
    if ac.prefix.size != n or sing.prefix.size != n:
        return [f"split prefixes have lengths {ac.prefix.size}, {sing.prefix.size}; expected {n}"]
    sv, tv = s.values(n), t.values(n)
    if not np.array_equal(ac.prefix + sing.prefix, sv):
        bad = int(np.argmax(ac.prefix + sing.prefix != sv)) + 1
        problems.append(f"ac + sing differs from s at index {bad}")
    if np.any((ac.prefix > 0) & (tv <= 0)):
        problems.append("ac has mass outside the support of t")
    if np.any((sing.prefix > 0) & (tv > 0)):
        problems.append("sing has mass on the support of t")
    tails = (ac.tail, sing.tail) if t.tail is not None else (sing.tail, ac.tail)
    if tails != (s.tail, None):
        problems.append(f"tails {ac.tail}, {sing.tail} do not split the tail {s.tail} of s")
    return problems + _check_unique_fields(body["unique"], body["c"], s, t)


def check_unique_sequence(text: str, s_obj: dict, t_obj: dict) -> list:
    body = json.loads(text)
    return _check_unique_fields(body["unique"], body["c"], Sequence(s_obj), Sequence(t_obj))


def check_counterexample(text: str, lam_obj: dict) -> list:
    report = json.loads(text)
    problems = []
    lam = Sequence(lam_obj)
    t, s = Sequence(report["t"]), Sequence(report["s"])
    if not (np.array_equal(t.prefix, lam.prefix) and t.tail == lam.tail):
        problems.append("written t is not the input sequence")
    if report["unique"] is not False:
        problems.append(f"unique={report['unique']!r}, expected false")
    if s.tail is None or not (s.tail[0] > 0 and 0 < s.tail[1] < 1):
        problems.append(f"s has no summable geometric tail: {s.tail}")
        return problems
    if not (np.all(np.isfinite(s.prefix)) and np.all(s.prefix >= 0)):
        problems.append("s has negative or non-finite entries")
    tv = lam.values(s.prefix.size)
    if np.any((s.prefix > 0) & (tv <= 0)):
        problems.append("s has mass outside the support of t (a singular part)")
    if _ratio_rule(s, lam)[0]:
        problems.append("the tail-ratio rule finds s dominated by t")
    witnesses = report["certificate"]["witnesses"]
    if report["certificate"]["kind"] != "unbounded" or not witnesses:
        problems.append("certificate carries no unbounded-ratio witnesses")
    for witness in witnesses:
        bound, index = float(witness["bound"]), int(witness["index"])
        log_ratio = s.log_value(index) - lam.log_value(index)
        if not log_ratio >= math.log(bound) - SEQ_RTOL:
            problems.append(f"witness for bound {bound:g} at index {index} has ratio "
                            f"exp({log_ratio:.6g})")
        reported = witness["ratio"]
        if reported is None or abs(math.log(reported) - log_ratio) > 1e-9 * max(1, abs(log_ratio)):
            problems.append(f"witness at index {index} reports ratio {reported!r}")
    return problems


# --- self-test ---------------------------------------------------------------


def self_test(run_cli, work) -> list:
    """Show the checks are not vacuous: a correct output passes and perturbed
    ones fail.  Returns the list of failures of the self-test itself."""
    failures = []
    rng = np.random.default_rng(12345)
    n = 12
    f_s = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    f_t = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    s, t = f_s @ f_s.conj().T / n, f_t @ f_t.conj().T / n
    s, t = (s + s.conj().T) / 2, (t + t.conj().T) / 2
    paths = [work / "self_s.json", work / "self_t.json", work / "self_out.json"]
    for path, a in zip(paths, (s, t)):
        path.write_text(json.dumps({"dim": n, "real": a.real.tolist(), "imag": a.imag.tolist()}))
    ref = shorted_reference(s, t)
    csv_path = work / "self_out.csv"
    run_cli(["converge-report"] + [str(p) for p in paths[:2]] + [str(csv_path)])
    text = csv_path.read_text()
    if check_converge_report(text, ref, 1.0, 1.0):
        failures.append("a correct converge-report was rejected")
    if not check_converge_report("".join(text.splitlines(keepends=True)[:3]), ref, 1.0, 1.0):
        failures.append("a converge-report stopped after 2 steps passed the check")
    run_cli(["decompose"] + [str(p) for p in paths])
    text = paths[2].read_text()
    if check_decompose_matrix(text, ref, 1.0, 1.0):
        failures.append("a correct matrix decomposition was rejected")
    report = json.loads(text)
    ac = _matrix(report["decomposition"]["ac"])
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bump = 1e-6 * float(np.trace(s).real) * np.outer(v, v.conj()) / np.vdot(v, v).real
    for label, shift_sing in (("ac", False), ("ac with sing compensated", True)):
        body = dict(report["decomposition"])
        moved = ac + bump
        body["ac"] = {"dim": n, "real": moved.real.tolist(), "imag": moved.imag.tolist()}
        if shift_sing:
            sing = _matrix(body["sing"]) - bump
            body["sing"] = {"dim": n, "real": sing.real.tolist(), "imag": sing.imag.tolist()}
        if not check_decompose_matrix(json.dumps({"decomposition": body}), ref, 1.0, 1.0):
            failures.append(f"a perturbed {label} passed the check")

    lam = {"prefix": [0.5, 0.0, 0.25, 0.125], "tail": {"type": "geometric", "a": 0.1, "r": 0.9}}
    lam_path, out_path = work / "self_lam.json", work / "self_ce.json"
    lam_path.write_text(json.dumps(lam))
    run_cli(["counterexample", str(lam_path), str(out_path), "--horizon", "500"])
    text = out_path.read_text()
    if check_counterexample(text, lam):
        failures.append("a correct counterexample was rejected")
    report = json.loads(text)
    report["certificate"]["witnesses"][-1]["index"] -= 1
    if not check_counterexample(json.dumps(report), lam):
        failures.append("a moved counterexample witness passed the check")
    return failures
