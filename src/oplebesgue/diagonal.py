"""Diagonal trace-class model on summable sequences.

A sequence is stored as a finite prefix plus an optional geometric tail, a
class closed under every operation needed here (support splits, entrywise
scaling) and with closed-form sums and ratio analysis.  Indices are 1-based.

Unlike the matrix engine, infinite rank is representable, which is what makes
the non-uniqueness phenomenon expressible: ``construct_unbounded_ratio``
produces, for any sequence of infinite support, a summable companion whose
entrywise ratios grow without bound, certified by an explicit witness
schedule.  ``counterexample_pair`` packages that into a pair whose diagonal
decomposition has no singular part yet admits no domination constant, so its
decomposition is not unique -- something no matrix pair can exhibit.

Each pair is split once per request: ``_diag_split`` aligns the two prefixes
once and, in one pass, yields the regular part, the singular part and the
ratio certificate of the regular part, which decomposition, domination,
uniqueness and the counterexample check all read.

Floating point imposes a representation boundary: materialized prefix values
stop at a safety floor (well above the float64 underflow threshold) and the
tail beyond the horizon is a geometric upper envelope with ratio
(1 + r)/2 > r, so that the unbounded entrywise ratio survives in the stored
parameters and every certificate witness can be checked by direct evaluation,
in log scale, without underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ValidationError, ConsistencyError
from .psd_core import DEFAULT_CONFIG, PsdMatrix, ToleranceConfig

# Materialized prefix values are kept above this floor so products and ratios
# of neighbouring entries stay inside normal float64 range.
VALUE_FLOOR = 1e-280

# Default number of terms materialized by the unbounded-ratio construction.
DEFAULT_HORIZON = 10_000


@dataclass(frozen=True)
class GeometricTail:
    """Generates a * r**(n - N) for indices n past a prefix of length N."""

    a: float
    r: float

    def __post_init__(self):
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a) and self.a > 0):
            raise ValidationError(f"tail scale must be a finite positive number, got {self.a!r}")
        if not (isinstance(self.r, (int, float)) and 0 < self.r < 1):
            raise ValidationError(
                f"tail ratio must satisfy 0 < r < 1 for summability, got {self.r!r}"
            )


@dataclass(frozen=True)
class L1Sequence:
    """Summable nonnegative sequence: explicit prefix + optional geometric tail.

    Prefix zeros are allowed and encode support gaps.  The total sum has the
    closed form sum(prefix) + a r / (1 - r).
    """

    prefix: Tuple[float, ...]
    tail: Optional[GeometricTail] = None

    def __post_init__(self):
        cleaned = []
        for value in self.prefix:
            v = float(value)
            if not (math.isfinite(v) and v >= 0):
                raise ValidationError(f"sequence values must be finite and >= 0, got {value!r}")
            cleaned.append(v)
        object.__setattr__(self, "prefix", tuple(cleaned))

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def has_infinite_support(self) -> bool:
        return self.tail is not None

    def value_at(self, n: int) -> float:
        """Value at 1-based index n (0.0 past a finite support)."""
        if n < 1:
            raise ValidationError(f"indices are 1-based, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.tail is None:
            return 0.0
        return self._tail((n - len(self.prefix),))[0]

    def log_value_at(self, n: int) -> float:
        """log of the value at index n, -inf at zeros; immune to underflow."""
        if n <= len(self.prefix):
            v = self.value_at(n)
            return math.log(v) if v > 0 else -math.inf
        if self.tail is None:
            return -math.inf
        return math.log(self.tail.a) + (n - len(self.prefix)) * math.log(self.tail.r)

    def values(self, count: int) -> np.ndarray:
        """First ``count`` values as a float array."""
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        n_pref = min(count, len(self.prefix))
        out = np.zeros(count)
        out[:n_pref] = self.prefix[:n_pref]
        if self.tail is not None and count > len(self.prefix):
            out[len(self.prefix):] = self._tail(range(1, count - len(self.prefix) + 1))
        return out

    def total(self) -> float:
        """Closed-form sum of the whole sequence."""
        head = math.fsum(self.prefix)
        if self.tail is None:
            return head
        return head + self.tail.a * self.tail.r / (1.0 - self.tail.r)

    def partial_sum(self, count: int) -> float:
        """Numeric sum of the first ``count`` values (compensated summation)."""
        return math.fsum(self.values(count))

    def sum_beyond(self, index: int) -> float:
        """Closed-form sum of all values at indices > index."""
        head = math.fsum(self.prefix[index:]) if index < len(self.prefix) else 0.0
        if self.tail is None:
            return head
        offset = max(index - len(self.prefix), 0)
        return head + self.tail.a * self.tail.r ** (offset + 1) / (1.0 - self.tail.r)

    def materialized(self, upto: int) -> "L1Sequence":
        """Equivalent sequence whose prefix covers indices 1..upto.  Only the
        indices past the prefix are built, by the tail rule of ``value_at``; a
        rebased tail whose scale underflows float64 is dropped."""
        extra = upto - len(self.prefix)
        if extra <= 0:
            return self
        if self.tail is None:
            return _computed_sequence(self.prefix + (0.0,) * extra, None)
        body = self.prefix + self._tail(range(1, extra + 1))
        tail = GeometricTail(body[-1], self.tail.r) if body[-1] > 0.0 else None
        return _computed_sequence(body, tail)

    def _tail(self, offsets: Iterable[int]) -> Tuple[float, ...]:
        """Tail values a * r**j at offsets j >= 1 by the scalar pow, the one rule
        past the prefix: numpy's vectorized pow differs from it in the last bit."""
        a, r = self.tail.a, self.tail.r
        return tuple(a * r ** j for j in offsets)


def _computed_sequence(prefix: Tuple[float, ...], tail: Optional[GeometricTail]) -> L1Sequence:
    """A sequence computed from validated values (finite floats >= 0), so not
    checked again; input goes through ``L1Sequence(...)``."""
    seq = object.__new__(L1Sequence)
    seq.__dict__.update(prefix=prefix, tail=tail)
    return seq


@dataclass(frozen=True)
class RatioCertificate:
    """Machine-checkable verdict on sup of entrywise ratios numerator/denominator.

    Bounded: carries the supremum ``c``.  Unbounded: ``witness_for`` maps any
    bound B to an index where the ratio provably reaches B, either an override
    index recorded by the construction (ratio there equals its multiplier) or,
    past the materialized prefix, an index computed from the closed-form tail
    growth.  Every witness is verifiable by direct evaluation via ``ratio_at``.
    """

    bounded: bool
    c: Optional[float]
    numerator: Optional[L1Sequence] = None
    denominator: Optional[L1Sequence] = None
    overrides: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)

    def ratio_at(self, n: int) -> float:
        """Entrywise ratio at index n, evaluated in log scale."""
        log_ratio = self.numerator.log_value_at(n) - self.denominator.log_value_at(n)
        return math.exp(log_ratio) if log_ratio < 700 else math.inf

    def witness_for(self, bound: float) -> int:
        """An index n with numerator_n / denominator_n >= bound."""
        if self.bounded:
            raise ValidationError("bounded ratio certificate has no unbounded witnesses")
        if bound <= 0:
            raise ValidationError(f"witness bound must be positive, got {bound!r}")
        k = math.ceil(bound)
        if self.overrides and k <= len(self.overrides):
            index = self.overrides[k - 1][0]
            if self.ratio_at(index) >= bound:
                return index
        num, den = self.numerator, self.denominator
        if num.tail is None or den.tail is None or num.tail.r <= den.tail.r:
            raise ValidationError("certificate carries no unbounded tail growth")
        growth = math.log(num.tail.r / den.tail.r)
        start = max(num.prefix_len, den.prefix_len) + 1
        log_start = num.log_value_at(start) - den.log_value_at(start)
        n = start + max(0, math.ceil((math.log(bound) - log_start) / growth))
        while self.ratio_at(n) < bound:
            n += 1
        return n

    def witness_ladder(self, bounds) -> Tuple[Tuple[float, int], ...]:
        return tuple((float(b), self.witness_for(b)) for b in bounds)

    def verify_witness(self, bound: float) -> bool:
        return self.ratio_at(self.witness_for(bound)) >= bound


@dataclass(frozen=True)
class DiagonalDecomposition:
    """Split s = ac + sing relative to t, with the ratio certificate of ac
    against t: bounded exactly when the split is unique."""

    ac: L1Sequence
    sing: L1Sequence
    certificate: RatioCertificate


def _diag_split(s: L1Sequence, t: L1Sequence) -> DiagonalDecomposition:
    """The one split of a pair.  The prefixes are aligned once; one pass sends
    each entry of s wholesale to ac (t > 0) or sing (t = 0) and takes the
    largest ratio ac/t.  A tail on t absorbs the whole tail of s into ac; the
    ratio of two geometric tails is geometric, bounded iff r_s <= r_t, with its
    supremum at the first tail index."""
    upto = max(s.prefix_len, t.prefix_len)
    s_a, t_a = s.materialized(upto), t.materialized(upto)
    ac, sing, sup = [], [], 0.0
    for sv, tv in zip(s_a.prefix, t_a.prefix):
        on_t = tv > 0
        ac.append(sv if on_t else 0.0)
        sing.append(0.0 if on_t else sv)
        if on_t and sv > 0:
            sup = max(sup, sv / tv)
    ac_tail, sing_tail = (s_a.tail, None) if t_a.tail is not None else (None, s_a.tail)
    if ac_tail is not None and ac_tail.r > t_a.tail.r:
        sup = None
    elif ac_tail is not None:
        sup = max(sup, math.exp(s_a.log_value_at(upto + 1) - t_a.log_value_at(upto + 1)))
    ac_seq = _computed_sequence(tuple(ac), ac_tail)
    certificate = RatioCertificate(bounded=sup is not None, c=sup, numerator=ac_seq, denominator=t)
    return DiagonalDecomposition(ac_seq, _computed_sequence(tuple(sing), sing_tail), certificate)


def diag_decompose(s: L1Sequence, t: L1Sequence) -> Tuple[L1Sequence, L1Sequence]:
    """Split s into the part carried by the support of t and the rest, exactly
    on the prefix (each entry goes wholesale to one side)."""
    split = _diag_split(s, t)
    return split.ac, split.sing


def diag_is_dominated(s: L1Sequence, t: L1Sequence) -> Optional[float]:
    """Smallest c with s <= c t entrywise, or None when no such c exists: on a
    support violation (s has a part singular to t) or an unbounded ratio."""
    split = _diag_split(s, t)
    if split.sing.tail is not None or any(split.sing.prefix):
        return None
    return split.certificate.c


def diag_uniqueness(s: L1Sequence, t: L1Sequence) -> Tuple[bool, RatioCertificate]:
    """Is the diagonal decomposition of s relative to t unique?  Exactly when
    the regular part is t-dominated; the certificate carries the domination
    constant, or the witness schedule of the unbounded ratio."""
    certificate = _diag_split(s, t).certificate
    return certificate.bounded, certificate


def construct_unbounded_ratio(
    lam: L1Sequence, horizon: int = DEFAULT_HORIZON
) -> Tuple[L1Sequence, RatioCertificate]:
    """A summable companion of ``lam`` with unbounded entrywise ratios.

    The base is the damped sequence lam_n 2^-n.  Walking the indices once, the
    k-th override lands on the first index where lam_n <= 2^-k and sets
    mu_n = k lam_n there, so the override mass is at most sum k 2^-k = 2 and
    the ratio at the k-th override equals k.  Materialization stops at
    ``horizon`` terms or at the value floor, whichever is first; beyond that
    the tail is a geometric upper envelope with ratio (1 + r)/2 > r, anchored
    at the next value of lam, so the unbounded ratio growth stays encoded in
    the stored tail parameters.

    Requires infinite support: with finite support every companion is
    dominated and every decomposition against lam is unique.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if lam.tail is None:
        raise ValidationError(
            "sequence has finite support: every decomposition relative to it is "
            "unique and no unbounded-ratio companion exists"
        )
    n_pref, tail = lam.prefix_len, lam.tail
    reach = 0
    if tail.a > VALUE_FLOOR:
        reach = int(math.floor(math.log(VALUE_FLOOR / tail.a) / math.log(tail.r)))
    # the horizon caps how much of the tail is materialized; the prefix is
    # already explicit and the envelope must anchor on a genuine tail value
    upto = n_pref + min(horizon, max(reach, 0))
    vals = lam.values(upto)
    body = vals * np.power(2.0, -np.arange(1, upto + 1, dtype=float))
    overrides = []
    k = 1
    for idx in range(1, upto + 1):
        v = float(vals[idx - 1])
        if v > 0 and v <= 2.0 ** (-k):
            body[idx - 1] = k * v
            overrides.append((idx, k))
            k += 1
    anchor = lam.value_at(upto + 1)
    if anchor <= 0.0:
        raise ValidationError("tail values underflow float64 before any term is representable")
    envelope_r = (1.0 + tail.r) / 2.0
    mu = _computed_sequence(tuple(body.tolist()), GeometricTail(anchor / envelope_r, envelope_r))
    certificate = RatioCertificate(bounded=False, c=None, numerator=mu, denominator=lam,
                                   overrides=tuple(overrides))
    return mu, certificate


def _verified_companion(lam: L1Sequence, horizon: int) -> Tuple[L1Sequence, RatioCertificate]:
    """``construct_unbounded_ratio`` with the check that the pair is not unique:
    the companion has no singular part against lam and does not certify as unique."""
    mu, certificate = construct_unbounded_ratio(lam, horizon)
    split = _diag_split(mu, lam)
    if split.sing.total() != 0.0:
        raise ConsistencyError("constructed companion has a singular part against its base")
    if split.certificate.bounded:
        raise ConsistencyError("constructed companion is dominated; ratio growth was lost")
    return mu, certificate


def counterexample_pair(
    lam: L1Sequence, horizon: int = DEFAULT_HORIZON
) -> Tuple[L1Sequence, L1Sequence]:
    """A pair (t, s) = (lam, companion) whose decomposition is not unique.

    Verified before returning: s has no singular part relative to t, yet s is
    not t-dominated, so uniqueness fails by the domination criterion.
    """
    mu, _ = _verified_companion(lam, horizon)
    return lam, mu


def truncate_to_matrix(x: L1Sequence, n: int, cfg: ToleranceConfig = DEFAULT_CONFIG) -> PsdMatrix:
    """Diagonal n x n matrix of the first n values (bridge to the matrix engine)."""
    if n < 1:
        raise ValidationError(f"truncation size must be >= 1, got {n}")
    return PsdMatrix(np.diag(x.values(n)), cfg)


# --- JSON wire format -------------------------------------------------------
#
# {"prefix": [...], "tail": {"type": "geometric", "a": ..., "r": ...} | null}


def sequence_from_json(obj) -> L1Sequence:
    if not isinstance(obj, dict):
        raise ValidationError("sequence JSON must be an object")
    if "prefix" not in obj:
        raise ValidationError("sequence JSON needs a 'prefix' field")
    prefix = obj["prefix"]
    if not isinstance(prefix, list):
        raise ValidationError("'prefix' must be a list of numbers")
    for value in prefix:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError("'prefix' entries must be numbers")
    tail_obj = obj.get("tail")
    tail = None
    if tail_obj is not None:
        if not isinstance(tail_obj, dict) or tail_obj.get("type") != "geometric":
            raise ValidationError("'tail' must be null or {'type': 'geometric', 'a': ..., 'r': ...}")
        if not all(isinstance(tail_obj.get(key), (int, float)) for key in ("a", "r")):
            raise ValidationError("geometric tail needs numeric 'a' and 'r'")
        tail = GeometricTail(float(tail_obj["a"]), float(tail_obj["r"]))
    return L1Sequence(tuple(float(v) for v in prefix), tail)


def sequence_to_json(seq: L1Sequence) -> dict:
    tail = None
    if seq.tail is not None:
        tail = {"type": "geometric", "a": seq.tail.a, "r": seq.tail.r}
    return {"prefix": [float(v) for v in seq.prefix], "tail": tail}


def certificate_to_json(cert: RatioCertificate, ladder=(1, 10, 100, 1e3, 1e4, 1e5, 1e6)) -> dict:
    if cert.bounded:
        return {"kind": "bounded", "c": cert.c, "witnesses": []}
    witnesses = [
        {"bound": bound, "index": index, "ratio": cert.ratio_at(index)}
        for bound, index in cert.witness_ladder(ladder)
    ]
    return {"kind": "unbounded", "c": None, "witnesses": witnesses}
