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

Each pair is split once per request: ``_diag_split`` yields the regular part,
the singular part and the ratio certificate of the regular part, which
decomposition, domination, uniqueness and the counterexample check all read.
It reads only what the answer needs: the runs of the base's support go
wholesale to one part as slices of the other sequence's prefix; on the base's
tail the support is known in closed form down to 2^-1000, so the scalar tail
rule runs only past it; and the base's tail values are read for the ratio
only when the tails leave it bounded, screened as one array, with the scalar
rule run only where the screen cannot decide.

Ratios and witnesses are evaluated in log scale, so they stay checkable where
the values underflow float64.  The counterexample companion is the base's own
prefix and a slower geometric tail: its ratio grows in closed form, and it is
no longer than the base.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ValidationError, ConsistencyError
from .psd_core import PsdMatrix, _with_spectrum

# log of the largest float64: exp overflows past it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# log 2^-1000: a tail value whose log stays above this is a normal float.
_LOG_SURE_POSITIVE = -1000 * math.log(2.0)


def _exp_or_inf(log_value: float) -> float:
    """exp of a log, inf past the largest float64 instead of an OverflowError."""
    return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


@dataclass(frozen=True)
class GeometricTail:
    """Generates a * r**(n - N) for indices n past a prefix of length N."""

    a: float
    r: float

    def __post_init__(self):
        a, r = _as_float(self.a, "tail scale"), _as_float(self.r, "tail ratio")
        if not (math.isfinite(a) and a > 0):
            raise ValidationError(f"tail scale must be a finite positive number, got {self.a!r}")
        if not 0 < r < 1:
            raise ValidationError(f"tail ratio must satisfy 0 < r < 1 for summability, got {self.r!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class L1Sequence:
    """Summable nonnegative sequence: explicit prefix + optional geometric tail.

    Prefix zeros are allowed and encode support gaps.  The total sum has the
    closed form sum(prefix) + a r / (1 - r).
    """

    prefix: Tuple[float, ...]
    tail: Optional[GeometricTail] = None

    def __post_init__(self):
        prefix = tuple(self.prefix)
        tail = 0.0 if self.tail is None else self.tail.a * self.tail.r / (1.0 - self.tail.r)
        # plain floats pass in one C-speed sweep when their sum plus the tail's is
        # below 2**1023, half the float range (no nan, inf or overflow), and their
        # minimum is nonnegative; anything else is checked entry by entry, and the
        # exact sum of the prefix plus the tail's must stay finite
        if not (set(map(type, prefix)) <= {float} and sum(prefix) + tail < 2.0**1023
                and min(prefix, default=0.0) >= 0):
            prefix = tuple(map(_sequence_value, prefix))
            try:
                total = math.fsum(prefix) + tail
            except OverflowError:
                total = math.inf
            if math.isinf(total):
                raise ValidationError("sequence sums past the float64 range")
        object.__setattr__(self, "prefix", prefix)

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
        past the prefix: numpy's vectorized pow differs from it in the last
        bit.  ``_bounded_sup`` screens a ratio without it and calls it only on
        the offsets inside the screen's roundoff band."""
        a, r = self.tail.a, self.tail.r
        return tuple(a * r ** j for j in offsets)


def _as_float(value, what: str) -> float:
    """A number as a float; an int no float64 can hold is out of range."""
    if not _is_number(value):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} must fit a float64, got an int beyond its range") from None


def _sequence_value(value) -> float:
    v = _as_float(value, "sequence value")
    if not (math.isfinite(v) and v >= 0):
        raise ValidationError(f"sequence values must be finite and >= 0, got {v!r}")
    return v


def _computed_sequence(prefix: Tuple[float, ...], tail: Optional[GeometricTail]) -> L1Sequence:
    """A sequence computed from validated values (finite floats >= 0), so not
    checked again; input goes through ``L1Sequence(...)``."""
    seq = object.__new__(L1Sequence)
    seq.__dict__.update(prefix=prefix, tail=tail)
    return seq


@dataclass(frozen=True)
class RatioCertificate:
    """Machine-checkable verdict on sup of entrywise ratios numerator/denominator.

    Bounded: carries the supremum ``c``.  Unbounded: the numerator's tail
    decays slower than the denominator's, and ``witness_for`` maps any bound B
    to the first index past both prefixes where the ratio reaches B, computed
    from the closed-form growth of the two tails.  Every witness is verifiable
    by direct evaluation via ``ratio_at``.
    """

    bounded: bool
    c: Optional[float]
    numerator: Optional[L1Sequence] = None
    denominator: Optional[L1Sequence] = None

    def constant(self) -> Optional[float]:
        """The supremum c of a bounded certificate, None for an unbounded one.

        A bounded supremum past float64 is an answer no float64 carries: it
        raises ConsistencyError of the domination stage, as the matrix
        domination constant does, with the largest ratio in log scale."""
        if self.bounded and math.isinf(self.c):
            num, den = self.numerator, self.denominator
            log_ratio, index = max((num.log_value_at(n) - den.log_value_at(n), n)
                                   for n in range(1, num.prefix_len + 2) if num.value_at(n) > 0)
            log10_c = log_ratio / math.log(10)
            raise ConsistencyError(
                f"domination constant 10^{log10_c:.1f} exceeds float64 (ratio at index {index})",
                details={"stage": "domination", "index": index, "log10_c": log10_c},
            )
        return self.c

    def _growth(self) -> float:
        """log(r_num / r_den), the step of the log ratio between the tails, from
        the ratios' difference: positive whenever r_num > r_den, also where
        log r_num and log r_den round to the same float."""
        r_num, r_den = self.numerator.tail.r, self.denominator.tail.r
        return math.log1p((r_num - r_den) / r_den)

    def _log_ratio(self, n: int) -> float:
        """log of the ratio at index n.  Past the first index ``start`` beyond
        both prefixes it is the one at ``start`` plus (n - start) times the
        growth, which, rounding included, never falls as n grows."""
        num, den = self.numerator, self.denominator
        start = max(num.prefix_len, den.prefix_len) + 1
        if n <= start or num.tail is None or den.tail is None:
            return num.log_value_at(n) - den.log_value_at(n)
        return self._log_ratio(start) + (n - start) * self._growth()

    def ratio_at(self, n: int) -> float:
        """Entrywise ratio at index n, evaluated in log scale."""
        return _exp_or_inf(self._log_ratio(n))

    def witness_for(self, bound: float) -> int:
        """The first index past both prefixes with numerator_n / denominator_n >= bound."""
        if self.bounded:
            raise ValidationError("bounded ratio certificate has no unbounded witnesses")
        if bound <= 0:
            raise ValidationError(f"witness bound must be positive, got {bound!r}")
        num, den = self.numerator, self.denominator
        if num.tail is None or den.tail is None or num.tail.r <= den.tail.r:
            raise ValidationError("certificate carries no unbounded tail growth")
        start = max(num.prefix_len, den.prefix_len) + 1
        n = start + max(0, math.ceil((math.log(bound) - self._log_ratio(start)) / self._growth()))
        # the closed-form estimate can miss by the rounding of its quotient
        while self.ratio_at(n) < bound:
            n += 1
        while n > start and self.ratio_at(n - 1) >= bound:
            n -= 1
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


def _sure_positive(tail: GeometricTail, count: int) -> int:
    """How many of the tail offsets 1..count are positive in closed form: the
    first offsets j where both j log r and log a + j log r lie above log 2^-1000.
    There r**j is a normal float, and so is a * r**j, 74 binades above the
    subnormals, so the scalar rule gives a positive value however pow rounds."""
    log_r = math.log(tail.r)
    reach = min(_LOG_SURE_POSITIVE / log_r, (_LOG_SURE_POSITIVE - math.log(tail.a)) / log_r)
    return max(0, min(count, math.floor(reach)))


def _array(values: Tuple[float, ...]) -> np.ndarray:
    """A tuple of floats as a float array (``fromiter`` builds it faster than
    ``np.array`` does from a tuple)."""
    return np.fromiter(values, float, len(values))


def _bounded_sup(s_a: L1Sequence, t: L1Sequence, on_t: np.ndarray, sure: int,
                 past: Tuple[float, ...], tail_carried: bool) -> float:
    """The supremum of the ratio s_a/t, when it is bounded, over s_a's aligned
    prefix and, with ``tail_carried``, at the first tail index (inf past
    float64), bit for bit the one of t's values by the scalar tail rule.

    On t's ``sure`` offsets, where r**j and a * r**j are normal floats, t is
    screened as a times a cumulative product of r, whose relative error after
    j factors is at most (j - 1) eps/2 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Lemma 3.1); the entries both sequences
    carry are divided in one vectorized division, and overflow gives inf, as
    Python's ``/`` does.  The screened and the scalar ratio at offset j differ
    by at most (j + 5) eps/2 to first order: the product chain, pow's 1 ulp,
    and one rounding for each product with a and each division.  So the
    largest scalar ratio lies at an offset screened within twice that of the
    screened maximum, which is capped at the largest float so that an
    overflow to inf cannot hide a finite neighbour; the allowance doubles
    that again.  ``_tail`` evaluates only the offsets in that band and the
    last offset when it is the scale of the rebased tail; off the ``sure``
    range t's values are its prefix and ``past``, already the rule's."""
    upto, tail, lead = s_a.prefix_len, t.tail, t.prefix_len
    span = slice(lead, lead + sure)
    t_v = np.empty(upto)
    t_v[:lead], t_v[lead + sure:] = _array(t.prefix), _array(past)
    if sure:
        chain = t_v[span]
        chain.fill(tail.r)
        np.multiply.accumulate(chain, out=chain)
        chain *= tail.a
    s_v = _array(s_a.prefix)
    kept = on_t & (s_v > 0)
    allowance = 2 * (sure + 5) * sys.float_info.epsilon
    with np.errstate(over="ignore"):
        ratio = np.divide(s_v, t_v, out=t_v, where=kept)
        top = min(float(ratio[span].max(where=kept[span], initial=0.0)), sys.float_info.max)
        # 4 ulps of 0 cover the divisions' absolute error where a ratio is subnormal
        band = np.flatnonzero(kept[span] & (ratio[span] >= top * (1.0 - allowance) - 4 * math.ulp(0.0)))
        offsets = (band + 1).tolist()
        if tail_carried and sure == upto - lead > 0 and offsets[-1:] != [sure]:
            offsets.append(sure)
        exact = _array(t._tail(offsets) if offsets else ())
        kept[span] = False
        sup = max(float(ratio.max(where=kept, initial=0.0)),
                  float(np.divide(s_v[lead + band], exact[:band.size]).max(initial=0.0)))
    if tail_carried:
        # the scale of t's tail rebased at upto, as ``materialized`` keeps it
        rebased = tail.a if upto == lead else past[-1] if past else exact[-1]
        log_ratio = s_a.log_value_at(upto + 1) - (math.log(rebased) + math.log(tail.r))
        sup = max(sup, _exp_or_inf(log_ratio))
    return sup


def _diag_split(s: L1Sequence, t: L1Sequence) -> DiagonalDecomposition:
    """The one split of a pair, reading only what the answer needs.

    The prefixes are aligned to the longer one, s by ``materialized``.  Each
    maximal run of t's support goes wholesale to ac (t > 0) or sing (t = 0) as
    a slice of s's aligned prefix, with ``(0.0,) * len`` on the other side.
    The parts grow run by run: filling whole-length lists and swapping the
    gaps measured about 2 MB more peak RSS on 100 000-entry pairs (CPython
    3.11, glibc malloc).  The support is read from t's explicit prefix and,
    past it, from the closed form of ``_sure_positive``; the scalar rule
    a * r**j runs only at the offsets beyond that range, and the last of them
    decides whether t's rebased tail survives.

    A surviving tail on t absorbs the whole tail of s into ac; the ratio of two
    geometric tails is geometric, bounded iff r_s <= r_t, with its supremum at
    the first tail index, inf if it lies past float64.  An unbounded ratio is
    thus known from the tails alone; only a bounded one reads t's aligned
    values, in ``_bounded_sup``, which screens them as one array and runs the
    scalar rule only inside the screen's band."""
    upto = max(s.prefix_len, t.prefix_len)
    s_a = s.materialized(upto)
    tail, extra = t.tail, upto - t.prefix_len
    if tail is None:
        sure, past = 0, (0.0,) * extra
    else:
        sure = _sure_positive(tail, extra)
        past = t._tail(range(sure + 1, extra + 1))
    t_live = tail is not None and (not past or past[-1] > 0.0)
    on_t = np.concatenate((_array(t.prefix) > 0, np.ones(sure, dtype=bool), _array(past) > 0))
    ac_tail, sing_tail = (s_a.tail, None) if t_live else (None, s_a.tail)
    sup = None
    if ac_tail is None or ac_tail.r <= tail.r:
        sup = _bounded_sup(s_a, t, on_t, sure, past, ac_tail is not None)
    edges = [0, *(np.flatnonzero(on_t[1:] != on_t[:-1]) + 1).tolist(), upto]
    ac, sing, carried = [], [], upto > 0 and bool(on_t[0])
    for lo, hi in zip(edges, edges[1:]):
        run, zeros = s_a.prefix[lo:hi], (0.0,) * (hi - lo)
        ac += run if carried else zeros
        sing += zeros if carried else run
        carried = not carried
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
    return split.certificate.constant()


def diag_uniqueness(s: L1Sequence, t: L1Sequence) -> Tuple[bool, RatioCertificate]:
    """Is the diagonal decomposition of s relative to t unique?  Exactly when
    the regular part is t-dominated; the certificate carries the domination
    constant (inf past float64, which ``constant`` rejects), or the witness
    schedule of the unbounded ratio."""
    certificate = _diag_split(s, t).certificate
    return certificate.bounded, certificate


def construct_unbounded_ratio(lam: L1Sequence) -> Tuple[L1Sequence, RatioCertificate]:
    """A summable companion of ``lam`` with unbounded entrywise ratios.

    The companion is lam's prefix followed by the tail a' r'^j, where (a, r)
    is lam's tail and r' = (1 + r)/2 > r, so its ratio to lam past the prefix
    is (a'/a) (r'/r)^j, unbounded in closed form.  a' is a, halved (exactly)
    until the companion's sum fits a float64, which holds once a' <= a r / (1 + r).

    Requires infinite support: with finite support every companion is
    dominated and every decomposition against lam is unique.  An r one float64
    below 1 leaves no float64 for r' and raises ConsistencyError.
    """
    if lam.tail is None:
        raise ValidationError(
            "sequence has finite support: every decomposition relative to it is "
            "unique and no unbounded-ratio companion exists"
        )
    r = lam.tail.r
    slower = (1.0 + r) / 2.0
    if not slower < 1.0:
        raise ConsistencyError(
            f"no float64 lies strictly between the tail ratio r = {r!r} and 1, "
            "so no slower geometric tail exists",
            details={"stage": "counterexample", "r": r},
        )
    head, scale = math.fsum(lam.prefix), lam.tail.a
    while math.isinf(head + scale * slower / (1.0 - slower)):
        scale /= 2.0
    mu = _computed_sequence(lam.prefix, GeometricTail(scale, slower))
    return mu, RatioCertificate(bounded=False, c=None, numerator=mu, denominator=lam)


def _verified_companion(lam: L1Sequence) -> Tuple[L1Sequence, RatioCertificate]:
    """``construct_unbounded_ratio`` with the check that the pair is not unique:
    the companion has no singular part against lam and does not certify as unique."""
    mu, certificate = construct_unbounded_ratio(lam)
    split = _diag_split(mu, lam)
    if split.sing.total() != 0.0:
        raise ConsistencyError("constructed companion has a singular part against its base")
    if split.certificate.bounded:
        raise ConsistencyError("constructed companion is dominated; ratio growth was lost")
    return mu, certificate


def counterexample_pair(lam: L1Sequence) -> Tuple[L1Sequence, L1Sequence]:
    """A pair (t, s) = (lam, companion) whose decomposition is not unique.

    Verified before returning: s has no singular part relative to t, yet s is
    not t-dominated, so uniqueness fails by the domination criterion.
    """
    mu, _ = _verified_companion(lam)
    return lam, mu


def truncate_to_matrix(x: L1Sequence, n: int) -> PsdMatrix:
    """Diagonal n x n matrix of the first n values (bridge to the matrix engine).

    Its spectrum is in hand and is not factored: the eigenvalues are the
    values, rounded as the Hermitian average of the array rounds its
    diagonal, and the eigenvectors the unit columns, in index order among
    equal values.  The array is complex, as the input gate makes it."""
    if not (_is_integer(n) and n >= 1):
        raise ValidationError(f"truncation size must be an integer >= 1, got {n!r}")
    values = x.values(n)
    values = values / 2 + values / 2  # rounded as the stored average rounds: odd subnormals only
    return _with_spectrum(np.diag(values).astype(complex), values, np.eye(n, dtype=complex))


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
    # plain floats and ints, the common case, are typed in one pass at C speed;
    # anything else is decided entry by entry
    if not set(map(type, prefix)) <= {float, int}:
        for value in prefix:
            if not _is_number(value):
                raise ValidationError("'prefix' entries must be numbers")
    tail_obj = obj.get("tail")
    tail = None
    if tail_obj is not None:
        if not isinstance(tail_obj, dict) or tail_obj.get("type") != "geometric":
            raise ValidationError("'tail' must be null or {'type': 'geometric', 'a': ..., 'r': ...}")
        if not all(_is_number(tail_obj.get(key)) for key in ("a", "r")):
            raise ValidationError("geometric tail needs numeric 'a' and 'r'")
        tail = GeometricTail(tail_obj["a"], tail_obj["r"])
    return L1Sequence(tuple(prefix), tail)


def _is_number(value) -> bool:
    """A real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An integral number other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def sequence_to_json(seq: L1Sequence) -> dict:
    tail = None
    if seq.tail is not None:
        tail = {"type": "geometric", "a": seq.tail.a, "r": seq.tail.r}
    return {"prefix": list(seq.prefix), "tail": tail}


def certificate_to_json(cert: RatioCertificate, ladder=(1, 10, 100, 1e3, 1e4, 1e5, 1e6)) -> dict:
    """The certificate in the report format; a witness ratio past float64 is
    null, as JSON has no infinity."""
    if cert.bounded:
        return {"kind": "bounded", "c": cert.c, "witnesses": []}
    witnesses = []
    for bound, index in cert.witness_ladder(ladder):
        ratio = cert.ratio_at(index)
        witnesses.append({"bound": bound, "index": index, "ratio": ratio if math.isfinite(ratio) else None})
    return {"kind": "unbounded", "c": None, "witnesses": witnesses}
