import json
import math
import sys

import numpy as np
import pytest
import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oplebesgue import (
    ConsistencyError,
    GeometricTail,
    L1Sequence,
    PsdMatrix,
    ValidationError,
    construct_unbounded_ratio,
    decompose,
    diag_decompose,
    diag_is_dominated,
    diag_uniqueness,
    is_dominated,
    sequence_from_json,
    sequence_to_json,
    counterexample_pair,
    trace_norm,
    truncate_to_matrix,
)
from oplebesgue import diagonal
from conftest import make_rng, random_sequence

HALF = L1Sequence((), GeometricTail(1.0, 0.5))        # 2^-n
THIRD = L1Sequence((), GeometricTail(1.0, 1.0 / 3.0))  # 3^-n
QUARTER = L1Sequence((), GeometricTail(1.0, 0.25))     # 4^-n
_FLOAT_MAX = sys.float_info.max


class TestSequenceType:
    def test_geometric_values(self):
        assert HALF.value_at(1) == pytest.approx(0.5)
        assert HALF.value_at(2) == pytest.approx(0.25)
        np.testing.assert_allclose(HALF.values(3), [0.5, 0.25, 0.125])

    def test_prefix_values_and_finite_support(self):
        seq = L1Sequence((3.0, 0.0, 5.0))
        assert [seq.value_at(n) for n in range(1, 5)] == [3.0, 0.0, 5.0, 0.0]
        assert not seq.has_infinite_support

    def test_closed_form_total(self):
        assert HALF.total() == pytest.approx(1.0)
        assert L1Sequence((2.0, 1.0), GeometricTail(1.0, 0.5)).total() == pytest.approx(4.0)

    def test_materialized_preserves_values(self):
        longer = HALF.materialized(10)
        assert longer.prefix_len == 10
        for n in (1, 5, 10, 11, 25):
            assert longer.value_at(n) == pytest.approx(HALF.value_at(n), rel=1e-12)

    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_tail_values_do_not_depend_on_the_count(self, r):
        # one scalar rule for every tail value, however many are built
        seq = L1Sequence((0.25,), GeometricTail(0.5, r))
        for count in (3, 3000):
            values = seq.values(count)
            assert [float(v) for v in values] == [seq.value_at(j) for j in range(1, count + 1)]
            assert seq.materialized(count).prefix == tuple(values)

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            L1Sequence((1.0, -0.5))

    @pytest.mark.parametrize("prefix", [
        (1e308, 1e308),
        # the plain sum rounds to the largest float; the exact sum overflows
        (sys.float_info.max, 2.0**969, 2.0**969),
    ])
    def test_rejects_a_prefix_whose_sum_overflows(self, prefix):
        with pytest.raises(ValidationError, match="float64 range"):
            L1Sequence(prefix)
        assert L1Sequence(prefix[:1]).total() == prefix[0]

    @pytest.mark.parametrize("prefix, tail", [
        ((), GeometricTail(1e308, 0.99)),
        ((1e308,), GeometricTail(1e308, 0.5)),
    ])
    def test_rejects_a_tail_whose_sum_overflows(self, prefix, tail):
        # prefix sum + a r / (1 - r) must be finite, not only the prefix sum
        with pytest.raises(ValidationError, match="float64 range"):
            L1Sequence(prefix, tail)
        assert L1Sequence((1e308,), GeometricTail(1e307, 0.5)).total() == pytest.approx(1.1e308)

    def test_rejects_non_summable_tail(self):
        with pytest.raises(ValidationError, match="summab"):
            GeometricTail(1.0, 1.0)
        with pytest.raises(ValidationError):
            GeometricTail(0.0, 0.5)


class TestDiagDecompose:
    def test_full_support_reference(self):
        ac, sing = diag_decompose(L1Sequence((1.0, 2.0)), L1Sequence((3.0, 4.0)))
        assert ac.prefix == (1.0, 2.0) and sing.total() == 0.0

    def test_support_split(self):
        ac, sing = diag_decompose(L1Sequence((1.0, 1.0)), L1Sequence((1.0,)))
        assert ac.prefix == (1.0, 0.0)
        assert sing.prefix == (0.0, 1.0)

    def test_both_tails_fully_continuous(self):
        ac, sing = diag_decompose(HALF, THIRD)
        assert sing.total() == 0.0
        assert ac.tail == HALF.tail

    def test_finite_reference_sends_tail_to_singular(self):
        ac, sing = diag_decompose(HALF, L1Sequence((1.0,)))
        assert ac.tail is None and sing.tail is not None
        assert ac.value_at(1) == pytest.approx(0.5)
        assert sing.value_at(1) == 0.0

    def test_additivity_exact_on_prefix(self):
        rng = make_rng(50)
        for _ in range(25):
            s, t = random_sequence(rng), random_sequence(rng)
            ac, sing = diag_decompose(s, t)
            upto = max(ac.prefix_len, sing.prefix_len)
            for n in range(1, upto + 1):
                assert ac.value_at(n) + sing.value_at(n) == s.value_at(n)


class TestDiagDomination:
    def test_self(self):
        assert diag_is_dominated(HALF, HALF) == pytest.approx(1.0)

    def test_slower_tail_over_geometric_is_unbounded(self):
        mu, _ = construct_unbounded_ratio(HALF)
        assert diag_is_dominated(mu, HALF) is None
        # mu_n = (3/4)^n against 2^-n: the ratio (3/2)^n climbs without bound
        ratios = [mu.value_at(2 ** j) / HALF.value_at(2 ** j) for j in range(1, 6)]
        assert ratios == pytest.approx([1.5 ** 2 ** j for j in range(1, 6)])

    def test_faster_decay_is_dominated(self):
        # mu_n = 4^-n against 2^-n: ratio 2^-n peaks at the first index
        assert diag_is_dominated(QUARTER, HALF) == pytest.approx(0.5)

    def test_support_violation(self):
        assert diag_is_dominated(L1Sequence((0.0, 1.0)), L1Sequence((1.0,))) is None
        assert diag_is_dominated(HALF, L1Sequence((1.0, 1.0))) is None

    def test_zero_sequence_is_dominated_by_anything(self):
        assert diag_is_dominated(L1Sequence(()), HALF) == 0.0

    @pytest.mark.parametrize("s, t, index", [
        (L1Sequence((1.0, 1e300)), L1Sequence((1.0, 1e-300)), 2),
        (L1Sequence((), GeometricTail(1e300, 0.5)), L1Sequence((), GeometricTail(1e-300, 0.5)), 1),
        (L1Sequence((1.0,), GeometricTail(1e200, 0.5)), L1Sequence((1.0,), GeometricTail(1e-200, 0.5)), 2),
    ], ids=["prefix", "tails", "tails_past_a_prefix"])
    def test_constant_past_float64_raises(self, s, t, index):
        # a bounded ratio no float64 can hold is a failure of the domination
        # stage, as for matrices; the certificate keeps it as inf and raises
        # when it is read, and one just inside the range is the answer
        unique, certificate = diag_uniqueness(s, t)
        assert unique and certificate.c == math.inf
        for read in (certificate.constant, lambda: diag_is_dominated(s, t)):
            with pytest.raises(ConsistencyError, match="exceeds float64") as excinfo:
                read()
            assert excinfo.value.details["stage"] == "domination"
            assert excinfo.value.details["index"] == index
            assert excinfo.value.details["log10_c"] == pytest.approx(
                math.log10(s.value_at(index)) - math.log10(t.value_at(index)))
        assert diag_is_dominated(L1Sequence((1e154,)), L1Sequence((1e-154,))) == 1e154 / 1e-154
        big, small = L1Sequence((), GeometricTail(1e154, 0.5)), L1Sequence((), GeometricTail(1e-154, 0.5))
        assert diag_is_dominated(big, small) == pytest.approx(1e308, rel=1e-12)


class TestDiagUniqueness:
    def test_finite_support_reference_always_unique(self):
        rng = make_rng(51)
        finite = L1Sequence((1.0, 0.5, 0.25))
        for _ in range(10):
            s = random_sequence(rng)
            unique, cert = diag_uniqueness(s, finite)
            assert unique and cert.bounded

    def test_counterexample_pair_is_not_unique(self):
        t, s = counterexample_pair(HALF)
        unique, cert = diag_uniqueness(s, t)
        assert not unique and not cert.bounded
        for bound in (10, 1e3, 1e6):
            assert cert.verify_witness(bound)

    def test_self_pair(self):
        unique, cert = diag_uniqueness(HALF, HALF)
        assert unique and cert.c == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [1e-300, 0.5])
    def test_tails_one_float64_apart_have_minimal_witnesses(self, r):
        # at r = 1e-300, log r_s and log r_t round to the same float, yet the
        # ratio (r_s / r_t)^n grows: its step is read from r_s - r_t
        s = L1Sequence((), GeometricTail(1.0, math.nextafter(r, 1.0)))
        t = L1Sequence((), GeometricTail(1.0, r))
        unique, cert = diag_uniqueness(s, t)
        assert not unique
        for bound in (10, 1e6):
            n = cert.witness_for(bound)
            assert cert.ratio_at(n) >= bound > cert.ratio_at(n - 1)
            with mpmath.workdps(50):
                log_ratio = n * mpmath.log(mpmath.mpf(s.tail.r) / mpmath.mpf(r))
            assert float(log_ratio) == pytest.approx(math.log(bound), rel=1e-9)


class TestConstruction:
    def test_certificate_witnesses_up_to_large_bounds(self):
        for lam in (HALF, THIRD, QUARTER):
            _, cert = construct_unbounded_ratio(lam)
            for bound in (1, 10, 100, 1e3, 1e4, 1e5, 1e6):
                index = cert.witness_for(bound)
                assert cert.ratio_at(index) >= bound

    def test_sum_check_closed_form_vs_partial(self):
        for lam in (HALF, THIRD, QUARTER):
            mu, _ = construct_unbounded_ratio(lam)
            total = mu.total()
            count = mu.prefix_len + 1
            while mu.sum_beyond(count) > 1e-13 * total:
                count *= 2
            assert abs(mu.partial_sum(count) + mu.sum_beyond(count) - total) <= 1e-12 * total

    def test_positivity(self):
        mu, _ = construct_unbounded_ratio(THIRD)
        assert np.all(mu.values(mu.prefix_len) >= 0.0)
        assert mu.tail is not None and mu.tail.a > 0

    def test_ratio_at_is_finite_up_to_the_float64_limit(self):
        # the log ratio at the witness of 1e305 is about 702.7: a finite ratio,
        # and inf only past the log of the largest float64
        _, cert = construct_unbounded_ratio(L1Sequence((), GeometricTail(0.5, 0.5)))
        index = cert.witness_for(1e305)
        log_ratio = cert.numerator.log_value_at(index) - cert.denominator.log_value_at(index)
        assert 700 < log_ratio < math.log(sys.float_info.max)
        assert cert.ratio_at(index) == pytest.approx(math.exp(log_ratio), rel=1e-12)
        assert cert.ratio_at(index) >= 1e305
        far = index + 30
        assert cert.numerator.log_value_at(far) - cert.denominator.log_value_at(far) > math.log(sys.float_info.max)
        assert cert.ratio_at(far) == math.inf

    def test_slow_decay_uses_envelope_witnesses(self):
        slow = L1Sequence((), GeometricTail(1.0, 0.9))
        mu, cert = construct_unbounded_ratio(slow)
        assert diag_is_dominated(mu, slow) is None
        for bound in (10, 1e3, 1e6):
            assert cert.verify_witness(bound)

    def test_finite_support_is_rejected(self):
        with pytest.raises(ValidationError, match="finite support"):
            construct_unbounded_ratio(L1Sequence((1.0, 0.5)))

    @pytest.mark.parametrize("a, r", [(1e50, 0.9), (5e-324, 0.5), (1.5e308, 0.5)],
                             ids=["scale_1e50", "subnormal_scale", "scale_near_max"])
    def test_extreme_tail_scales_give_a_companion(self, a, r):
        # a base's own scale at either end of the float range: the companion
        # keeps a positive scale, a power of two below a, and a finite sum
        lam = L1Sequence((1.0,), GeometricTail(a, r))
        t, s = counterexample_pair(lam)
        assert s.prefix == lam.prefix and s.tail.r == (1.0 + r) / 2.0
        assert 0.0 < s.tail.a <= a and math.frexp(a / s.tail.a)[0] == 0.5
        assert math.isfinite(s.total())
        assert not diag_uniqueness(s, t)[0]

    def test_ratio_one_float_below_1_is_a_counterexample_stage_failure(self):
        r = 1.0 - 2.0 ** -53
        with pytest.raises(ConsistencyError, match=repr(r)) as excinfo:
            construct_unbounded_ratio(L1Sequence((1.0,), GeometricTail(1.0, r)))
        assert excinfo.value.details == {"stage": "counterexample", "r": r}


_LADDER = (1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e10, 1e100, 1e200, 1e300)


def _log_ratio_mp(mu, lam, n):
    """log(mu_n / lam_n) past the prefix, at 50 digits from the tail parameters."""
    with mpmath.workdps(50):
        j = n - lam.prefix_len
        log_mu = mpmath.log(mu.tail.a) + j * mpmath.log(mu.tail.r)
        return log_mu - mpmath.log(lam.tail.a) - j * mpmath.log(lam.tail.r)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e300)), max_size=300),
    st.floats(min_value=5e-324, max_value=1.5e308),
    st.floats(min_value=1e-300, max_value=1.0 - 2.0 ** -52),
)
@example([], 5e-324, 0.5)
@example([1.0], 1e50, 0.9)
@example([1.0, 0.0], 1.5e308, 0.5)
@example([1e300] * 300, 1e-300, 1e-300)
@example([0.0, 0.5], 1e-20, 1.0 - 2.0 ** -52)
@example([0.25], 5e-324, 1.0 - 2.0 ** -52)
def test_closed_form_companion_over_every_valid_base(prefix, a, r):
    try:
        lam = L1Sequence(tuple(prefix), GeometricTail(a, r))
    except ValidationError:
        assume(False)  # the sum of the base itself is past float64
    mu, cert = construct_unbounded_ratio(lam)
    assert mu.prefix_len == lam.prefix_len
    assert math.isfinite(mu.total()) and L1Sequence(mu.prefix, mu.tail) == mu
    split = diagonal._diag_split(mu, lam)
    assert split.sing.tail is None and not any(split.sing.prefix)
    assert not split.certificate.bounded
    start = lam.prefix_len + 1
    for bound in _LADDER:
        n = cert.witness_for(bound)
        log_bound = math.log(bound)
        tol = 1e-12 * (10 + abs(float(_log_ratio_mp(mu, lam, n))))
        assert n >= start and cert.ratio_at(n) >= bound
        assert _log_ratio_mp(mu, lam, n) >= log_bound - tol
        if n > start:
            assert cert.ratio_at(n - 1) < bound
            assert _log_ratio_mp(mu, lam, n - 1) < log_bound + tol


class TestCounterexamplePair:
    @pytest.mark.parametrize("lam", [HALF, THIRD], ids=["half", "third"])
    def test_instance_certificates(self, lam):
        t, s = counterexample_pair(lam)
        assert t is lam
        # equal supports: singular part vanishes identically and both tails live
        _, sing = diag_decompose(s, t)
        assert sing.total() == 0.0
        assert s.has_infinite_support and t.has_infinite_support
        assert diag_is_dominated(s, t) is None
        unique, _ = diag_uniqueness(s, t)
        assert not unique

    def test_escalating_truncated_constants(self):
        t, s = counterexample_pair(HALF)
        previous = 0.0
        constants = {}
        for size in (4, 8, 16, 32, 64):
            c = is_dominated(truncate_to_matrix(s, size), truncate_to_matrix(t, size))
            assert c is not None
            assert c >= size / 2
            assert c >= previous - 1e-9
            previous = constants[size] = c
        # ratio at the last kept index, (3/2)^32, while the whole truncation
        # stays above the rank floor (2^-32 is still resolvable)
        assert constants[32] == pytest.approx(1.5 ** 32, rel=1e-9)

    def test_finite_rank_input_fails(self):
        with pytest.raises(ValidationError):
            counterexample_pair(L1Sequence((1.0, 2.0, 3.0)))


class TestTruncation:
    def test_geometric(self):
        got = truncate_to_matrix(HALF, 2)
        np.testing.assert_allclose(got.array.real, np.diag([0.5, 0.25]))

    def test_prefix(self):
        got = truncate_to_matrix(L1Sequence((3.0, 0.0, 5.0)), 3)
        np.testing.assert_allclose(got.array.real, np.diag([3.0, 0.0, 5.0]))

    def test_single_term(self):
        got = truncate_to_matrix(L1Sequence((7.0,)), 1)
        np.testing.assert_allclose(got.array.real, [[7.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            truncate_to_matrix(HALF, 0)

    @pytest.mark.parametrize("size", [True, 2.5, 2.0, "2"])
    def test_rejects_a_size_that_is_not_an_integer(self, size):
        with pytest.raises(ValidationError, match="integer"):
            truncate_to_matrix(HALF, size)

    def test_accepts_a_numpy_integer_size(self):
        assert np.array_equal(truncate_to_matrix(HALF, np.int64(3)).array, truncate_to_matrix(HALF, 3).array)

    TIED = L1Sequence((1.0, 1.0, 0.5, 0.0, 1.0, 0.25, 0.25))
    SUBNORMAL = L1Sequence((1.0, 5e-324, 1.5e-323, 0.0, 7e-323, 2.0 ** -1022, 0.5))

    @pytest.mark.parametrize("x, size", [(HALF, 40), (TIED, 9), (SUBNORMAL, 7), (THIRD, 1)],
                             ids=["geometric", "tied", "subnormal", "single"])
    def test_spectrum_in_hand_is_the_gate_s(self, spectral_calls, x, size):
        # the array and eigenvalues equal those the input gate computes, bit
        # for bit, an odd subnormal rounded by the Hermitian average included;
        # the eigenvectors are exact unit columns, in index order among ties
        spectral_calls.clear()
        got = truncate_to_matrix(x, size)
        assert spectral_calls == []
        gate = PsdMatrix(np.diag(x.values(size)))
        assert got.array.dtype == gate.array.dtype and np.array_equal(got.array, gate.array)
        assert np.array_equal(got.eigenvalues, gate.eigenvalues)
        order = np.argsort(-np.diag(gate.array).real, kind="stable")
        assert np.array_equal(got.spectrum.eigenvectors, np.eye(size)[:, order])

    def test_matrix_engine_agrees_with_diagonal_rules(self):
        rng = make_rng(52)
        for _ in range(6):
            s, t = random_sequence(rng), random_sequence(rng)
            ac_seq, _ = diag_decompose(s, t)
            for size in (4, 16, 64):
                dec = decompose(truncate_to_matrix(s, size), truncate_to_matrix(t, size))
                expected = truncate_to_matrix(ac_seq, size)
                assert trace_norm(dec.ac.array - expected.array) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=5),
    st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=5),
)
def test_decompose_reassembles_everywhere(s_prefix, t_prefix):
    s = L1Sequence(tuple(s_prefix), GeometricTail(1.0, 0.5))
    t = L1Sequence(tuple(t_prefix))
    ac, sing = diag_decompose(s, t)
    for n in range(1, 8):
        assert ac.value_at(n) + sing.value_at(n) == pytest.approx(s.value_at(n), rel=1e-12)


class TestJson:
    def test_round_trip(self):
        seq = L1Sequence((1.0, 0.0, 2.5), GeometricTail(0.7, 0.3))
        again = sequence_from_json(json.loads(json.dumps(sequence_to_json(seq))))
        assert again == seq

    def test_null_tail(self):
        seq = sequence_from_json({"prefix": [1.0, 2.0], "tail": None})
        assert seq.tail is None

    @pytest.mark.parametrize("blob", [
        {"prefix": [1.0], "tail": {"type": "geometric", "a": 1.0, "r": 1.5}},  # r >= 1
        {"prefix": [1.0], "tail": {"type": "poisson", "a": 1.0, "r": 0.5}},
        {"prefix": "nope"},
        {"tail": None},
        {"prefix": [1.0, "x"]},
        {"prefix": [1.0], "tail": {"type": "geometric", "a": True, "r": 0.5}},
        {"prefix": [1.0], "tail": {"type": "geometric", "a": 1.0, "r": False}},
    ])
    def test_rejects_malformed(self, blob):
        with pytest.raises(ValidationError):
            sequence_from_json(blob)


def _unsplit_aligned(x, upto):
    """x with its prefix extended to ``upto`` entry by entry through value_at."""
    values = tuple(x.value_at(n) for n in range(1, upto + 1))
    if x.tail is None or upto <= x.prefix_len:
        return L1Sequence(values, x.tail)
    rebased = x.tail.a * x.tail.r ** (upto - x.prefix_len)
    return L1Sequence(values, GeometricTail(rebased, x.tail.r) if rebased > 0.0 else None)


def unsplit_decompose(s, t):
    """The split by its own formulas, with no shared pass."""
    upto = max(s.prefix_len, t.prefix_len)
    s_a, t_a = _unsplit_aligned(s, upto), _unsplit_aligned(t, upto)
    ac = tuple(sv if tv > 0 else 0.0 for sv, tv in zip(s_a.prefix, t_a.prefix))
    sing = tuple(sv if tv <= 0 else 0.0 for sv, tv in zip(s_a.prefix, t_a.prefix))
    if t_a.tail is not None:
        return L1Sequence(ac, s_a.tail), L1Sequence(sing, None)
    return L1Sequence(ac, None), L1Sequence(sing, s_a.tail)


def unsplit_dominated(s, t):
    """sup s_n / t_n by its own formulas: a support violation or a tail of s
    decaying slower than t's gives None; two tails compare at the first tail
    index, inf past float64."""
    upto = max(s.prefix_len, t.prefix_len)
    s_a, t_a = _unsplit_aligned(s, upto), _unsplit_aligned(t, upto)
    sup = 0.0
    for sv, tv in zip(s_a.prefix, t_a.prefix):
        if sv > 0:
            if tv <= 0:
                return None
            sup = max(sup, sv / tv)
    if s_a.tail is not None:
        if t_a.tail is None or s_a.tail.r > t_a.tail.r:
            return None
        log_ratio = s_a.log_value_at(upto + 1) - t_a.log_value_at(upto + 1)
        sup = max(sup, math.exp(log_ratio) if log_ratio < math.log(_FLOAT_MAX) else math.inf)
    return sup


def unsplit_constant(s, t):
    """The certificate's constant by the unsplit formulas: sup ac_n / t_n over
    t's values built entry by entry by the scalar rule, or None when unbounded."""
    return unsplit_dominated(unsplit_decompose(s, t)[0], t)


def _split_panel():
    rng = make_rng(60)
    pairs = [(random_sequence(rng), random_sequence(rng)) for _ in range(150)]
    long_s = L1Sequence(tuple(float(v) for v in rng.uniform(0.0, 1.0, 300)),
                        GeometricTail(0.3, 0.8))
    # a tail whose rebased scale underflows float64 and is dropped
    vanishing = L1Sequence((1.0, 0.0), GeometricTail(1e-300, 0.01))
    pairs += [(long_s, HALF), (HALF, long_s), (long_s, vanishing), (vanishing, long_s),
              (QUARTER, HALF), (HALF, QUARTER), (HALF, HALF), (L1Sequence(()), HALF)]
    # the edges of the tail rule, in both orders of length: signed zeros in a
    # long s, a tail of t underflowing inside the aligned range, pow
    # underflowing near offset 1075 while a * r**j would not (past s and
    # inside it), r next below 1, empty prefixes
    values = [float(v) for v in rng.uniform(0.0, 2.0, 1200)]
    for n in range(0, 1200, 7):
        values[n] = -0.0 if n % 2 else 0.0
    signed_s = L1Sequence(tuple(values), GeometricTail(0.25, 0.9))
    signed = L1Sequence((-0.0, 1.0, 0.0, -0.0, 2.0, -0.0), GeometricTail(0.5, 0.5))
    signed_t = L1Sequence((1.0, -0.0, 0.0, 3.0, -0.0, 1.0, 0.0, 2.0), GeometricTail(0.5, 0.75))
    pow_first = L1Sequence((), GeometricTail(1e300, 0.5))
    near_one = L1Sequence((1.0, -0.0), GeometricTail(0.5, 1 - 2**-52))
    empty = L1Sequence(())
    pairs += [
        (signed_s, vanishing), (signed_s, pow_first),
        (L1Sequence(tuple(values[:900]), GeometricTail(0.5, 0.9)), pow_first),
        (signed_s, near_one), (L1Sequence(tuple(values[:40]), GeometricTail(0.5, 1 - 2**-52)), near_one),
        (signed, signed_t), (signed, L1Sequence(tuple(values[:300]), GeometricTail(1.0, 0.5))),
        (signed, signed_s), (L1Sequence((1.0,), GeometricTail(1.0, 0.95)), signed_s),
        (empty, empty), (HALF, empty),
        (L1Sequence((), GeometricTail(2.0, 0.5)), L1Sequence((), GeometricTail(1e-300, 0.25))),
    ]
    return pairs


def _bits(x):
    """A float, a sequence's prefix and tail, or None, bit for bit: zero signs
    and the exact values, which ``==`` does not separate."""
    if x is None or isinstance(x, float):
        return x if x is None else x.hex()
    return tuple(v.hex() for v in x.prefix), x.tail and (x.tail.a.hex(), x.tail.r.hex())


def _count_splits(monkeypatch):
    """Counts of _diag_split calls and of materializations past the prefix."""
    counts = {"split": 0, "materialized": 0}
    split, materialized = diagonal._diag_split, L1Sequence.materialized

    def counted_split(*args):
        counts["split"] += 1
        return split(*args)

    def counted_materialized(self, upto):
        counts["materialized"] += upto > self.prefix_len
        return materialized(self, upto)

    monkeypatch.setattr(diagonal, "_diag_split", counted_split)
    monkeypatch.setattr(L1Sequence, "materialized", counted_materialized)
    return counts


class TestOneSplit:
    """Decomposition, domination and uniqueness read one split of the pair
    and agree with the unsplit formulas entry for entry, bit for bit."""

    def test_panel_matches_unsplit_formulas(self, monkeypatch):
        panel = _split_panel()
        counts = _count_splits(monkeypatch)
        for s, t in panel:
            ac_ref, sing_ref = unsplit_decompose(s, t)
            c_ref = unsplit_dominated(ac_ref, t)
            checks = [
                (lambda: tuple(map(_bits, diag_decompose(s, t))), (_bits(ac_ref), _bits(sing_ref))),
                (lambda: _bits(diag_is_dominated(s, t)), _bits(unsplit_dominated(s, t))),
                (lambda: diag_uniqueness(s, t)[0], c_ref is not None),
            ]
            for call, expected in checks:
                counts.update(split=0, materialized=0)
                assert call() == expected
                assert counts["split"] == 1 and counts["materialized"] <= 1
            unique, cert = diag_uniqueness(s, t)
            assert _bits(cert.c) == _bits(c_ref) and cert.bounded == unique
            assert _bits(cert.numerator) == _bits(ac_ref) and cert.denominator is t

    def test_split_record(self):
        t, s = counterexample_pair(THIRD)
        split = diagonal._diag_split(s, t)
        assert isinstance(split, diagonal.DiagonalDecomposition)
        assert (split.ac, split.sing) == diag_decompose(s, t)
        assert split.certificate == diag_uniqueness(s, t)[1]
        assert not split.certificate.bounded and split.sing.total() == 0.0
        with pytest.raises(AttributeError):
            split.ac = s

    def test_materialized_builds_only_the_tail_with_the_scalar_of_value_at(self, monkeypatch):
        # r = 0.99 runs the tail through the subnormal range before it underflows
        seq = L1Sequence((1.0, 0.0, 2.0), GeometricTail(0.5, 0.99))
        reads = []
        value_at = L1Sequence.value_at
        monkeypatch.setattr(L1Sequence, "value_at",
                            lambda self, n: reads.append(n) or value_at(self, n))
        longer = seq.materialized(80_003)
        assert reads == []
        assert longer.prefix[:3] == seq.prefix and longer.prefix_len == 80_003
        assert all(longer.prefix[n - 1] == value_at(seq, n) for n in range(4, 80_004))
        assert longer.tail is None and longer.prefix[-1] == 0.0
        kept = seq.materialized(1_000)
        assert kept.tail == GeometricTail(value_at(seq, 1_000), 0.99)
        assert seq.materialized(2) is seq

    def test_counterexample_is_verified_on_one_split(self, monkeypatch):
        # the companion is unbounded against its base: no value of the base's
        # tail is read, so nothing is materialized
        counts = _count_splits(monkeypatch)
        counterexample_pair(L1Sequence((1.0, 0.0, 0.5), GeometricTail(0.5, 0.9)))
        assert counts == {"split": 1, "materialized": 0}

    def test_split_evaluates_only_the_tail_values_it_reads(self, monkeypatch):
        # a 256-entry base with r = 0.999 and 100 256-entry companions built on
        # the base's values: the closed form covers the whole aligned tail, so
        # an unbounded split evaluates no value of the base's tail, and a bounded
        # one evaluates by the scalar rule only the offsets its screen leaves
        # open, the band, and the last offset, the scale of the rebased tail
        rng = make_rng(61)
        prefix = tuple(float(v) if rng.random() > 0.25 else 0.0 for v in rng.uniform(0.05, 1.0, 256))
        lam = L1Sequence(prefix, GeometricTail(0.5, 0.999))
        long = lam.materialized(100_256)
        mu = L1Sequence(long.prefix, GeometricTail(long.tail.a, 0.9995))
        offsets, tail = [], L1Sequence._tail

        def counted_tail(self, offs):
            offs = list(offs)
            offsets.extend(offs)
            return tail(self, offs)

        monkeypatch.setattr(L1Sequence, "_tail", counted_tail)
        assert not diagonal._diag_split(mu, lam).certificate.bounded
        assert offsets == []
        # s = t: the ratio ties at every offset, so every offset is in the band,
        # evaluated once
        dominated = L1Sequence(mu.prefix, GeometricTail(mu.tail.a, lam.tail.r))
        assert diagonal._diag_split(dominated, lam).certificate.bounded
        assert sorted(offsets) == list(range(1, 100_001))
        # a generic ratio: its band is its largest offset alone
        offsets.clear()
        weights = rng.uniform(0.5, 2.0, long.prefix_len)
        generic = L1Sequence(tuple((np.array(long.prefix) * weights).tolist()), dominated.tail)
        certificate = diagonal._diag_split(generic, lam).certificate
        top = int(np.argmax(np.where(np.arange(long.prefix_len) >= 256, weights, 0.0))) - 255
        assert offsets == [top, 100_000]
        monkeypatch.setattr(L1Sequence, "_tail", tail)
        assert _bits(certificate.c) == _bits(unsplit_constant(generic, lam))

    def test_an_overflowing_screen_does_not_hide_a_finite_maximum(self):
        # at offset 3 the screened value of t lies below the scalar one, so its
        # ratio, one ulp below the float maximum, screens as inf; at offset 30
        # the ratio is the float maximum itself and screens finite
        t = L1Sequence((), GeometricTail(1e-300, 0.99))
        v3, v30 = t.value_at(3), t.value_at(30)
        values = [0.0] * 30
        values[2], values[29] = v3 * (_FLOAT_MAX * (1.0 - 2.0 ** -53)), v30 * _FLOAT_MAX
        with np.errstate(over="ignore"):
            screened = np.multiply.accumulate(np.full(30, 0.99)) * 1e-300
            assert values[2] / screened[2] == math.inf and values[2] / v3 < values[29] / v30
        s = L1Sequence(tuple(values))
        assert diagonal._diag_split(s, t).certificate.c == _FLOAT_MAX == unsplit_constant(s, t)

    def test_a_subnormal_screen_does_not_hide_the_maximum(self):
        # ratios of about 2^20 units of the smallest subnormal, where the
        # relative allowance is far below one unit: the screen lies above the
        # scalar rule at offset 5 and below it at offset 10, so each ratio
        # rounds one unit apart, and the screened maximum sits at offset 10
        # while the scalar one sits at offset 5
        t = L1Sequence((), GeometricTail(2.0 ** 40, 0.95))
        values = [0.0] * 10
        values[4], values[9] = float.fromhex("0x1.8c2d103b1172dp-1015"), float.fromhex("0x1.328daf7e4c677p-1015")
        screened = np.multiply.accumulate(np.full(10, 0.95)) * 2.0 ** 40
        unit, k = math.ulp(0.0), 2 ** 20
        assert values[4] / screened[4] == k * unit and values[4] / t.value_at(5) == (k + 1) * unit
        assert values[9] / screened[9] == (k + 1) * unit and values[9] / t.value_at(10) == k * unit
        s = L1Sequence(tuple(values))
        assert diagonal._diag_split(s, t).certificate.c == (k + 1) * unit == unsplit_constant(s, t)


@settings(max_examples=80, deadline=None)
@given(
    r=st.floats(min_value=1e-3, max_value=1.0 - 2.0 ** -40),
    scale=st.sampled_from([1.0, 2.0 ** -990, 1e-300]),
    t_prefix=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), max_size=40),
    t_a=st.floats(min_value=0.1, max_value=4.0),
    s_len=st.integers(min_value=0, max_value=3000),
    kind=st.sampled_from(["ties", "near_ties", "random", "huge"]),
    s_tail=st.sampled_from([None, "same", "faster", "slower"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# long exact ties, s = 2t, with a carried tail
@example(r=0.999, scale=1.0, t_prefix=[1.0, 0.0, 3.0], t_a=0.5, s_len=3000, kind="ties", s_tail="same", seed=0)
@example(r=0.999, scale=1.0, t_prefix=[], t_a=1.0, s_len=3000, kind="near_ties", s_tail=None, seed=2)
# ratios overflowing to inf beside ones just below the float maximum
@example(r=0.9, scale=1e-300, t_prefix=[], t_a=1.0, s_len=2000, kind="huge", s_tail=None, seed=1)
@example(r=1.0 - 2.0 ** -40, scale=2.0 ** -990, t_prefix=[0.5], t_a=4.0, s_len=3000, kind="huge", s_tail="same", seed=2)
# offsets past the sure range: t's values turn subnormal, then zero
@example(r=1e-3, scale=1e-300, t_prefix=[1.0], t_a=0.1, s_len=400, kind="random", s_tail="same", seed=3)
@example(r=0.5, scale=2.0 ** -990, t_prefix=[], t_a=1.0, s_len=100, kind="ties", s_tail="faster", seed=4)
# t's prefix longer than s's
@example(r=0.99, scale=1.0, t_prefix=[0.5] * 40, t_a=1.0, s_len=5, kind="random", s_tail="faster", seed=5)
def test_screened_supremum_is_the_scalar_rules(r, scale, t_prefix, t_a, s_len, kind, s_tail, seed):
    """The certificate's constant equals, bit for bit, the supremum over t's
    aligned values built by the scalar rule, however close the ratios lie."""
    assume(kind != "huge" or scale < 1.0)  # a ratio past float64 needs a small t
    t = L1Sequence(tuple(scale * v for v in t_prefix), GeometricTail(scale * t_a, r))
    base = np.array(t.materialized(max(s_len, t.prefix_len)).prefix[:s_len])
    rng = make_rng(seed)
    if kind == "ties":
        values = 2.0 * base
    elif kind == "near_ties":
        # ties but at about 1 % of the offsets, a few ulps above them: closer
        # than the screen resolves, so its maximum need not be the scalar one
        above = rng.integers(1, 4, s_len) * (rng.random(s_len) < 0.01)
        values = 2.0 * base * (1.0 + above * sys.float_info.epsilon)
    elif kind == "random":
        values = base * rng.uniform(0.5, 2.0, s_len)
    else:
        # ratios of about 2 and 1/2 times the float maximum and within 16 ulps
        # below it: inf, finite, and either side of the overflow
        near = [1.0 - k * 2.0 ** -53 for k in range(16)]
        values = base * rng.choice([2.0, 0.5, *near], s_len) * _FLOAT_MAX
    values[rng.random(s_len) < 0.1] = 0.0
    tails = {"same": r, "faster": r / 2, "slower": (1.0 + r) / 2}
    s = L1Sequence(tuple(values.tolist()),
                   s_tail and GeometricTail(scale * t_a * rng.uniform(0.5, 2.0), tails[s_tail]))
    expected = unsplit_constant(s, t)
    certificate = diagonal._diag_split(s, t).certificate
    assert certificate.bounded == (expected is not None)
    assert _bits(certificate.c) == _bits(expected)
