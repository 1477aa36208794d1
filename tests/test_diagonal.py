import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplebesgue import (
    GeometricTail,
    L1Sequence,
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

    def test_linear_over_geometric_is_unbounded(self):
        mu, _ = construct_unbounded_ratio(HALF)
        assert diag_is_dominated(mu, HALF) is None
        # ratio climbs through the dyadic indices
        ratios = [mu.value_at(2 ** j) / HALF.value_at(2 ** j) for j in range(1, 6)]
        assert ratios == pytest.approx([2 ** j for j in range(1, 6)])

    def test_faster_decay_is_dominated(self):
        # mu_n = 4^-n against 2^-n: ratio 2^-n peaks at the first index
        assert diag_is_dominated(QUARTER, HALF) == pytest.approx(0.5)

    def test_support_violation(self):
        assert diag_is_dominated(L1Sequence((0.0, 1.0)), L1Sequence((1.0,))) is None
        assert diag_is_dominated(HALF, L1Sequence((1.0, 1.0))) is None

    def test_zero_sequence_is_dominated_by_anything(self):
        assert diag_is_dominated(L1Sequence(()), HALF) == 0.0


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


class TestConstruction:
    def test_halving_base_gives_linear_weights(self):
        # every index qualifies as an override, so mu_n = n 2^-n
        mu, _ = construct_unbounded_ratio(HALF)
        np.testing.assert_allclose(mu.values(6), [n * 2.0 ** -n for n in range(1, 7)], rtol=1e-15)
        # independent summation: sum n 2^-n = 2
        assert math.fsum(n * 2.0 ** -n for n in range(1, 200)) == pytest.approx(2.0)
        assert mu.total() == pytest.approx(2.0, rel=1e-12)

    def test_override_rule_holds(self):
        for lam in (HALF, THIRD, QUARTER, L1Sequence((5.0, 0.0, 0.125), GeometricTail(0.25, 0.5))):
            mu, cert = construct_unbounded_ratio(lam)
            assert cert.overrides, "construction must place witness overrides"
            for index, k in cert.overrides[:200]:
                assert lam.value_at(index) <= 2.0 ** -k
                assert mu.value_at(index) == pytest.approx(k * lam.value_at(index), rel=1e-12)

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
            count = mu.prefix_len
            while mu.sum_beyond(count) > 1e-13 * total:
                count *= 2
            assert abs(mu.partial_sum(count) + mu.sum_beyond(count) - total) <= 1e-12 * total

    def test_positivity(self):
        mu, _ = construct_unbounded_ratio(THIRD)
        assert np.all(mu.values(mu.prefix_len) >= 0.0)
        assert mu.tail is not None and mu.tail.a > 0

    def test_slow_decay_uses_envelope_witnesses(self):
        slow = L1Sequence((), GeometricTail(1.0, 0.9))
        mu, cert = construct_unbounded_ratio(slow, horizon=500)
        assert diag_is_dominated(mu, slow) is None
        for bound in (10, 1e3, 1e6):
            assert cert.verify_witness(bound)

    def test_finite_support_is_rejected(self):
        with pytest.raises(ValidationError, match="finite support"):
            construct_unbounded_ratio(L1Sequence((1.0, 0.5)))


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
        # ratio at the last kept index is exactly the index while the whole
        # truncation stays above the rank floor (2^-32 is still resolvable)
        assert constants[32] == pytest.approx(32.0, rel=1e-9)

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
    decaying slower than t's gives None; two tails compare at the first tail index."""
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
        sup = max(sup, math.exp(s_a.log_value_at(upto + 1) - t_a.log_value_at(upto + 1)))
    return sup


def _split_panel():
    rng = make_rng(60)
    pairs = [(random_sequence(rng), random_sequence(rng)) for _ in range(150)]
    long_s = L1Sequence(tuple(float(v) for v in rng.uniform(0.0, 1.0, 300)),
                        GeometricTail(0.3, 0.8))
    # a tail whose rebased scale underflows float64 and is dropped
    vanishing = L1Sequence((1.0, 0.0), GeometricTail(1e-300, 0.01))
    pairs += [(long_s, HALF), (HALF, long_s), (long_s, vanishing), (vanishing, long_s),
              (QUARTER, HALF), (HALF, QUARTER), (HALF, HALF), (L1Sequence(()), HALF)]
    return pairs


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
    """Decomposition, domination and uniqueness read one split of the pair,
    aligned once, and agree with the unsplit formulas entry for entry."""

    def test_panel_matches_unsplit_formulas(self, monkeypatch):
        panel = _split_panel()
        counts = _count_splits(monkeypatch)
        for s, t in panel:
            ac_ref, sing_ref = unsplit_decompose(s, t)
            c_ref = unsplit_dominated(ac_ref, t)
            checks = [
                (lambda: diag_decompose(s, t), (ac_ref, sing_ref)),
                (lambda: diag_is_dominated(s, t), unsplit_dominated(s, t)),
                (lambda: diag_uniqueness(s, t)[0], c_ref is not None),
            ]
            for call, expected in checks:
                counts.update(split=0, materialized=0)
                assert call() == expected
                assert counts["split"] == 1 and counts["materialized"] <= 1
            unique, cert = diag_uniqueness(s, t)
            assert cert.c == c_ref and cert.bounded == unique
            assert cert.numerator == ac_ref and cert.denominator is t

    def test_split_record(self):
        t, s = counterexample_pair(THIRD, horizon=200)
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
        counts = _count_splits(monkeypatch)
        counterexample_pair(L1Sequence((1.0, 0.0, 0.5), GeometricTail(0.5, 0.9)), horizon=500)
        assert counts == {"split": 1, "materialized": 1}
