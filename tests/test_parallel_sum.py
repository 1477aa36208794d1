import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oplebesgue import (
    ConsistencyError,
    DimensionMismatchError,
    PsdMatrix,
    decompose,
    is_singular_pair,
    loewner_leq,
    nonzero_common_minorant,
    parallel_sum,
    trace,
)
from oplebesgue.psd_core import RANK_CUTOFF, trace_norm
from conftest import (
    GRADED_FLOORS,
    graded_panel,
    make_rng,
    random_psd,
    random_unitary,
    screens_inconclusive,
    structured_pair,
)

# the package re-exports the function parallel_sum under the module's name
parallel_sum_module = importlib.import_module("oplebesgue.parallel_sum")


def diagonal_oracle(s, t):
    """Independent scalar formula for commuting diagonals: s*t/(s+t), 0 where both vanish."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    total = s + t
    out = np.zeros_like(s)
    live = total > 0
    out[live] = s[live] * t[live] / total[live]
    return np.diag(out)


def dense_oracle(s, t, rank_cutoff=1e-10):
    """The Anderson-Duffin formula S (S+T)^+ T with a dense pseudoinverse of S+T."""
    w, v = np.linalg.eigh(s + t)
    keep = w > rank_cutoff * w[-1]
    product = s @ ((v[:, keep] / w[keep]) @ v[:, keep].conj().T) @ t
    return (product + product.conj().T) / 2


class TestExamples:
    def test_scalar_harmonic_mean(self):
        result = parallel_sum(PsdMatrix([[1.0]]), PsdMatrix([[1.0]]))
        np.testing.assert_allclose(result.array, [[0.5]], atol=1e-14)

    def test_disjoint_supports(self):
        result = parallel_sum(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0])))
        np.testing.assert_allclose(result.array, 0.0, atol=1e-14)

    def test_commuting_diagonals(self):
        result = parallel_sum(PsdMatrix(np.diag([1.0, 2.0])), PsdMatrix(np.diag([2.0, 2.0])))
        np.testing.assert_allclose(result.array, np.diag([2.0 / 3.0, 1.0]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            parallel_sum(PsdMatrix(np.eye(2)), PsdMatrix(np.eye(3)))


class TestProperties:
    @pytest.mark.parametrize("dim", [8, 32])
    @pytest.mark.parametrize(
        "ranks",
        [(0.75, 0.75), (0.5, 0.5), (1.0, 1.0)],
        ids=["generic", "singular", "full-rank"],
    )
    def test_dense_formula_oracle(self, dim, ranks):
        rng = make_rng(26)
        rank_s, rank_t = (int(share * dim) for share in ranks)
        for _ in range(10):
            s = random_psd(rng, dim, rank=rank_s)
            t = random_psd(rng, dim, rank=rank_t)
            got = parallel_sum(s, t).array
            expected = dense_oracle(s.array, t.array)
            scale = np.linalg.norm(s.array) + np.linalg.norm(t.array)
            assert np.linalg.norm(got - expected) <= 1e-10 * scale

    def test_diagonal_oracle_also_conjugated(self):
        rng = make_rng(21)
        for _ in range(30):
            dim = int(rng.integers(1, 10))
            s = rng.uniform(0, 3, dim) * (rng.random(dim) > 0.25)
            t = rng.uniform(0, 3, dim) * (rng.random(dim) > 0.25)
            expected = diagonal_oracle(s, t)
            got = parallel_sum(PsdMatrix(np.diag(s)), PsdMatrix(np.diag(t)))
            np.testing.assert_allclose(got.array.real, expected, atol=1e-12)
            u = random_unitary(rng, dim)
            got_rot = parallel_sum(
                PsdMatrix(u @ np.diag(s) @ u.conj().T), PsdMatrix(u @ np.diag(t) @ u.conj().T)
            )
            np.testing.assert_allclose(got_rot.array, u @ expected @ u.conj().T, atol=1e-11)

    def test_symmetry(self):
        rng = make_rng(22)
        for _ in range(200):
            dim = int(rng.integers(2, 16))
            s = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            forward = parallel_sum(s, t).array
            backward = parallel_sum(t, s).array
            assert np.linalg.norm(forward - backward) <= 1e-9 * max(1.0, np.linalg.norm(s.array))

    def test_minorant(self):
        rng = make_rng(23)
        for _ in range(30):
            dim = int(rng.integers(2, 12))
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            mean = parallel_sum(s, t)
            assert loewner_leq(mean, s)
            assert loewner_leq(mean, t)

    def test_monotone_in_scaling(self):
        rng = make_rng(24)
        for _ in range(20):
            dim = int(rng.integers(2, 10))
            s = random_psd(rng, dim)
            t = random_psd(rng, dim)
            assert loewner_leq(parallel_sum(s, t), parallel_sum(PsdMatrix(2 * s.array), t))


class TestSingularity:
    def test_disjoint_supports_are_singular(self):
        assert is_singular_pair(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0])))

    def test_self_pair_is_not(self):
        s = PsdMatrix(np.diag([1.0, 2.0]))
        assert not is_singular_pair(s, s)

    def test_skew_line_against_axis(self):
        # range span(e1) meets span((1,1)) only at zero
        assert is_singular_pair(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.ones((2, 2)) / 2))

    def test_zero_is_singular_to_everything(self):
        z = PsdMatrix(np.zeros((3, 3)))
        assert is_singular_pair(z, PsdMatrix(np.eye(3)))
        assert is_singular_pair(z, z)

    def test_minorant_absent_exactly_when_singular(self):
        rng = make_rng(25)
        for trial in range(40):
            dim = int(rng.integers(2, 12))
            if trial % 2 == 0:
                u = random_unitary(rng, dim)
                r1 = int(rng.integers(1, dim))
                r2 = int(rng.integers(1, dim - r1 + 1))
                d1, d2 = np.zeros(dim), np.zeros(dim)
                d1[:r1] = rng.uniform(0.2, 4, r1)
                d2[r1:r1 + r2] = rng.uniform(0.2, 4, r2)
                s = PsdMatrix(u @ np.diag(d1) @ u.conj().T)
                t = PsdMatrix(u @ np.diag(d2) @ u.conj().T)
            else:
                s = random_psd(rng, dim)
                t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            witness = nonzero_common_minorant(s, t)
            if is_singular_pair(s, t):
                assert witness is None
            else:
                assert witness is not None
                assert trace(witness) > 0
                assert loewner_leq(witness, s)
                assert loewner_leq(witness, t)

    def test_minorant_factors_the_pair_once(self, monkeypatch):
        # the witness is the parallel sum the singularity test already computed
        built = []

        class Counting(parallel_sum_module._ScaledParallelSums):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(parallel_sum_module, "_ScaledParallelSums", Counting)
        rng = make_rng(27)
        s, t = random_psd(rng, 8, rank=6), random_psd(rng, 8, rank=6)
        assert nonzero_common_minorant(s, t) is not None
        assert len(built) == 1
        e1, e2 = PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0]))
        assert nonzero_common_minorant(e1, e2) is None
        assert len(built) == 2

    def test_minorant_examples(self):
        assert nonzero_common_minorant(
            PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0]))
        ) is None
        half = nonzero_common_minorant(PsdMatrix(np.eye(2)), PsdMatrix(np.eye(2)))
        np.testing.assert_allclose(half.array, np.eye(2) / 2, atol=1e-13)
        again = nonzero_common_minorant(PsdMatrix(np.diag([1.0, 2.0])), PsdMatrix(np.diag([2.0, 2.0])))
        np.testing.assert_allclose(again.array, np.diag([2.0 / 3.0, 1.0]), atol=1e-12)


class TestSingularityReadsTheWeights:
    """is_singular_pair reads trace(S:T) off the factored family: it builds no
    n x n parallel sum, and the witness is built only when it is returned."""

    @staticmethod
    def pairs():
        rng = make_rng(28)
        return [(random_psd(rng, dim, rank=rank), random_psd(rng, dim, rank=rank))
                for dim, rank in ((8, 6), (16, 8), (32, 16), (32, 32))]

    def test_spectral_calls(self, spectral_calls):
        for s, t in self.pairs():
            spectral_calls.clear()
            singular = is_singular_pair(s, t)
            # p + q <= n: one Cholesky factorization certifies that the Gram
            # has full rank and one that the range join does; otherwise the
            # engine's Gram and overlap eigh, and the range-join eigvalsh
            assert singular == (s.rank() + t.rank() <= s.dim)
            expected = ["cholesky"] * 2 if singular else ["eigh"] * 2 + ["eigvalsh"]
            assert sorted(spectral_calls) == expected

    def test_weight_trace_matches_the_dense_oracle(self):
        for s, t in self.pairs():
            weights = parallel_sum_module._ScaledParallelSums(s, t).trace_at(1.0)
            dense = trace(dense_oracle(s.array, t.array))
            assert abs(weights - dense) <= 1e-12 * (trace(s) + trace(t))

    def test_witness_built_only_for_non_singular_pairs(self, monkeypatch):
        built = []
        factor_at = parallel_sum_module._ScaledParallelSums.factor_at
        monkeypatch.setattr(parallel_sum_module._ScaledParallelSums, "factor_at",
                            lambda self, m: built.append(m) or factor_at(self, m))
        e1, e2 = PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0]))
        assert nonzero_common_minorant(e1, e2) is None
        assert is_singular_pair(*self.pairs()[0]) is False
        assert built == []
        assert nonzero_common_minorant(*self.pairs()[0]) is not None
        assert built == [None]  # the unit member


class TestRangesMeetingTrivially:
    """When the ranges meet trivially the Gram basis W is square and unitary,
    so W1* W1 is a projector and no component carries weight: the engine is
    built empty once a Cholesky factorization certifies the Gram's full rank."""

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1e100, 1e-100), (1e-100, 1e100),
                                             (1e100, 1e100), (1e-100, 1e-100)])
    def test_overlap_is_a_projector_and_the_family_empty(self, spectral_calls, dim, alpha, beta):
        s, t = structured_pair("singular", dim, 0)
        s, t = PsdMatrix(alpha * s), PsdMatrix(beta * t)
        left, _ = parallel_sum_module._ScaledParallelSums._factor(t)
        right, _ = parallel_sum_module._ScaledParallelSums._factor(s)
        stacked = np.concatenate([left, right], axis=1)
        gw, gV = np.linalg.eigh(stacked.conj().T @ stacked)
        assert gw[0] > 1e-10 * gw[-1]  # the Gram has full rank: W = gV is square
        top = gV[:left.shape[1], :]
        a = np.linalg.eigvalsh(top.conj().T @ top)
        assert np.all(np.minimum(np.abs(a), np.abs(1.0 - a)) <= 1e-12)
        assert np.count_nonzero(a > 0.5) == left.shape[1] == dim // 2
        spectral_calls.clear()
        family = parallel_sum_module._ScaledParallelSums(s, t)
        assert spectral_calls == ["cholesky"]
        assert family._weights.size == family._mass.size == 0 and family._direction.shape == (dim, 0)
        assert family.trace_at(None) == 0.0 and family.reach(1.0) == 0.0
        assert not np.any(family.at_scale(1.0)) and family.domination_at(1.0) == 0.0


def _pair_sharing(seed, dim, shared, own_s, own_t):
    """Complex PSD pair whose ranges are spanned by Gaussian columns [A, B_s]
    and [A, B_t]: generically they meet in span A, of dimension ``shared``."""
    rng = np.random.default_rng(seed)

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    common = gaussian(dim, shared)
    range_s = np.concatenate([common, gaussian(dim, own_s)], axis=1)
    range_t = np.concatenate([common, gaussian(dim, own_t)], axis=1)
    factor_s = range_s @ gaussian(range_s.shape[1], range_s.shape[1])
    factor_t = range_t @ gaussian(range_t.shape[1], range_t.shape[1])
    return factor_s @ factor_s.conj().T, factor_t @ factor_t.conj().T


# the counter is cleared for each example
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), shared=st.integers(0, 3), own_s=st.integers(0, 6),
       own_t=st.integers(0, 6), slack=st.integers(0, 3),
       scales=st.sampled_from([(1.0, 1.0), (1e100, 1e-100), (1e-100, 1e100)]))
def test_gram_screen_builds_the_eigh_family(spectral_calls, seed, shared, own_s, own_t, slack, scales):
    # p + q <= n: a Cholesky factorization of the Gram decides whether the
    # ranges meet, and a family built after it equals, bit for bit, one built
    # down the eigh path, which an inconclusive screen forces
    assume(shared + own_s >= 1 and shared + own_t >= 1)
    dim = 2 * shared + own_s + own_t + slack
    s, t = _pair_sharing(seed, dim, shared, own_s, own_t)
    s, t = PsdMatrix(scales[0] * s), PsdMatrix(scales[1] * t)
    assert s.rank() + t.rank() == 2 * shared + own_s + own_t
    spectral_calls.clear()
    fresh = parallel_sum_module._ScaledParallelSums(s, t)
    assert spectral_calls == ["cholesky"] + ["eigh"] * (2 if shared else 0)
    assert fresh._weights.size == shared
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel_sum_module, "_eigenvalues_above", lambda array, floor: False)
        forced = parallel_sum_module._ScaledParallelSums(s, t)
    for name in ("_weights", "_mass", "_direction"):
        got, expected = getattr(fresh, name), getattr(forced, name)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


def _outcome(build):
    """What ``build()`` returns, or the message of the ConsistencyError it raises."""
    try:
        return build()
    except ConsistencyError as exc:
        return str(exc)


# the counter is cleared for each example
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12), k=st.integers(1, 12),
       above=st.booleans(), mantissa=st.floats(0.5, 1.0, exclude_max=True),
       power_s=st.integers(-498, 498), power_t=st.integers(-498, 498))
def test_gram_and_join_screens_agree_with_the_eigensolvers(spectral_calls, seed, dim, k, above,
                                                           mantissa, power_s, power_t):
    # rank-one S and T whose scaled factors have one norm, the mantissa, at
    # an angle theta with tan(theta / 2)^2 = RANK_CUTOFF (1 +- 10^-k): the
    # ratio of the smallest to the largest eigenvalue of both the engine's
    # Gram and the range join, each Gram's rank cut, at scales 4^-498..4^498
    rng = make_rng(seed)
    q = random_unitary(rng, dim)
    theta = 2.0 * math.atan(math.sqrt(RANK_CUTOFF * (1.0 + 10.0**-k if above else 1.0 - 10.0**-k)))
    x, y = q[:, 0], math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1]
    s = PsdMatrix(4.0**power_s * mantissa**2 * np.outer(x, x.conj()))
    t = PsdMatrix(4.0**power_t * mantissa**2 * np.outer(y, y.conj()))
    spectral_calls.clear()
    fresh = _outcome(lambda: parallel_sum_module._ScaledParallelSums(s, t))
    screened_gram = "eigh" not in spectral_calls
    singular = _outcome(lambda: is_singular_pair(s, t))
    with pytest.MonkeyPatch.context() as patch:
        screens_inconclusive(patch)
        forced = _outcome(lambda: parallel_sum_module._ScaledParallelSums(s, t))
        assert _outcome(lambda: is_singular_pair(s, t)) == singular
    if isinstance(fresh, str):
        assert forced == fresh
    else:
        for name in ("_weights", "_mass", "_direction"):
            got, expected = getattr(fresh, name), getattr(forced, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
    # the screen decides the Gram alone wherever its smallest eigenvalue
    # clears 2 RANK_CUTOFF by twice the allowance, and never below that
    left, _ = parallel_sum_module._ScaledParallelSums._factor(t)
    right, _ = parallel_sum_module._ScaledParallelSums._factor(s)
    stacked = np.concatenate([left, right], axis=1)
    gram = stacked.conj().T @ stacked
    gram_min = float(np.linalg.eigvalsh(gram / 2 + gram.conj().T / 2)[0])
    allowance = 2 * 4 * sys.float_info.epsilon * float(np.abs(np.diagonal(gram) - 2 * RANK_CUTOFF).sum())
    if gram_min > 2 * RANK_CUTOFF + 2 * allowance:
        assert screened_gram
    elif gram_min < 2 * RANK_CUTOFF:
        assert not screened_gram


class TestOperandsAtTheirOwnScale:
    """Each operand is factored at its own scale, so a pair whose operands are
    far apart keeps every component it has at unit scale."""

    @pytest.mark.parametrize("power", [30, -30])
    def test_rescaled_pair_keeps_its_components(self, power):
        rng = make_rng(29)
        for dim, rank in ((8, 6), (16, 12), (32, 24)):
            s, t = random_psd(rng, dim, rank=rank), random_psd(rng, dim, rank=rank)
            unit = parallel_sum_module._ScaledParallelSums(s, t)
            far = parallel_sum_module._ScaledParallelSums(
                PsdMatrix(4.0**power * s.array), PsdMatrix(4.0**-power * t.array))
            assert unit._weights.size > 0
            assert far._weights.size == unit._weights.size
            np.testing.assert_allclose(far._weights, unit._weights, rtol=0, atol=1e-12)
            # the frames differ by shift alone: at one filter argument m the
            # far member is the unit one times 4^power
            assert far.shift == unit.shift - 2 * power
            for m in (1.0, 2.0**20):
                assert far.trace_at(m) == pytest.approx(4.0**power * unit.trace_at(m), rel=1e-12)

    def test_filter_stays_finite_below_the_precision_of_one(self):
        # a weight-one component has phi = 1 at every scale; written as
        # 1 + (m - 1) a, its denominator would round to zero once m < 2^-53
        rng = make_rng(30)
        s, t = random_psd(rng, 12, rank=9), random_psd(rng, 12, rank=9)
        far = parallel_sum_module._ScaledParallelSums(
            PsdMatrix(4.0**40 * s.array), PsdMatrix(4.0**-40 * t.array))
        assert far.shift <= -79
        for n in (1.0, 2.0**30, 2.0**59):
            m = math.ldexp(n, 2 * far.shift)  # at most 2^-99
            assert np.all(np.isfinite(far._filter(m)[0]))
            assert np.isfinite(far.gap(m, 2.0 * m)) and far.gap(m, 2.0 * m) >= 0.0
            assert np.all(np.isfinite(far.factor_at(m)))

    @pytest.mark.parametrize("alpha, beta", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_parallel_sum_at_opposite_ends_of_the_float_range(self, alpha, beta):
        # 4^shift over- or underflows here; (alpha S) : (beta T) is then the
        # smaller operand's part absolutely continuous to the larger one, to
        # far below roundoff, and the two singularity criteria agree
        s, t = structured_pair("generic", 16, 0)
        big, small, size = (s, t, beta) if alpha > beta else (t, s, alpha)
        expected = size * decompose(PsdMatrix(small), PsdMatrix(big)).ac.array
        got = parallel_sum(PsdMatrix(alpha * s), PsdMatrix(beta * t))
        assert trace_norm(got.array / size - expected / size) <= 1e-12 * trace_norm(PsdMatrix(small))
        assert not is_singular_pair(PsdMatrix(alpha * s), PsdMatrix(beta * t))
        assert nonzero_common_minorant(PsdMatrix(alpha * s), PsdMatrix(beta * t)).rank() == got.rank() > 0

    @pytest.mark.parametrize("floor", GRADED_FLOORS)
    def test_limit_of_a_graded_full_rank_reference_is_s(self, floor):
        # T has full rank, so (n T) : S rises to S; components with weights
        # down to about floor keep their direction to roundoff
        for s, t in graded_panel(floor):
            family = parallel_sum_module._ScaledParallelSums(s, t)
            error = trace_norm(family.at_scale(2.0**200) - s.array)
            assert error <= 1e-12 * trace_norm(s), f"n={s.dim}: {error:.3e}"


class TestSingularityAtSubnormalScale:
    """The trace criterion compares trace(S : T) with CONV_TOL times the
    smaller trace in the engine's frame, so its verdict does not move when S
    is scaled into the subnormal range by a power of two that keeps it exact."""

    @pytest.mark.parametrize("entry, singular", [(20, False), (0, True)])
    @pytest.mark.parametrize("power", [0, -500, -1000, -1074])
    def test_verdict_matches_unit_scale(self, entry, singular, power):
        # S = diag(19.7e9, entry) against T = diag(0, 1): trace(S : T) over
        # the smaller trace is 1.015e-9 for entry 20, just above CONV_TOL =
        # 1e-9 and above the rank cut, so both criteria say not singular; at
        # 2^-1074 the threshold in S's units, 19.7 units of the smallest
        # subnormal, would round to 20 of them and call the pair singular
        s = PsdMatrix(np.diag([math.ldexp(19.7e9, power), math.ldexp(entry, power)]))
        assert is_singular_pair(s, PsdMatrix(np.diag([0.0, 1.0]))) is singular
