import importlib

import numpy as np
import pytest

from oplebesgue import (
    DimensionMismatchError,
    PsdMatrix,
    is_singular_pair,
    loewner_leq,
    nonzero_common_minorant,
    parallel_sum,
    trace,
)
from oplebesgue.psd_core import DEFAULT_CONFIG, trace_norm
from conftest import GRADED_FLOORS, graded_panel, make_rng, random_psd, random_unitary

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

    def test_spectral_calls(self, monkeypatch):
        pairs = self.pairs()
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, _o=original, _n=name: calls.append(_n) or _o(m))
        for s, t in pairs:
            calls.clear()
            is_singular_pair(s, t)
            # the engine's Gram and overlap eigh, the range-join eigvalsh
            assert sorted(calls) == ["eigh", "eigh", "eigvalsh"]

    def test_weight_trace_matches_the_dense_oracle(self):
        for s, t in self.pairs():
            weights = parallel_sum_module._ScaledParallelSums(s, t, DEFAULT_CONFIG).trace_at(1.0)
            dense = trace(dense_oracle(s.array, t.array))
            assert abs(weights - dense) <= 1e-12 * (trace(s) + trace(t))

    def test_witness_built_only_for_non_singular_pairs(self, monkeypatch):
        built = []
        factor_at = parallel_sum_module._ScaledParallelSums.factor_at
        monkeypatch.setattr(parallel_sum_module._ScaledParallelSums, "factor_at",
                            lambda self, scale: built.append(scale) or factor_at(self, scale))
        e1, e2 = PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.diag([0.0, 1.0]))
        assert nonzero_common_minorant(e1, e2) is None
        assert is_singular_pair(*self.pairs()[0]) is False
        assert built == []
        assert nonzero_common_minorant(*self.pairs()[0]) is not None
        assert built == [1.0]


class TestOperandsAtTheirOwnScale:
    """Each operand is factored at its own scale, so a pair whose operands are
    far apart keeps every component it has at unit scale."""

    @pytest.mark.parametrize("power", [30, -30])
    def test_rescaled_pair_keeps_its_components(self, power):
        rng = make_rng(29)
        for dim, rank in ((8, 6), (16, 12), (32, 24)):
            s, t = random_psd(rng, dim, rank=rank), random_psd(rng, dim, rank=rank)
            unit = parallel_sum_module._ScaledParallelSums(s, t, DEFAULT_CONFIG)
            far = parallel_sum_module._ScaledParallelSums(
                PsdMatrix(4.0**power * s.array), PsdMatrix(4.0**-power * t.array), DEFAULT_CONFIG)
            assert unit._weights.size > 0
            assert far._weights.size == unit._weights.size
            np.testing.assert_allclose(far._weights, unit._weights, rtol=0, atol=1e-12)
            # the scale map is exact: (n T'):S' at n = 4^(2 power) is (T:S) times 4^power
            assert far.trace_at(16.0**power) == pytest.approx(4.0**power * unit.trace_at(1.0),
                                                               rel=1e-12)

    def test_filter_stays_finite_below_the_precision_of_one(self):
        # a weight-one component has phi = 1 at every scale; written as
        # 1 + (m - 1) a, its denominator would round to zero once m < 2^-53
        rng = make_rng(30)
        s, t = random_psd(rng, 12, rank=9), random_psd(rng, 12, rank=9)
        far = parallel_sum_module._ScaledParallelSums(
            PsdMatrix(4.0**40 * s.array), PsdMatrix(4.0**-40 * t.array), DEFAULT_CONFIG)
        for scale in (1.0, 2.0**30, 2.0**59):
            assert np.all(np.isfinite(far._filter(scale)))
            assert np.isfinite(far.gap(scale, 2.0 * scale)) and far.gap(scale, 2.0 * scale) >= 0.0
            assert np.all(np.isfinite(far.factor_at(scale)))

    @pytest.mark.parametrize("floor", GRADED_FLOORS)
    def test_limit_of_a_graded_full_rank_reference_is_s(self, floor):
        # T has full rank, so (n T) : S rises to S; components with weights
        # down to about floor keep their direction to roundoff
        for s, t in graded_panel(floor):
            family = parallel_sum_module._ScaledParallelSums(s, t, DEFAULT_CONFIG)
            error = trace_norm(family.at_scale(2.0**200) - s.array)
            assert error <= 1e-12 * trace_norm(s), f"n={s.dim}: {error:.3e}"
