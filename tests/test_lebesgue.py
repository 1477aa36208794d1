import importlib
import math

import numpy as np
import pytest

from oplebesgue import (
    ConsistencyError,
    PsdMatrix,
    ToleranceConfig,
    ValidationError,
    ac_part_closed,
    ac_part_iterative,
    decompose,
    extremality_check,
    is_absolutely_continuous,
    is_dominated,
    is_singular_pair,
    loewner_leq,
    op_norm,
    range_contained,
    trace_norm,
    uniqueness_certificate,
)
from conftest import (GRADED_FLOORS, graded_panel, make_rng, random_psd, random_unitary,
                      structured_pair)

lebesgue = importlib.import_module("oplebesgue.lebesgue")
_ScaledParallelSums = importlib.import_module("oplebesgue.parallel_sum")._ScaledParallelSums

DIAG10 = PsdMatrix(np.diag([1.0, 0.0]))
ONES = PsdMatrix(np.ones((2, 2)))
EYE2 = PsdMatrix(np.eye(2))


def support_split_oracle(s_diag, t_diag):
    """Independent rule for commuting diagonals: keep s exactly on supp t."""
    s_diag, t_diag = np.asarray(s_diag, float), np.asarray(t_diag, float)
    return np.diag(np.where(t_diag > 0, s_diag, 0.0))


class TestIterative:
    def test_identity_reference_dominates_everything(self):
        rng = make_rng(31)
        s = random_psd(rng, 4)
        ac, record = ac_part_iterative(s, PsdMatrix(np.eye(4)))
        assert len(record.steps) < 40
        assert trace_norm(ac.array - s.array) <= 1e-8 * max(1.0, trace_norm(s))

    def test_skew_rank_one_dies(self):
        # hand computation: (nT + S) = [[n+1,1],[1,1]] has inverse (1/n)[[1,-1],[-1,n+1]],
        # and nT(nT+S)^{-1}S = 0 for every n
        ac, record = ac_part_iterative(ONES, DIAG10)
        assert op_norm(ac) <= 1e-12
        assert all(step.trace <= 1e-12 for step in record.steps)
        assert record.steps[-1].gap == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_support_split(self):
        ac, _ = ac_part_iterative(PsdMatrix(np.diag([1.0, 1.0])), DIAG10)
        np.testing.assert_allclose(ac.array.real, np.diag([1.0, 0.0]), atol=1e-8)

    def test_monotone_loewner_and_below_s(self):
        rng = make_rng(32)
        for _ in range(10):
            dim = int(rng.integers(2, 12))
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            _, record = ac_part_iterative(s, t)
            steps = record.steps
            for earlier, later in zip(steps, steps[1:]):
                assert loewner_leq(earlier.approximant, later.approximant)
            for step in steps:
                assert loewner_leq(step.approximant, s)
                assert step.gap >= 0.0
            traces = [step.trace for step in steps]
            assert all(b >= a - 1e-9 for a, b in zip(traces, traces[1:]))

    def test_record_stops_at_first_step_within_threshold(self):
        # the record ends at the first k whose distance to the limit is within
        # conv_tol * trace_norm(S), and that k is at most the derived bound
        # K = ceil(log2(sum_i d_i / a_i^2 / threshold))
        rng = make_rng(33)
        cfg = ToleranceConfig()
        for dim in (3, 5, 8):
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=dim - 1)
            _, record = ac_part_iterative(s, t, cfg)
            family = _ScaledParallelSums(s, t, cfg)
            threshold = cfg.conv_tol * trace_norm(s)
            distances = [family.gap(2.0 * step.scale, np.inf) for step in record.steps]
            assert all(d > threshold for d in distances[:-1]) and distances[-1] <= threshold
            assert [step.k for step in record.steps] == list(range(len(record.steps)))
            assert record.steps[-1].k <= math.ceil(math.log2(family.reach() / threshold))

    def test_passing_the_derived_bound_is_a_consistency_error(self, monkeypatch):
        # weights that break their own bound: K computes to 0 for a pair that
        # needs about 30 doublings, and the fall-through names stage and margin
        monkeypatch.setattr(_ScaledParallelSums, "reach", lambda self: 1e-12)
        with pytest.raises(ConsistencyError, match="derived bound") as excinfo:
            ac_part_iterative(EYE2, EYE2)
        details = excinfo.value.details
        assert details["stage"] == "monotone approximation"
        assert details["distance"] > details["threshold"] == pytest.approx(2e-9)

    @pytest.mark.parametrize("floor", [1.01e-10, 2e-10, 4e-10])
    def test_reference_near_the_rank_cutoff(self, floor):
        # T = diag(1, floor) is full rank at the 1e-10 cutoff, so ac = S and
        # c = 1 / floor; the pair needs 61 to 63 steps, all within its bound
        t = PsdMatrix(np.diag([1.0, floor]))
        dec = decompose(EYE2, t)
        np.testing.assert_allclose(dec.ac.array, np.eye(2), rtol=0, atol=1e-12)
        assert dec.uniqueness.c == pytest.approx(1.0 / floor, rel=1e-12)
        family = _ScaledParallelSums(EYE2, t, ToleranceConfig())
        bound = math.ceil(math.log2(family.reach() / (ToleranceConfig().conv_tol * 2.0)))
        assert len(dec.trace_of_iteration.steps) <= bound

    def test_zero_reference(self):
        ac, record = ac_part_iterative(ONES, PsdMatrix(np.zeros((2, 2))))
        assert op_norm(ac) == 0.0
        assert len(record.steps) == 1

    def test_zero_operand(self):
        ac, _ = ac_part_iterative(PsdMatrix(np.zeros((2, 2))), DIAG10)
        assert op_norm(ac) == 0.0

    def test_c_bound_finite_and_growing_for_ratio_pair(self):
        # diagonal pair with ratios 1..8: the per-step domination constants
        # climb strictly toward the final ratio
        lam = np.array([2.0 ** -n for n in range(1, 9)])
        mu = np.arange(1, 9) * lam
        _, record = ac_part_iterative(PsdMatrix(np.diag(mu)), PsdMatrix(np.diag(lam)))
        bounds = [step.c_bound for step in record.steps]
        assert all(np.isfinite(bounds))
        assert all(b > a for a, b in zip(bounds, bounds[1:]))


def dense_steps(s, t, steps, cfg=ToleranceConfig()):
    """Dense oracle for the weight-space iteration: each step's trace,
    trace-norm gap to the next approximant and domination constant, computed
    from the n x n approximants."""
    family = _ScaledParallelSums(s, t, cfg)
    out = []
    for step in steps:
        current = family.at_scale(step.scale)
        following = family.at_scale(2.0 * step.scale)
        out.append((
            float(np.trace(current).real),
            trace_norm(following - current),
            lebesgue._domination_constant(current, t, cfg),
        ))
    return out


class TestFactoredIteration:
    @pytest.mark.parametrize("dim", [8, 32, 64])
    @pytest.mark.parametrize(
        "ranks",
        [(0.75, 0.75), (0.5, 0.5), (0.75, 1.0)],
        ids=["generic", "singular", "full-rank-T"],
    )
    def test_dense_oracle(self, dim, ranks):
        # The dense traces and gaps carry roundoff of order n eps trace(S); the
        # dense domination constant is accurate to about eps kappa(T), relative
        # to lambda_max(S) / lambda_min(T), the scale of any S_k <= S against T.
        eps = np.finfo(float).eps
        rng = make_rng(28)
        rank_s, rank_t = (int(share * dim) for share in ranks)
        for _ in range(3):
            s = random_psd(rng, dim, rank=rank_s)
            t = random_psd(rng, dim, rank=rank_t)
            _, record = ac_part_iterative(s, t)
            assert (len(record.steps) == 1) == (ranks == (0.5, 0.5))
            size = np.trace(s.array).real
            lam_min_t = t.eigenvalues[t.rank() - 1]
            c_tol = 100 * eps * (t.lam_max / lam_min_t) * (s.lam_max / lam_min_t)
            for step, (tr, gap, c) in zip(record.steps, dense_steps(s, t, record.steps)):
                assert abs(step.trace - tr) <= 1e-13 * size
                assert step.gap >= 0.0
                assert abs(step.gap - gap) <= 1e-13 * size
                assert abs(step.c_bound - c) <= c_tol

    def test_approximants_are_built_from_the_family(self):
        rng = make_rng(30)
        s, t = random_psd(rng, 12, rank=9), random_psd(rng, 12, rank=9)
        _, record = ac_part_iterative(s, t)
        family = _ScaledParallelSums(s, t, ToleranceConfig())
        assert len(record.steps) > 1
        for step in record.steps:
            assert np.array_equal(step.approximant.array, family.at_scale(step.scale))

    @pytest.mark.parametrize("breakage, diagnosis", [
        ("flipped back column", "not a PSD term"),
        ("weight above one", "weights leave"),
        ("negative weight", "weights leave"),
    ])
    def test_broken_family_is_rejected(self, monkeypatch, breakage, diagnosis):
        # rejected by the structural check at construction, before any step
        def mutate(family):
            j = int(np.argmax(np.linalg.norm(family._back, axis=0)))
            if breakage == "flipped back column":
                family._back[:, j] *= -1.0
            else:
                family._weights = family._weights.copy()
                family._weights[j] = 1.5 if breakage == "weight above one" else -0.5

        class Broken(_ScaledParallelSums):
            def _certify(self, joint, cfg):
                mutate(self)
                return super()._certify(joint, cfg)

        rng = make_rng(31)
        s, t = random_psd(rng, 16, rank=12), random_psd(rng, 16, rank=12)
        monkeypatch.setattr(lebesgue, "_ScaledParallelSums", Broken)
        with pytest.raises(ConsistencyError, match=diagnosis):
            ac_part_iterative(s, t)

    def test_returned_pair_is_checked_densely(self, monkeypatch):
        # faults the structural check cannot see: members that shrink with the
        # scale, and a domination constant too small to dominate
        class Shrinking(_ScaledParallelSums):
            power = 0.5

            def factor_at(self, scale):
                return super().factor_at(scale) / scale**self.power

        class ShrinkingFaster(Shrinking):
            power = 1.0

        class Undercounting(_ScaledParallelSums):
            def domination_at(self, scale):
                return super().domination_at(scale) / 2

        rng = make_rng(31)
        s, t = random_psd(rng, 16, rank=12), random_psd(rng, 16, rank=12)
        # members shrinking by 1/n and by 1/n^2: the violation is at the size
        # of the members, so the band must be relative to them, not floored
        for shrinking in (Shrinking, ShrinkingFaster):
            monkeypatch.setattr(lebesgue, "_ScaledParallelSums", shrinking)
            with pytest.raises(ConsistencyError, match="not monotone"):
                ac_part_iterative(s, t)
        monkeypatch.setattr(lebesgue, "_ScaledParallelSums", Undercounting)
        _, record = ac_part_iterative(s, t)
        assert record.steps[-1].c_bound == np.inf

    def test_dense_spectral_calls_do_not_depend_on_steps(self, monkeypatch):
        rng = make_rng(29)
        s_long, t_long = random_psd(rng, 32, rank=24), random_psd(rng, 32, rank=24)
        s_short, t_short = random_psd(rng, 32, rank=16), random_psd(rng, 32, rank=16)
        calls = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        _, long_record = ac_part_iterative(s_long, t_long)
        long_calls = sorted(calls)
        calls.clear()
        _, short_record = ac_part_iterative(s_short, t_short)
        assert len(long_record.steps) > 30 and len(short_record.steps) == 1
        assert long_calls == sorted(calls)


class TestClosed:
    def test_identity_reference(self):
        rng = make_rng(34)
        s = random_psd(rng, 5)
        np.testing.assert_allclose(ac_part_closed(s, PsdMatrix(np.eye(5))).array, s.array, atol=1e-10)

    def test_skew_rank_one_dies(self):
        # M = span(1,-1) and sqrt(S) P_M kills it; matches the iterative result
        assert op_norm(ac_part_closed(ONES, DIAG10)) <= 1e-12

    def test_diagonal_support_split(self):
        got = ac_part_closed(PsdMatrix(np.diag([2.0, 3.0])), DIAG10)
        np.testing.assert_allclose(got.array.real, np.diag([2.0, 0.0]), atol=1e-12)


class TestDecompose:
    def test_identity_reference(self):
        rng = make_rng(35)
        s = random_psd(rng, 4)
        dec = decompose(s, PsdMatrix(np.eye(4)))
        np.testing.assert_allclose(dec.ac.array, s.array, atol=1e-9)
        assert trace_norm(dec.sing) <= 1e-9

    def test_fully_singular_pair(self):
        dec = decompose(ONES, DIAG10)
        assert op_norm(dec.ac) <= 1e-12
        np.testing.assert_allclose(dec.sing.array.real, np.ones((2, 2)), atol=1e-12)

    def test_diagonal_oracle(self):
        dec = decompose(PsdMatrix(np.diag([1.0, 1.0])), DIAG10)
        np.testing.assert_allclose(dec.ac.array.real, np.diag([1.0, 0.0]), atol=1e-10)
        np.testing.assert_allclose(dec.sing.array.real, np.diag([0.0, 1.0]), atol=1e-10)

    def test_certificates_on_random_panel(self):
        rng = make_rng(36)
        for _ in range(15):
            dim = int(rng.integers(2, 15))
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            dec = decompose(s, t)
            residual = trace_norm(dec.ac.array + dec.sing.array - s.array)
            assert residual <= 1e-9 * max(1.0, trace_norm(s))
            assert is_singular_pair(dec.sing, t)
            assert range_contained(dec.ac, t)

    def test_conjugated_support_split_oracle(self):
        rng = make_rng(37)
        for _ in range(15):
            dim = int(rng.integers(2, 10))
            s_diag = rng.uniform(0, 3, dim) * (rng.random(dim) > 0.2)
            t_diag = rng.uniform(0, 3, dim) * (rng.random(dim) > 0.4)
            u = random_unitary(rng, dim)
            s = PsdMatrix(u @ np.diag(s_diag) @ u.conj().T)
            t = PsdMatrix(u @ np.diag(t_diag) @ u.conj().T)
            expected = u @ support_split_oracle(s_diag, t_diag) @ u.conj().T
            dec = decompose(s, t)
            assert trace_norm(dec.ac.array - expected) <= 1e-9 * max(1.0, trace_norm(s))

    def test_idempotent_on_own_parts(self):
        rng = make_rng(38)
        for _ in range(8):
            dim = int(rng.integers(2, 12))
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            dec = decompose(s, t)
            again = decompose(dec.ac, t)
            assert trace_norm(again.ac.array - dec.ac.array) <= 1e-8 * max(1.0, trace_norm(s))
            sing_again = decompose(dec.sing, t)
            assert trace_norm(sing_again.ac) <= 1e-8 * max(1.0, trace_norm(s))

    def test_scaling_covariance(self):
        rng = make_rng(39)
        s = random_psd(rng, 6)
        t = random_psd(rng, 6, rank=3)
        base = decompose(s, t).ac.array
        for alpha in (0.25, 3.0, 17.5):
            scaled = decompose(PsdMatrix(alpha * s.array), t).ac.array
            assert trace_norm(scaled - alpha * base) <= 1e-9 * max(1.0, alpha * trace_norm(s))

    def test_near_aligned_singular_pair(self):
        # ranges of rank 16 in dimension 32 that meet only at zero, with a
        # smallest principal angle of 3e-4: the parallel sum is zero up to
        # roundoff, and that roundoff must stay inside the PSD band
        rng = make_rng(37)
        dim, rank = 32, 16
        q = random_unitary(rng, dim)
        angles = rng.uniform(0.1, np.pi / 2, rank)
        angles[0] = 3e-4
        range_s = q[:, :rank]
        range_t = range_s * np.cos(angles) + q[:, rank:2 * rank] * np.sin(angles)

        def gram(basis):
            factor = basis @ (rng.standard_normal((rank, 24)) + 1j * rng.standard_normal((rank, 24)))
            return PsdMatrix(factor @ factor.conj().T / dim)

        s, t = gram(range_s), gram(range_t)
        dec = decompose(s, t)
        assert trace_norm(dec.ac) <= 1e-8 * np.trace(s.array).real
        assert dec.uniqueness.unique

    def test_degenerate_inputs(self):
        zero = PsdMatrix(np.zeros((2, 2)))
        dec = decompose(ONES, zero)
        assert op_norm(dec.ac) <= 1e-12
        np.testing.assert_allclose(dec.sing.array.real, np.ones((2, 2)), atol=1e-12)
        dec = decompose(zero, DIAG10)
        assert op_norm(dec.ac) <= 1e-12 and op_norm(dec.sing) <= 1e-12


STRUCTURES = ("generic", "singular", "full_rank_t")


class TestScaleCovariance:
    """decompose(alpha S, beta T) is alpha times decompose(S, T), with c scaled
    by alpha / beta: bit for bit under powers of four, which the engine's
    normalization divides out exactly, and to roundoff under any other scale."""

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_powers_of_four_are_bitwise(self, structure):
        s, t = structured_pair(structure, 16, 0)
        base = decompose(PsdMatrix(s), PsdMatrix(t))
        base_steps = base.trace_of_iteration.steps
        for j in (-30, -13, 0, 13, 30):
            for k in (-30, -13, 0, 13, 30):
                alpha, ratio = 4.0**j, 4.0 ** (j - k)
                dec = decompose(PsdMatrix(alpha * s), PsdMatrix(4.0**k * t))
                where = f"{structure} at (4^{j}, 4^{k})"
                assert np.array_equal(dec.ac.array, alpha * base.ac.array), where
                assert np.array_equal(dec.sing.array, alpha * base.sing.array), where
                assert dec.uniqueness.unique == base.uniqueness.unique, where
                assert dec.uniqueness.c == ratio * base.uniqueness.c, where
                steps = dec.trace_of_iteration.steps
                assert [step.k for step in steps] == [step.k for step in base_steps], where
                for step, unit in zip(steps, base_steps):
                    assert step.gap == alpha * unit.gap, where
                    assert step.c_bound == ratio * unit.c_bound, where

    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("dim", [16, 64])
    def test_decimal_scales(self, structure, dim):
        s, t = structured_pair(structure, dim, 0)
        base = decompose(PsdMatrix(s), PsdMatrix(t))
        size = trace_norm(PsdMatrix(s))
        for alpha in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for beta in (1e-8, 1e-4, 1.0, 1e4, 1e8):
                dec = decompose(PsdMatrix(alpha * s), PsdMatrix(beta * t))
                drift = trace_norm(dec.ac.array / alpha - base.ac.array) / size
                assert drift <= 1e-12, f"{structure} at ({alpha:g}, {beta:g}): {drift:.3e}"
                assert dec.uniqueness.unique


class TestGradedReference:
    """A full-rank T with eigenvalues down to 1.5e-10 lambda_max(T) leaves no
    singular part, and the iterative route must reach the closed form: every
    quantity of an engine component is read off one well-conditioned vector,
    so small weights cost no accuracy."""

    @pytest.mark.parametrize("floor", GRADED_FLOORS)
    def test_graded_reference_decomposes(self, floor):
        for s, t in graded_panel(floor):
            dec = decompose(s, t)
            assert not np.any(dec.sing.array), f"n={s.dim}"
            assert dec.uniqueness.unique

class TestFactoredSplit:
    """decompose returns the two factors of the kernel-projection form: exact
    zeros where a part vanishes, and additivity measured, not assumed."""

    @staticmethod
    def pairs(ranks, count=4, dim=16):
        rng = make_rng(46)
        rank_s, rank_t = (int(share * dim) for share in ranks)
        return [(random_psd(rng, dim, rank=rank_s), random_psd(rng, dim, rank=rank_t))
                for _ in range(count)]

    def test_singular_pairs_give_an_exact_zero_regular_part(self):
        for s, t in self.pairs((0.5, 0.5)) + [(ONES, DIAG10)]:
            dec = decompose(s, t)
            assert not np.any(dec.ac.array) and dec.ac.rank() == 0
            assert dec.uniqueness.c == 0.0
            assert not np.any(ac_part_closed(s, t).array)

    def test_full_rank_reference_gives_an_exact_zero_singular_part(self):
        for s, t in self.pairs((0.5, 1.0)):
            dec = decompose(s, t)
            assert not np.any(dec.sing.array) and dec.sing.rank() == 0

    def test_additivity_residual_is_measured(self):
        for s, t in self.pairs((0.75, 0.75)):
            dec = decompose(s, t)
            residual = trace_norm(dec.ac.array + dec.sing.array - s.array) / trace_norm(s)
            assert 0.0 < residual < 1e-9
            assert dec.ac.rank() > 0 and dec.sing.rank() > 0

    def test_perturbed_factor_fails_additivity(self, monkeypatch):
        closed_factors = lebesgue._closed_factors

        def perturbed(s, t, cfg):
            ac_factor, sing_factor = closed_factors(s, t, cfg)
            return ac_factor, sing_factor * (1.0 + 1e-6)

        s, t = self.pairs((0.75, 0.75), count=1)[0]
        monkeypatch.setattr(lebesgue, "_closed_factors", perturbed)
        with pytest.raises(ConsistencyError, match="singular part.*do not add back"):
            decompose(s, t)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_perturbed_regular_factor_is_rejected_at_every_scale(self, monkeypatch, scale):
        closed_factors = lebesgue._closed_factors

        def perturbed(s, t, cfg):
            ac_factor, sing_factor = closed_factors(s, t, cfg)
            return ac_factor * (1.0 + 1e-3), sing_factor

        s, t = self.pairs((0.75, 0.75), count=1)[0]
        monkeypatch.setattr(lebesgue, "_closed_factors", perturbed)
        with pytest.raises(ConsistencyError, match="regular part disagree"):
            decompose(PsdMatrix(scale * s.array), t)


class TestDomination:
    def test_self(self):
        rng = make_rng(40)
        s = random_psd(rng, 4)
        assert is_dominated(s, s) == pytest.approx(1.0, abs=1e-9)

    def test_scaled(self):
        assert is_dominated(PsdMatrix(np.diag([2.0, 0.0])), DIAG10) == pytest.approx(2.0)

    def test_range_failure(self):
        assert is_dominated(PsdMatrix(np.diag([1.0, 1.0])), DIAG10) is None

    def test_zero_reference_dominates_only_zero(self):
        zero = PsdMatrix(np.zeros((2, 2)))
        assert is_dominated(zero, zero) == 0.0
        for size in (1.0, 1e-12):
            assert is_dominated(PsdMatrix(size * np.eye(2)), zero) is None

    def test_constant_is_tight(self):
        rng = make_rng(41)
        for _ in range(10):
            dim = int(rng.integers(2, 10))
            t = random_psd(rng, dim)
            c0 = float(rng.uniform(0.5, 5.0))
            s = PsdMatrix(c0 * t.array)
            c = is_dominated(s, t)
            assert c == pytest.approx(c0, rel=1e-9)
            assert loewner_leq(s.array, c * t.array)


class TestAbsoluteContinuity:
    def test_identity_reference(self, rng):
        s = random_psd(rng, 4)
        assert is_absolutely_continuous(s, PsdMatrix(np.eye(4)))

    def test_singular_pair(self):
        assert not is_absolutely_continuous(ONES, DIAG10)

    def test_equal_supports(self):
        assert is_absolutely_continuous(DIAG10, PsdMatrix(np.diag([2.0, 0.0])))


class TestUniqueness:
    def test_decomposition_carries_the_certificate(self):
        rng = make_rng(36)
        s, t = random_psd(rng, 5), random_psd(rng, 5, rank=3)
        dec = decompose(s, t)
        assert dec.uniqueness == uniqueness_certificate(s, t)
        assert dec.uniqueness.c == is_dominated(dec.ac, t)

    def test_random_pairs_always_unique(self):
        rng = make_rng(42)
        for _ in range(10):
            dim = int(rng.integers(2, 12))
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            cert = uniqueness_certificate(s, t)
            assert cert.unique and np.isfinite(cert.c)
            assert loewner_leq(decompose(s, t).ac.array, cert.c * t.array)

    def test_identity_reference_constant_is_op_norm(self):
        rng = make_rng(43)
        s = random_psd(rng, 5)
        cert = uniqueness_certificate(s, PsdMatrix(np.eye(5)))
        assert cert.unique
        assert cert.c == pytest.approx(op_norm(s), rel=1e-9)

    def test_support_split_constant(self):
        cert = uniqueness_certificate(PsdMatrix(np.diag([1.0, 1.0])), DIAG10)
        assert cert.unique
        assert cert.c == pytest.approx(1.0, abs=1e-9)


class TestExtremality:
    def test_zero_minorant(self):
        assert extremality_check(PsdMatrix(np.zeros((2, 2))), ONES, DIAG10)

    def test_regular_part_itself(self, rng):
        s = random_psd(rng, 5)
        t = random_psd(rng, 5, rank=3)
        ac = decompose(s, t).ac
        assert extremality_check(ac, s, t)

    def test_convex_combination_of_minorants(self):
        rng = make_rng(44)
        s = random_psd(rng, 6)
        t = random_psd(rng, 6, rank=4)
        ac = decompose(s, t).ac
        shrunk = PsdMatrix(0.5 * ac.array)
        blend = PsdMatrix(0.7 * ac.array + 0.3 * shrunk.array)
        assert extremality_check(blend, s, t)

    def test_precondition_violations(self):
        rng = make_rng(45)
        s = random_psd(rng, 4)
        with pytest.raises(ValidationError, match="R <= S"):
            extremality_check(PsdMatrix(10 * np.eye(4) + s.array), s, PsdMatrix(np.eye(4)))
        big = PsdMatrix(np.ones((2, 2)))
        with pytest.raises(ValidationError, match="absolutely continuous"):
            extremality_check(big, PsdMatrix(2 * np.ones((2, 2))), DIAG10)


class TestSpectralBudget:
    """Each operand and the pair are factored once; computed operators reuse
    the spectrum in hand instead of being factored again."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        return calls

    @pytest.mark.parametrize("rank", [24, 16], ids=["generic", "singular"])
    def test_decompose(self, monkeypatch, rank):
        rng = make_rng(44)
        s, t = random_psd(rng, 32, rank=rank), random_psd(rng, 32, rank=rank)
        assert is_singular_pair(s, t) == (rank == 16)
        calls = self.counting(monkeypatch)
        assert decompose(s, t).uniqueness.unique
        # eigh: the engine twice in the iteration and twice in the singularity
        # test; the limit, the regular and the singular part take their spectra
        # from thin SVDs of their factors, and trace_norm(S) reads the cached
        # spectrum of S
        assert calls.count("eigh") == 4
        assert calls.count("eigvalsh") <= 7

    def test_verified_bound_reads_lambda_max_of_c_t_from_t(self, monkeypatch):
        rng = make_rng(45)
        cases = []
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            candidate = float(rng.uniform(0.0, 2.0)) * t.array
            c = float(rng.uniform(0.0, 3.0))
            cases.append((candidate, c, t))
        expected = [c if loewner_leq(a, c * t.array) else np.inf for a, c, t in cases]
        calls = self.counting(monkeypatch)
        assert [lebesgue._verified_bound(a, c, t, ToleranceConfig()) for a, c, t in cases] == expected
        assert calls == ["eigvalsh"] * len(cases)

    def test_unbounded_constant_gives_a_non_unique_certificate(self, monkeypatch):
        monkeypatch.setattr(lebesgue, "_domination_constant", lambda *args: np.inf)
        cert = decompose(ONES, EYE2).uniqueness
        assert not cert.unique and cert.c == np.inf and "domination" in cert.witness
