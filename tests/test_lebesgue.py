import importlib
import math

import numpy as np
import pytest

from oplebesgue import (
    ConsistencyError,
    PsdMatrix,
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
psd_core = importlib.import_module("oplebesgue.psd_core")
CONV_TOL = psd_core.CONV_TOL
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
        # K = ceil(log2(sum_i d_i / a_i^2 / threshold)); distances and
        # threshold are taken in the engine's frame, which here differs from
        # S's units by an exact power of two
        rng = make_rng(33)
        for dim in (3, 5, 8):
            s = random_psd(rng, dim)
            t = random_psd(rng, dim, rank=dim - 1)
            _, record = ac_part_iterative(s, t)
            family = _ScaledParallelSums(s, t)
            threshold = CONV_TOL * family.framed(trace_norm(s))
            assert family.unframed(threshold) == CONV_TOL * trace_norm(s)
            distances = [family.gap(2.0 ** (step.k + 1), np.inf) for step in record.steps]
            assert all(d > threshold for d in distances[:-1]) and distances[-1] <= threshold
            assert [step.k for step in record.steps] == list(range(len(record.steps)))
            assert record.steps[-1].k <= math.ceil(math.log2(family.reach(threshold)))

    def test_passing_the_derived_bound_is_a_consistency_error(self, monkeypatch):
        # weights that break their own bound: K computes to 0 for a pair that
        # needs about 30 doublings, and the fall-through names stage and margin
        monkeypatch.setattr(_ScaledParallelSums, "reach", lambda self, threshold: 1e-12 / threshold)
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
        family = _ScaledParallelSums(EYE2, t)
        bound = math.ceil(math.log2(family.reach(CONV_TOL * family.framed(2.0))))
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


def dense_steps(s, t, steps):
    """Dense oracle for the weight-space iteration: each step's trace,
    trace-norm gap to the next approximant and domination constant, computed
    from the n x n approximants."""
    family = _ScaledParallelSums(s, t)
    out = []
    for step in steps:
        current = family.at_scale(2.0**step.k)
        following = family.at_scale(2.0 ** (step.k + 1))
        out.append((
            float(np.trace(current).real),
            trace_norm(following - current),
            lebesgue._dominated(current, t)[0],
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
        family = _ScaledParallelSums(s, t)
        assert len(record.steps) > 1
        for step in record.steps:
            assert np.array_equal(step.approximant.array, family.at_scale(2.0**step.k))

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
            def _certify(self, joint):
                mutate(self)
                return super()._certify(joint)

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

            def factor_at(self, m):
                return super().factor_at(m) / m**self.power

        class ShrinkingFaster(Shrinking):
            power = 1.0

        class Undercounting(_ScaledParallelSums):
            def domination_at(self, m):
                return super().domination_at(m) / 2

        rng = make_rng(31)
        s, t = random_psd(rng, 16, rank=12), random_psd(rng, 16, rank=12)
        # members shrinking by 1/m and by 1/m^2: the violation is at the size
        # of the members, so the band must be relative to them, not floored
        for shrinking in (Shrinking, ShrinkingFaster):
            monkeypatch.setattr(lebesgue, "_ScaledParallelSums", shrinking)
            with pytest.raises(ConsistencyError, match="not monotone"):
                ac_part_iterative(s, t)
        monkeypatch.setattr(lebesgue, "_ScaledParallelSums", Undercounting)
        _, record = ac_part_iterative(s, t)
        assert record.steps[-1].c_bound == np.inf

    def test_dense_spectral_calls_do_not_depend_on_steps(self, spectral_calls):
        # both pairs have ranks 24 and 24 in n = 32, meeting in 16 dims; the
        # short pair's S is a rank-8 part meeting range T trivially plus a
        # faint rank-16 part inside range T, whose members reach their limit
        # to within the threshold after one step
        rng = make_rng(29)
        s_long, t_long = random_psd(rng, 32, rank=24), random_psd(rng, 32, rank=24)
        t_short = random_psd(rng, 32, rank=24)
        inside = t_short.spectrum.eigenvectors[:, :24] @ random_psd(rng, 24, rank=16).array
        outside = random_psd(rng, 32, rank=8).array
        s_short = PsdMatrix(outside + 1e-6 * inside @ inside.conj().T / 24)
        for s, t in ((s_long, t_long), (s_short, t_short)):
            assert s.rank() == t.rank() == 24 and _ScaledParallelSums(s, t)._weights.size == 16
        spectral_calls.clear()
        _, long_record = ac_part_iterative(s_long, t_long)
        long_calls = sorted(spectral_calls)
        spectral_calls.clear()
        _, short_record = ac_part_iterative(s_short, t_short)
        assert len(long_record.steps) > 30 and len(short_record.steps) == 1
        assert long_calls == sorted(spectral_calls)


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
        # up to 4^+-200: past about 1e154 LAPACK rescales internally and the
        # results are no longer bitwise covariant
        powers = (-200, -150, -60, -30, -13, 0, 13, 30, 60, 150, 200)
        for j in powers:
            for k in powers:
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


    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_thinned_sweep_over_the_float_range(self, structure):
        # operands from 1e-300 to 1e300: ac scales with alpha, and c with
        # alpha / beta, rounding to 0 below float64; a c above float64 is an
        # answer the format cannot carry, a ConsistencyError of the domination
        # stage, never an overflow, a warning or a LinAlgError
        s, t = structured_pair(structure, 16, 0)
        base = decompose(PsdMatrix(s), PsdMatrix(t))
        size = trace_norm(PsdMatrix(s))
        scales = (1e-300, 1e-150, 1.0, 1e150, 1e300)
        for alpha in scales:
            for beta in scales:
                where = f"{structure} at ({alpha:g}, {beta:g})"
                exact_c = base.uniqueness.c * alpha / beta
                if math.isinf(exact_c):
                    with pytest.raises(ConsistencyError, match="exceeds float64") as excinfo:
                        decompose(PsdMatrix(alpha * s), PsdMatrix(beta * t))
                    assert excinfo.value.details["stage"] == "domination", where
                    continue
                dec = decompose(PsdMatrix(alpha * s), PsdMatrix(beta * t))
                assert trace_norm(dec.ac.array / alpha - base.ac.array) <= 1e-12 * size, where
                assert dec.uniqueness.unique, where
                assert dec.uniqueness.c == pytest.approx(exact_c, rel=1e-8, abs=0.0), where


    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_iteration_record_rounds_its_last_constant(self, structure):
        # the last step's constant is checked in the frames of the domination
        # constant and rounded to float64 only then: below float64 it reads 0,
        # as c does, not the inf of a zero constant that failed its check
        s, t = structured_pair(structure, 16, 0)
        base = decompose(PsdMatrix(s), PsdMatrix(t)).trace_of_iteration.steps[-1].c_bound
        scales = (1e-300, 1e-150, 1.0, 1e150, 1e300)
        for alpha in scales:
            for beta in (beta for beta in scales if beta >= alpha):
                where = f"{structure} at ({alpha:g}, {beta:g})"
                dec = decompose(PsdMatrix(alpha * s), PsdMatrix(beta * t))
                last = dec.trace_of_iteration.steps[-1].c_bound
                assert last == pytest.approx(base * alpha / beta, rel=1e-8, abs=0.0), where
                assert last <= dec.uniqueness.c * (1.0 + 1e-8), where
        dec = decompose(PsdMatrix(1e-300 * s), PsdMatrix(1e300 * t))
        assert dec.trace_of_iteration.steps[-1].c_bound == dec.uniqueness.c == 0.0

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_operands_near_the_float64_maximum(self, structure):
        # lambda_max(S) = lambda_max(T) = 4e306: the step bound, the member
        # average and the Loewner checks of c T all stay in range
        s, t = structured_pair(structure, 16, 0)
        s, t = s / np.linalg.eigvalsh(s)[-1], t / np.linalg.eigvalsh(t)[-1]
        base = decompose(PsdMatrix(s), PsdMatrix(t))
        dec = decompose(PsdMatrix(4e306 * s), PsdMatrix(4e306 * t))
        assert trace_norm(dec.ac.array / 4e306 - base.ac.array) <= 1e-12 * trace_norm(PsdMatrix(s))
        assert dec.uniqueness.c == pytest.approx(base.uniqueness.c, rel=1e-8, abs=0.0)
        dec = decompose(PsdMatrix(np.diag([1.5e308, 1.0])), DIAG10)
        assert np.array_equal(dec.ac.array, np.diag([1.5e308, 0.0])) and dec.uniqueness.c == 1.5e308


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

        def perturbed(s, t):
            ac_factor, sing_factor = closed_factors(s, t)
            return ac_factor, sing_factor * (1.0 + 1e-6)

        s, t = self.pairs((0.75, 0.75), count=1)[0]
        monkeypatch.setattr(lebesgue, "_closed_factors", perturbed)
        with pytest.raises(ConsistencyError, match="singular part.*do not add back"):
            decompose(s, t)

    @pytest.mark.parametrize("planted, diagnosis", [(0, "regular part disagree"),
                                                    (1, "do not add back")])
    def test_planted_nan_is_an_internal_failure(self, monkeypatch, planted, diagnosis):
        # the drift and additivity norms are taken past the input gate, and
        # nan passes neither check: exit 3, not "entries must be finite"
        computed, made = lebesgue._computed_psd, []

        def planting(factor, scale):
            made.append(computed(factor, scale))  # the regular part, then the singular
            if len(made) - 1 != planted:
                return made[-1]
            array = made[-1].array.copy()
            array[0, 0] = np.nan
            return psd_core._with_spectrum(array, made[-1].eigenvalues, made[-1].spectrum.eigenvectors)

        s, t = self.pairs((0.75, 0.75), count=1)[0]
        monkeypatch.setattr(lebesgue, "_computed_psd", planting)
        with pytest.raises(ConsistencyError, match=diagnosis):
            decompose(s, t)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_perturbed_regular_factor_is_rejected_at_every_scale(self, monkeypatch, scale):
        closed_factors = lebesgue._closed_factors

        def perturbed(s, t):
            ac_factor, sing_factor = closed_factors(s, t)
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

    def test_zero_candidate_needs_no_eigensolve(self, spectral_calls):
        # an exactly zero candidate has c = 0 against every T, of any rank
        rng = make_rng(42)
        zero = PsdMatrix(np.zeros((8, 8)))
        panel = [random_psd(rng, 8, rank=rank) for rank in (8, 3)] + [zero]
        spectral_calls.clear()
        for t in panel:
            assert lebesgue._dominated(np.zeros((8, 8), dtype=complex), t) == (0.0, None)
            assert is_dominated(zero, t) == 0.0
        assert spectral_calls == []

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
    the spectrum in hand instead of being factored again, and a certificate
    that clears its threshold is decided by a shifted Cholesky factorization
    or a Frobenius bound instead of an eigensolve."""

    @pytest.mark.parametrize("rank, expected", [
        (24, {"eigh": 2, "eigvalsh": 1, "svd": 4, "cholesky": 5}),
        (16, {"eigh": 0, "eigvalsh": 0, "svd": 4, "cholesky": 3}),
    ], ids=["generic", "singular"])
    def test_decompose(self, spectral_calls, rank, expected):
        rng = make_rng(44)
        s, t = random_psd(rng, 32, rank=rank), random_psd(rng, 32, rank=rank)
        assert is_singular_pair(s, t) == (rank == 16)
        spectral_calls.clear()
        assert decompose(s, t).uniqueness.unique
        # the engine of (S, T) factors its Gram and overlap with eigh only
        # where the ranges meet; otherwise, as for (sing, T), whose p + q <= n
        # always, one Cholesky factorization certifies the Gram's full rank.
        # The limit, the regular and the singular part take their spectra
        # from thin SVDs of their factors, the closed form takes one more, and
        # trace_norm(S) reads the cached spectrum of S.  Cholesky decides the
        # Loewner checks of the returned approximant and of c T, and the
        # range join of the singularity test; Frobenius bounds decide the
        # oracle drift, additivity and range containment.  The one eigvalsh
        # left is the framed domination constant's.  A singular pair has
        # exactly zero iterates and regular part, which need neither
        assert {name: spectral_calls.count(name) for name in expected} == expected

    def test_domination_check_reads_lambda_max_of_c_t_from_t(self, spectral_calls):
        rng = make_rng(45)
        cases = []
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            t = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            candidate = float(rng.uniform(0.0, 2.0)) * t.array
            c = float(rng.uniform(0.0, 3.0))
            cases.append((candidate, c, t))
        expected = [c if loewner_leq(a, c * t.array) else np.inf for a, c, t in cases]
        assert 0 < expected.count(np.inf) < len(cases)
        spectral_calls.clear()
        assert [lebesgue._dominated(a, t, (c, 0))[0] for a, c, t in cases] == expected
        # one Cholesky factorization of c T - candidate each, and its smallest
        # eigenvalue only where that rejects; never a spectrum of c T
        assert spectral_calls == [name for bound in expected
                                  for name in ["cholesky"] + ["eigvalsh"] * (bound == np.inf)]

    def test_unbounded_constant_raises_in_the_domination_stage(self):
        # a matrix pair whose regular part passed range containment is always
        # dominated in exact arithmetic, so a rejected constant is a numerical
        # failure: here the ranges meet at an angle of about 0.05 * 2^-24,
        # below what float64 resolves.  The error carries the candidate c, the
        # smallest eigenvalue of c T - ac and the band the check measured
        s, t = (PsdMatrix(m) for m in _near_degenerate_pair(0, 24))
        with pytest.raises(ConsistencyError, match="not dominated") as excinfo:
            decompose(s, t)
        details = excinfo.value.details
        assert details["stage"] == "domination" and 0.0 < details["c"] < np.inf
        assert details["band"] == pytest.approx(-psd_core.PSD_TOL * details["c"] * t.lam_max, rel=1e-15)
        low = np.linalg.eigvalsh(details["c"] * t.array - ac_part_closed(s, t).array)[0]
        assert details["min_eigenvalue"] == pytest.approx(low, rel=1e-9)
        assert details["min_eigenvalue"] < details["band"]
        # the range containment it passed, measured on the failure path
        assert details["leak_sine"] <= details["leak_threshold"] == math.sqrt(psd_core.RANK_CUTOFF)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1e100, 1e-100), (1e-100, 1e100)])
    def test_singular_pair_frames_nothing(self, monkeypatch, alpha, beta):
        # the approximants of a pair whose ranges meet trivially are exact
        # zeros, with c = 0 against T: no frame and no Loewner check of c T,
        # so the zero approximant makes no Cholesky factorization or eigvalsh
        s, t = structured_pair("singular", 32, 3)
        s, t = PsdMatrix(alpha * s), PsdMatrix(beta * t)
        dominated, calls = lebesgue._dominated, []

        def counted(candidate, reference, *given):
            calls.append("_dominated")
            with monkeypatch.context() as patch:
                for name in ("cholesky", "eigvalsh"):
                    patch.setattr(np.linalg, name, lambda *args, _n=name: calls.append(_n))
                return dominated(candidate, reference, *given)

        monkeypatch.setattr(lebesgue, "_dominated", counted)
        limit, record = lebesgue.ac_part_iterative(s, t)
        assert not np.any(limit.array) and record.steps[-1].c_bound == 0.0
        assert calls == ["_dominated"]


def _near_degenerate_pair(seed, j):
    """S = A A* and T = B B* with B = [B0, A e1 + 2^-j e6], A (6 x 3) and B0
    (6 x 2) Gaussian-integer matrices with parts in -4..4.  In exact
    arithmetic the ranges meet trivially for every j, at a smallest
    principal angle of about 0.05 * 2^-j."""
    rng = np.random.default_rng(seed)

    def gaussian_integers(rows, cols):
        return rng.integers(-4, 5, (rows, cols)) + 1j * rng.integers(-4, 5, (rows, cols))

    a, b0 = gaussian_integers(6, 3), gaussian_integers(6, 2)
    b = np.column_stack([b0, a[:, 0] + 2.0 ** -j * np.eye(6)[:, 5]])
    return a @ a.conj().T, b @ b.conj().T


class TestNearDegeneratePanel:
    """As the angle between the ranges shrinks below what float64 resolves,
    decompose may answer or exit 3, but a matrix pair is never reported
    non-unique, and every failure names its stage."""

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1e-8, 1e8), (1e8, 1e-8)],
                             ids=["unit", "small_s", "large_s"])
    def test_no_non_unique_answer(self, alpha, beta):
        stages = set()
        for j in range(4, 33, 2):
            for seed in range(40):
                s, t = _near_degenerate_pair(seed, j)
                try:
                    dec = decompose(PsdMatrix(alpha * s), PsdMatrix(beta * t))
                except ConsistencyError as exc:
                    assert "stage" in (exc.details or {}), f"seed {seed}, j = {j}: {exc}"
                    stages.add(exc.details["stage"])
                    continue
                assert dec.uniqueness.unique, f"seed {seed}, j = {j}: unique = false"
        # the panel reaches the failure that used to answer unique = false
        assert "domination" in stages


class TestSubnormalOperands:
    """An S whose trace is below the smallest normal float: the stopping
    distances and threshold are taken in the engine's frame, so none of them
    underflows and the schedule is the one of the same pair at unit scale."""

    @pytest.mark.parametrize("power", [-1042, -1060])
    def test_record_is_the_unit_record_scaled_once(self, power):
        # 2^power passes the gate exactly and its root is exact: the frame is
        # the unit pair's bit for bit, so the schedule and every step's
        # constant agree, the last one checked densely in that frame too, and
        # each trace and gap is the unit one times 2^power, rounded once
        # into the subnormal range
        unit_ac, unit = ac_part_iterative(PsdMatrix([[1.0]]), PsdMatrix([[1.0]]))
        tiny = PsdMatrix([[2.0**power]])
        ac, record = ac_part_iterative(tiny, tiny)
        assert len(record.steps) == len(unit.steps) == 30
        assert [(s.k, s.c_bound) for s in record.steps] == [(s.k, s.c_bound) for s in unit.steps]
        assert record.steps[-1].c_bound == 0.9999999981373553
        assert [(s.trace, s.gap) for s in record.steps] == [
            (math.ldexp(s.trace, power), math.ldexp(s.gap, power)) for s in unit.steps]
        assert ac.array[0, 0] == math.ldexp(unit_ac.array[0, 0].real, power)

    @pytest.mark.parametrize("seed", [13, 16, 33, 46])
    def test_returned_pair_is_checked_in_the_frame(self, seed):
        # random pairs both divided by 2^1042: the approximants in S's units
        # are rounded to the subnormal grid, far coarser than the Loewner
        # band, while in the engine's frame they are full floats, so the
        # monotonicity and domination checks pass and the record keeps the
        # unit pair's schedule, its last constant to the operands' rounding
        rng = make_rng(seed)
        n = int(rng.integers(1, 5))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        b = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        _, unit = ac_part_iterative(a, b)
        _, record = ac_part_iterative(PsdMatrix(a.array * 2.0**-1042), PsdMatrix(b.array * 2.0**-1042))
        assert [s.k for s in record.steps] == [s.k for s in unit.steps]
        assert record.steps[-1].c_bound == pytest.approx(unit.steps[-1].c_bound, rel=1e-8)

    @pytest.mark.parametrize("t_entry, c", [(1.0, 1e-320), (1e-320, 1.0)])
    def test_decompose_answers(self, t_entry, c):
        s = PsdMatrix([[1e-320]])
        dec = decompose(s, PsdMatrix([[t_entry]]))
        assert dec.uniqueness.unique and dec.uniqueness.c == pytest.approx(c, rel=1e-3)
        assert np.array_equal(dec.ac.array, s.array) and not np.any(dec.sing.array)
        assert is_absolutely_continuous(s, PsdMatrix([[t_entry]]))

    def test_complex_pair_at_the_smallest_subnormal(self):
        # entries that are small integers times 2^-1074 carry a few bits
        # each; S against itself is dominated with c = 1 to those bits
        x = np.array([[39, -68 + 23j], [-68 - 23j, 134]])
        s = PsdMatrix(np.ldexp(x.real, -1074) + 1j * np.ldexp(x.imag, -1074))
        dec = decompose(s, s)
        assert dec.uniqueness.unique and dec.uniqueness.c == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("power", [0, -1074])
    def test_singular_part_is_measured_against_a_framed_threshold(self, power):
        # S = diag(19.7e9, 20) against T = diag(1, 0): the singular part's
        # share of trace(S) is 1.015e-9, just above CONV_TOL, and S's range
        # is not in range T; at 2^-1074 the threshold in S's units, 19.7 units
        # of the smallest subnormal, would round to 20 and call it vanishing
        s = PsdMatrix(np.diag([math.ldexp(19.7e9, power), math.ldexp(20, power)]))
        assert not is_absolutely_continuous(s, DIAG10)
        assert is_absolutely_continuous(s, PsdMatrix(np.eye(2)))
