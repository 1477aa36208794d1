import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oplebesgue import (
    ConsistencyError,
    HermitianMatrix,
    PsdMatrix,
    ValidationError,
    eigh,
    hermitian_from_json,
    hs_inner,
    loewner_leq,
    matrix_to_json,
    op_norm,
    pinv_psd,
    psd_from_json,
    range_contained,
    range_projection,
    sqrt_psd,
    trace,
    trace_norm,
)
from oplebesgue.psd_core import (
    PSD_TOL,
    RANK_CUTOFF,
    SPECTRAL_TOL,
    _computed_psd,
    _eigenvalues_above,
    _hermitian_trace_norm,
    _relative_trace_norm,
)
from conftest import make_rng, random_hermitian, random_psd, random_unitary, screens_inconclusive

ONES2 = np.ones((2, 2))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian_naming_entries(self):
        with pytest.raises(ValidationError, match=r"\(0,1\).*\(1,0\)"):
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_accepts_roundoff_asymmetry(self):
        m = HermitianMatrix([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        np.testing.assert_allclose(m.array, m.array.conj().T)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_psd_clips_roundoff_negatives(self):
        rng = make_rng(0)
        u = random_unitary(rng, 2)
        a = (u * [1.0, -5e-11]) @ u.conj().T
        psd = PsdMatrix(a)
        assert psd.eigenvalues[-1] == 0.0

    def test_psd_rejects_genuine_negatives(self):
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            PsdMatrix(np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_bands_are_relative_to_the_operand(self, scale):
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            PsdMatrix(scale * np.diag([1.0, 0.5, -1e-3]))
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix(scale * np.array([[1.0, 1e-4], [0.0, 1.0]]))
        assert PsdMatrix(scale * np.diag([1.0, -5e-11])).eigenvalues[-1] == 0.0

    def test_arrays_are_immutable(self):
        psd = PsdMatrix(np.eye(2))
        with pytest.raises(ValueError):
            psd.array[0, 0] = 5.0


class TestEigh:
    def test_identity(self):
        decomp = eigh(np.eye(3))
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0, 1.0])

    def test_already_diagonal(self):
        decomp = eigh(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(decomp.eigenvalues, [2.0, 0.0])
        np.testing.assert_allclose(np.abs(decomp.eigenvectors), np.eye(2), atol=1e-14)

    def test_rank_one_two_by_two(self):
        # characteristic polynomial of [[1,1],[1,1]] by hand: eigenvalues 2, 0
        decomp = eigh(ONES2)
        np.testing.assert_allclose(decomp.eigenvalues, [2.0, 0.0], atol=1e-14)
        top = decomp.eigenvectors[:, 0]
        assert abs(abs(np.vdot(top, np.array([1, 1]) / np.sqrt(2))) - 1.0) < 1e-12

    def test_reconstruction_invariant(self):
        rng = make_rng(5)
        for _ in range(25):
            a = random_hermitian(rng, int(rng.integers(2, 12)))
            decomp = eigh(a)
            err = np.linalg.norm(decomp.reconstruct() - a)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(a))
            assert np.all(np.diff(decomp.eigenvalues) <= 1e-12)


    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_planted_eigenvalue_error_is_rejected_at_every_scale(self, monkeypatch, scale):
        # the reconstruction check is taken on the operand divided by its power
        # of two, so its norms neither overflow nor underflow
        rng = make_rng(6)
        a = scale * random_psd(rng, 6, rank=4).array
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (original(m)[0] * (1.0 + 1e-6), original(m)[1]))
        with pytest.raises(ConsistencyError, match="reconstruct"):
            eigh(a)

    def test_planted_nan_is_rejected(self, monkeypatch):
        # a nan eigenvalue fails the reconstruction check instead of passing it
        original = np.linalg.eigh

        def planting(m):
            w, v = original(m)
            return np.where(np.arange(w.size) == 0, np.nan, w), v

        monkeypatch.setattr(np.linalg, "eigh", planting)
        with pytest.raises(ConsistencyError, match="reconstruct"):
            eigh(random_psd(make_rng(6), 6, rank=4).array)


class TestTopOfTheFloatRange:
    """The Hermitian average A/2 + A*/2 cannot overflow, so entries up to the
    float64 maximum are stored as given; an operand whose trace norm
    overflows is rejected as input."""

    def test_entries_near_the_maximum_are_stored_exactly(self):
        psd = PsdMatrix(np.diag([1.5e308, 1.0]))
        assert np.array_equal(psd.array, np.diag([1.5e308, 1.0]))
        assert list(psd.eigenvalues) == [1.5e308, 1.0]

    def test_asymmetry_near_the_maximum_is_measured_without_overflow(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianMatrix(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))

    @pytest.mark.parametrize("entries", [np.full((2, 2), 1.5e308), np.diag([1e308, 1e308])],
                             ids=["lambda_max", "trace"])
    def test_overflowing_trace_norm_is_invalid_input(self, entries):
        with pytest.raises(ValidationError, match="trace norm must fit a float64"):
            PsdMatrix(entries)


class TestBottomOfTheFloatRange:
    """An operand is factored divided by its power of two, so one of
    subnormal entries is factored at full precision and its reconstruction
    check does not read the rounding of the subnormal grid."""

    @pytest.mark.parametrize("k", range(-1070, -1049, 4))
    def test_subnormal_operand_passes_the_gate(self, k):
        # F F* of a rank-2 complex F with small Gaussian-integer entries:
        # scaled by 2^k it is stored exactly, and its eigenvalues are 2^k
        # times those of F F*, rounded to the subnormal grid
        factor = np.array([[1, 1j], [2, 0], [0, 1 - 1j]])
        gram = factor @ factor.conj().T
        psd = PsdMatrix(gram * 2.0 ** k)
        assert np.array_equal(psd.array, gram * 2.0 ** k)
        expected = np.linalg.eigvalsh(gram)[::-1] * 2.0 ** k
        np.testing.assert_allclose(psd.eigenvalues, expected, rtol=0, atol=math.ulp(0.0))


class TestSqrt:
    def test_diagonal_roots(self):
        np.testing.assert_allclose(
            sqrt_psd(np.diag([4.0, 9.0])).array, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)).array, np.eye(3), atol=1e-14)

    def test_rank_one_projector_scaling(self):
        # S = ones(2) satisfies S^2 = 2 S, so sqrt(S) = S / sqrt(2)
        np.testing.assert_allclose(sqrt_psd(ONES2).array, ONES2 / np.sqrt(2), atol=1e-12)


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv_psd(np.diag([2.0, 0.0])).array, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(pinv_psd(np.eye(2)).array, np.eye(2), atol=1e-14)

    def test_rank_one(self):
        # ones(2) = 2 P with P the rank-one projector, so pinv = P / 2 = ones / 4
        np.testing.assert_allclose(pinv_psd(ONES2).array, ONES2 / 4, atol=1e-13)

    def test_moore_penrose_identities(self):
        rng = make_rng(11)
        for _ in range(30):
            dim = int(rng.integers(2, 15))
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            ap = pinv_psd(a)
            scale = max(1.0, op_norm(a))
            assert op_norm(a.array @ ap.array @ a.array - a.array) <= 1e-9 * scale
            assert op_norm(ap.array @ a.array @ ap.array - ap.array) <= 1e-9 * max(1.0, op_norm(ap))

    def test_involution_on_range(self):
        rng = make_rng(12)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            back = pinv_psd(pinv_psd(a))
            assert op_norm(back.array - a.array) <= 1e-8 * max(1.0, op_norm(a))


class TestRangeProjection:
    def test_diagonal(self):
        np.testing.assert_allclose(range_projection(np.diag([5.0, 0.0])).array, np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero(self):
        np.testing.assert_allclose(range_projection(np.zeros((2, 2))).array, 0.0, atol=1e-15)

    def test_rank_one(self):
        np.testing.assert_allclose(range_projection(ONES2).array, ONES2 / 2, atol=1e-12)

    def test_projection_identities(self):
        rng = make_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            p = range_projection(a).array
            assert op_norm(p @ p - p) <= 1e-9
            assert op_norm(p @ a.array - a.array) <= 1e-9 * max(1.0, op_norm(a))


class TestLoewner:
    def test_examples(self):
        assert loewner_leq(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        assert not loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_band_is_relative_to_the_upper_operand(self, scale):
        assert not loewner_leq(scale * np.diag([1.0, 1e-3]), scale * np.diag([1.0, 0.0]))
        assert loewner_leq(scale * np.diag([1.0, 5e-11]), scale * np.diag([1.0, 0.0]))
        assert loewner_leq(-scale * np.eye(2), -scale * np.eye(2))

    def test_reflexive_on_random(self):
        rng = make_rng(14)
        for _ in range(20):
            s = random_psd(rng, int(rng.integers(2, 10)))
            assert loewner_leq(s, s)

    def test_zero_below_everything(self):
        rng = make_rng(15)
        for _ in range(20):
            s = random_psd(rng, int(rng.integers(1, 10)))
            assert loewner_leq(np.zeros((s.dim, s.dim)), s)

    def test_psd_upper_operand_reuses_its_spectrum(self, spectral_calls):
        # lambda_max(b) comes from the cached spectrum: one Cholesky
        # factorization of b - a, and its eigvalsh only where that is
        # inconclusive, here exactly where the answer is no
        rng = make_rng(16)
        pairs = []
        for _ in range(20):
            dim = int(rng.integers(1, 10))
            pairs.append((random_hermitian(rng, dim), random_psd(rng, dim)))
        expected = [loewner_leq(a, b.array) for a, b in pairs]
        assert 0 < expected.count(False) < len(pairs)
        spectral_calls.clear()
        assert [loewner_leq(a, b) for a, b in pairs] == expected
        assert spectral_calls == [name for answer in expected
                                  for name in ["cholesky"] + ["eigvalsh"] * (not answer)]

    @pytest.mark.parametrize("a, b, message", [
        ([[0, 1], [0, 0]], np.eye(2), "not Hermitian"),
        (np.eye(2), [[0, 1], [0, 0]], "not Hermitian"),
        ([[1.0]], [[np.inf]], "finite"),
        ([[np.nan]], [[1.0]], "finite"),
        (np.eye(2, 3), np.eye(2, 3), "square"),
    ])
    def test_raw_operands_are_checked_like_hermitian_input(self, a, b, message):
        # Cholesky and eigvalsh each read one triangle, so a raw operand that
        # is not Hermitian, or not finite, would otherwise get a bool answer
        with pytest.raises(ValidationError, match=message):
            loewner_leq(a, b)

    def test_exact_zero_difference_needs_no_eigensolve(self, spectral_calls):
        # b - a exactly zero has smallest eigenvalue exactly 0, against a
        # plain array b as against a PsdMatrix
        rng = make_rng(17)
        panel = [random_psd(rng, dim) for dim in (1, 4, 9)] + [PsdMatrix(np.zeros((3, 3)))]
        spectral_calls.clear()
        for b in panel:
            assert loewner_leq(b, b) and loewner_leq(b.array.copy(), b.array)
        assert loewner_leq(np.zeros((0, 0)), np.zeros((0, 0)))
        assert spectral_calls == []


class TestTraceFunctionals:
    def test_trace_norm_of_psd_is_trace(self):
        assert trace_norm(PsdMatrix(np.diag([1.0, 2.0]))) == pytest.approx(3.0)

    def test_hs_inner_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_hs_inner_nilpotent(self):
        # entrywise sum of |entries|^2 for the matched pair
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hs_inner(n, n) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_hs_inner_keeps_an_imaginary_part_at_every_scale(self, scale):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hs_inner(scale * e12, 1j * scale * e12) == -1j * scale**2

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_hs_inner_at_extreme_scales(self, scale):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hs_inner(scale * e12, 1j * e12) == -1j * scale
        s = random_psd(make_rng(19), 4).array
        assert hs_inner(scale * s, s) == pytest.approx(scale * hs_inner(s, s), rel=1e-14)

    def test_hs_inner_conjugate_symmetry(self):
        rng = make_rng(16)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_trace_inequality(self):
        rng = make_rng(17)
        for _ in range(50):
            dim = int(rng.integers(2, 12))
            a = random_hermitian(rng, dim)
            t = random_psd(rng, dim)
            assert abs(trace(np.asarray(a, dtype=complex) @ t.array)) <= op_norm(a) * trace_norm(t) + 1e-9

    def test_op_norm_is_largest_singular_value(self):
        rng = make_rng(18)
        m = rng.standard_normal((4, 4))
        assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])

    def test_norms_of_psd_read_the_cached_spectrum(self, spectral_calls):
        rng = make_rng(21)
        panel = [random_psd(rng, int(rng.integers(1, 12)), rank=None) for _ in range(10)]
        panel.append(PsdMatrix(np.zeros((3, 3))))
        expected = [(np.abs(np.linalg.eigvalsh(a.array)).sum(), np.linalg.norm(a.array, 2))
                    for a in panel]
        spectral_calls.clear()
        for a, (trace_ref, op_ref) in zip(panel, expected):
            assert trace_norm(a) == pytest.approx(trace_ref, rel=1e-12, abs=1e-12)
            assert op_norm(a) == pytest.approx(op_ref, rel=1e-12, abs=1e-12)
        assert spectral_calls == []

    def test_hermitian_trace_norm_of_an_exact_zero(self, spectral_calls):
        # an exactly zero finite array has trace norm 0.0 without an
        # eigensolve; a non-finite one stays nan
        zero = np.zeros((4, 4), dtype=complex)
        assert _hermitian_trace_norm(zero) == 0.0 and _hermitian_trace_norm(zero[:0, :0]) == 0.0
        assert spectral_calls == []
        for bad in (np.nan, np.inf):
            broken = zero.copy()
            broken[1, 2] = bad
            assert np.isnan(_hermitian_trace_norm(broken))
        assert _hermitian_trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
        assert spectral_calls == ["eigvalsh"]


class TestSqrtRoundTrip:
    def test_square_reproduces_input(self):
        rng = make_rng(19)
        for _ in range(200):
            dim = int(rng.integers(2, 31))
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            root = sqrt_psd(a)
            err = np.linalg.norm(root.array @ root.array - a.array)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(a.array))


class TestRangeContained:
    def test_subspace_inclusion(self):
        assert range_contained(PsdMatrix(np.diag([1.0, 0.0])), PsdMatrix(np.eye(2)))
        assert not range_contained(PsdMatrix(np.eye(2)), PsdMatrix(np.diag([1.0, 0.0])))

    def test_ranks_are_taken_at_each_operands_own_scale(self):
        # a tiny operator keeps its range: rescaling never changes a verdict
        for scale in (1e-30, 1.0, 1e30):
            tiny = PsdMatrix(np.diag([scale, 0.0]))
            assert not range_contained(tiny, PsdMatrix(np.diag([0.0, 1.0])))
            assert range_contained(tiny, PsdMatrix(np.diag([1.0, 0.0])))
            assert range_contained(PsdMatrix(np.diag([1.0, 0.0])), tiny)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8))
def test_diagonal_psd_roundtrips_through_spectral_cache(diag):
    psd = PsdMatrix(np.diag(diag))
    np.testing.assert_allclose(sorted(psd.eigenvalues), sorted(diag), atol=1e-12)
    assert trace(psd) == pytest.approx(sum(diag))


class TestJson:
    def test_round_trip_real(self):
        m = PsdMatrix([[2.0, 1.0], [1.0, 2.0]])
        again = psd_from_json(json.loads(json.dumps(matrix_to_json(m))))
        np.testing.assert_allclose(again.array, m.array)

    def test_round_trip_complex(self):
        m = HermitianMatrix([[1.0, 1j], [-1j, 1.0]])
        blob = matrix_to_json(m)
        assert "imag" in blob
        np.testing.assert_allclose(hermitian_from_json(blob).array, m.array)

    def test_imag_defaults_to_zero(self):
        m = hermitian_from_json({"dim": 2, "real": [[1.0, 0.0], [0.0, 1.0]]})
        np.testing.assert_allclose(m.array, np.eye(2))

    @pytest.mark.parametrize("blob", [
        {"dim": 2, "real": [[1.0, 0.0], [0.0]]},              # ragged
        {"dim": 2, "real": [[1.0, 0.0]]},                     # wrong row count
        {"dim": 2, "real": [[1.0, 0.0], [0.0, "x"]]},         # non-numeric
        {"dim": 0, "real": []},                               # bad dim
        {"real": [[1.0]]},                                    # missing dim
        {"dim": 1},                                           # missing real
        [1, 2, 3],                                            # not an object
    ])
    def test_rejects_malformed(self, blob):
        with pytest.raises(ValidationError):
            hermitian_from_json(blob)

    def test_psd_from_json_checks_hermitian_input_once(self, monkeypatch):
        blob = matrix_to_json(random_psd(make_rng(22), 6))
        checked = []
        init = HermitianMatrix.__init__

        def counted(self, entries):
            checked.append(not isinstance(entries, HermitianMatrix))
            init(self, entries)

        monkeypatch.setattr(HermitianMatrix, "__init__", counted)
        psd = psd_from_json(blob)
        assert sum(checked) == 1
        np.testing.assert_array_equal(psd.array, hermitian_from_json(blob).array)

    def test_psd_from_json_keeps_its_error_messages(self):
        with pytest.raises(ValidationError, match=r"not Hermitian: entries \(0,1\)"):
            psd_from_json({"dim": 2, "real": [[1.0, 2.0], [0.0, 1.0]]})
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            psd_from_json({"dim": 2, "real": [[1.0, 0.0], [0.0, -1.0]]})


class TestComputedOperators:
    """sqrt_psd, pinv_psd and range_projection are built from the spectrum
    already in hand: no new factorization, a descending spectrum that
    reconstructs the array, and the array of the plain spectral formula."""

    @staticmethod
    def formulas(a):
        """Each operator's spectral formula, Hermitian-averaged like any PsdMatrix."""
        w, V = a.eigenvalues, a.spectrum.eigenvectors
        k = a.rank()
        raw = {
            sqrt_psd: (V * np.sqrt(w)) @ V.conj().T,
            pinv_psd: (V[:, :k] / w[:k]) @ V[:, :k].conj().T,
            range_projection: V[:, :k] @ V[:, :k].conj().T,
        }
        return {op: (r + r.conj().T) / 2 for op, r in raw.items()}

    @staticmethod
    def cases():
        rng = make_rng(31)
        return [random_psd(rng, dim, rank=rank)
                for dim, rank in ((1, 1), (6, 3), (16, 16), (32, 11), (40, 1))]

    def test_no_factorization(self, monkeypatch):
        cases = self.cases()
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, _o=original, _n=name: calls.append(_n) or _o(m))
        for a in cases:
            for op in (sqrt_psd, pinv_psd, range_projection):
                op(a)
        assert calls == []

    def test_known_spectrum(self):
        for a in self.cases():
            for op, expected in self.formulas(a).items():
                result = op(a)
                w, V = result.eigenvalues, result.spectrum.eigenvectors
                assert np.all(np.diff(w) <= 0.0), op.__name__
                assert np.all(w >= 0.0)
                norm = max(1.0, np.linalg.norm(result.array))
                assert np.linalg.norm(result.spectrum.reconstruct() - result.array) <= SPECTRAL_TOL * norm
                assert np.linalg.norm(V.conj().T @ V - np.eye(a.dim)) <= SPECTRAL_TOL
                assert np.array_equal(result.array, expected), op.__name__
                assert not result.array.flags.writeable

    def test_known_spectrum_agrees_with_a_fresh_factorization(self):
        for a in self.cases():
            for op in (sqrt_psd, pinv_psd, range_projection):
                result = op(a)
                fresh = PsdMatrix(result.array)
                scale = max(1.0, fresh.lam_max)
                np.testing.assert_allclose(result.eigenvalues, fresh.eigenvalues, atol=1e-9 * scale)
                assert result.rank() == fresh.rank()


class TestComputedFromFactor:
    """_computed_psd builds X X* from a factor X, with the spectrum of a thin
    SVD of X cut at the scale of the operand X X* came from."""

    def test_array_and_thin_spectrum(self):
        rng = make_rng(32)
        for dim, cols, rank in ((1, 1, 1), (6, 4, 3), (16, 24, 16), (32, 11, 5)):
            factor = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) @ (
                rng.standard_normal((rank, cols)))
            built = _computed_psd(factor, 1.0)
            product = factor @ factor.conj().T
            assert np.array_equal(built.array, (product + product.conj().T) / 2)
            assert not built.array.flags.writeable
            w, V = built.eigenvalues, built.spectrum.eigenvectors
            assert w.size == rank and V.shape == (dim, rank)
            assert np.all(np.diff(w) <= 0.0) and np.all(w > 0.0)
            assert np.linalg.norm(V.conj().T @ V - np.eye(rank)) <= SPECTRAL_TOL
            norm = np.linalg.norm(built.array)
            assert np.linalg.norm(built.spectrum.reconstruct() - built.array) <= SPECTRAL_TOL * norm
            fresh = PsdMatrix(built.array)
            np.testing.assert_allclose(w, fresh.eigenvalues[:rank], rtol=1e-12)

    def test_roundoff_columns_carry_no_rank(self):
        # columns at the roundoff of an operand of size 1 are cut at its scale,
        # not at their own
        rng = make_rng(33)
        genuine = rng.standard_normal((8, 2))
        ghosts = 1e-17 * rng.standard_normal((8, 3))
        built = _computed_psd(np.concatenate([genuine, ghosts], axis=1), 1.0)
        assert built.eigenvalues.size == 2 and built.rank() == 2
        alone = _computed_psd(ghosts, 1.0)
        assert alone.eigenvalues.size == 0 and alone.lam_max == 0.0 and alone.rank() == 0
        assert trace_norm(alone) == 0.0

    def test_empty_factor_is_exactly_zero(self):
        built = _computed_psd(np.zeros((3, 0), dtype=complex), 1.0)
        assert np.array_equal(built.array, np.zeros((3, 3)))
        assert built.eigenvalues.size == 0 and built.rank() == 0

    def test_scale_covariant_for_powers_of_two(self):
        rng = make_rng(34)
        factor = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
        base = _computed_psd(factor, 7.0)
        for j in (-60, -27, 27, 60):
            scaled = _computed_psd(2.0**j * factor, 4.0**j * 7.0)
            assert np.array_equal(scaled.array, 4.0**j * base.array)
            assert scaled.rank() == base.rank() == 6

    def test_thin_spectra_feed_the_spectral_operators(self):
        rng = make_rng(35)
        factor = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        built = _computed_psd(factor, 1.0)
        np.testing.assert_allclose(pinv_psd(built).array, np.linalg.pinv(built.array), atol=1e-10)
        projection = range_projection(built)
        assert projection.eigenvalues.size == 4
        np.testing.assert_allclose(projection.array @ built.array, built.array, atol=1e-10)
        np.testing.assert_allclose(sqrt_psd(built).array @ sqrt_psd(built).array, built.array,
                                   atol=1e-10)


# --- screens ----------------------------------------------------------------
#
# A screen decides a certificate without an eigensolve only where the exact
# solve decides it the same way; elsewhere it is inconclusive and the solve
# decides.  Each property below places the decisive eigenvalue, trace norm
# or sine at its threshold times 1 +- 10^-k, at scales from 1e-300 to 1e300.


def _allowance(m: np.ndarray, floor: float) -> float:
    """The Cholesky screen's backward-error allowance for m against floor."""
    n = m.shape[0]
    return 2 * (n + 2) * sys.float_info.epsilon * float(np.abs(np.diagonal(m) - floor).sum())


def _hermitian_with_spectrum(rng, w, scale):
    q = random_unitary(rng, len(w))
    m = scale * (q * w) @ q.conj().T
    return m / 2 + m.conj().T / 2


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24), k=st.integers(1, 15),
       above=st.booleans(), exponent=st.integers(-300, 300),
       floor=st.sampled_from([0.0, 1e-10, -1e-10, 2e-10, 0.3]))
def test_cholesky_screen_agrees_with_eigvalsh(seed, dim, k, above, exponent, floor):
    # the smallest eigenvalue sits at floor (1 +- 10^-k), or at +-10^-k for a
    # zero floor, below the others, which reach 1; all of it times 10^exponent
    rng = make_rng(seed)
    offset = 10.0**-k * (abs(floor) or 1.0)
    low = floor + offset if above else floor - offset
    scale = 10.0**exponent
    m = _hermitian_with_spectrum(rng, np.concatenate([[low, 1.0], rng.uniform(low, 1.0, dim)])[:dim], scale)
    threshold = scale * floor
    exact = float(np.linalg.eigvalsh(m)[0])
    screened = _eigenvalues_above(m, threshold)
    # the screen never passes what the solve rejects, and it passes whatever
    # clears the threshold by more than twice its allowance
    assert not screened or exact > threshold
    if exact - threshold > 2 * _allowance(m, threshold):
        assert screened


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 1), (2, 0)])
def test_cholesky_screen_is_inconclusive_on_non_finite_input(bad, where):
    m = 4.0 * np.eye(3, dtype=complex)
    m[where] = m[where[::-1]] = bad
    assert not _eigenvalues_above(m, 0.0)
    assert not _eigenvalues_above(np.eye(3), bad)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16), k=st.integers(1, 15),
       above=st.booleans(), exponent=st.integers(-300, 300), cached=st.booleans())
def test_loewner_screen_agrees_with_the_exact_check(seed, dim, k, above, exponent, cached):
    # b - a has its smallest eigenvalue at -PSD_TOL lambda_max(b) (1 -+ 10^-k)
    rng = make_rng(seed)
    scale = 10.0**exponent
    b = PsdMatrix(_hermitian_with_spectrum(rng, np.concatenate([[1.0], rng.uniform(0.0, 1.0, dim - 1)]), scale))
    low = -PSD_TOL * (1.0 - 10.0**-k if above else 1.0 + 10.0**-k)
    d = _hermitian_with_spectrum(rng, np.concatenate([[low], rng.uniform(low, 1.0, dim - 1)]), scale)
    a = b.array - d
    a = a / 2 + a.conj().T / 2
    upper = b if cached else b.array
    screened = loewner_leq(a, upper)
    with pytest.MonkeyPatch.context() as patch:
        screens_inconclusive(patch)
        exact = loewner_leq(a, upper)
    assert screened == exact
    # outside the allowance the Cholesky factorization alone decides a pass
    band, difference = PSD_TOL * b.lam_max, b.array - a
    if float(np.linalg.eigvalsh(difference)[0]) + band > 2 * _allowance(difference, -band):
        assert _eigenvalues_above(difference, -band)


# the counter is cleared for each example
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24), k=st.integers(1, 15),
       above=st.booleans(), exponent=st.integers(-300, 290), limit=st.sampled_from([1e-8, 1e-9]))
def test_trace_norm_screen_agrees_with_eigvalsh(spectral_calls, seed, dim, k, above, exponent, limit):
    # every |eigenvalue| of X is 10^exponent, so sqrt(n) |X|_F is its trace
    # norm and the bound is tight; the reference scale puts trace_norm(X) /
    # scale at limit (1 +- 10^-k)
    rng = make_rng(seed)
    size = 10.0**exponent
    x = _hermitian_with_spectrum(rng, rng.choice([-1.0, 1.0], dim), size)
    scale = dim * size / (limit * (1.0 + 10.0**-k if above else 1.0 - 10.0**-k))
    spectral_calls.clear()
    screened = _relative_trace_norm(x, scale, limit)
    exact = _hermitian_trace_norm(x) / scale
    # a value past the limit is the measured one, so the verdicts agree
    assert (screened <= limit) == (exact <= limit)
    assert screened <= limit or screened == exact
    if not above and k <= 11:  # clear of roundoff: the bound decides alone
        assert spectral_calls == ["eigvalsh"]  # the reference's own, above


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_norm_screen_is_inconclusive_on_non_finite_input(bad):
    x = np.eye(3, dtype=complex)
    x[0, 2] = x[2, 0] = bad
    assert math.isnan(_relative_trace_norm(x, 1.0, 1e-8))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16), k=st.integers(1, 15),
       above=st.booleans(), exponent_a=st.integers(-300, 300), exponent_b=st.integers(-300, 300))
def test_leak_screen_agrees_with_the_singular_value(seed, dim, k, above, exponent_a, exponent_b):
    # range(a) is one vector at sine sqrt(RANK_CUTOFF) (1 +- 10^-k) from
    # range(b), so the leak has one column and its Frobenius norm is the sine
    rng = make_rng(seed)
    q = random_unitary(rng, dim)
    rank_b = int(rng.integers(1, dim))
    inside = q[:, :rank_b] @ rng.standard_normal(rank_b)
    sine = math.sqrt(RANK_CUTOFF) * (1.0 + 10.0**-k if above else 1.0 - 10.0**-k)
    v = math.sqrt(1.0 - sine**2) * inside / np.linalg.norm(inside) + sine * q[:, rank_b]
    a = PsdMatrix(10.0**exponent_a * np.outer(v, v.conj()))
    b = PsdMatrix(10.0**exponent_b * (q[:, :rank_b] * rng.uniform(0.5, 1.0, rank_b)) @ q[:, :rank_b].conj().T)
    assert a.rank() == 1 and b.rank() == rank_b
    screened = range_contained(a, b)
    with pytest.MonkeyPatch.context() as patch:
        screens_inconclusive(patch)
        exact = range_contained(a, b)
    assert screened == exact
    if k <= 9:  # clear of the eigenvectors' roundoff
        assert screened == (not above)
