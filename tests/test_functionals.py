import dataclasses
import importlib
import json

import numpy as np
import pytest

from oplebesgue import (
    ConsistencyError,
    GeometricTail,
    L1Sequence,
    NormalFunctional,
    PsdMatrix,
    ValidationError,
    evaluate,
    functional_from_json,
    functional_lebesgue,
    functional_leq,
    functional_to_json,
    functional_uniqueness,
    is_singular_pair,
    kvn_sup_estimate,
    loewner_leq,
    nonzero_common_minorant,
    normality_gap,
    op_norm,
    regular_part_approximants,
    counterexample_pair,
    trace,
    trace_norm,
)
from oplebesgue.psd_core import _with_spectrum
from conftest import make_rng, random_hermitian, random_psd, random_unitary

functionals = importlib.import_module("oplebesgue.functionals")


def f_of(matrix_or_seq, label=None):
    if isinstance(matrix_or_seq, (L1Sequence,)):
        return NormalFunctional(matrix_or_seq, label=label)
    return NormalFunctional(PsdMatrix(matrix_or_seq), label=label)


class TestEvaluate:
    def test_identity_rep_gives_trace(self, rng):
        f = f_of(np.eye(4))
        a = random_hermitian(rng, 4)
        assert evaluate(f, a) == pytest.approx(np.trace(a).real)

    def test_rank_one_projection_pairing(self):
        # evaluating at the projection onto a unit vector reads off <Te, e>
        rng = make_rng(61)
        t = random_psd(rng, 5)
        f = NormalFunctional(t)
        for _ in range(10):
            raw = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            e = raw / np.linalg.norm(raw)
            proj = np.outer(e, e.conj())
            expected = float((e.conj() @ t.array @ e).real)
            assert evaluate(f, proj) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_off_diagonal_argument(self):
        f = f_of(np.diag([1.0, 2.0]))
        assert evaluate(f, np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(0.0, abs=1e-14)

    def test_sequence_rep_acts_through_truncation(self):
        f = NormalFunctional(L1Sequence((), GeometricTail(1.0, 0.5)))
        assert evaluate(f, np.eye(2)) == pytest.approx(0.75)

    def test_trace_inequality(self):
        rng = make_rng(62)
        for _ in range(30):
            dim = int(rng.integers(2, 10))
            t = random_psd(rng, dim)
            a = random_hermitian(rng, dim)
            assert abs(evaluate(NormalFunctional(t), a)) <= op_norm(a) * trace_norm(t) + 1e-9


class TestOrder:
    def test_reflexive(self, rng):
        f = f_of(random_psd(rng, 3).array)
        assert functional_leq(f, f)

    def test_examples(self):
        assert functional_leq(f_of(np.diag([1.0, 0.0])), f_of(np.diag([1.0, 1.0])))
        assert not functional_leq(f_of(np.diag([2.0, 0.0])), f_of(np.diag([1.0, 1.0])))

    def test_matches_loewner_both_ways_with_witnesses(self):
        rng = make_rng(63)
        for trial in range(40):
            dim = int(rng.integers(2, 8))
            s = random_psd(rng, dim)
            if trial % 2 == 0:
                gap = random_psd(rng, dim, rank=max(1, dim - 1))
                r = PsdMatrix(s.array + gap.array)  # s <= r by construction
                low, high = s, r
            else:
                low, high = random_psd(rng, dim), random_psd(rng, dim)
            ordered = functional_leq(NormalFunctional(low), NormalFunctional(high))
            assert ordered == loewner_leq(low, high)
            if ordered:
                for _ in range(20):
                    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                    e = raw / np.linalg.norm(raw)
                    lo = float((e.conj() @ low.array @ e).real)
                    hi = float((e.conj() @ high.array @ e).real)
                    assert lo <= hi + 1e-9

    def test_kind_mismatch(self):
        with pytest.raises(ValidationError):
            functional_leq(f_of(np.eye(2)), NormalFunctional(L1Sequence((1.0,))))

    def test_sequence_order(self):
        small = NormalFunctional(L1Sequence((1.0, 0.5)))
        big = NormalFunctional(L1Sequence((2.0, 0.5)))
        assert functional_leq(small, big)
        assert not functional_leq(big, small)


class TestLebesgue:
    def test_identity_reference_keeps_everything(self, rng):
        g = f_of(random_psd(rng, 4).array, label="g")
        f = f_of(np.eye(4))
        regular, singular = functional_lebesgue(g, f)
        assert regular.label == "g_r" and singular.label == "g_s"
        np.testing.assert_allclose(regular.rep.array, g.rep.array, atol=1e-9)
        assert trace_norm(singular.rep) <= 1e-9

    def test_fully_singular_matrix_pair(self):
        g = f_of(np.ones((2, 2)))
        f = f_of(np.diag([1.0, 0.0]))
        regular, singular = functional_lebesgue(g, f)
        assert trace(regular.rep) <= 1e-12
        np.testing.assert_allclose(singular.rep.array.real, np.ones((2, 2)), atol=1e-12)

    def test_diagonal_instance_splits_trivially_but_is_not_unique(self):
        t, s = counterexample_pair(L1Sequence((), GeometricTail(1.0, 0.5)))
        g, f = NormalFunctional(s, label="g"), NormalFunctional(t, label="f")
        regular, singular = functional_lebesgue(g, f)
        assert singular.rep.total() == 0.0
        assert regular.rep.total() == pytest.approx(s.total())
        cert = functional_uniqueness(g, f)
        assert not cert.unique and cert.c == np.inf
        assert "unbounded" in cert.witness

    def test_pointwise_additivity_on_panel(self):
        rng = make_rng(64)
        g = f_of(random_psd(rng, 5).array)
        f = f_of(random_psd(rng, 5, rank=2).array)
        regular, singular = functional_lebesgue(g, f)
        for _ in range(50):
            a = random_hermitian(rng, 5)
            total = evaluate(g, a)
            assert evaluate(regular, a) + evaluate(singular, a) == pytest.approx(
                total, rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_split_is_additive_at_extreme_scales(self, scale):
        # the residual's Frobenius norm is taken on G divided by its power of two
        rng = make_rng(67)
        s, t = random_psd(rng, 5), random_psd(rng, 5, rank=2)
        regular, singular = functional_lebesgue(f_of(scale * s.array), f_of(t.array))
        unit_regular, _ = functional_lebesgue(f_of(s.array), f_of(t.array))
        np.testing.assert_allclose(regular.rep.array / scale, unit_regular.rep.array, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_inflated_regular_part_fails_additivity_at_every_scale(self, monkeypatch, scale):
        decompose = functionals.decompose

        def inflated(g, f):
            split = decompose(g, f)
            return dataclasses.replace(split, ac=PsdMatrix(split.ac.array * (1.0 + 1e-3)))

        rng = make_rng(65)
        g = f_of(scale * random_psd(rng, 5).array)
        f = f_of(random_psd(rng, 5, rank=2).array)
        monkeypatch.setattr(functionals, "decompose", inflated)
        with pytest.raises(ConsistencyError, match="not additive"):
            functional_lebesgue(g, f)

    def test_planted_nan_fails_additivity(self, monkeypatch):
        decompose = functionals.decompose

        def planted(g, f):
            split = decompose(g, f)
            array = split.ac.array.copy()
            array[0, 0] = np.nan
            ac = _with_spectrum(array, split.ac.eigenvalues, split.ac.spectrum.eigenvectors)
            return dataclasses.replace(split, ac=ac)

        rng = make_rng(65)
        monkeypatch.setattr(functionals, "decompose", planted)
        with pytest.raises(ConsistencyError, match="not additive"):
            functional_lebesgue(f_of(random_psd(rng, 5).array), f_of(random_psd(rng, 5, rank=2).array))

    @pytest.mark.parametrize("defect", [
        # a 1.5x entry at index 40, past any fixed truncation of 32
        lambda ac: L1Sequence(ac.prefix[:39] + (1.5 * ac.prefix[39],) + ac.prefix[40:], ac.tail),
        lambda ac: L1Sequence(ac.prefix, GeometricTail(1.5 * ac.tail.a, ac.tail.r)),
        lambda ac: L1Sequence(ac.prefix[:-1], ac.tail),
    ], ids=["entry_past_32", "scaled_tail", "truncated_prefix"])
    def test_planted_sequence_defect_fails_additivity(self, monkeypatch, defect):
        """The sequence split is checked over its whole aligned prefix and its
        tail, so a defect anywhere in either is caught."""
        split = functionals._diag_split

        def planted(s, t):
            exact = split(s, t)
            return dataclasses.replace(exact, ac=defect(exact.ac))

        rng = make_rng(66)
        s = L1Sequence(tuple(rng.uniform(0.5, 1.0, 48)), GeometricTail(0.5, 0.5))
        t = L1Sequence(tuple(float(i % 3 != 1) for i in range(48)), GeometricTail(1.0, 0.5))
        g, f = NormalFunctional(s), NormalFunctional(t)
        functional_lebesgue(g, f)
        monkeypatch.setattr(functionals, "_diag_split", planted)
        with pytest.raises(ConsistencyError, match="not additive"):
            functional_lebesgue(g, f)

    def test_monotone_approximants_certify_almost_domination(self):
        rng = make_rng(70)
        g = f_of(random_psd(rng, 6).array, label="g")
        f = f_of(random_psd(rng, 6, rank=3).array)
        climb = regular_part_approximants(g, f)
        regular, _ = functional_lebesgue(g, f)
        assert climb and climb[0].label == "g_r[0]"
        for below, above in zip(climb, climb[1:]):
            assert functional_leq(below, above)
        for step in climb:
            assert functional_leq(step, g)
        # last approximant sits within the stopping tolerance of the regular part
        gap = trace_norm(climb[-1].rep.array - regular.rep.array)
        assert gap <= 1e-7 * max(1.0, trace_norm(g.rep))

    def test_approximants_require_matrix_reps(self):
        with pytest.raises(ValidationError):
            regular_part_approximants(
                NormalFunctional(L1Sequence((1.0,))), NormalFunctional(L1Sequence((1.0,)))
            )


class TestUniqueness:
    def test_matrix_pairs_unique(self):
        rng = make_rng(65)
        g = f_of(random_psd(rng, 6).array)
        f = f_of(random_psd(rng, 6, rank=3).array)
        cert = functional_uniqueness(g, f)
        assert cert.unique and np.isfinite(cert.c)

    def test_self_pair_constant_one(self, rng):
        f = f_of(random_psd(rng, 4).array)
        cert = functional_uniqueness(f, f)
        assert cert.unique and cert.c == pytest.approx(1.0, abs=1e-9)

    def test_sequence_unique_case(self):
        seq = L1Sequence((), GeometricTail(1.0, 0.5))
        cert = functional_uniqueness(NormalFunctional(seq), NormalFunctional(seq))
        assert cert.unique and cert.c == pytest.approx(1.0)


class TestSingularityCorrespondence:
    def test_operator_and_functional_level_agree(self):
        rng = make_rng(66)
        for trial in range(30):
            dim = int(rng.integers(2, 10))
            if trial % 2 == 0:
                u = random_unitary(rng, dim)
                r1 = int(rng.integers(1, dim))
                r2 = int(rng.integers(1, dim - r1 + 1))
                d1, d2 = np.zeros(dim), np.zeros(dim)
                d1[:r1] = rng.uniform(0.5, 2, r1)
                d2[r1:r1 + r2] = rng.uniform(0.5, 2, r2)
                s = PsdMatrix(u @ np.diag(d1) @ u.conj().T)
                t = PsdMatrix(u @ np.diag(d2) @ u.conj().T)
            else:
                s, t = random_psd(rng, dim), random_psd(rng, dim)
            witness = nonzero_common_minorant(s, t)
            if is_singular_pair(s, t):
                assert witness is None
            else:
                h = NormalFunctional(witness)
                assert trace(witness) > 0
                assert functional_leq(h, NormalFunctional(s))
                assert functional_leq(h, NormalFunctional(t))


class TestKvnEstimate:
    def test_identity_functional_full_rank(self):
        for dim in (2, 3, 5):
            f = f_of(np.eye(dim))
            values = kvn_sup_estimate(f, np.eye(dim), list(range(1, dim + 1)))
            assert values[-1] == pytest.approx(float(dim))
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_argument(self):
        f = f_of(np.eye(3))
        assert kvn_sup_estimate(f, np.zeros((3, 3)), [1, 2, 3]) == [0.0, 0.0, 0.0]

    def test_halving_spectrum_strictly_increases_to_trace(self):
        dim = 5
        weights = [2.0 ** -j for j in range(dim)]
        f = f_of(np.diag(weights))
        values = kvn_sup_estimate(f, np.eye(dim), list(range(1, dim + 1)))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(sum(weights))

    def test_nondecreasing_for_random_arguments(self):
        rng = make_rng(67)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            f = f_of(random_psd(rng, dim).array)
            x = random_hermitian(rng, dim)
            values = kvn_sup_estimate(f, x, list(range(1, dim + 1)))
            fxx = evaluate(f, np.asarray(x).conj().T @ np.asarray(x))
            assert all(b >= a - 1e-9 * max(1, fxx) for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(fxx, rel=1e-9, abs=1e-9)

    def test_feasible_points_stay_below_the_supremum(self):
        # any feasible A gives |f(X* A)|^2 <= f(X* X): the estimate really is a sup
        rng = make_rng(68)
        dim = 4
        f = f_of(random_psd(rng, dim).array)
        x = random_hermitian(rng, dim)
        top = kvn_sup_estimate(f, x, [dim])[-1]
        for _ in range(25):
            a = random_hermitian(rng, dim)
            norm = evaluate(f, np.asarray(a).conj().T @ np.asarray(a))
            if norm <= 0:
                continue
            a = a / np.sqrt(norm)
            value = abs(np.trace(np.asarray(x).conj().T @ a @ f.rep.array)) ** 2
            assert value <= top + 1e-9 * max(1.0, top)

    def test_zero_functional_rejected(self):
        with pytest.raises(ValidationError, match="zero functional"):
            kvn_sup_estimate(f_of(np.zeros((2, 2))), np.eye(2), [1])

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValidationError, match="schedule"):
            kvn_sup_estimate(f_of(np.eye(2)), np.eye(2), [0])

    @pytest.mark.parametrize("rank", [True, 1.0, 2.5])
    def test_schedule_entry_that_is_not_an_integer_rejected(self, rank):
        # a bool is not a rank, though True == 1
        with pytest.raises(ValidationError, match="schedule"):
            kvn_sup_estimate(f_of(np.eye(2)), np.eye(2), [rank])

    def test_numpy_integer_schedule_entry(self):
        f = f_of(np.diag([3.0, 2.0, 1.0]))
        assert kvn_sup_estimate(f, np.eye(3), [np.int64(2)]) == kvn_sup_estimate(f, np.eye(3), [2]) == [5.0]


class TestNormalityGap:
    def test_identity(self):
        assert normality_gap(f_of(np.eye(3))) == pytest.approx(0.0, abs=1e-12)

    def test_random_reps(self):
        rng = make_rng(69)
        for _ in range(15):
            dim = int(rng.integers(2, 10))
            f = f_of(random_psd(rng, dim).array)
            assert abs(normality_gap(f)) <= 1e-9 * max(1.0, trace(f.rep))

    def test_rank_deficient(self):
        assert normality_gap(f_of(np.diag([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_sequence_rep_rejected(self):
        with pytest.raises(ValidationError):
            normality_gap(NormalFunctional(L1Sequence((1.0,))))


class TestJson:
    def test_matrix_round_trip(self):
        f = f_of(np.diag([1.0, 2.0]), label="state")
        again = functional_from_json(json.loads(json.dumps(functional_to_json(f))))
        assert again.kind == "matrix" and again.label == "state"
        np.testing.assert_allclose(again.rep.array, f.rep.array)

    def test_sequence_round_trip(self):
        f = NormalFunctional(L1Sequence((1.0,), GeometricTail(0.5, 0.5)), label="seq")
        again = functional_from_json(functional_to_json(f))
        assert again.rep == f.rep

    @pytest.mark.parametrize("blob", [
        {"kind": "matrix"},
        {"kind": "blob", "rep": {}},
        {"rep": {"prefix": []}},
        {"kind": "sequence", "rep": {"prefix": []}, "label": 7},
    ])
    def test_rejects_malformed(self, blob):
        with pytest.raises(ValidationError):
            functional_from_json(blob)
