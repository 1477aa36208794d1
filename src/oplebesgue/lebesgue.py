"""Lebesgue decomposition engine for PSD matrices.

Splits S into a part absolutely continuous with respect to T and a part
mutually singular with T, computes the absolutely continuous part two
independent ways, and certifies the split before returning it:

* ``ac_part_iterative`` follows the monotone approximation scheme: the
  parallel sums (n T) : S increase to the absolutely continuous part as the
  scale doubles.  The whole family comes from the one scaled factorization of
  the parallel-sum engine, so that no accuracy is lost at scales like 2^60
  where a naive pseudoinverse of S + 2^k T would drown the small spectral
  components in roundoff.  The schedule doubles the engine's filter argument
  m from 1, not the caller's n, and runs in the r-dimensional weight space of
  that factorization: each step's trace, trace-norm gap and domination
  constant cost O(r), and monotonicity and PSD-ness of every step follow from
  the structure the engine certifies once, at construction; only the returned
  pair is checked densely.  The limit and the step approximants are built
  from their factors, the latter only when they are read.

* ``ac_part_closed`` evaluates the kernel-projection formula
  sqrt(S) P_M sqrt(S), where M is the null space of (I - P_T) sqrt(S), as
  its factor; the factor of the complement of M gives the singular part.

``decompose`` requires the two routes to agree, measures additivity, checks
singularity of the remainder and range containment of the regular part, and
certifies uniqueness: the split is unique iff the regular part is dominated
by T.  In this finite-dimensional model that always holds -- the certificate
still performs the check, and a regular part that fails it raises ConsistencyError.
Every domination constant, the certificate's, ``is_dominated``'s and the
iteration's last, is found and verified by ``_dominated`` in one frame that
divides the operands by powers of two, so none leaves the float range.

A certificate that clears its threshold by more than its exact solve's
roundoff is decided without that solve: the Loewner checks and the ranks of
the singularity test by a shifted Cholesky factorization, the oracle drift,
additivity and range leak by a Frobenius-norm bound.  The eigenvalue or
singular-value solve runs only where such a screen is inconclusive, so every
verdict is the one it would give, and every failure reports its measured value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError, ValidationError
from .parallel_sum import _ldexp, _ScaledParallelSums, is_singular_pair
from .psd_core import (
    CONV_TOL,
    RANK_CUTOFF,
    PsdMatrix,
    _computed_psd,
    _leak,
    _loewner_miss,
    _relative_trace_norm,
    _unit,
    loewner_leq,
    op_norm,
    range_contained,
    trace_norm,
)

# The two computations of the absolutely continuous part must agree to this
# relative trace-norm accuracy; a larger gap is an internal error, never data.
ORACLE_AGREEMENT_RTOL = 1e-8

# Additivity of the returned split, relative trace norm.
ADDITIVITY_RTOL = 1e-9

# Relative singular-value cutoff for the null space of (I - P_T) sqrt(S):
# must sit above the backward-error noise floor of the factor (about
# n * eps * sqrt(lambda_max)) and below sqrt(RANK_CUTOFF) * sqrt(lambda_max),
# the square root of the eigenvalue resolution, so that mass at the engine's
# rank floor is split the way the exact kernel dictates.
_KERNEL_RTOL = 1e-8


@dataclass(frozen=True)
class IterationStep:
    """One monotone approximant (n T) : S: step k at the engine's filter
    argument m = 2^k, the scale n = m / 4^shift applied to T as given (inf
    past float64), its trace, the trace-norm gap to the next approximant and
    the smallest c with S_k <= c T, rounded to float64 (0 below its range,
    inf past it or if none).  The approximant itself is built from the shared
    factorization on read."""

    k: int
    scale: float
    trace: float
    gap: float
    c_bound: float
    family: _ScaledParallelSums = field(repr=False, compare=False)

    @property
    def approximant(self) -> PsdMatrix:
        return self.family.member(2.0**self.k)


@dataclass(frozen=True)
class IterationTrace:
    steps: Tuple[IterationStep, ...]


@dataclass(frozen=True)
class UniquenessCertificate:
    """Whether the decomposition is unique, i.e. the regular part is dominated.

    When unique, ``c`` is the smallest scalar with ac <= c T; otherwise c is
    the infinity marker and ``witness`` describes the violation.
    """

    unique: bool
    c: float
    witness: Optional[str] = None


@dataclass(frozen=True)
class LebesgueDecomposition:
    """Certified split S = ac + sing with the iteration record that produced it
    and the uniqueness certificate of the split."""

    ac: PsdMatrix
    sing: PsdMatrix
    trace_of_iteration: IterationTrace
    uniqueness: UniquenessCertificate


def _dominated(candidate: np.ndarray, t: PsdMatrix,
               c: Optional[Tuple[float, int]] = None) -> Tuple[float, Optional[dict]]:
    """(c, None) when the Loewner check accepts candidate <= c T, c rounded to
    float64 only once it has passed; (inf, miss) when it rejects, miss holding
    the c, the smallest eigenvalue of c T - candidate and the band that the
    check measured.

    One frame: the candidate divided by its power of two, T by 4^e, whose
    square root is exact, and c T - candidate by c's power of two when
    c >= 1; every divisor is a normal power of two, so nothing leaves the
    float range, and lambda_max(c T) is read from T's spectrum.  Given as
    (mantissa, exponent), c enters the frame unrounded, and an infinite one
    passes unchecked.  Otherwise c is the largest eigenvalue of the candidate
    compressed by sqrt(T^+) to the range of T (0 against T = 0), and one above
    float64 raises.  An exactly zero candidate has c = 0 against every T and
    enters no frame."""
    if not np.any(candidate):
        return 0.0, None
    unit = _unit(candidate)
    t_exponent = max(2 * ((math.frexp(t.lam_max)[1] - 1) // 2), -1022)
    t_unit = math.ldexp(1.0, t_exponent)
    framed_candidate, framed_w = candidate / unit, t.eigenvalues / t_unit
    power = math.frexp(unit)[1] - 1 - t_exponent  # c = framed * 2^power
    if c is None:
        k = t.rank()
        inv_root = t.spectrum.eigenvectors[:, :k] * (1.0 / np.sqrt(framed_w[:k]))
        compressed = inv_root.conj().T @ framed_candidate @ inv_root
        framed = float(np.linalg.eigvalsh(compressed / 2 + compressed.conj().T / 2).max(initial=0.0))
    else:
        framed = _ldexp(c[0], c[1] - power)
    if math.isinf(framed):
        return framed, None
    shrink = max(math.frexp(framed)[1], 0)
    scale = math.ldexp(framed, -shrink)
    miss = _loewner_miss(framed_candidate * math.ldexp(1.0, -shrink), scale * (t.array / t_unit),
                         scale * framed_w)
    if miss is not None:
        low, band = (_ldexp(value, power + t_exponent + shrink) for value in miss)
        return math.inf, {"stage": "domination", "c": _ldexp(framed, power), "min_eigenvalue": low,
                          "band": band}
    if math.isinf(bound := _ldexp(framed, power)) and c is None:
        raise ConsistencyError(f"domination constant {framed:.3e} * 2^{power} exceeds float64",
                               details={"stage": "domination", "framed": framed, "power": power})
    return bound, None


def ac_part_iterative(s: PsdMatrix, t: PsdMatrix) -> Tuple[PsdMatrix, IterationTrace]:
    """Limit of the monotone approximants (n T) : S at the engine's filter
    arguments m = 2^k, with the full record.

    Stops at the first approximant within CONV_TOL * trace_norm(S) of the
    limit in trace norm, a distance the weights give in closed form, so a
    family that has not started to rise cannot stop early.  The pair
    bounds how long that takes: at filter argument m the distance is
    sum_i d_i (1 - a_i) / (a_i ((1 - a_i) + m a_i)) <= sum_i (d_i / a_i^2) / m,
    so step k, which compares m = 2^(k+1) against the threshold, stops by
    K = ceil(log2(sum_i (d_i / a_i^2) / threshold)), a ratio of two multiples
    of trace(S) and 0 for S = 0.  Both the distances and the threshold are
    taken in the engine's frame, S divided by a power of two that brings
    trace(S) into [1/4, n), so neither underflows for a subnormal S and K is
    the same as in S's own units wherever those stay normal.  Running past K
    means the certified weights broke their own bound and raises
    ConsistencyError.  Each step is read off
    the engine's weights; the returned approximant is verified densely: above
    the last recorded one in the Loewner order, PSD by construction, and with
    the last domination constant checked against T by ``_dominated``, so it
    is rounded to float64 only once it has passed; an exactly zero
    approximant has c = 0 and enters no frame.
    """
    family = _ScaledParallelSums(s, t)
    threshold = CONV_TOL * family.framed(trace_norm(s))
    reach = family.reach(threshold)
    bound = max(0, math.ceil(math.log2(reach))) if reach else 0
    steps: List[IterationStep] = []
    for k in range(bound + 1):
        m = 2.0**k
        c_family = family.domination_at(m)
        step = IterationStep(
            k=k,
            scale=_ldexp(m, -2 * family.shift),
            trace=family.trace_at(m),
            gap=family.unframed(family.gap(m, 2.0 * m)),
            c_bound=_ldexp(c_family, -2 * family.shift),
            family=family,
        )
        remaining = family.gap(2.0 * m, math.inf)
        if remaining > threshold:
            steps.append(step)
            continue
        current = family.at_scale(m)
        limit = family.member(2.0 * m)
        if not loewner_leq(current, limit):
            raise ConsistencyError(
                f"approximant sequence is not monotone at step k={k}",
                details={"step": k, "gap": step.gap},
            )
        c_bound, _ = _dominated(current, t, (c_family, -2 * family.shift))
        steps.append(replace(step, c_bound=c_bound))
        return limit, IterationTrace(tuple(steps))
    remaining, threshold = family.unframed(remaining), family.unframed(threshold)
    raise ConsistencyError(
        f"monotone approximation passed its derived bound of K={bound} scale doublings "
        f"(distance to the limit {remaining:.3e}, threshold {threshold:.3e})",
        details={"stage": "monotone approximation", "distance": remaining, "threshold": threshold},
    )


def _closed_factors(s: PsdMatrix, t: PsdMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Factors R K, R K-perp of the regular and singular parts: R = sqrt(S) V is
    the spectral factor of S on its range, and (K, K-perp) split the right
    singular vectors of (I - P_T) R at _KERNEL_RTOL * sqrt(lambda_max(S))."""
    if s.dim != t.dim:
        raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
    k = s.rank()
    root = s.spectrum.eigenvectors[:, :k] * np.sqrt(s.eigenvalues[:k])
    range_t = t.spectrum.eigenvectors[:, :t.rank()]
    _, sv, vh = np.linalg.svd(root - range_t @ (range_t.conj().T @ root), full_matrices=False)
    null_rows = sv <= _KERNEL_RTOL * math.sqrt(s.lam_max)
    return root @ vh[null_rows, :].conj().T, root @ vh[~null_rows, :].conj().T


def ac_part_closed(s: PsdMatrix, t: PsdMatrix) -> PsdMatrix:
    """Kernel-projection form sqrt(S) P_M sqrt(S), M = ker((I - P_T) sqrt(S)), from its factor."""
    return _computed_psd(_closed_factors(s, t)[0], s.lam_max)


def decompose(s: PsdMatrix, t: PsdMatrix) -> LebesgueDecomposition:
    """Certified Lebesgue decomposition of S relative to T.

    The iterative and closed computations of the absolutely continuous part
    must agree within ORACLE_AGREEMENT_RTOL in relative trace norm (each
    validates the other; disagreement is an internal error carrying both
    candidates).  The returned split is built from the two factors of the
    kernel-projection form, so a singular pair gives ac = 0 and a full-rank T
    gives sing = 0 exactly; additivity is measured, and every certificate is
    verified before returning.  The uniqueness certificate carries the
    domination constant of the regular part, which finite rank forces to
    exist: a failed Loewner check raises ConsistencyError (stage domination).
    """
    iterative, record = ac_part_iterative(s, t)
    ac_factor, sing_factor = _closed_factors(s, t)
    ac = _computed_psd(ac_factor, s.lam_max)
    scale = trace_norm(s) or 1.0  # an exactly zero S splits into exact zeros
    drift = _relative_trace_norm(iterative.array - ac.array, scale, ORACLE_AGREEMENT_RTOL)
    if not drift <= ORACLE_AGREEMENT_RTOL:
        raise ConsistencyError(
            f"independent computations of the regular part disagree "
            f"(relative trace-norm gap {drift:.3e})",
            details={"stage": "oracle", "iterative": iterative, "closed": ac},
        )
    sing = _computed_psd(sing_factor, s.lam_max)
    residual = _relative_trace_norm(ac.array + sing.array - s.array, scale, ADDITIVITY_RTOL)
    if not residual <= ADDITIVITY_RTOL:
        raise ConsistencyError(f"regular and singular parts do not add back to the input ({residual:.3e})")
    if not is_singular_pair(sing, t):
        raise ConsistencyError("computed singular part is not singular to the reference operator")
    if not range_contained(ac, t):
        raise ConsistencyError("regular part leaks outside the range of the reference operator")
    # finite rank forces domination once the ranges are contained, so a
    # missing constant here is a numerical failure, not a non-unique answer
    c, miss = _dominated(ac.array, t)
    if miss:
        miss.update(leak_sine=op_norm(_leak(ac, t)), leak_threshold=math.sqrt(RANK_CUTOFF))
        raise ConsistencyError("regular part is not dominated although its range is contained: "
                               "c = {c:.3e}, smallest eigenvalue of c T - ac {min_eigenvalue:.3e} "
                               "against the band {band:.3e}, range leak sine {leak_sine:.3e} "
                               "within {leak_threshold:.3e}".format(**miss), details=miss)
    return LebesgueDecomposition(ac=ac, sing=sing, trace_of_iteration=record,
                                 uniqueness=UniquenessCertificate(unique=True, c=c))


def is_dominated(s: PsdMatrix, t: PsdMatrix) -> Optional[float]:
    """Smallest c with S <= c T, or None when no such constant exists.

    The candidate is the largest eigenvalue of sqrt(T^+) S sqrt(T^+) on the
    range of T; a range escape manifests as the Loewner verification of that
    candidate failing, which is the same tolerance that defines the answer.
    """
    if s.dim != t.dim:
        raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
    c, miss = _dominated(s.array, t)
    return None if miss else c


def is_absolutely_continuous(s: PsdMatrix, t: PsdMatrix) -> bool:
    """Does S coincide with its own regular part relative to T?

    In finite dimensions absolute continuity collapses to range containment;
    the equivalence is asserted against the computed decomposition rather than
    assumed, and a mismatch raises ConsistencyError.
    """
    sing = decompose(s, t).sing
    # both sides divided by the power of two of trace_norm(S), so the
    # threshold does not underflow for a subnormal S
    size = trace_norm(s)
    unit = _unit(size)
    vanishes = trace_norm(sing) / unit <= CONV_TOL * (size / unit)
    included = range_contained(s, t)
    if vanishes != included:
        raise ConsistencyError(
            "absolute-continuity criteria disagree: vanishing singular part says "
            f"{vanishes}, range containment says {included}"
        )
    return vanishes


def uniqueness_certificate(s: PsdMatrix, t: PsdMatrix) -> UniquenessCertificate:
    """Certify uniqueness: the split is unique iff the regular part is T-dominated.

    For matrices this always succeeds (finite rank forces domination); the
    check is still performed, never assumed.  This is the certificate that
    ``decompose`` attaches to its result.
    """
    return decompose(s, t).uniqueness


def extremality_check(r: PsdMatrix, s: PsdMatrix, t: PsdMatrix) -> bool:
    """Verify the extremal property of the regular part: any T-absolutely
    continuous minorant of S must sit below it.

    Preconditions (R <= S, R absolutely continuous w.r.t. T) are enforced with
    distinct errors; a False return is a bug-revealing event, not an outcome.
    """
    if not loewner_leq(r, s):
        raise ValidationError("precondition failed: R <= S does not hold")
    if not is_absolutely_continuous(r, t):
        raise ValidationError(
            "precondition failed: R is not absolutely continuous with respect to T"
        )
    return loewner_leq(r, decompose(s, t).ac)
