"""Lebesgue decomposition engine for PSD matrices.

Splits S into a part absolutely continuous with respect to T and a part
mutually singular with T, computes the absolutely continuous part two
independent ways, and certifies the split before returning it:

* ``ac_part_iterative`` follows the monotone approximation scheme: the
  parallel sums (2^k T) : S increase to the absolutely continuous part as the
  scale doubles.  The whole family comes from the one scaled factorization of
  the parallel-sum engine, so that no accuracy is lost at scales like 2^60
  where a naive pseudoinverse of S + 2^k T would drown the small spectral
  components in roundoff.  The iteration runs in the r-dimensional weight
  space of that factorization: each step's trace, trace-norm gap and
  domination constant cost O(r), and monotonicity and PSD-ness of every step
  follow from the structure the engine certifies once, at construction.  The
  dense checks stay on the pair that is returned: the last approximant below
  the limit in the Loewner order, the limit a valid PSD matrix, and the last
  domination constant verified by a Loewner comparison with c T.  Step
  approximants are built from the family only when they are read.

* ``ac_part_closed`` evaluates the kernel-projection formula
  sqrt(S) P_M sqrt(S), where M is the null space of (I - P_T) sqrt(S).

``decompose`` requires the two routes to agree, verifies additivity,
singularity of the remainder and range containment of the regular part, and
certifies uniqueness: the split is unique iff the regular part is dominated
by T.  In this finite-dimensional model that always holds -- the certificate
still performs the check instead of assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, ConvergenceError, DimensionMismatchError, ValidationError
from .parallel_sum import _ScaledParallelSums, is_singular_pair
from .psd_core import (
    DEFAULT_CONFIG,
    HermitianMatrix,
    PsdMatrix,
    ToleranceConfig,
    _computed_psd,
    loewner_leq,
    op_norm,
    range_contained,
    range_projection,
    sqrt_psd,
    trace,
    trace_norm,
)

# The two computations of the absolutely continuous part must agree to this
# relative trace-norm accuracy; a larger gap is an internal error, never data.
ORACLE_AGREEMENT_RTOL = 1e-8

# Additivity of the returned split, relative trace norm.
ADDITIVITY_RTOL = 1e-9

# Relative singular-value cutoff for the null space of (I - P_T) sqrt(S):
# must sit above the backward-error noise floor of the factor (about
# n * eps * sqrt(lambda_max)) and below sqrt(rank_cutoff) * sqrt(lambda_max),
# the square root of the eigenvalue resolution, so that mass at the engine's
# rank floor is split the way the exact kernel dictates.
_KERNEL_RTOL = 1e-8


@dataclass(frozen=True)
class IterationStep:
    """One monotone approximant: scale n = 2^k, its trace, the trace-norm gap
    to the next approximant and the smallest c with S_k <= c T (inf if none).
    The approximant itself is built from the shared factorization on read."""

    k: int
    scale: float
    trace: float
    gap: float
    c_bound: float
    family: _ScaledParallelSums = field(repr=False, compare=False)
    cfg: ToleranceConfig = field(repr=False, compare=False)

    @property
    def approximant(self) -> PsdMatrix:
        return _computed_psd(self.family.at_scale(self.scale), self.cfg, f"approximant k={self.k}")


@dataclass(frozen=True)
class IterationTrace:
    steps: Tuple[IterationStep, ...]
    converged: bool

    def gaps(self) -> List[float]:
        return [step.gap for step in self.steps]


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


def _domination_constant(candidate: np.ndarray, t: PsdMatrix, cfg: ToleranceConfig) -> float:
    """Smallest c with candidate <= c T assuming range containment; inf if the
    Loewner check rejects the computed constant."""
    k = t.rank(cfg)
    if k == 0:
        return 0.0 if op_norm(candidate) <= cfg.psd_tol else math.inf
    inv_root = t.spectrum.eigenvectors[:, :k] * (1.0 / np.sqrt(t.eigenvalues[:k]))
    compressed = inv_root.conj().T @ candidate @ inv_root
    c = max(float(np.linalg.eigvalsh((compressed + compressed.conj().T) / 2)[-1]), 0.0)
    return _verified_bound(candidate, c, t, cfg)


def _verified_bound(candidate: np.ndarray, c: float, t: PsdMatrix, cfg: ToleranceConfig) -> float:
    """c if the Loewner check accepts candidate <= c T, inf otherwise; c T reuses T's spectrum."""
    scaled = _computed_psd(c * t.array, cfg,
                           spectrum=(c * t.eigenvalues, t.spectrum.eigenvectors))
    return c if loewner_leq(candidate, scaled, cfg) else math.inf


def ac_part_iterative(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Tuple[PsdMatrix, IterationTrace]:
    """Limit of the monotone approximants (2^k T) : S, with the full record.

    Stops once the trace-norm gap between successive approximants falls below
    conv_tol * max(1, trace S).  Each step is read off the engine's weights;
    the returned approximant is verified densely: above the last recorded one
    in the Loewner order, PSD, and with the last domination constant checked
    against T.  Non-convergence raises ConvergenceError carrying the trace so
    the last approximant can still be inspected.
    """
    family = _ScaledParallelSums(s, t, cfg)
    threshold = cfg.conv_tol * max(1.0, trace(s))
    steps: List[IterationStep] = []
    for k in range(cfg.max_iters):
        scale = 2.0**k
        step = IterationStep(
            k=k,
            scale=scale,
            trace=family.trace_at(scale),
            gap=family.gap(scale, 2.0 * scale),
            c_bound=family.domination_at(scale),
            family=family,
            cfg=cfg,
        )
        if step.gap > threshold:
            steps.append(step)
            continue
        current = family.at_scale(scale)
        limit = _computed_psd(family.at_scale(2.0 * scale), cfg,
                              "limit of the monotone approximation")
        if not loewner_leq(current, limit, cfg):
            raise ConsistencyError(
                f"approximant sequence is not monotone at step k={k}",
                details={"step": k, "gap": step.gap},
            )
        steps.append(replace(step, c_bound=_verified_bound(current, step.c_bound, t, cfg)))
        return limit, IterationTrace(tuple(steps), converged=True)
    raise ConvergenceError(
        f"monotone approximation did not converge in {cfg.max_iters} scale doublings "
        f"(last gap {steps[-1].gap:.3e}, threshold {threshold:.3e})",
        trace=IterationTrace(tuple(steps), converged=False),
    )


def ac_part_closed(s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG) -> PsdMatrix:
    """Kernel-projection form sqrt(S) P_M sqrt(S), M = ker((I - P_T) sqrt(S)).

    The null space is read off a singular value decomposition at the relative
    cutoff _KERNEL_RTOL * sqrt(lambda_max(S)), scale-covariant with S.
    """
    if s.dim != t.dim:
        raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
    root = sqrt_psd(s, cfg)
    proj_t = range_projection(t, cfg)
    leak = (np.eye(s.dim) - proj_t.array) @ root.array
    _, sv, vh = np.linalg.svd(leak)
    null_rows = sv <= _KERNEL_RTOL * math.sqrt(max(s.lam_max, 0.0))
    kernel_basis = vh[null_rows, :].conj().T
    projector = kernel_basis @ kernel_basis.conj().T
    return _computed_psd(root.array @ projector @ root.array, cfg, "closed-form regular part")


def decompose(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> LebesgueDecomposition:
    """Certified Lebesgue decomposition of S relative to T.

    The iterative and closed computations of the absolutely continuous part
    must agree within ORACLE_AGREEMENT_RTOL in relative trace norm (each
    validates the other; disagreement is an internal error carrying both
    candidates).  The returned split uses the kernel-projection form, whose
    additivity and range containment are exact by construction, and every
    certificate is verified before returning.  The uniqueness certificate
    carries the domination constant of the regular part.
    """
    iterative, record = ac_part_iterative(s, t, cfg)
    closed = ac_part_closed(s, t, cfg)
    scale = max(1.0, trace_norm(s))
    drift = trace_norm(HermitianMatrix(iterative.array - closed.array)) / scale
    if drift > ORACLE_AGREEMENT_RTOL:
        raise ConsistencyError(
            f"independent computations of the regular part disagree "
            f"(relative trace-norm gap {drift:.3e})",
            details={"iterative": iterative, "closed": closed},
        )
    ac = closed
    sing = _computed_psd(s.array - ac.array, cfg, "singular part")
    residual = trace_norm(HermitianMatrix(ac.array + sing.array - s.array)) / scale
    if residual > ADDITIVITY_RTOL:
        raise ConsistencyError(f"decomposition does not add back to its input ({residual:.3e})")
    if not is_singular_pair(sing, t, cfg):
        raise ConsistencyError("computed singular part is not singular to the reference operator")
    if not range_contained(ac, t, cfg):
        raise ConsistencyError("regular part leaks outside the range of the reference operator")
    c = _domination_constant(ac.array, t, cfg)
    unique = math.isfinite(c)
    witness = None if unique else "regular part admits no finite domination constant"
    uniqueness = UniquenessCertificate(unique=unique, c=c, witness=witness)
    return LebesgueDecomposition(
        ac=ac, sing=sing, trace_of_iteration=record, uniqueness=uniqueness
    )


def is_dominated(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Optional[float]:
    """Smallest c with S <= c T, or None when no such constant exists.

    The candidate is the largest eigenvalue of sqrt(T^+) S sqrt(T^+) on the
    range of T; a range escape manifests as the Loewner verification of that
    candidate failing, which is the same tolerance that defines the answer.
    """
    if s.dim != t.dim:
        raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
    c = _domination_constant(s.array, t, cfg)
    return None if math.isinf(c) else c


def is_absolutely_continuous(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """Does S coincide with its own regular part relative to T?

    In finite dimensions absolute continuity collapses to range containment;
    the equivalence is asserted against the computed decomposition rather than
    assumed, and a mismatch raises ConsistencyError.
    """
    sing = decompose(s, t, cfg).sing
    vanishes = trace_norm(sing) <= cfg.conv_tol * max(1.0, trace_norm(s))
    included = range_contained(s, t, cfg)
    if vanishes != included:
        raise ConsistencyError(
            "absolute-continuity criteria disagree: vanishing singular part says "
            f"{vanishes}, range containment says {included}"
        )
    return vanishes


def uniqueness_certificate(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> UniquenessCertificate:
    """Certify uniqueness: the split is unique iff the regular part is T-dominated.

    For matrices this always succeeds (finite rank forces domination); the
    check is still performed, never assumed.  This is the certificate that
    ``decompose`` attaches to its result.
    """
    return decompose(s, t, cfg).uniqueness


def extremality_check(
    r: PsdMatrix, s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """Verify the extremal property of the regular part: any T-absolutely
    continuous minorant of S must sit below it.

    Preconditions (R <= S, R absolutely continuous w.r.t. T) are enforced with
    distinct errors; a False return is a bug-revealing event, not an outcome.
    """
    if not loewner_leq(r, s, cfg):
        raise ValidationError("precondition failed: R <= S does not hold")
    if not is_absolutely_continuous(r, t, cfg):
        raise ValidationError(
            "precondition failed: R is not absolutely continuous with respect to T"
        )
    return loewner_leq(r, decompose(s, t, cfg).ac, cfg)
