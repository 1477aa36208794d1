"""Parallel sums of PSD matrices and the mutual-singularity test they induce.

The parallel sum S:T = S (S+T)^+ T is the operator harmonic mean: it is PSD,
below both arguments in the Loewner order, and vanishes exactly when the two
ranges intersect trivially -- which makes trace(S:T) a quantitative witness
for mutual singularity.  On commuting diagonals it reduces to the entrywise
scalar formula s*t/(s+t).  Every parallel sum in the package, the scaled
family (n T) : S of the monotone approximation included, comes from the one
factored engine ``_ScaledParallelSums``; the singularity test reads trace(S:T)
off its certified weights and forms the n x n parallel sum only to return it.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError
from .psd_core import (
    DEFAULT_CONFIG,
    PsdMatrix,
    ToleranceConfig,
    _computed_psd,
    joint_scale,
    rank_at_scale,
    trace,
)

# Scalar filter components with weight below this are exact zeros up to
# roundoff (their factor columns vanish identically in exact arithmetic).
_FILTER_FLOOR = 1e-14


class _ScaledParallelSums:
    """Evaluator for the whole family n -> (n T) : S from one factorization.

    Writing T = L L* and S = R R* through their spectral forms, the Gram
    matrix of [L R] yields an orthonormal basis W = [W1; W2] of its range and
    the scale enters only through the perfectly conditioned scalar filter
    phi_i(n) = n / (1 + (n - 1) a_i), where a_i are the eigenvalues of W1* W1:

        (n T) : S  =  F diag(phi_i(n)) H*,   F = L W1 U,  H = R W2 U.

    Components with a_i = 0 have identically vanishing F columns and are
    dropped, which keeps the limit n -> inf finite.  Accuracy is uniform in n.

    In exact arithmetic H_i = ((1 - a_i) / a_i) F_i, so every component is a
    rank-one PSD term of trace d_i = Re(H_i* F_i), and phi_i is nondecreasing
    in n because a_i lies in (0, 1].  Both facts are certified once, at
    construction and in O(n r), which makes every member of the family PSD,
    the family Loewner-monotone, and the trace norm of the step from n to m
    equal to sum_i (phi_i(m) - phi_i(n)) d_i.  Traces, gaps and domination
    constants of the members are then read off in O(r).
    """

    def __init__(self, s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig):
        if s.dim != t.dim:
            raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
        self.dim = s.dim
        left = self._factor(t, cfg)
        right = self._factor(s, cfg)
        p = left.shape[1]
        stacked = np.concatenate([left, right], axis=1)
        gram = stacked.conj().T @ stacked
        if gram.shape[0] == 0:
            self._weights = np.zeros(0)
            self._front = np.zeros((self.dim, 0), dtype=complex)
            self._back = np.zeros((self.dim, 0), dtype=complex)
        else:
            gw, gV = np.linalg.eigh((gram + gram.conj().T) / 2)
            # eigh sorts ascending: the kept components are the trailing ones
            kept = rank_at_scale(gw[::-1], max(float(gw[-1]), 0.0), cfg)
            basis = gV[:, gw.size - kept:]
            top, bottom = basis[:p, :], basis[p:, :]
            overlap = top.conj().T @ top
            a, U = np.linalg.eigh((overlap + overlap.conj().T) / 2)
            a = np.clip(a, 0.0, 1.0)
            live = a > _FILTER_FLOOR
            self._weights = a[live]
            self._front = left @ (top @ U[:, live])
            self._back = right @ (bottom @ U[:, live])
        self._mass, self._rate = self._certify(math.sqrt(s.lam_max * t.lam_max), cfg)

    @staticmethod
    def _factor(matrix: PsdMatrix, cfg: ToleranceConfig) -> np.ndarray:
        k = matrix.rank(cfg)
        return matrix.spectrum.eigenvectors[:, :k] * np.sqrt(matrix.eigenvalues[:k])

    def _certify(self, joint: float, cfg: ToleranceConfig) -> Tuple[np.ndarray, np.ndarray]:
        """Check that every component is a rank-one PSD term with a filter
        nondecreasing in n; return each component's trace d_i and its rate
        d_i a_i / |F_i|^2 toward the domination constant.

        By Cauchy-Schwarz d_i <= |F_i| |H_i|, with equality exactly when H_i is
        a positive multiple of F_i; the Hermitian part of F_i H_i* has the
        eigenvalues (d_i +- |F_i| |H_i|) / 2, so a component counts as PSD when
        its negative eigenvalue stays within psd_tol of its trace.  A component
        that fails the test is admitted only if its term stays below the
        resolution of the factorization in every member of the family:
        |F_i| |H_i| / a_i (phi_i(n) <= 1 / a_i) at most sqrt(rank_cutoff) times
        the joint magnitude sqrt(lambda_max(S) lambda_max(T)), which bounds
        |F_i| |H_i|.  Such components come from the a_i = 1 columns, whose H_i
        vanishes in exact arithmetic, and carry no weight.  Any other failure
        raises ConsistencyError.
        """
        a = self._weights
        if np.any((a <= 0.0) | (a > 1.0)):
            raise ConsistencyError(
                "parallel-sum filter weights leave (0, 1]: the scaled family is not monotone",
                details={"weights": (float(a.min()), float(a.max()))},
            )
        front_norm = np.linalg.norm(self._front, axis=0)
        product = front_norm * np.linalg.norm(self._back, axis=0)
        mass = np.real(np.sum(self._back.conj() * self._front, axis=0))
        psd_term = mass >= (1.0 - cfg.psd_tol) * product
        broken = ~psd_term & (product > math.sqrt(cfg.rank_cutoff) * joint * a)
        if np.any(broken):
            worst = int(np.argmax(np.where(broken, product, 0.0)))
            raise ConsistencyError(
                f"parallel-sum component {worst} is not a PSD term: trace "
                f"{mass[worst]:.3e} against Cauchy-Schwarz bound {product[worst]:.3e}",
                details={"component": worst, "trace": float(mass[worst]),
                         "bound": float(product[worst])},
            )
        mass = np.where(psd_term, mass, 0.0)
        carried = mass > 0.0
        rate = np.zeros_like(mass)
        rate[carried] = mass[carried] * a[carried] / front_norm[carried] ** 2
        return mass, rate

    def _filter(self, scale: float) -> np.ndarray:
        return scale / (1.0 + (scale - 1.0) * self._weights)

    def at_scale(self, scale: float) -> np.ndarray:
        """(scale * T) : S as a Hermitian array."""
        if self._weights.size == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        product = (self._front * self._filter(scale)) @ self._back.conj().T
        return (product + product.conj().T) / 2

    def trace_at(self, scale: float) -> float:
        """trace((scale * T) : S)."""
        return float(self._filter(scale) @ self._mass)

    def gap(self, scale: float, larger: float) -> float:
        """Trace norm of (larger * T) : S - (scale * T) : S.

        The filter increment is written as (m - n)(1 - a) / ((1 + (m - 1) a)
        (1 + (n - 1) a)), a product of nonnegative factors, so the gap is
        nonnegative in floating point and free of cancellation.
        """
        a = self._weights
        increment = (larger - scale) * (1.0 - a) / (
            (1.0 + (larger - 1.0) * a) * (1.0 + (scale - 1.0) * a)
        )
        return float(increment @ self._mass)

    def domination_at(self, scale: float) -> float:
        """Smallest c with (scale * T) : S <= c T.

        Whitened by T, the front factor becomes W1 U, whose Gram matrix is
        diag(a); the member is then diagonal with entries phi_i d_i a_i / |F_i|^2.
        """
        if self._rate.size == 0:
            return 0.0
        return float(np.max(self._filter(scale) * self._rate))


def parallel_sum(s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG) -> PsdMatrix:
    """Parallel sum S:T = S (S+T)^+ T, the unit-scale member of the factored
    family, so no pseudoinverse of S + T is ever formed."""
    return _computed_psd(_ScaledParallelSums(s, t, cfg).at_scale(1.0), cfg, "parallel sum")


def _singularity(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig
) -> Tuple[bool, _ScaledParallelSums]:
    """The singularity verdict of ``is_singular_pair`` with the parallel-sum
    family it was read from."""
    family = _ScaledParallelSums(s, t, cfg)
    mean_trace = family.trace_at(1.0)
    trace_says = mean_trace <= cfg.conv_tol * max(1.0, trace(s), trace(t))

    scale = joint_scale(s, t)
    k_s = rank_at_scale(s.eigenvalues, scale, cfg)
    k_t = rank_at_scale(t.eigenvalues, scale, cfg)
    bases = np.concatenate(
        [s.spectrum.eigenvectors[:, :k_s], t.spectrum.eigenvectors[:, :k_t]], axis=1
    )
    joint = np.linalg.eigvalsh(bases.conj().T @ bases)[::-1]
    rank_join = rank_at_scale(joint, joint[0] if joint.size else 0.0, cfg)
    intersection_dim = k_s + k_t - rank_join
    range_says = intersection_dim == 0

    if trace_says != range_says:
        raise ConsistencyError(
            "singularity criteria disagree: trace of parallel sum says "
            f"{trace_says}, range intersection of dimension {intersection_dim} says "
            f"{range_says}; tolerances are misconfigured for this pair",
            details={"parallel_sum_trace": mean_trace, "intersection_dim": intersection_dim},
        )
    return trace_says, family


def is_singular_pair(s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Decide whether the only common positive minorant of s and t is zero.

    Primary criterion: trace(s:t) below conv_tol relative to the input traces,
    read off the weights of the factored parallel sum without forming it.
    Cross-checked against dim(range s intersect range t) = 0 computed from the
    range projections (taken at the pair's joint scale, so roundoff ghosts of
    zero carry no rank); disagreement between the two raises ConsistencyError,
    signalling a tolerance misconfiguration rather than an answer.  The rank
    of P_s + P_t is read off the Gram matrix of the two range bases, which
    has the same nonzero eigenvalues.
    """
    return _singularity(s, t, cfg)[0]


def nonzero_common_minorant(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Optional[PsdMatrix]:
    """A witness R != 0 with R <= s and R <= t, or None when the pair is singular.

    The parallel sum itself is the witness: it is always a common minorant and
    is nonzero exactly on non-singular pairs.  It comes from the family the
    singularity test has already factored, and is built only when returned.
    """
    singular, family = _singularity(s, t, cfg)
    return None if singular else _computed_psd(family.at_scale(1.0), cfg, "parallel sum")
