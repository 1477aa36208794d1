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
    rank_at_scale,
    trace,
)

# Scalar filter components with weight below this are exact zeros up to
# roundoff (their factor columns vanish identically in exact arithmetic).
_FILTER_FLOOR = 1e-14


class _ScaledParallelSums:
    """Evaluator for the whole family n -> (n T) : S from one factorization.

    Writing T = L L* and S = R R* through their spectral forms, each factor is
    divided by the exact power of two u_T, u_S that puts its largest singular
    value in [1/2, 1), so (n T) : S = u_S^2 (m T') : S' with m = n * ratio
    exactly, ratio = u_T^2 / u_S^2 a power of four; the monotone schedule
    counts m, not n.  The Gram matrix of [L' R'] yields an orthonormal basis
    W = [W1; W2] of its range.  With a_i, U the eigenpairs of W1* W1, each
    component has one basis image Y_i = [L' R'] (W U)_i, no shorter than the
    smallest kept singular value of [L' R'], and one weight in the filter
    phi_i(m) = m / ((1 - a_i) + m a_i), through which alone the scale enters:

        (m T') : S'  =  sum_i phi_i(m) a_i (1 - a_i) Y_i Y_i*.

    Directions Y_i / |Y_i|, traces d_i = a_i (1 - a_i) |Y_i|^2 u_S^2 and the
    domination constants are read off a_i and Y_i alone, in O(r) per member
    and uniformly accurate in n.  Components with a_i = 0 have no part in T
    (F_i = 0) and are dropped, which keeps the limit n -> inf finite; a_i in (0, 1]
    makes phi_i nondecreasing, so the family is Loewner-monotone with steps of
    trace norm sum_i (phi_i(m) - phi_i(n)) d_i.  The split Y_i = F_i + H_i,
    F = L' W1 U = a Y and H = R' W2 U = (1 - a) Y in exact arithmetic, is
    certified once at construction and decides which components carry weight.
    """

    def __init__(self, s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig):
        if s.dim != t.dim:
            raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
        left, unit_t = self._factor(t, cfg)
        right, unit_s = self._factor(s, cfg)
        self.ratio = (unit_t / unit_s) ** 2
        self._lam_s, self._lam_t = s.lam_max, t.lam_max
        p = left.shape[1]
        stacked = np.concatenate([left, right], axis=1)
        gram = stacked.conj().T @ stacked
        gw, gV = np.linalg.eigh((gram + gram.conj().T) / 2)
        # eigh sorts ascending: the kept components are the trailing ones
        kept = rank_at_scale(gw[::-1], gw.max(initial=0.0), cfg)
        basis = gV[:, gw.size - kept:]
        top, bottom = basis[:p, :], basis[p:, :]
        overlap = top.conj().T @ top
        a, U = np.linalg.eigh((overlap + overlap.conj().T) / 2)
        a = np.clip(a, 0.0, 1.0)
        live = a > _FILTER_FLOOR
        self._weights = a[live]
        self._front = left @ (top @ U[:, live])
        self._back = right @ (bottom @ U[:, live])
        carried = self._certify(math.sqrt(s.lam_max) / unit_s * math.sqrt(t.lam_max) / unit_t, cfg)
        a = self._weights = self._weights[carried]
        image = self._front[:, carried] + self._back[:, carried]
        norm = np.linalg.norm(image, axis=0)
        self._direction = image / norm
        self._mass = a * (1.0 - a) * norm**2 * unit_s**2
        del self._front, self._back  # the certificate's inputs, not kept

    @staticmethod
    def _factor(matrix: PsdMatrix, cfg: ToleranceConfig) -> Tuple[np.ndarray, float]:
        """The spectral factor divided by u, the power of two with sqrt(lambda_max) / u in [1/2, 1)."""
        k = matrix.rank(cfg)
        unit = math.ldexp(1.0, math.frexp(math.sqrt(matrix.lam_max))[1])
        return matrix.spectrum.eigenvectors[:, :k] * (np.sqrt(matrix.eigenvalues[:k]) / unit), unit

    def _certify(self, joint: float, cfg: ToleranceConfig) -> np.ndarray:
        """Check that every component is a rank-one PSD term with a filter
        nondecreasing in n; return which components carry weight.

        By Cauchy-Schwarz the trace e_i = Re(H_i* F_i) is at most |F_i| |H_i|,
        with equality exactly when H_i is a positive multiple of F_i; F_i H_i*
        has Hermitian eigenvalues (e_i +- |F_i| |H_i|) / 2, so it counts as PSD when
        its negative eigenvalue stays within psd_tol of its trace.  A component
        that fails the test is admitted only if its term stays below the
        resolution of the factorization in every member of the family:
        |F_i| |H_i| / a_i (phi_i <= 1 / a_i) at most sqrt(rank_cutoff) times
        the joint magnitude sqrt(lambda_max(S') lambda_max(T')), which bounds
        |F_i| |H_i|.  Such components come from the a_i = 1 columns, whose H_i
        vanishes in exact arithmetic, and carry no weight, as do components
        with e_i = 0.  Any other failure raises ConsistencyError.
        """
        a = self._weights
        if np.any((a <= 0.0) | (a > 1.0)):
            raise ConsistencyError(
                "parallel-sum filter weights leave (0, 1]: the scaled family is not monotone",
                details={"weights": (float(a.min()), float(a.max()))},
            )
        product = np.linalg.norm(self._front, axis=0) * np.linalg.norm(self._back, axis=0)
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
        return psd_term & (mass > 0.0)

    def _filter(self, scale: float) -> np.ndarray:
        a, m = self._weights, scale * self.ratio
        return m / ((1.0 - a) + m * a)

    def factor_at(self, scale: float) -> np.ndarray:
        """A factor X of (scale * T) : S = X X*."""
        return self._direction * np.sqrt(self._filter(scale) * self._mass)

    def at_scale(self, scale: float) -> np.ndarray:
        """(scale * T) : S as a Hermitian array."""
        factor = self.factor_at(scale)
        product = factor @ factor.conj().T
        return (product + product.conj().T) / 2

    def member(self, scale: float, cfg: ToleranceConfig) -> PsdMatrix:
        """(scale * T) : S, rank-cut at the largest eigenvalue it can have,
        min(lambda_max(S), scale * lambda_max(T))."""
        return _computed_psd(self.factor_at(scale), min(self._lam_s, scale * self._lam_t), cfg)

    def trace_at(self, scale: float) -> float:
        """trace((scale * T) : S)."""
        return float(self._filter(scale) @ self._mass)

    def gap(self, scale: float, larger: float) -> float:
        """Trace norm of (larger * T) : S - (scale * T) : S.

        The filter increment is written as (1 - m/M)(1 - a) / (((1 - a)/M + a)
        ((1 - a) + m a)), a product of nonnegative factors, so the gap is
        nonnegative in floating point and free of cancellation, no
        denominator rounds to zero when m is below the precision of 1, and
        ``larger = inf`` gives the distance to the limit of the family.
        """
        a, m, big = self._weights, scale * self.ratio, larger * self.ratio
        increment = (1.0 - m / big) * (1.0 - a) / (((1.0 - a) / big + a) * ((1.0 - a) + m * a))
        return float(increment @ self._mass)

    def reach(self) -> float:
        """sum_i d_i / a_i^2, which bounds m times the distance to the limit at
        filter argument m, sum_i d_i (1 - a_i) / (a_i ((1 - a_i) + m a_i))."""
        return float(np.sum(self._mass / self._weights**2))

    def domination_at(self, scale: float) -> float:
        """Smallest c with (scale * T) : S <= c T, from the weights alone.

        Whitened by T', the vectors F_i = a_i Y_i become the columns of W1 U,
        of Gram matrix diag(a), so (m T') : S' is diagonal with entries
        phi_i(m) (1 - a_i); dividing by ratio carries c from T' back to T.
        """
        return float(np.max(self._filter(scale) * (1.0 - self._weights), initial=0.0)) / self.ratio


def parallel_sum(s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG) -> PsdMatrix:
    """Parallel sum S:T = S (S+T)^+ T, the unit-scale member of the factored
    family, so no pseudoinverse of S + T is ever formed."""
    return _ScaledParallelSums(s, t, cfg).member(1.0, cfg)


def _singularity(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig
) -> Tuple[bool, _ScaledParallelSums]:
    """The singularity verdict of ``is_singular_pair`` with the parallel-sum
    family it was read from."""
    family = _ScaledParallelSums(s, t, cfg)
    mean_trace = family.trace_at(1.0)
    trace_says = mean_trace <= cfg.conv_tol * min(trace(s), trace(t))

    k_s, k_t = s.rank(cfg), t.rank(cfg)
    bases = np.concatenate([s.spectrum.eigenvectors[:, :k_s], t.spectrum.eigenvectors[:, :k_t]], axis=1)
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

    Primary criterion: trace(s:t) below conv_tol times the smaller input trace
    (s:t lies below both), read off the weights of the factored parallel sum
    without forming it.  Cross-checked against dim(range s intersect range t)
    = 0 computed from the range projections, each rank taken at its operand's
    own scale; disagreement between the two raises ConsistencyError,
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
    return None if singular else family.member(1.0, cfg)
