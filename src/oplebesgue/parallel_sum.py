"""Parallel sums of PSD matrices and the mutual-singularity test they induce.

The parallel sum S:T = S (S+T)^+ T is the operator harmonic mean: it is PSD,
below both arguments in the Loewner order, and vanishes exactly when the two
ranges intersect trivially -- which makes trace(S:T) a quantitative witness
for mutual singularity.  On commuting diagonals it reduces to the entrywise
scalar formula s*t/(s+t).  Every parallel sum in the package, the scaled
family (n T) : S of the monotone approximation included, comes from the one
factored engine ``_ScaledParallelSums``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError
from .psd_core import (
    DEFAULT_CONFIG,
    PsdMatrix,
    ToleranceConfig,
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
            return
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

    @staticmethod
    def _factor(matrix: PsdMatrix, cfg: ToleranceConfig) -> np.ndarray:
        k = matrix.rank(cfg)
        return matrix.spectrum.eigenvectors[:, :k] * np.sqrt(matrix.eigenvalues[:k])

    def at_scale(self, scale: float) -> np.ndarray:
        """(scale * T) : S as a Hermitian array."""
        a = self._weights
        if a.size == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        phi = scale / (1.0 + (scale - 1.0) * a)
        product = (self._front * phi) @ self._back.conj().T
        return (product + product.conj().T) / 2


def parallel_sum(s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG) -> PsdMatrix:
    """Parallel sum S:T = S (S+T)^+ T, the unit-scale member of the factored
    family, so no pseudoinverse of S + T is ever formed."""
    return PsdMatrix(_ScaledParallelSums(s, t, cfg).at_scale(1.0), cfg)


def is_singular_pair(s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Decide whether the only common positive minorant of s and t is zero.

    Primary criterion: trace(s:t) below conv_tol relative to the input traces.
    Cross-checked against dim(range s intersect range t) = 0 computed from the
    range projections (taken at the pair's joint scale, so roundoff ghosts of
    zero carry no rank); disagreement between the two raises ConsistencyError,
    signalling a tolerance misconfiguration rather than an answer.  The rank
    of P_s + P_t is read off the Gram matrix of the two range bases, which
    has the same nonzero eigenvalues.
    """
    mean = parallel_sum(s, t, cfg)
    trace_says = trace(mean) <= cfg.conv_tol * max(1.0, trace(s), trace(t))

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
            details={"parallel_sum_trace": trace(mean), "intersection_dim": intersection_dim},
        )
    return trace_says


def nonzero_common_minorant(
    s: PsdMatrix, t: PsdMatrix, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> Optional[PsdMatrix]:
    """A witness R != 0 with R <= s and R <= t, or None when the pair is singular.

    The parallel sum itself is the witness: it is always a common minorant and
    is nonzero exactly on non-singular pairs.
    """
    if is_singular_pair(s, t, cfg):
        return None
    return parallel_sum(s, t, cfg)
