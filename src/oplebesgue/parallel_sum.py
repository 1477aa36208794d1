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
    CONV_TOL,
    PSD_TOL,
    RANK_CUTOFF,
    PsdMatrix,
    _computed_psd,
    _eigenvalues_above,
    rank_at_scale,
    trace,
)

# Scalar filter components with weight below this are exact zeros up to
# roundoff (their factor columns vanish identically in exact arithmetic).
_FILTER_FLOOR = 1e-14


def _ldexp(value: float, exponent: int) -> float:
    """value * 2^exponent: exact inside the float64 range, inf of its sign past its top."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


class _ScaledParallelSums:
    """Evaluator for the whole family n -> (n T) : S from one factorization.

    Writing T = L L* and S = R R* through their spectral forms, each factor is
    divided by the exact power of two u_T, u_S that puts its largest singular
    value in [1/2, 1), so (n T) : S = u_S^2 (m T') : S' with m = n 4^shift
    exactly for the integer ``shift``.  Every method takes m and answers in
    S's units, but ``gap`` and ``reach``, which answer in the frame;
    m = None is the unit member n = 1, whose m may leave the float range.
    The Gram matrix of [L' R'] yields an orthonormal basis W = [W1; W2] of
    its range.  With a_i, U the eigenpairs of W1* W1, each component has one
    basis image Y_i = [L' R'] (W U)_i, no shorter than the smallest kept
    singular value of [L' R'], and one weight in the filter
    phi_i(m) = m / ((1 - a_i) + m a_i), through which alone the scale enters:

        (m T') : S'  =  sum_i phi_i(m) a_i (1 - a_i) Y_i Y_i*.

    Directions Y_i / |Y_i|, traces d_i = a_i (1 - a_i) |Y_i|^2 in the frame
    and the domination constants are read off a_i and Y_i alone, in O(r) per
    member and uniformly accurate in n.  They are kept in the frame, where
    trace(S') lies in [1/4, n), and meet S's units, a factor u_S^2 or u_T^2,
    only in what a method returns; so the monotone scheme's stopping distances
    and a threshold relative to trace(S') stay normal floats, and a factor
    sqrt(phi_i d_i) u stays exact, even for an S whose entries are subnormal.
    Components with a_i = 0 have no part in T (F_i = 0) and are dropped,
    which keeps the limit n -> inf finite; a_i in (0, 1] makes phi_i
    nondecreasing, so the family is Loewner-monotone with steps of trace norm
    sum_i (phi_i(m) - phi_i(n)) d_i.  The split Y_i = F_i + H_i,
    F = L' W1 U = a Y and H = R' W2 U = (1 - a) Y in exact arithmetic, is
    certified once at construction and decides which components carry weight.

    A weighted component, 0 < a_i < 1, has Y_i = F_i / a_i in range T' and
    Y_i = H_i / (1 - a_i) in range S', so the weighted components live on
    range S' intersect range T', of dimension p + q - kept for p = rank T,
    q = rank S and kept the rank of the Gram matrix.  When the ranges meet
    trivially, kept = p + q <= n, W is square and unitary, W1* W1 is a
    projector and every a_i is 0 or 1: the family is empty.  It is built so
    without an eigensolve once a shifted Cholesky factorization certifies
    that every Gram eigenvalue clears the rank cut at the bound 2 on
    lambda_max; the Gram eigh runs only when that is inconclusive.
    """

    def __init__(self, s: PsdMatrix, t: PsdMatrix):
        if s.dim != t.dim:
            raise DimensionMismatchError(f"dimension mismatch: {s.dim} vs {t.dim}")
        left, unit_t = self._factor(t)
        right, unit_s = self._factor(s)
        self.shift = math.frexp(unit_t)[1] - math.frexp(unit_s)[1]
        self._unit_s, self._unit_t = unit_s, unit_t
        self._lam_s, self._lam_t = s.lam_max, t.lam_max
        p = left.shape[1]
        stacked = np.concatenate([left, right], axis=1)
        gram = stacked.conj().T @ stacked
        gram = (gram + gram.conj().T) / 2
        # the ranges can meet trivially only when p + q <= n; each scaled
        # factor has norm below 1, so lambda_max(gram) < 2, and a Gram whose
        # eigenvalues all clear 2 RANK_CUTOFF keeps every component
        trivial = stacked.shape[1] <= s.dim and _eigenvalues_above(gram, 2 * RANK_CUTOFF)
        if not trivial:
            gw, gV = np.linalg.eigh(gram)  # ascending: the kept components are the trailing ones
            kept = rank_at_scale(gw[::-1], gw.max(initial=0.0))
            trivial = kept == gw.size
        if trivial:  # the ranges meet trivially: no component carries weight
            self._weights, self._mass, self._direction = np.zeros(0), np.zeros(0), stacked[:, :0]
            return
        basis = gV[:, gw.size - kept:]
        top, bottom = basis[:p, :], basis[p:, :]
        overlap = top.conj().T @ top
        a, U = np.linalg.eigh((overlap + overlap.conj().T) / 2)
        a = np.clip(a, 0.0, 1.0)
        live = a > _FILTER_FLOOR
        self._weights = a[live]
        self._front = left @ (top @ U[:, live])
        self._back = right @ (bottom @ U[:, live])
        carried = self._certify(math.sqrt(s.lam_max) / unit_s * math.sqrt(t.lam_max) / unit_t)
        a = self._weights = self._weights[carried]
        image = self._front[:, carried] + self._back[:, carried]
        norm = np.linalg.norm(image, axis=0)
        self._direction = image / norm
        self._mass = a * (1.0 - a) * norm**2
        del self._front, self._back  # the certificate's inputs, not kept

    @staticmethod
    def _factor(matrix: PsdMatrix) -> Tuple[np.ndarray, float]:
        """The spectral factor divided by u, the power of two with sqrt(lambda_max) / u in [1/2, 1)."""
        k = matrix.rank()
        unit = math.ldexp(1.0, math.frexp(math.sqrt(matrix.lam_max))[1])
        return matrix.spectrum.eigenvectors[:, :k] * (np.sqrt(matrix.eigenvalues[:k]) / unit), unit

    def _certify(self, joint: float) -> np.ndarray:
        """Check that every component is a rank-one PSD term with a filter
        nondecreasing in n; return which components carry weight.

        By Cauchy-Schwarz the trace e_i = Re(H_i* F_i) is at most |F_i| |H_i|,
        with equality exactly when H_i is a positive multiple of F_i; F_i H_i*
        has Hermitian eigenvalues (e_i +- |F_i| |H_i|) / 2, so it counts as PSD when
        its negative eigenvalue stays within PSD_TOL of its trace.  A component
        that fails the test is admitted only if its term stays below the
        resolution of the factorization in every member of the family:
        |F_i| |H_i| / a_i (phi_i <= 1 / a_i) at most sqrt(RANK_CUTOFF) times
        the joint magnitude sqrt(lambda_max(S') lambda_max(T')), which bounds
        |F_i| |H_i|.  Such components come from the a_i = 1 columns, whose H_i
        vanishes in exact arithmetic, and carry no weight, as do components
        with e_i = 0 or a_i = 1 (d_i = 0).  Any other failure raises ConsistencyError.
        """
        a = self._weights
        if np.any((a <= 0.0) | (a > 1.0)):
            raise ConsistencyError(
                "parallel-sum filter weights leave (0, 1]: the scaled family is not monotone",
                details={"weights": (float(a.min()), float(a.max()))},
            )
        product = np.linalg.norm(self._front, axis=0) * np.linalg.norm(self._back, axis=0)
        mass = np.real(np.sum(self._back.conj() * self._front, axis=0))
        psd_term = mass >= (1.0 - PSD_TOL) * product
        broken = ~psd_term & (product > math.sqrt(RANK_CUTOFF) * joint * a)
        if np.any(broken):
            worst = int(np.argmax(np.where(broken, product, 0.0)))
            raise ConsistencyError(
                f"parallel-sum component {worst} is not a PSD term: trace "
                f"{mass[worst]:.3e} against Cauchy-Schwarz bound {product[worst]:.3e}",
                details={"stage": "parallel-sum certificate", "component": worst,
                         "trace": float(mass[worst]), "bound": float(product[worst])},
            )
        return psd_term & (mass > 0.0) & (a < 1.0)

    def _filter(self, m: Optional[float]) -> Tuple[np.ndarray, float]:
        """phi_i(m) = 1 / ((1 - a_i) / m + a_i), 1 / a_i at m = inf, with the
        power of two u whose square brings phi_i d_i to S's units, u_S.  The
        unit member at m = 4^shift < 1 gives phi_i(m) / m against u_T instead,
        u_T^2 = u_S^2 m, so an m that underflows is never multiplied in."""
        a, unit = self._weights, _ldexp(1.0, 2 * self.shift)
        if m is None and self.shift < 0:
            return 1.0 / ((1.0 - a) + unit * a), self._unit_t
        return 1.0 / ((1.0 - a) / (unit if m is None else m) + a), self._unit_s

    def factor_at(self, m: Optional[float]) -> np.ndarray:
        """A factor X of the member at m, X X* = (n T) : S."""
        phi, unit = self._filter(m)
        return self._direction * (np.sqrt(phi * self._mass) * unit)

    def at_scale(self, m: float, framed: bool = False) -> np.ndarray:
        """The member at filter argument m as a Hermitian array, in S's units
        or, ``framed``, divided by u_S^2 like ``gap``, where its entries stay
        normal floats for a subnormal S: the factor's own entries, of size
        about u_S, are normal."""
        factor = self.factor_at(m)
        if framed:
            factor = factor / self._unit_s
        product = factor @ factor.conj().T
        return product / 2 + product.conj().T / 2

    def member(self, m: Optional[float]) -> PsdMatrix:
        """The member at m, rank-cut at the largest eigenvalue it can have,
        min(lambda_max(S), n lambda_max(T))."""
        top = self._lam_t if m is None else _ldexp(m * self._lam_t, -2 * self.shift)
        return _computed_psd(self.factor_at(m), min(self._lam_s, top))

    def trace_at(self, m: Optional[float]) -> float:
        """The trace of the member at m."""
        phi, unit = self._filter(m)
        return float(phi @ self._mass) * unit * unit  # u^2 itself can overflow

    def unit_trace_within(self, tolerance: float, size: float) -> bool:
        """Whether trace(S : T) <= tolerance * size, for a size in S's units.
        Both sides are compared in the frame of the unit member's u, the
        smaller of u_S and u_T, where a nonzero trace of S or of T is at
        least 1/4, so neither side underflows."""
        phi, unit = self._filter(None)
        return float(phi @ self._mass) <= tolerance * (size / unit / unit)

    def gap(self, m: float, larger: float) -> float:
        """Trace norm of the member at ``larger`` minus the member at m, in
        the frame: divided by u_S^2, so it does not underflow.

        The filter increment is written as (1 - m/M)(1 - a) / (((1 - a)/M + a)
        ((1 - a) + m a)), a product of nonnegative factors, so the gap is
        nonnegative in floating point and free of cancellation, no
        denominator rounds to zero when m is below the precision of 1, and
        ``larger = inf`` gives the distance to the limit of the family.
        """
        a = self._weights
        increment = (1.0 - m / larger) * (1.0 - a) / (((1.0 - a) / larger + a) * ((1.0 - a) + m * a))
        return float(increment @ self._mass)

    def framed(self, value: float) -> float:
        """A trace in S's units brought to the frame: value / u_S^2, exact for
        a subnormal value too."""
        return value / self._unit_s / self._unit_s

    def unframed(self, value: float) -> float:
        """A trace in the frame brought back to S's units: value * u_S^2."""
        return value * self._unit_s * self._unit_s

    @property
    def frame_exponent(self) -> int:
        """The e with u_S^2 = 2^e, which brings a framed value to S's units."""
        return 2 * (math.frexp(self._unit_s)[1] - 1)

    def reach(self, threshold: float) -> float:
        """sum_i (d_i / threshold) / a_i^2 for a threshold in the frame, which
        bounds m / threshold times ``gap(m, inf)``, sum_i d_i (1 - a_i) /
        (a_i ((1 - a_i) + m a_i)) in the frame; d_i / a_i^2 alone can overflow."""
        return float(np.sum(self._mass / threshold / self._weights**2))

    def domination_at(self, m: float) -> float:
        """Smallest c with (m T') : S' <= c T' from the weights alone, in the
        family's own frame: the c of (n T) : S against T is c / 4^shift,
        which can leave the float range when this one does not.

        Whitened by T', the vectors F_i = a_i Y_i become the columns of W1 U,
        of Gram matrix diag(a), so (m T') : S' is diagonal with entries
        phi_i(m) (1 - a_i).
        """
        return float(np.max(self._filter(m)[0] * (1.0 - self._weights), initial=0.0))


def parallel_sum(s: PsdMatrix, t: PsdMatrix) -> PsdMatrix:
    """Parallel sum S:T = S (S+T)^+ T, the unit-scale member of the factored
    family, so no pseudoinverse of S + T is ever formed."""
    return _ScaledParallelSums(s, t).member(None)


def _singularity(s: PsdMatrix, t: PsdMatrix) -> Tuple[bool, _ScaledParallelSums]:
    """The singularity verdict of ``is_singular_pair`` with the parallel-sum
    family it was read from."""
    family = _ScaledParallelSums(s, t)
    trace_says = family.unit_trace_within(CONV_TOL, min(trace(s), trace(t)))

    k_s, k_t = s.rank(), t.rank()
    bases = np.concatenate([s.spectrum.eigenvectors[:, :k_s], t.spectrum.eigenvectors[:, :k_t]], axis=1)
    join = bases.conj().T @ bases
    # orthonormal columns: lambda_max(join) <= 2, so a join whose eigenvalues
    # all clear 2 RANK_CUTOFF has full rank
    if k_s + k_t <= s.dim and _eigenvalues_above(join, 2 * RANK_CUTOFF):
        intersection_dim = 0
    else:
        joint = np.linalg.eigvalsh(join)[::-1]
        intersection_dim = k_s + k_t - rank_at_scale(joint, joint[0] if joint.size else 0.0)
    range_says = intersection_dim == 0

    if trace_says != range_says:
        raise ConsistencyError(
            "singularity criteria disagree: trace of parallel sum says "
            f"{trace_says}, range intersection of dimension {intersection_dim} says "
            f"{range_says}; tolerances are misconfigured for this pair",
            details={"parallel_sum_trace": family.trace_at(None), "intersection_dim": intersection_dim},
        )
    return trace_says, family


def is_singular_pair(s: PsdMatrix, t: PsdMatrix) -> bool:
    """Decide whether the only common positive minorant of s and t is zero.

    Primary criterion: trace(s:t) below CONV_TOL times the smaller input trace
    (s:t lies below both), read off the weights of the factored parallel sum
    without forming it and compared in the engine's frame, so a subnormal
    operand's trace does not round the verdict.  Cross-checked against
    dim(range s intersect range t) = 0 computed from the range projections,
    each rank taken at its operand's own scale; disagreement between the two
    raises ConsistencyError, signalling a tolerance misconfiguration rather
    than an answer.  The rank of P_s + P_t is read off the Gram matrix of the
    two range bases, which has the same nonzero eigenvalues: a shifted
    Cholesky factorization certifies full rank when every eigenvalue clears
    the cut at the bound 2 on lambda_max, and the eigenvalues are computed
    only when it cannot.
    """
    return _singularity(s, t)[0]


def nonzero_common_minorant(s: PsdMatrix, t: PsdMatrix) -> Optional[PsdMatrix]:
    """A witness R != 0 with R <= s and R <= t, or None when the pair is singular.

    The parallel sum itself is the witness: it is always a common minorant and
    is nonzero exactly on non-singular pairs.  It comes from the family the
    singularity test has already factored, and is built only when returned.
    """
    singular, family = _singularity(s, t)
    return None if singular else family.member(None)
