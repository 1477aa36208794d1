"""The functional layer: trace pairings against a representing operator.

A normal functional is stored intensionally, by the positive trace-class
operator representing it through A -> trace(A T), never as a closure.  Order,
decomposition and uniqueness questions then reduce to operator computations
on the representatives, which is exactly the reduction the trace pairing
licenses: T -> f_T is an order isomorphism onto the normal positive
functionals, and it carries Lebesgue decompositions both ways.

``kvn_sup_estimate`` evaluates the smallest-positive-extension supremum
  sup { |f(X* A)|^2 : A finite rank, f(A* A) <= 1 }
on a concrete maximizing family built from the spectral projections of the
representing operator, rather than by generic optimization: the projections
commute with the operator, which makes the estimates exactly nondecreasing
in the rank and equal to f(X* X) at full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .diagonal import (
    L1Sequence,
    RatioCertificate,
    _diag_split,
    _is_integer,
    diag_is_dominated,
    diag_uniqueness,
    sequence_from_json,
    sequence_to_json,
    truncate_to_matrix,
)
from .errors import DimensionMismatchError, ConsistencyError, ValidationError
from .lebesgue import ADDITIVITY_RTOL, UniquenessCertificate, decompose, uniqueness_certificate
from .psd_core import (
    PSD_TOL,
    HermitianMatrix,
    PsdMatrix,
    _unit,
    loewner_leq,
    matrix_to_json,
    psd_from_json,
    trace,
)


@dataclass(frozen=True)
class NormalFunctional:
    """Positive functional A -> trace(A T), stored via its representative T."""

    rep: Union[PsdMatrix, L1Sequence]
    label: Optional[str] = None

    @property
    def kind(self) -> str:
        return "matrix" if isinstance(self.rep, PsdMatrix) else "sequence"

    def rep_matrix(self, dim: int) -> PsdMatrix:
        """The representing operator as a dim x dim matrix, truncating sequence reps."""
        if isinstance(self.rep, PsdMatrix):
            if self.rep.dim != dim:
                raise DimensionMismatchError(f"functional acts on dimension {self.rep.dim}, argument has {dim}")
            return self.rep
        return truncate_to_matrix(self.rep, dim)


def _argument(a) -> HermitianMatrix:
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)


def evaluate(f: NormalFunctional, a) -> float:
    """f(A) = trace(A T), the O(n^2) pairing vdot(T, A) for Hermitian A and T.
    Sequence representatives act through truncation."""
    arg = _argument(a)
    rep = f.rep_matrix(arg.dim)
    return float(np.vdot(rep.array, arg.array).real)


def functional_leq(f: NormalFunctional, g: NormalFunctional) -> bool:
    """Order between functionals, decided on the representing operators."""
    if f.kind != g.kind:
        raise ValidationError(f"cannot order a {f.kind} functional against a {g.kind} one")
    if f.kind == "matrix":
        return loewner_leq(f.rep, g.rep)
    c = diag_is_dominated(f.rep, g.rep)
    return c is not None and c <= 1.0 + PSD_TOL


def functional_lebesgue(
    g: NormalFunctional, f: NormalFunctional
) -> Tuple[NormalFunctional, NormalFunctional]:
    """Split g into its f-regular and f-singular parts.

    The split happens on the representatives, and g = g_r + g_s is checked
    exactly on them before returning.  For matrices the residual G - G_r - G_s
    is Hermitian, so its Frobenius norm is the largest |g(A) - g_r(A) - g_s(A)|
    over |A|_F = 1; it must stay within ADDITIVITY_RTOL trace(G), both taken
    on G divided by its power of two so the norm cannot overflow.  A sequence
    split sends each entry wholesale to one side, so ac + sing = s must hold in
    exact float arithmetic over the whole aligned prefix, with the tail of s
    on exactly one side.
    """
    if f.kind != g.kind:
        raise ValidationError(f"cannot decompose a {g.kind} functional against a {f.kind} one")
    if g.kind == "matrix":
        split = decompose(g.rep, f.rep)
        unit = _unit(g.rep.array)
        residual = float(np.linalg.norm((g.rep.array - split.ac.array - split.sing.array) / unit))
        if not residual <= ADDITIVITY_RTOL * trace(g.rep) / unit:
            raise ConsistencyError(f"functional split is not additive (Frobenius residual "
                                   f"{residual * unit:.3e} against trace(G) {trace(g.rep):.3e})")
    else:
        split = _diag_split(g.rep, f.rep)
        aligned = g.rep.materialized(max(g.rep.prefix_len, f.rep.prefix_len))
        ac, sing = split.ac, split.sing
        if not (len(ac.prefix) == len(sing.prefix) == aligned.prefix_len
                and (ac.tail, sing.tail) in ((aligned.tail, None), (None, aligned.tail))
                and all(a + b == v for a, b, v in zip(ac.prefix, sing.prefix, aligned.prefix))):
            raise ConsistencyError("functional split is not additive on the aligned prefix or tail")
    base = g.label or "g"
    return NormalFunctional(split.ac, label=f"{base}_r"), NormalFunctional(split.sing, label=f"{base}_s")


def regular_part_approximants(g: NormalFunctional, f: NormalFunctional) -> List[NormalFunctional]:
    """The monotone sequence of f-dominated functionals climbing to the regular part.

    Certifies almost domination constructively rather than by a boolean: each
    returned functional is represented by one monotone approximant of the
    operator iteration, so it is dominated by a multiple of f and the sequence
    increases pointwise to the regular part of g.
    """
    if f.kind != "matrix" or g.kind != "matrix":
        raise ValidationError("approximant certificates are matrix-level objects")
    record = decompose(g.rep, f.rep).trace_of_iteration
    base = g.label or "g"
    return [
        NormalFunctional(step.approximant, label=f"{base}_r[{step.k}]")
        for step in record.steps
    ]


def functional_uniqueness(g: NormalFunctional, f: NormalFunctional) -> UniquenessCertificate:
    """Uniqueness of the decomposition of g relative to f, on representatives."""
    if f.kind != g.kind:
        raise ValidationError(f"cannot compare a {g.kind} functional against a {f.kind} one")
    if g.kind == "matrix":
        return uniqueness_certificate(g.rep, f.rep)
    unique, certificate = diag_uniqueness(g.rep, f.rep)
    if unique:
        return UniquenessCertificate(unique=True, c=certificate.constant())
    return UniquenessCertificate(unique=False, c=math.inf, witness=_describe_unbounded(certificate))


def _describe_unbounded(certificate: RatioCertificate) -> str:
    samples = certificate.witness_ladder((10, 1e3, 1e6))
    rendered = ", ".join(f"ratio >= {b:g} at index {n}" for b, n in samples)
    return f"entrywise ratios against the reference are unbounded ({rendered})"


def kvn_sup_estimate(f: NormalFunctional, x, rank_schedule: Sequence[int]) -> List[float]:
    """Ascent of the smallest-positive-extension supremum along spectral ranks.

    For each rank k the maximizing family member is A_k = X P_k / sqrt(f(P_k
    X* X P_k)) with P_k the projection onto the top-k eigenvectors v_i of the
    representing operator.  P_k commutes with it, so |f(X* A_k)|^2 = f(P_k X*
    X P_k) is the partial sum of w_i |X v_i|^2 over i <= k: nondecreasing, and
    f(X* X) at full rank.  A rank whose normalizer vanishes contributes zero.
    """
    arg = _argument(x)
    rep = f.rep_matrix(arg.dim)
    if trace(rep) <= 0.0:
        raise ValidationError("the zero functional admits no normalized maximizing family")
    partial = np.cumsum(rep.eigenvalues * np.linalg.norm(arg.array @ rep.spectrum.eigenvectors, axis=0)**2)
    for rank in rank_schedule:
        if not (_is_integer(rank) and 1 <= rank <= rep.dim):
            raise ValidationError(f"rank schedule entries must lie in 1..{rep.dim}, got {rank!r}")
    return [float(partial[rank - 1]) for rank in rank_schedule]


def normality_gap(f: NormalFunctional) -> float:
    """f(I) minus the full-rank supremum estimate at X = I.

    Nonpositive up to roundoff for every representable functional: every
    trace-pairing functional attains its extension supremum.
    """
    if f.kind != "matrix":
        raise ValidationError("normality gap is defined for matrix-represented functionals")
    dim = f.rep.dim
    identity = HermitianMatrix(np.eye(dim))
    estimate = kvn_sup_estimate(f, identity, [dim])[-1]
    return evaluate(f, identity) - estimate


# --- JSON wire format -------------------------------------------------------
#
# {"kind": "matrix" | "sequence", "rep": <matrix or sequence JSON>, "label": ...}


def functional_from_json(obj) -> NormalFunctional:
    if not isinstance(obj, dict):
        raise ValidationError("functional JSON must be an object")
    kind = obj.get("kind")
    if kind not in ("matrix", "sequence"):
        raise ValidationError("functional JSON needs kind 'matrix' or 'sequence'")
    if "rep" not in obj:
        raise ValidationError("functional JSON needs a 'rep' field")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValidationError("'label' must be a string when present")
    if kind == "matrix":
        return NormalFunctional(psd_from_json(obj["rep"]), label=label)
    return NormalFunctional(sequence_from_json(obj["rep"]), label=label)


def functional_to_json(f: NormalFunctional) -> dict:
    rep = matrix_to_json(f.rep) if f.kind == "matrix" else sequence_to_json(f.rep)
    return {"kind": f.kind, "rep": rep, "label": f.label}
