"""Tolerance-aware Hermitian/PSD matrix kernel.

Spectral decompositions, square roots, pseudoinverses, range projections,
Loewner-order comparison and the trace functionals everything else is built
on.  All types are immutable after construction and all operations are pure,
so they are safe to share between threads.

The operators here are finite-dimensional stand-ins for positive trace-class
operators: the trace norm is the natural size measure and every rank decision
is made relative to the largest eigenvalue, never in absolute terms, so that
rescaling an operator can never change its computed rank.

``PsdMatrix(...)`` is the gate for outside input.  Operators the package
computes are PSD by construction and are never checked like input:
``_computed_psd`` builds one from its factor, and ``_with_spectrum`` one
whose spectrum is in hand: a function of an operand's, or a truncated
sequence's own entries.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ConsistencyError, ValidationError

# Deviation allowed between A and A*, relative to the largest entry of A,
# before the input is rejected as non-Hermitian.
HERMITIAN_ATOL = 1e-12

# Invariant tolerance for spectral factorizations (reconstruction error and
# eigenvector orthonormality, both Frobenius).
SPECTRAL_TOL = 1e-10

# Relative band below zero inside which an eigenvalue is roundoff, clipped at
# construction; also the slack of every Loewner comparison and PSD-term check.
PSD_TOL = 1e-10

# Relative eigenvalue threshold for numerical rank, at the scale a caller picks.
RANK_CUTOFF = 1e-10

# Relative trace-norm threshold for convergence and for a vanishing trace.
CONV_TOL = 1e-9


def _unit(array: np.ndarray) -> float:
    """The power of two at or just below the largest |entry| of ``array``, but
    never below the smallest normal float, whose reciprocal is finite.  Dividing
    by it is exact and leaves the largest entry below 2, so a Frobenius norm of
    the quotient neither overflows nor underflows."""
    exponent = math.frexp(float(np.abs(array).max(initial=0.0)))[1]
    return math.ldexp(1.0, max(exponent, sys.float_info.min_exp) - 1)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _numeric(entries) -> np.ndarray:
    """``entries`` as a complex array of numbers: a bool or a string is not one,
    and an int no float64 can hold is out of range.  An ndarray of a numeric
    dtype is taken as it is; anything else is checked entry by entry."""
    if not (isinstance(entries, np.ndarray) and entries.dtype.kind in "iufc"):
        cells = np.asarray(entries, dtype=object)
        if not all(isinstance(v, numbers.Number) and not isinstance(v, bool) for v in cells.flat):
            raise ValidationError("matrix entries must be numbers")
        try:
            entries = cells.astype(complex)
        except OverflowError:
            raise ValidationError("matrix entries must fit a float64") from None
    return np.asarray(entries, dtype=complex)


def _checked_hermitian(entries) -> np.ndarray:
    """``entries`` as a complex array, which must be square, finite and equal
    to its conjugate transpose up to HERMITIAN_ATOL; ValidationError
    otherwise.  An exactly Hermitian array is passed by one comparison."""
    arr = _numeric(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite")
    if np.array_equal(arr, arr.conj().T):
        return arr
    deviation = np.abs(arr / 2 - arr.conj().T / 2)  # halved, so it cannot overflow
    if deviation.max() > HERMITIAN_ATOL * np.abs(arr).max() / 2:
        i, j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        raise ValidationError(
            f"matrix is not Hermitian: entries ({i},{j})={arr[i, j]:.6g} and "
            f"({j},{i})={arr[j, i]:.6g} differ beyond tolerance"
        )
    return arr


class HermitianMatrix:
    """A validated square complex matrix equal to its conjugate transpose.

    Real symmetric input is accepted as the zero-imaginary-part special case.
    The stored array is the Hermitian average A/2 + A*/2 of the input, which
    cannot overflow, and is read-only.
    """

    __slots__ = ("_array",)

    def __init__(self, entries):
        arr = _checked_hermitian(entries)
        self._array = _frozen(arr / 2 + arr.conj().T / 2)

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues in nonincreasing order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


def eigh(matrix) -> SpectralDecomp:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    The matrix is factored divided by its power of two, ``_unit``, and its
    eigenvalues are scaled back, so an operand of subnormal entries is factored
    at full precision.  The factorization invariants (reconstruction accuracy,
    orthonormality) are verified on that quotient before the result is
    returned.
    """
    herm = matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)
    unit = _unit(herm.array)
    arr = herm.array / unit
    w, V = np.linalg.eigh(arr)
    w, V = w[::-1].copy(), V[:, ::-1].copy()
    with np.errstate(over="ignore"):  # an eigenvalue past float64 is rejected below
        decomp = SpectralDecomp(_frozen(w * unit), _frozen(V))
    if math.isinf(sum(np.abs(decomp.eigenvalues).tolist())):  # a Python float sum overflows to inf, silently
        raise ValidationError("matrix trace norm must fit a float64")
    if not np.linalg.norm((V * w) @ V.conj().T - arr) <= SPECTRAL_TOL * np.linalg.norm(arr):
        raise ConsistencyError("spectral factorization failed to reconstruct its input")
    gram_err = float(np.linalg.norm(V.conj().T @ V - np.eye(herm.dim)))
    if not gram_err <= SPECTRAL_TOL:
        raise ConsistencyError("eigenvector system is not orthonormal")
    return decomp


class PsdMatrix(HermitianMatrix):
    """Hermitian matrix with all eigenvalues nonnegative up to tolerance.

    Eigenvalues in the roundoff band [-PSD_TOL * lambda_max, 0) are
    clipped to zero at construction; anything more negative is a hard error.
    The clipped spectral form is cached and reused by every downstream
    operation (square roots, pseudoinverses, projections).
    """

    __slots__ = ("_spectrum",)

    def __init__(self, entries):
        super().__init__(entries)
        decomp = eigh(self)
        w = decomp.eigenvalues
        lam_max = float(w[0]) if w.size else 0.0
        band = PSD_TOL * lam_max
        lam_min = float(w[-1]) if w.size else 0.0
        if not lam_min >= -band:
            raise ValidationError(
                f"matrix is not positive semidefinite: eigenvalue {lam_min:.6g} "
                f"below tolerance band {-band:.6g}"
            )
        clipped = np.clip(w, 0.0, None)
        self._spectrum = SpectralDecomp(_frozen(clipped), decomp.eigenvectors)

    @property
    def spectrum(self) -> SpectralDecomp:
        return self._spectrum

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum.eigenvalues

    @property
    def lam_max(self) -> float:
        w = self._spectrum.eigenvalues
        return float(w[0]) if w.size else 0.0

    def rank(self) -> int:
        """Numerical rank relative to the operator's own largest eigenvalue."""
        return rank_at_scale(self.eigenvalues, self.lam_max)


def rank_at_scale(eigenvalues: np.ndarray, scale: float) -> int:
    """How many of the descending ``eigenvalues`` lie above RANK_CUTOFF * scale.
    Every rank decision in the package is made here, at a scale the caller picks."""
    return int(np.count_nonzero(eigenvalues > RANK_CUTOFF * scale))


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, HermitianMatrix):
        return matrix.array
    return np.asarray(matrix, dtype=complex)


def _as_psd(matrix) -> PsdMatrix:
    if isinstance(matrix, PsdMatrix):
        return matrix
    return PsdMatrix(matrix)


def _require_same_dim(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def _with_spectrum(array, w, V) -> PsdMatrix:
    """An operator whose spectrum (w, V) is in hand, stored sorted descending with
    the Hermitian average A/2 + A*/2 of its array; nothing is factored again."""
    order = np.argsort(-w, kind="stable")
    psd = object.__new__(PsdMatrix)
    psd._array = _frozen(array / 2 + array.conj().T / 2)
    psd._spectrum = SpectralDecomp(_frozen(w[order]), _frozen(V[:, order]))
    return psd


def _computed_psd(factor, scale: float) -> PsdMatrix:
    """X X* for a factor X the package computed, PSD by construction.  The
    spectrum comes from a thin SVD of X, cut at RANK_CUTOFF * ``scale``, the
    largest eigenvalue of the operand X X* came from, so columns of X that are
    roundoff of that operand carry no rank."""
    left, sv, _ = np.linalg.svd(factor, full_matrices=False)
    k = rank_at_scale(sv**2, scale)
    return _with_spectrum(factor @ factor.conj().T, sv[:k] ** 2, left[:, :k])


def sqrt_psd(matrix) -> PsdMatrix:
    """Positive square root via the cached spectral form."""
    psd = _as_psd(matrix)
    V, root_w = psd.spectrum.eigenvectors, np.sqrt(psd.eigenvalues)
    return _with_spectrum((V * root_w) @ V.conj().T, root_w, V)


def pinv_psd(matrix) -> PsdMatrix:
    """Moore-Penrose pseudoinverse with eigenvalues below the rank cutoff zeroed."""
    psd = _as_psd(matrix)
    k, w = psd.rank(), psd.eigenvalues
    V, inverse_w = psd.spectrum.eigenvectors, np.zeros(w.size)
    inverse_w[:k] = 1.0 / w[:k]
    return _with_spectrum((V[:, :k] / w[:k]) @ V[:, :k].conj().T, inverse_w, V)


def range_projection(matrix) -> PsdMatrix:
    """Orthogonal projection onto the numerical range (eigenvalues above cutoff)."""
    psd = _as_psd(matrix)
    k = psd.rank()
    V, unit_w = psd.spectrum.eigenvectors, (np.arange(psd.eigenvalues.size) < k).astype(float)
    return _with_spectrum(V[:, :k] @ V[:, :k].conj().T, unit_w, V)


def _eigenvalues_above(array: np.ndarray, floor: float) -> bool:
    """True when a Cholesky factorization certifies that every eigenvalue of
    the Hermitian ``array`` exceeds ``floor``.  False is inconclusive, never a
    verdict: it is the answer to a failed factorization and to non-finite
    input, checked first because ``np.linalg.cholesky`` can return nan for it
    without raising.

    Matrix and floor are first divided by the power of two of the larger of
    the two.  The factor R of B = M - (floor + delta) I is then the exact
    factor of B + E with |E| <= gamma |R*| |R| entrywise, gamma = (n + 2) eps
    covering complex arithmetic and the rounding of the shift (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3), so
    |E|_2 <= gamma |R|_F^2 <= gamma trace(B) / (1 - gamma).  The allowance
    delta = 2 gamma sum_i |M_ii - floor|, at most 2 n (n + 2) eps
    |M - floor I|_2, exceeds that, so a factor that exists means
    lambda_min(M) - floor >= delta - |E|_2 > 0.
    """
    if not (math.isfinite(floor) and np.all(np.isfinite(array))):
        return False
    n = array.shape[0]
    unit = max(_unit(array), _unit(np.array([floor])))
    scaled, low = array / unit, floor / unit
    room = float(np.abs(np.diagonal(scaled) - low).sum())
    scaled[np.diag_indices(n)] -= low + 2 * (n + 2) * sys.float_info.epsilon * room
    try:
        np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return False
    return True


def _frobenius_bound(array: np.ndarray) -> float:
    """The Frobenius norm of ``array``, an upper bound on its largest singular
    value, enlarged by 2 n (n + 2) eps, n its longer side, the allowance of
    ``_eigenvalues_above``, so that it also bounds what a singular-value or
    eigenvalue solve reports.  Taken on the array divided by its power of
    two; nan unless every entry is finite."""
    if not np.all(np.isfinite(array)):
        return math.nan
    n, unit = max(array.shape, default=0), _unit(array)
    return float(np.linalg.norm(array / unit)) * (1.0 + 2 * n * (n + 2) * sys.float_info.epsilon) * unit


def loewner_leq(a, b) -> bool:
    """Decide a <= b in the Loewner order.

    True iff the smallest eigenvalue of b - a stays above -PSD_TOL * |b|, with
    |b| the largest |eigenvalue| of b (lambda_max(b) for PSD b): a band
    relative to b with no floor, so the comparison means the same at every
    scale.  An operand that is not a HermitianMatrix is checked like one, so
    a non-Hermitian or non-finite operand raises ValidationError.  A
    PsdMatrix b supplies its cached spectrum.  A b - a that is exactly zero
    has smallest eigenvalue exactly 0 and is decided without one; otherwise
    a shifted Cholesky factorization of b - a decides every clear pass, and
    its smallest eigenvalue is computed only when that is inconclusive.
    """
    arr_a, arr_b = (m.array if isinstance(m, HermitianMatrix) else _checked_hermitian(m) for m in (a, b))
    _require_same_dim(arr_a, arr_b)
    return _loewner_miss(arr_a, arr_b, b.eigenvalues if isinstance(b, PsdMatrix) else None) is None


def _loewner_miss(a: np.ndarray, b: np.ndarray, spectrum_b=None) -> "tuple[float, float] | None":
    """None when the smallest eigenvalue of b - a, for Hermitian arrays a and
    b, stays at or above the band -PSD_TOL |b|, with |b| the largest
    |eigenvalue| of b, read from ``spectrum_b`` when given; otherwise that
    smallest eigenvalue and the band, as measured.  An exactly zero b - a is
    decided first, with no spectrum of b; then a shifted Cholesky
    factorization of b - a decides every clear pass, and the eigenvalue is
    solved for only when that is inconclusive."""
    difference = b - a
    if not np.any(difference):
        return None
    spectrum_b = np.linalg.eigvalsh(b) if spectrum_b is None else spectrum_b
    band = -PSD_TOL * float(np.abs(spectrum_b).max(initial=0.0))
    if _eigenvalues_above(difference, band):
        return None
    low = float(np.linalg.eigvalsh(difference)[0])
    return None if low >= band else (low, band)


def trace(matrix) -> float:
    """Trace of a Hermitian matrix (real by construction)."""
    return float(np.trace(_as_array(matrix)).real)


def _singular_values(matrix) -> np.ndarray:
    """Singular values: the cached spectrum of a PsdMatrix, |eigenvalues| of a
    Hermitian matrix, an SVD otherwise."""
    if isinstance(matrix, PsdMatrix):
        return matrix.eigenvalues
    if isinstance(matrix, HermitianMatrix):
        return np.abs(np.linalg.eigvalsh(matrix.array))
    return np.linalg.svd(_as_array(matrix), compute_uv=False)


def trace_norm(matrix) -> float:
    """Sum of singular values; equals the trace for PSD input."""
    return float(_singular_values(matrix).sum())


def _hermitian_trace_norm(array: np.ndarray) -> float:
    """Trace norm of a computed Hermitian array, past the input gate; nan unless
    every entry is finite, and 0.0 without an eigensolve for an exact zero."""
    if not np.all(np.isfinite(array)):
        return math.nan
    return float(np.abs(np.linalg.eigvalsh(array)).sum()) if np.any(array) else 0.0


def _relative_trace_norm(array: np.ndarray, scale: float, limit: float) -> float:
    """``_hermitian_trace_norm(array) / scale``, or, when it already lies
    within ``limit``, the bound sqrt(n) |array|_F / scale on it: a clear pass
    needs no eigensolve, and a value past ``limit`` is always the measured one."""
    bound = math.sqrt(array.shape[0]) * _frobenius_bound(array) / scale
    return bound if bound <= limit else _hermitian_trace_norm(array) / scale


def op_norm(matrix) -> float:
    """Largest singular value."""
    return float(_singular_values(matrix).max(initial=0.0))


def hs_inner(a, b):
    """Hilbert-Schmidt pairing trace(b* a); conjugate-symmetric in (a, b), and
    real when its imaginary part is roundoff of the bound |a|_F |b|_F, which is
    compared in units of the two operands' powers of two so no norm overflows."""
    arr_a, arr_b = _as_array(a), _as_array(b)
    _require_same_dim(arr_a, arr_b)
    value = complex(np.vdot(arr_b, arr_a))
    unit_a, unit_b = _unit(arr_a), _unit(arr_b)
    bound = 1e-12 * np.linalg.norm(arr_a / unit_a) * np.linalg.norm(arr_b / unit_b)
    if abs(value.imag) / unit_a / unit_b <= bound:
        return value.real
    return value


def range_contained(a, b) -> bool:
    """Is range(a) contained in range(b) at RANK_CUTOFF?

    Each rank is taken at the operand's own scale.  Containment is
    measured by the largest principal-angle sine, op_norm((I - P_b) V_a) with
    V_a an orthonormal basis of range(a); genuine inclusions sit at roundoff
    level while violations are O(1), so the threshold sqrt(RANK_CUTOFF)
    separates them with orders of margin.  The Frobenius norm of the leak
    decides every clear inclusion; its largest singular value is computed
    only when that bound is inconclusive.
    """
    psd_a, psd_b = _as_psd(a), _as_psd(b)
    _require_same_dim(psd_a.array, psd_b.array)
    leak, threshold = _leak(psd_a, psd_b), math.sqrt(RANK_CUTOFF)
    return _frobenius_bound(leak) <= threshold or op_norm(leak) <= threshold


def _leak(a: PsdMatrix, b: PsdMatrix) -> np.ndarray:
    """(I - P_b) V_a, whose largest singular value is the largest
    principal-angle sine of range(a) against range(b), each rank at its
    operand's own scale; no columns for a = 0."""
    basis_a = a.spectrum.eigenvectors[:, :a.rank()]
    basis_b = b.spectrum.eigenvectors[:, :b.rank()]
    return basis_a - basis_b @ (basis_b.conj().T @ basis_a)


# --- JSON wire format -------------------------------------------------------
#
# {"dim": n, "real": [[...n x n...]], "imag": [[...]] (optional, default 0)}
# Row-major; ragged or non-square payloads are rejected.


def _grid(obj, name: str, dim: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ValidationError(f"'{name}' must be a list of {dim} rows")
    # the common case in one pass at C speed: square rows of plain floats and
    # ints; anything else is decided, and its message chosen, entry by entry
    if not (all(type(row) is list and len(row) == dim for row in obj)
            and set(map(type, itertools.chain.from_iterable(obj))) <= {float, int}):
        for row in obj:
            if not isinstance(row, list) or len(row) != dim:
                raise ValidationError(f"'{name}' must be a square {dim}x{dim} grid with no ragged rows")
            for value in row:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValidationError(f"'{name}' entries must be numbers")
    try:
        return np.array(obj, dtype=float)
    except OverflowError:  # an int no float64 can hold
        raise ValidationError(f"'{name}' entries must fit a float64") from None


def _array_from_json(obj) -> np.ndarray:
    """The array of the matrix wire format; shape and entries checked, symmetry not."""
    if not isinstance(obj, dict):
        raise ValidationError("matrix JSON must be an object")
    if "dim" not in obj or "real" not in obj:
        raise ValidationError("matrix JSON needs 'dim' and 'real' fields")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"'dim' must be a positive integer, got {dim!r}")
    # assigned, not multiplied by 1j, so an infinite entry stays inf, not nan
    array = _grid(obj["real"], "real", dim).astype(complex)
    if obj.get("imag") is not None:
        array.imag = _grid(obj["imag"], "imag", dim)
    return array


def hermitian_from_json(obj) -> HermitianMatrix:
    """Parse the matrix wire format into a validated HermitianMatrix."""
    return HermitianMatrix(_array_from_json(obj))


def psd_from_json(obj) -> PsdMatrix:
    """Parse the matrix wire format into a validated PsdMatrix, checked once."""
    return PsdMatrix(_array_from_json(obj))


def matrix_to_json(matrix) -> dict:
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in _matrix_grids(matrix).items()}


def _matrix_grids(matrix) -> dict:
    """``matrix_to_json`` with its grids left as float arrays (views of the
    matrix where it is complex), for a writer that lays them out row by row."""
    arr = _as_array(matrix)
    out = {"dim": int(arr.shape[0]), "real": arr.real}
    if np.any(arr.imag != 0.0):
        out["imag"] = arr.imag
    return out
