"""Both float64 routes to the regular part against a 40-digit reference.

The reference evaluates the kernel-projection formula sqrt(S) P_M sqrt(S),
M = ker((I - P_T) sqrt(S)), in mpmath at 40 significant digits.  The inputs
are Gram matrices of small Gaussian-integer factors, so the float64 matrices
are exact and their ranks are the ranks of the factors; the reference then
needs no rank decision finer than 1e-20, far inside the gap between its own
roundoff (about 1e-40) and the smallest genuine eigenvalue.
"""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oplebesgue import PsdMatrix, ac_part_closed, ac_part_iterative, decompose

GOLDEN = Path(__file__).parent / "data" / "golden"
DIGITS = 40
ZERO = mpmath.mpf(10) ** -20


def _to_mp(a):
    return mpmath.matrix([[mpmath.mpc(complex(v).real, complex(v).imag) for v in row] for row in a])


def _to_complex(m):
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def _spectral(a):
    """Real eigenvalues and eigenvector columns of a Hermitian mpmath matrix."""
    w, q = mpmath.eighe(a)
    return [w[i] for i in range(a.rows)], q


def _range_basis(w, q):
    top = max(abs(x) for x in w)
    keep = [i for i, x in enumerate(w) if top > 0 and x > ZERO * top]
    return [q[:, i] for i in keep]


def _projector(columns, n):
    out = mpmath.zeros(n, n)
    for c in columns:
        out += c * c.H
    return out


def reference_split(s, t):
    """(ac, sing) of the kernel-projection formula at 40 digits, as complex arrays."""
    with mpmath.workdps(DIGITS):
        n = len(s)
        s_mp, t_mp = _to_mp(s), _to_mp(t)
        w, q = _spectral(s_mp)
        root = mpmath.zeros(n, n)
        for i, x in enumerate(w):
            if x > 0:
                root += mpmath.sqrt(x) * (q[:, i] * q[:, i].H)
        leak = (mpmath.eye(n) - _projector(_range_basis(*_spectral(t_mp)), n)) * root
        # leak* leak has the scale of S: its kernel is cut relative to lambda_max(S)
        gw, gq = _spectral(leak.H * leak)
        kernel = [gq[:, i] for i, x in enumerate(gw) if x <= ZERO * max(w)]
        ac = root * _projector(kernel, n) * root
        return _to_complex(ac), _to_complex(s_mp - ac)


def _gaussian_integers(rng, rows, cols):
    return rng.integers(-4, 5, (rows, cols)) + 1j * rng.integers(-4, 5, (rows, cols))


def exact_pair(structure, dim, seed):
    """S and T as Gram matrices of Gaussian-integer factors, exact in float64."""
    rng = np.random.default_rng([seed, dim])
    rank_s, rank_t = {"singular": (dim // 2, dim // 2),
                      "generic": (dim - 1, dim - 1),
                      "full_rank_t": (dim // 2, dim)}[structure]
    a, b = _gaussian_integers(rng, dim, rank_s), _gaussian_integers(rng, dim, rank_t)
    return a @ a.conj().T, b @ b.conj().T


def relative_error(got, expected, size):
    return float(np.linalg.svd(got - expected, compute_uv=False).sum()) / size


CASES = [(structure, dim, seed)
         for structure in ("singular", "generic", "full_rank_t")
         for dim in (2, 4, 6)
         for seed in (0, 1)]


@pytest.mark.parametrize("structure, dim, seed", CASES)
def test_both_routes_against_the_reference(structure, dim, seed):
    s, t = exact_pair(structure, dim, seed)
    ref_ac, ref_sing = reference_split(s, t)
    size = float(np.trace(s).real)
    for alpha, beta in ((1.0, 1.0), (2.0**-40, 2.0**20), (1e-4, 1e-4), (1e4, 1.0), (1.0, 1e4)):
        s_psd, t_psd = PsdMatrix(alpha * s), PsdMatrix(beta * t)
        closed = ac_part_closed(s_psd, t_psd).array / alpha
        iterative = ac_part_iterative(s_psd, t_psd)[0].array / alpha
        dec = decompose(s_psd, t_psd)
        where = f"{structure} n={dim} seed={seed} at ({alpha:g}, {beta:g})"
        # the closed form is accurate to roundoff; the iteration stops within
        # conv_tol = 1e-9 of its limit
        assert relative_error(closed, ref_ac, size) <= 1e-13, where
        assert relative_error(iterative, ref_ac, size) <= 1e-9, where
        assert relative_error(dec.sing.array / alpha, ref_sing, size) <= 1e-13, where
        if structure == "singular":
            assert not np.any(closed), where
        if structure == "full_rank_t":
            assert not np.any(dec.sing.array), where


def test_decompose_golden_is_the_reference_to_the_bit():
    s = np.ones((2, 2))
    t = np.diag([1.0, 0.0])
    ref_ac, ref_sing = reference_split(s, t)
    golden = json.loads((GOLDEN / "decompose_ones.json").read_text())["decomposition"]
    assert np.array_equal(np.array(golden["ac"]["real"]), ref_ac.real)
    assert np.array_equal(np.array(golden["sing"]["real"]), ref_sing.real)
    assert golden["c"] == 0.0
