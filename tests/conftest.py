import importlib
import math

import numpy as np
import pytest

from oplebesgue import GeometricTail, L1Sequence, PsdMatrix


def make_rng(seed):
    return np.random.default_rng(seed)


def random_psd(rng, dim, rank=None, complex_entries=True):
    """Random PSD matrix with prescribed rank from a Gaussian factor."""
    r = rank if rank is not None else dim
    factor = rng.standard_normal((dim, r))
    if complex_entries:
        factor = factor + 1j * rng.standard_normal((dim, r))
    return PsdMatrix(factor @ factor.conj().T)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_sequence(rng, max_prefix=6):
    """Random L1Sequence mixing support gaps and optional geometric tails.

    Tail ratios stay >= 0.75 so that every value down to index 64 remains
    above the matrix engine's rank resolution; that is the shared ground on
    which the diagonal rules and the truncated matrix engine must agree.
    """
    n = int(rng.integers(0, max_prefix + 1))
    prefix = tuple(
        float(rng.uniform(0.1, 3.0)) if rng.random() > 0.3 else 0.0 for _ in range(n)
    )
    if rng.random() < 0.5:
        tail = GeometricTail(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.75, 0.95)))
    else:
        tail = None
    if not prefix and tail is None:
        tail = GeometricTail(1.0, 0.75)
    return L1Sequence(prefix, tail)


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _gram(factor):
    a = factor @ factor.conj().T / factor.shape[0]
    return (a + a.conj().T) / 2


def structured_pair(structure, dim, seed):
    """Complex PSD pair: independent ranges of 3/4 the dimension ("generic"),
    half-dimensional ranges at principal angles in [0.1, pi/2) ("singular"),
    or a half-rank S against a full-rank T ("full_rank_t")."""
    rng = np.random.default_rng([seed, dim])
    if structure == "generic":
        return _gram(_gaussian(rng, dim, 3 * dim // 4)), _gram(_gaussian(rng, dim, 3 * dim // 4))
    if structure == "full_rank_t":
        return _gram(_gaussian(rng, dim, dim // 2)), _gram(_gaussian(rng, dim, dim))
    rank = dim // 2
    q, _ = np.linalg.qr(_gaussian(rng, dim, dim))
    angles = rng.uniform(0.1, np.pi / 2, rank)
    range_s = q[:, :rank]
    range_t = range_s * np.cos(angles) + q[:, rank:2 * rank] * np.sin(angles)
    return (_gram(range_s @ _gaussian(rng, rank, 3 * rank // 2)),
            _gram(range_t @ _gaussian(rng, rank, 3 * rank // 2)))


GRADED_FLOORS = (1.5e-10, 3e-10, 1e-9)


def graded_panel(floor):
    """Six pairs of a random_psd S (n = 8, 32; three draws each) against a real
    full-rank T = Q diag(geomspace(1, floor, n)) Q^T, whose eigenvalues reach
    down to floor * lambda_max(T); one generator per floor."""
    rng = np.random.default_rng(0)
    pairs = []
    for dim in (8, 32):
        for _ in range(3):
            s = random_psd(rng, dim)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            pairs.append((s, PsdMatrix((q * np.geomspace(1.0, floor, dim)) @ q.T)))
    return pairs


@pytest.fixture
def rng():
    return make_rng(1234)


def screens_inconclusive(patch):
    """Make every certificate screen inconclusive through ``patch``, a
    MonkeyPatch, so that each certificate is decided by its exact eigenvalue
    or singular-value solve: the shifted Cholesky factorization, where
    psd_core and parallel_sum call it, and the Frobenius bound."""
    for name in ("psd_core", "parallel_sum"):
        patch.setattr(importlib.import_module(f"oplebesgue.{name}"), "_eigenvalues_above",
                      lambda array, floor: False)
    patch.setattr(importlib.import_module("oplebesgue.psd_core"), "_frobenius_bound",
                  lambda array: math.inf)


@pytest.fixture
def spectral_calls(monkeypatch):
    """The dense factorizations called through np.linalg from here on, by name
    and in call order: eigh, eigvalsh, svd and cholesky.  Build the inputs
    first, or clear() the list before the call it is to count."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    return calls
