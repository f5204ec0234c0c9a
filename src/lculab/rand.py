"""Seeded generators for the random operators and states of `lemma2-sweep`."""

from __future__ import annotations

import numpy as np


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian_with_spectrum(
    rng: np.random.Generator, dim: int, lo: float, hi: float
) -> np.ndarray:
    """Random Hermitian matrix whose spectrum fills [lo, hi], endpoints attained."""
    if dim == 1:
        return np.array([[lo]], dtype=complex)
    w = np.sort(rng.uniform(lo, hi, size=dim))
    w[0], w[-1] = lo, hi
    v = random_unitary(rng, dim)
    return (v * w) @ v.conj().T


