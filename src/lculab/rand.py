"""Seeded generators for random operators and states used across tests and sweeps."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_psd(rng: np.random.Generator, dim: int, norm: float = 1.0) -> np.ndarray:
    """Random positive-semidefinite matrix rescaled to the requested spectral norm."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    top = float(np.linalg.eigvalsh(m).max())
    return m * (norm / top)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    if not 0 < rank <= dim:
        raise ValidationError(f"rank must be in 1..{dim}")
    v = random_unitary(rng, dim)[:, :rank]
    return v @ v.conj().T


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


def perturbed_unitary(rng: np.random.Generator, u: np.ndarray, magnitude: float) -> np.ndarray:
    """Unitary at spectral distance exactly `magnitude` from u (for magnitude <= 2)."""
    if magnitude <= 0:
        return u
    dim = u.shape[0]
    g = random_hermitian(rng, dim)
    w, v = np.linalg.eigh(g)
    top = float(np.max(np.abs(w)))
    if top == 0.0:
        return u
    w = w / top
    delta = 2 * np.arcsin(min(magnitude, 2.0) / 2)
    rot = (v * np.exp(-1j * delta * w)) @ v.conj().T
    return u @ rot
