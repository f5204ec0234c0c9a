"""Projector presentations of a PSD Hamiltonian and the ancilla side of its
gap amplification.

Each input has one presentation H = sum_k alpha_k Pi_k, of which the pipelines
read only the weights and the summed matrix. Pauli text is parsed into words
(bit masks), and H is summed from them by index arithmetic without building a
projector; a matrix's rank-1 split is read off its spectrum (`split_indices`).
The weight and PSD rules of every presentation are written once here.

Gap amplification couples term k to ancilla level k, so that the enlarged
operator sum_k sqrt(alpha_k) Pi_k (x) (|k><0| + |0><k|) squares back to H on
the ancilla-0 sector. The pipelines never build it: their combinations are
even in it, hence functions of sqrt(H) on that sector. What stays here are the
couplers, the rotation pair that expands a coupling into unitaries, and the
unitarity defect; `sparse_chain` bounds each of its unitary terms by the
rotation's defect and its factor's, level by level, without forming a term.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .operators import DIMENSION_CAP

UNITARY_ATOL = 1e-10


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def check_weight(index: int, alpha: float) -> float:
    """A term's weight as a float, rejected unless positive and finite."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError(f"term {index}: weight must be positive, got {alpha!r}")
    return float(alpha)


def parse_pauli_lines(text: str) -> tuple[np.ndarray, tuple[float, ...], float]:
    """Parse lines of "coeff PAULI_STRING" (e.g. "0.5 XZI") into the PSD matrix
    H = sum_k alpha_k Pi_k, its weights alpha_k and the discarded identity offset.

    Each nonzero line c P becomes weight 2|c| on the projector (sign(c) P + 1)/2,
    so that sum c_l P_l = H - offset with offset = sum(alpha_k)/2. A word is an
    x-mask, a z-mask and a Y count, with P|c> = i^{n_Y} (-1)^{|c & z|} |c ^ x>
    (Y sets both masks), so H is summed by index arithmetic in line order.
    """
    words = []
    n_qubits = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'coeff PAULI_STRING', got {raw!r}")
        try:
            coeff = float(parts[0])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: bad coefficient {parts[0]!r}") from exc
        word = parts[1].upper()
        if any(c not in "IXYZ" for c in word):
            raise ValidationError(f"line {lineno}: bad Pauli string {parts[1]!r}")
        if coeff == 0.0:
            continue
        if n_qubits is None:
            n_qubits = len(word)
        elif len(word) != n_qubits:
            raise ValidationError(f"line {lineno}: inconsistent qubit count")
        x = z = 0
        for c in word:
            x, z = 2 * x + (c in "XY"), 2 * z + (c in "YZ")
        words.append((coeff, x, z, word.count("Y")))
    if not words:
        raise ValidationError("no Pauli terms found")
    weights = tuple(check_weight(i, 2 * abs(coeff)) for i, (coeff, *_) in enumerate(words))
    dim = 1 << n_qubits
    if dim > DIMENSION_CAP:
        raise ValidationError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    cols = np.arange(dim)
    odd = np.zeros(dim, dtype=int)  # parity of each index's set bits
    for bit in range(n_qubits):
        odd ^= (cols >> bit) & 1
    matrix = np.zeros((dim, dim), dtype=complex)
    for alpha, (coeff, x, z, n_y) in zip(weights, words):
        sign = math.copysign(1.0, coeff) * (1.0 - 2.0 * odd[cols & z])
        if x == 0:
            matrix[cols, cols] += alpha * ((1 + sign) / 2)
        else:
            matrix[cols, cols] += alpha / 2
            matrix[cols ^ x, cols] += alpha / 2 * 1j**n_y * sign
    return matrix, weights, sum(weights) / 2


def require_psd(eigenvalues: np.ndarray) -> None:
    """Reject a spectrum whose lowest eigenvalue lies below -1e-10."""
    if float(eigenvalues.min()) < -1e-10:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {eigenvalues.min():.3e}")


def split_indices(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices of the eigenvalues that the rank-1 split keeps as terms, in ascending order."""
    return np.flatnonzero(eigenvalues > 1e-12)


def ancilla_coupler(k: int, ancilla_dim: int) -> np.ndarray:
    a = np.zeros((ancilla_dim, ancilla_dim))
    a[k, 0] = a[0, k] = 1.0
    return a


def ancilla_rotations(k: int, ancilla_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair exp(-+ i(pi/2)(|k><0| + |0><k|)) = (1 - support) -+ i coupler on the
    ancilla, where support is |0><0| + |k><k|."""
    coupler = ancilla_coupler(k, ancilla_dim)
    rest = np.eye(ancilla_dim, dtype=complex)
    rest[0, 0] = rest[k, k] = 0.0
    return rest - 1j * coupler, rest + 1j * coupler


