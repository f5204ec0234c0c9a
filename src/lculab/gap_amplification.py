"""Projector presentations of a PSD Hamiltonian and the ancilla side of its
gap amplification.

Each input has one presentation H = sum_k alpha_k Pi_k, of which the pipelines
read only the weights: Pauli text is parsed straight into projectors, and a
matrix's rank-1 split is read off its spectrum (`split_indices`). The weight
and PSD rules of every presentation are written once here.

Gap amplification couples term k to ancilla level k, so that the enlarged
operator sum_k sqrt(alpha_k) Pi_k (x) (|k><0| + |0><k|) squares back to H on
the ancilla-0 sector. The pipelines never build it: their combinations are
even in it, hence functions of sqrt(H) on that sector. What stays here are the
couplers, the rotation pair that expands a coupling into unitaries, and the
unitarity check that `sparse_chain` runs on each term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import as_square_matrix, hermiticity_defect

PROJECTOR_ATOL = 1e-10
UNITARY_ATOL = 1e-10

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def check_weight(index: int, alpha: float) -> float:
    """A term's weight as a float, rejected unless positive and finite."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError(f"term {index}: weight must be positive, got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class ProjectorDecomposition:
    """Positive weights alpha_k attached to orthogonal projectors, summing to a PSD operator."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        checked = []
        for i, (alpha, proj) in enumerate(self.terms):
            alpha = check_weight(i, alpha)
            p = as_square_matrix(proj, self.dim)
            if hermiticity_defect(p) > PROJECTOR_ATOL:
                raise ValidationError(f"term {i}: projector is not Hermitian")
            if np.max(np.abs(p @ p - p)) > PROJECTOR_ATOL:
                raise ValidationError(f"term {i}: matrix is not idempotent")
            p = (p + p.conj().T) / 2
            p.flags.writeable = False
            checked.append((alpha, p))
        object.__setattr__(self, "terms", tuple(checked))

    def sum_matrix(self) -> np.ndarray:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for alpha, proj in self.terms:
            total += alpha * proj
        return total

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(alpha for alpha, _ in self.terms)


def parse_pauli_lines(text: str) -> tuple[ProjectorDecomposition, float]:
    """Parse lines of "coeff PAULI_STRING" (e.g. "0.5 XZI") into a projector decomposition.

    Each nonzero line c P becomes weight 2|c| on the projector
    (sign(c) P + 1)/2. Returns the decomposition together with the discarded
    identity offset sum(alpha_k)/2, so that sum c_l P_l = sum alpha_k Pi_k - offset.
    `ProjectorDecomposition` checks each projector once: it is Hermitian and
    idempotent exactly when sign(c) P is a Hermitian involution.
    """
    terms = []
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
        if any(c not in _PAULI for c in word):
            raise ValidationError(f"line {lineno}: bad Pauli string {parts[1]!r}")
        if coeff == 0.0:
            continue
        if n_qubits is None:
            n_qubits = len(word)
        elif len(word) != n_qubits:
            raise ValidationError(f"line {lineno}: inconsistent qubit count")
        mat = np.array([[1.0 + 0j]])
        for c in word:
            mat = np.kron(mat, _PAULI[c])
        proj = (math.copysign(1.0, coeff) * mat + np.eye(mat.shape[0])) / 2
        terms.append((2 * abs(coeff), proj))
    if not terms:
        raise ValidationError("no Pauli terms found")
    offset = sum(alpha for alpha, _ in terms) / 2
    return ProjectorDecomposition(dim=2**n_qubits, terms=tuple(terms)), offset


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


