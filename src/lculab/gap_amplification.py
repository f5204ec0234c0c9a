"""Gap amplification: the square-root Hamiltonian on an enlarged space.

Given H presented as a positive combination of projectors, couple each term to
one ancilla level so that the enlarged operator squares back to H on the
ancilla-0 sector. Eigenvalue gaps of size g in H become sqrt(g)-size gaps of
the enlarged operator, which is what makes short evolution times sufficient
downstream.

Each input has one projector presentation, of which the pipelines read only
the weights: Pauli text is parsed straight into projectors, and a matrix's
rank-1 split is read off its spectrum (`psd_split` builds it as a test oracle).

The pipelines never build the enlarged operator. Every combination they apply
is an even function of it, and on the ancilla-0 sector an even function of the
enlarged operator is the same function of sqrt(H), so they work on the
spectrum of H. The enlarged operator, its unitary expansion and its exact
evolutions are the reference those sector evaluations are tested against.
The gate cost of simulating the enlarged evolution is priced in `cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import DIMENSION_CAP, HermitianOperator, as_square_matrix, hermiticity_defect

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


@dataclass(frozen=True)
class UnitaryDecomposition:
    """Weighted sum of unitaries."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        checked = []
        for i, (alpha, u) in enumerate(self.terms):
            alpha = check_weight(i, alpha)
            m = as_square_matrix(u, self.dim)
            if unitarity_defect(m) > UNITARY_ATOL:
                raise ValidationError(f"term {i}: matrix is not unitary")
            m.flags.writeable = False
            checked.append((alpha, m))
        object.__setattr__(self, "terms", tuple(checked))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def weighted_sum(self) -> np.ndarray:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for alpha, u in self.terms:
            total += alpha * u
        return total


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


def psd_split(h: HermitianOperator | np.ndarray) -> ProjectorDecomposition:
    """Canonical rank-1 split of a PSD operator: eigenvectors as projectors, eigenvalues as weights.

    A `HermitianOperator` lends its cached eigensystem, so the caller that
    goes on to use it pays for one eigendecomposition; a matrix is wrapped in
    a new one.
    """
    if not isinstance(h, HermitianOperator):
        h = HermitianOperator(h)
    w, v = h.eigensystem
    require_psd(w)
    terms = []
    for i in split_indices(w):
        col = v[:, i : i + 1]
        terms.append((float(w[i]), col @ col.conj().T))
    return ProjectorDecomposition(dim=h.dim, terms=tuple(terms))


@dataclass(frozen=True)
class GapAmplifiedHamiltonian:
    """The enlarged operator sum_k B_k (x) (|k><0| + |0><k|) with B_k = sqrt(alpha_k) Pi_k.

    Indexing is system-major: basis index = system_index * ancilla_dim + ancilla_index.
    """

    system_dim: int
    ancilla_dim: int
    operator: HermitianOperator

    @property
    def dim(self) -> int:
        return self.system_dim * self.ancilla_dim

    def sector_indices(self) -> np.ndarray:
        return np.arange(self.system_dim) * self.ancilla_dim

    def embed_sector_state(self, phi: np.ndarray) -> np.ndarray:
        """Lift a system vector into the ancilla-0 sector of the enlarged space."""
        phi = np.asarray(phi, dtype=complex).reshape(-1)
        if phi.shape[0] != self.system_dim:
            raise ValidationError("system dimension mismatch")
        out = np.zeros(self.dim, dtype=complex)
        out[self.sector_indices()] = phi
        return out

    def sector_block(self, mat: np.ndarray) -> np.ndarray:
        idx = self.sector_indices()
        return mat[np.ix_(idx, idx)]


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


def assemble_gap_amplified(blocks: list[np.ndarray], system_dim: int) -> GapAmplifiedHamiltonian:
    """Couple each Hermitian block to its own ancilla level; block k contributes
    block (x) (|k><0| + |0><k|) for k = 1..len(blocks). The enlarged dimension
    is checked against the cap before the operator is allocated."""
    ancilla_dim = len(blocks) + 1
    dim = system_dim * ancilla_dim
    if dim > DIMENSION_CAP:
        raise ValidationError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    total = np.zeros((dim, dim), dtype=complex)
    for k, block in enumerate(blocks, start=1):
        total += np.kron(as_square_matrix(block, system_dim), ancilla_coupler(k, ancilla_dim))
    return GapAmplifiedHamiltonian(
        system_dim=system_dim,
        ancilla_dim=ancilla_dim,
        operator=HermitianOperator(total),
    )


def build_tilde_h(p: ProjectorDecomposition) -> GapAmplifiedHamiltonian:
    """Gap-amplify a projector decomposition: blocks sqrt(alpha_k) Pi_k, one ancilla level each."""
    blocks = [math.sqrt(alpha) * proj for alpha, proj in p.terms]
    return assemble_gap_amplified(blocks, p.dim)


def tilde_h_unitary_terms(p: ProjectorDecomposition) -> UnitaryDecomposition:
    """Decompose the enlarged operator of `build_tilde_h(p)` as a positive
    combination of 2K unitaries.

    Each projector contributes a pair of ancilla rotations
    exp(-+ i(pi/2)(|k><0| + |0><k|)) acting where the projector acts (identity on
    its complement), with the +-i phases folded into the unitaries so all
    weights stay positive at sqrt(alpha_k)/2 each. The weighted sum equals the
    enlarged operator exactly.
    """
    ancilla_dim = len(p.terms) + 1
    eye_sys = np.eye(p.dim)
    eye_anc = np.eye(ancilla_dim)
    terms: list[tuple[float, np.ndarray]] = []
    for k, (alpha, proj) in enumerate(p.terms, start=1):
        rot_minus, rot_plus = ancilla_rotations(k, ancilla_dim)
        comp = eye_sys - proj
        u_minus = 1j * (np.kron(proj, rot_minus) + np.kron(comp, eye_anc))
        u_plus = -1j * (np.kron(proj, rot_plus) + np.kron(comp, eye_anc))
        w = math.sqrt(alpha) / 2
        terms.append((w, u_minus))
        terms.append((w, u_plus))
    return UnitaryDecomposition(dim=p.dim * ancilla_dim, terms=tuple(terms))


def exact_evolution(g: GapAmplifiedHamiltonian, t: float) -> np.ndarray:
    """exp(-i t H~) through the cached eigendecomposition; exact up to roundoff."""
    if not math.isfinite(t):
        raise ValidationError("evolution time must be finite")
    w, v = g.operator.eigensystem
    return (v * np.exp(-1j * t * w)) @ v.conj().T

