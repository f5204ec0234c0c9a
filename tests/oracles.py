"""Reference code the tests check the package against.

The pipelines evaluate their certified filters on the spectrum of H and never
build the enlarged space or a projector. Everything that does lives here: the
dense projector decomposition and the Kronecker-product parse of Pauli text,
the density matrix (which holds a prepared thermal state to a unit trace and
a nonnegative spectrum) and the dense trace distance, the gap-amplified
operator, its unitary expansion and exact evolutions, the weighted-unitary
and evolution-family LCUs with the exact dilation, the dense sparse-chain
assembly, the eigenvector-based chain validation, the walk Hamiltonian H_U
cut from the full discriminant and checked against two other constructions,
the hitting time through H_U^{-1} (the closed form the package's resolvent is
checked against), the exact M-point outcome distribution of amplitude
estimation (the reference for the sampler's walk), the y-series at 30 or 40
digits and a thermal run's fields at 40, and the random operators and chain
families the tests draw from. Each object is small, dense and exact, and
nothing in `lculab` imports it. The JSON Schemas of the CLI configs live here
too: the CLI's field readers are held to the verdicts of these schemas and
the typing that followed them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import jsonschema
import mpmath
import numpy as np

from lculab.cli import _COST_MODELS
from lculab.errors import ValidationError
from lculab.gap_amplification import check_weight, require_psd, split_indices
from lculab.gibbs import HsGrid
from lculab.inverse import InverseGrid, calibrate_inverse_grid
from lculab.lcu import gaussian_cosine_series, gaussian_weight_sum, gaussian_weights
from lculab.markov import (
    COLUMN_SUM_ATOL,
    DETAILED_BALANCE_ATOL,
    EIGENVALUE_FLOOR,
    MarkedPartition,
    MarkovChain,
    discriminant_matrix,
    validate_chain,
)
from lculab.operators import (
    DIMENSION_CAP,
    HERMITICITY_ATOL,
    HermitianOperator,
    as_square_matrix,
    symmetrize,
)
from lculab.rand import random_unitary
from lculab import markov, sparse_chain

STATE_NORM_ATOL = 1e-12
DENSITY_ATOL = 1e-12
# The 6-qubit open transverse-field Ising chain the `gibbs-tfim` benchmark
# workload draws at seed 501.
BENCH_TFIM_6 = (
    "-1.0 ZZIIII\n-1.0 IZZIII\n-1.0 IIZZII\n-1.0 IIIZZI\n-1.0 IIIIZZ\n"
    "-0.6599899729332885 XIIIII\n-0.9200957879425051 IXIIII\n-0.909532777346238 IIXIII\n"
    "-0.8470933994985628 IIIXII\n-0.94749726079068 IIIIXI\n-0.8027418202173167 IIIIIX\n"
)
_DILATION_TERM_CAP = 1024
_DILATION_SIZE_CAP = 1 << 18
# Arguments per cosine-series call of `EvolutionLcu.filter_values`.
_FILTER_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Random operators, states, densities and the matrix JSON writer.

def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_psd(rng: np.random.Generator, dim: int, norm: float = 1.0) -> np.ndarray:
    """Random positive-semidefinite matrix rescaled to the requested spectral norm."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    top = float(np.linalg.eigvalsh(m).max())
    return m * (norm / top)


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    if not 0 < rank <= dim:
        raise ValidationError(f"rank must be in 1..{dim}")
    v = random_unitary(rng, dim)[:, :rank]
    return v @ v.conj().T


def perturbed_unitary(rng: np.random.Generator, u: np.ndarray, magnitude: float) -> np.ndarray:
    """Unitary at spectral distance exactly `magnitude` from u (for 0 < magnitude <= 2)."""
    dim = u.shape[0]
    g = random_hermitian(rng, dim)
    w, v = np.linalg.eigh(g)
    w = w / float(np.max(np.abs(w)))
    delta = 2 * np.arcsin(min(magnitude, 2.0) / 2)
    rot = (v * np.exp(-1j * delta * w)) @ v.conj().T
    return u @ rot


@dataclass(frozen=True)
class StateVector:
    """A unit-norm complex vector. Unnormalized data travels as raw arrays."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if a.size == 0:
            raise ValidationError("empty state vector")
        if not np.all(np.isfinite(a)):
            raise ValidationError("state has non-finite amplitudes")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > STATE_NORM_ATOL:
            raise ValidationError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_ATOL:g}")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Held as one frozen copy of the input, float64 or complex128 by the rule of
    `as_square_matrix`, and symmetrized in place like `HermitianOperator`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_square_matrix(self.matrix)
        if symmetrize(a) > HERMITICITY_ATOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = float(np.trace(a).real)
        if abs(tr - 1.0) > DENSITY_ATOL * max(1, a.shape[0]):
            raise ValidationError(f"density matrix trace {tr!r} deviates from 1")
        w = np.linalg.eigvalsh(a)
        if float(w.min()) < -DENSITY_ATOL:
            raise ValidationError(f"density matrix has negative eigenvalue {w.min():.3e}")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def spectral_projector(h: HermitianOperator, eigenvalue: float, atol: float = 1e-8) -> np.ndarray:
    """Orthogonal projector onto the eigenspace of the eigenvalues within atol."""
    w, v = h.eigensystem
    cols = v[:, np.abs(w - eigenvalue) <= atol]
    if cols.shape[1] == 0:
        raise ValidationError(f"no eigenvalue within {atol:g} of {eigenvalue}")
    return cols @ cols.conj().T


def pure_density(state: StateVector) -> DensityMatrix:
    a = state.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def reduced_density(vector: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Partial trace of a pure bipartite state over the discarded factor.

    `vector` has length dims[0]*dims[1] with the first factor major; keep is
    0 or 1 for which subsystem survives.
    """
    d0, d1 = dims
    psi = np.asarray(vector, dtype=complex).reshape(d0, d1)
    if keep == 0:
        return psi @ psi.conj().T
    if keep == 1:
        return psi.T @ psi.conj()
    raise ValidationError("keep must be 0 or 1")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b; lies in [0, 1]."""
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    value = 0.5 * float(np.sum(np.abs(w)))
    return min(max(value, 0.0), 1.0)


def matrix_to_json(a: np.ndarray) -> dict:
    """The {"dim", "re", "im"} form `operators.matrix_from_json` reads back exactly."""
    a = as_square_matrix(a)
    return {
        "dim": int(a.shape[0]),
        "re": [float(x) for x in a.real.reshape(-1)],
        "im": [float(x) for x in a.imag.reshape(-1)],
    }


def _of_dim(values, dim: int) -> np.ndarray:
    """`as_square_matrix` of a matrix that must be dim x dim."""
    a = as_square_matrix(values)
    if a.shape[0] != dim:
        raise ValidationError(f"expected dimension {dim}, got {a.shape[0]}")
    return a


# ---------------------------------------------------------------------------
# Dense projector presentations and the Kronecker-product parse of Pauli text.

PROJECTOR_ATOL = 1e-10

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class ProjectorDecomposition:
    """Positive weights alpha_k attached to orthogonal projectors, summing to a PSD operator."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        checked = []
        for i, (alpha, proj) in enumerate(self.terms):
            alpha = check_weight(i, alpha)
            p = _of_dim(proj, self.dim)
            idempotence_defect = np.max(np.abs(p @ p - p))
            if symmetrize(p) > PROJECTOR_ATOL:
                raise ValidationError(f"term {i}: projector is not Hermitian")
            if idempotence_defect > PROJECTOR_ATOL:
                raise ValidationError(f"term {i}: matrix is not idempotent")
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


def pauli_projectors(text: str) -> tuple[ProjectorDecomposition, float]:
    """Parse lines of "coeff PAULI_STRING" into dense projectors, one Kronecker
    product per line: the reference `gap_amplification.parse_pauli_lines` is
    checked against.

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


# ---------------------------------------------------------------------------
# The enlarged space: the gap-amplified operator, its unitary expansion and
# exact evolutions.

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


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


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


# The signs of the four unitaries sign * (F_t (x) R_t) of a level of the sparse
# construction (see `sparse_chain.Level`), on a color level and on the boundary.
COLOR_SIGNS = (1, -1, -1, 1)
BOUNDARY_SIGNS = (1j, -1j, 1j, -1j)


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
        total += np.kron(_of_dim(block, system_dim), ancilla_coupler(k, ancilla_dim))
    return GapAmplifiedHamiltonian(
        system_dim=system_dim,
        ancilla_dim=ancilla_dim,
        operator=HermitianOperator(total),
    )


def build_tilde_h(p: ProjectorDecomposition) -> GapAmplifiedHamiltonian:
    """Gap-amplify a projector decomposition: blocks sqrt(alpha_k) Pi_k, one ancilla level each."""
    blocks = [math.sqrt(alpha) * proj for alpha, proj in p.terms]
    return assemble_gap_amplified(blocks, p.dim)


def tilde_h_unitary_terms(p: ProjectorDecomposition) -> LcuOperator:
    """Decompose the enlarged operator of `build_tilde_h(p)` as a positive
    combination of 2K unitaries.

    Each projector contributes a pair of ancilla rotations
    exp(-+ i(pi/2)(|k><0| + |0><k|)) acting where the projector acts (identity on
    its complement), with the +-i phases folded into the unitaries so all
    weights stay positive at sqrt(alpha_k)/2 each. The weighted sum equals the
    enlarged operator exactly.
    """
    ancilla_dim = len(p.terms) + 1
    terms: list[tuple[float, np.ndarray]] = []
    for k, (alpha, proj) in enumerate(p.terms, start=1):
        rest = np.kron(np.eye(p.dim) - proj, np.eye(ancilla_dim))
        for phase, rotation in zip((1j, -1j), ancilla_rotations(k, ancilla_dim)):
            terms.append((math.sqrt(alpha) / 2, phase * (np.kron(proj, rotation) + rest)))
    return LcuOperator(dim=p.dim * ancilla_dim, terms=tuple(terms))


def exact_evolution(g: GapAmplifiedHamiltonian, t: float) -> np.ndarray:
    """exp(-i t H~) through the cached eigendecomposition; exact up to roundoff."""
    if not math.isfinite(t):
        raise ValidationError("evolution time must be finite")
    w, v = g.operator.eigensystem
    return (v * np.exp(-1j * t * w)) @ v.conj().T


# ---------------------------------------------------------------------------
# Linear combinations of unitaries on the enlarged space, and the dilation.

@dataclass(frozen=True)
class LcuOperator:
    """sum_l gamma_l V_l over explicit unitary matrices V_l with positive finite
    weights gamma_l; gamma_total is the weight sum."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("an LCU needs at least one term")
        checked = []
        for i, (gamma, u) in enumerate(self.terms):
            gamma = check_weight(i, gamma)
            m = _of_dim(u, self.dim)
            if unitarity_defect(m) > sparse_chain.ATOL:
                raise ValidationError(f"term {i}: matrix is not unitary")
            m.flags.writeable = False
            checked.append((gamma, m))
        object.__setattr__(self, "terms", tuple(checked))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def gamma_total(self) -> float:
        return sum(gamma for gamma, _ in self.terms)

    def iter_terms(self) -> Iterator[tuple[float, np.ndarray]]:
        return iter(self.terms)

    def weighted_sum(self) -> np.ndarray:
        return sum(gamma * u for gamma, u in self.terms)

    def apply_sum(self, x: np.ndarray) -> np.ndarray:
        """sum_l gamma_l V_l x for a vector or a matrix of column vectors."""
        return self.weighted_sum() @ np.asarray(x, dtype=complex)


@dataclass(frozen=True)
class EvolutionLcu:
    """LCU whose unitaries are exp(-i y_j s_b H~) over a symmetric Gaussian grid.

    Term (b, j) has weight scale_weights[b] * w_j and time y_j * scales[b].
    Because the grid is symmetric in j, the summed operator is the real even
    filter F(H~) with F(E) = sum_b scale_weights[b] * S_b(E), where S_b is the
    Gaussian cosine series at argument scales[b] * E. Acting on a state
    evaluates F on the eigenvalues of H~; `iter_terms` materializes the terms.
    """

    hamiltonian: GapAmplifiedHamiltonian
    delta_y: float
    j_max: int
    scales: np.ndarray
    scale_weights: np.ndarray

    def __post_init__(self):
        scales = np.array(self.scales, dtype=float).reshape(-1)
        weights = np.array([check_weight(i, w) for i, w in enumerate(np.ravel(self.scale_weights))])
        if scales.shape != weights.shape or scales.size == 0:
            raise ValidationError("scales and scale_weights must be matching nonempty arrays")
        if not (self.delta_y > 0 and self.j_max >= 0):
            raise ValidationError("need delta_y > 0 and j_max >= 0")
        scales.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "scale_weights", weights)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def n_terms(self) -> int:
        return len(self.scales) * (2 * self.j_max + 1)

    @property
    def gamma_total(self) -> float:
        return float(self.scale_weights.sum()) * gaussian_weight_sum(self.delta_y, self.j_max)

    def filter_values(self, eigenvalues: np.ndarray) -> np.ndarray:
        """F(E) on an array of eigenvalues, chunked over the scale blocks."""
        eigs = np.asarray(eigenvalues, dtype=float).reshape(-1)
        out = np.zeros_like(eigs)
        block = max(1, _FILTER_CHUNK // max(1, eigs.size))
        for start in range(0, len(self.scales), block):
            s = self.scales[start : start + block]
            b = self.scale_weights[start : start + block]
            a = np.outer(s, eigs)
            out += b @ gaussian_cosine_series(a, self.delta_y, self.j_max)
        return out

    @cached_property
    def _own_filter(self) -> np.ndarray:
        """F on the spectrum of H~. Its zero modes (|E| <= 1e-9, as
        `_check_spectrum` counts them) share F(0), evaluated once: F is even,
        so F(E) - F(0) = O(E^2), far below the roundoff of F. H~ couples
        ancilla level 0 only to the other levels, so its live spectrum is
        symmetric about 0: F is evaluated on the positive eigenvalues, in
        ascending order, and mirrored onto the negative ones, in descending
        order, which moves it at roundoff only."""
        w, _ = self.hamiltonian.operator.eigensystem
        pos, neg = w > 1e-9, w < -1e-9
        if pos.sum() != neg.sum():
            raise ValidationError(
                f"H~ has {pos.sum()} positive and {neg.sum()} negative live eigenvalues"
            )
        f = np.full(w.shape, self.filter_values(np.zeros(1))[0])
        f[pos] = self.filter_values(w[pos])
        f[neg] = f[pos][::-1]
        return f

    def apply_sum(self, x: np.ndarray) -> np.ndarray:
        _, v = self.hamiltonian.operator.eigensystem
        return (v * self._own_filter) @ (v.conj().T @ np.asarray(x, dtype=complex))

    def iter_terms(self) -> Iterator[tuple[float, np.ndarray]]:
        """Materialize terms one at a time, block-major then j = -J..J."""
        node_w = gaussian_weights(self.delta_y, self.j_max)
        for s, b in zip(self.scales, self.scale_weights):
            for j in range(-self.j_max, self.j_max + 1):
                t = j * self.delta_y * s
                yield float(b * node_w[abs(j)]), exact_evolution(self.hamiltonian, t)

    def to_dense(self) -> LcuOperator:
        _check_materializable(self)
        return LcuOperator(dim=self.dim, terms=tuple(self.iter_terms()))


def _check_materializable(x: LcuOperator | EvolutionLcu) -> None:
    """Refuse to materialize more terms, or term columns, than a small test can hold."""
    if x.n_terms > _DILATION_TERM_CAP or x.n_terms * x.dim > _DILATION_SIZE_CAP:
        raise ValidationError(
            f"dilation with {x.n_terms} terms on dimension {x.dim} exceeds the materialization cap"
        )


def b_state(weights) -> StateVector:
    """Coefficient state with amplitudes sqrt(gamma_l / gamma)."""
    w = np.array([check_weight(i, gamma) for i, gamma in enumerate(np.ravel(weights))])
    if w.size == 0:
        raise ValidationError("empty weight list")
    return StateVector(np.sqrt(w / w.sum()).astype(complex))


def coefficient_unitary(weights) -> np.ndarray:
    """Real unitary whose first column is the coefficient state (a Householder reflection)."""
    b = b_state(weights).amplitudes.real
    eye = np.eye(b.shape[0])
    v = eye[0] - b
    vv = float(v @ v)
    if vv < 1e-28:
        return eye
    return eye - 2.0 * np.outer(v, v) / vv


def extended_lcu_state(x: LcuOperator | EvolutionLcu, phi: StateVector) -> StateVector:
    """The exact dilated state (B^dagger (x) 1) SELECT (B (x) 1) |phi>|0>.

    System-major layout of dimension dim * L. The ancilla-0 block equals
    (X/gamma)|phi>, so its norm is the LCU success amplitude. Only sensible for
    small term counts, so grid-family LCUs must be coarse enough to materialize.
    """
    if phi.dim != x.dim:
        raise ValidationError(f"dimension mismatch: operator {x.dim}, state {phi.dim}")
    _check_materializable(x)
    gammas, columns = zip(*((gamma, u @ phi.amplitudes) for gamma, u in x.iter_terms()))
    b = coefficient_unitary(gammas)
    # After B: psi[i, l] = phi_i b_l; SELECT applies V_l per ancilla column.
    psi = np.column_stack(columns) * b[:, 0]
    psi = psi @ b.conj()
    return StateVector(psi.reshape(-1))


def ancilla_zero_block(state: StateVector, system_dim: int, n_terms: int) -> np.ndarray:
    """Extract the ancilla-0 system block from a dilated state (system-major layout)."""
    psi = state.amplitudes.reshape(system_dim, n_terms)
    return np.array(psi[:, 0])


def hs_lcu(grid: HsGrid, g: GapAmplifiedHamiltonian) -> EvolutionLcu:
    """The combination sum_j w_j exp(-i y_j sqrt(beta) H~) as a structured LCU."""
    return EvolutionLcu(
        hamiltonian=g,
        delta_y=grid.delta_y,
        j_max=grid.j_max,
        scales=np.array([math.sqrt(grid.beta)]),
        scale_weights=np.array([1.0]),
    )


def maximally_entangled_state(n_qubits: int) -> StateVector:
    """(1/sqrt(N)) sum_s |s>|s> on n_qubits + n_qubits, N = 2^n."""
    if n_qubits < 1:
        raise ValidationError("need at least one qubit")
    n = 2**n_qubits
    vec = np.zeros(n * n, dtype=complex)
    vec[np.arange(n) * n + np.arange(n)] = 1.0 / math.sqrt(n)
    return StateVector(vec)


def all_kernel_hs_grid(norm_bound: float, beta: float, epsilon_prime: float) -> HsGrid:
    """`calibrate_hs_grid` with every verdict and every halve-or-grow choice
    taken on the kernel's error over the 64 samples, and no closed-form bound."""
    log_inv = math.log(1.0 / epsilon_prime)
    delta_y = 1.0 / math.sqrt(norm_bound * max(beta, 4.0 / norm_bound) * log_inv)
    y_max = math.sqrt(log_inv)
    samples = _hs_samples(norm_bound)
    target = 0.9 * epsilon_prime / 2

    def error(dy: float, ym: float) -> float:
        kernel = _hs_trial(dy, ym, beta).kernel(samples)
        return float(np.max(np.abs(np.exp(-beta * samples / 2) - kernel)))

    err = error(delta_y, y_max)
    for _ in range(20):
        if err <= target:
            return _hs_trial(delta_y, y_max, beta)
        err_half, err_grow = error(delta_y / 2, y_max), error(delta_y, 1.5 * y_max)
        if err_half <= err_grow:
            delta_y, err = delta_y / 2, err_half
        else:
            y_max, err = 1.5 * y_max, err_grow
    raise AssertionError("reference calibration did not converge")


def y_series_reference(points, delta_y: float, j_max: int, digits: int = 30) -> list:
    """The y-series w_0 + 2 sum_{j=1..J} w_j cos(j delta_y a) at each point a,
    with exact Gaussian weights w_j = delta_y exp(-(j delta_y)^2/2)/sqrt(2 pi),
    as mpmath numbers at `digits` digits. `gaussian_cosine_series` and
    `GaussianCosineTable` compute this sum in float64; a point may be a float
    or an mpmath number."""
    with mpmath.workdps(digits):
        dy = mpmath.mpf(delta_y)
        y = [j * dy for j in range(1, j_max + 1)]
        w = [mpmath.exp(-yj * yj / 2) for yj in y]
        scale = dy / mpmath.sqrt(2 * mpmath.pi)
        return [
            (1 + 2 * mpmath.fsum(wj * mpmath.cos(yj * mpmath.mpf(a)) for wj, yj in zip(w, y))) * scale
            for a in points
        ]


def thermal_reference(energies, beta: float, grid: HsGrid) -> tuple:
    """(trace_dist, success_amp) of a thermal run at 40 digits, as mpmath numbers,
    from the eigenvalues E_i of H (the run's float64 ones, or mpmath numbers)
    and the run's grid. The filter is f_i = S(sqrt(beta max(E_i, 0))), the
    y-series of `y_series_reference`; the trace distance is half the l1
    distance between f^2/sum f^2 and exp(-beta E)/Z, and the amplitude is
    ||f||_2/(sqrt(N) S(0)), capped at 1, with S(0) the grid's weight sum."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        e = [mpmath.mpf(x) for x in energies]
        args = [mpmath.sqrt(b * max(x, 0)) for x in e] + [0]
        *f, weight_sum = y_series_reference(args, grid.delta_y, grid.j_max, digits=40)
        prepared = [v * v for v in f]
        exact = [mpmath.exp(-b * x) for x in e]
        p_sum, q_sum = mpmath.fsum(prepared), mpmath.fsum(exact)
        dist = mpmath.fsum(abs(p / p_sum - q / q_sum) for p, q in zip(prepared, exact)) / 2
        return dist, min(mpmath.sqrt(p_sum / len(e)) / weight_sum, 1)


def _hs_trial(delta_y: float, y_max: float, beta: float) -> HsGrid:
    return HsGrid(j_max=max(1, math.ceil(y_max / delta_y)), delta_y=delta_y, beta=beta)


def _hs_samples(norm_bound: float) -> np.ndarray:
    """The 64 calibration samples of [0, norm]: 32 even, 32 geometric from norm/10^4."""
    lin = np.linspace(0.0, norm_bound, 32)
    geo = np.geomspace(max(norm_bound * 1e-4, 1e-12), norm_bound, 32)
    return np.concatenate([lin, geo])


def _check_spectrum(grid: InverseGrid, eigs: np.ndarray) -> None:
    """Raise unless every eigenvalue above 1e-9 in size lies in [delta_lower, 1];
    zero modes of the enlarged operator pass as spectators."""
    live = eigs[np.abs(eigs) > 1e-9]
    if live.size and (
        float(live.min()) < grid.delta_lower - 1e-9 or float(live.max()) > 1.0 + 1e-9
    ):
        raise ValidationError(
            f"sector spectrum [{live.min():.4g}, {live.max():.4g}] leaves "
            f"[{grid.delta_lower:.4g}, 1]; zero modes are allowed only as spectators"
        )


def inverse_lcu(grid: InverseGrid, g: GapAmplifiedHamiltonian) -> EvolutionLcu:
    """The double-grid combination as a structured LCU over evolutions of H~.

    Uses exp(-i y_j sqrt(2 z_k) H~), the time scale under which the Gaussian
    identity reproduces exp(-z_k x) exactly on the sector. The spectrum guard
    reads H's nonzero eigenvalues as those of H~^2, on H~'s own eigensystem.
    """
    _check_spectrum(grid, g.operator.eigensystem[0] ** 2)
    return EvolutionLcu(
        hamiltonian=g,
        delta_y=grid.delta_y,
        j_max=grid.j_max,
        scales=np.sqrt(2.0 * grid.z_nodes),
        scale_weights=np.full(grid.k_max + 1, grid.delta_z),
    )


def exponential_grid_error(delta_z: float, k_max: int, x: float) -> float:
    """|1/x - delta_z sum_k exp(-k delta_z x)| for the z-grid alone (j-grid exact)."""
    k = np.arange(k_max + 1)
    return abs(1.0 / x - delta_z * float(np.exp(-k * delta_z * x).sum()))


# ---------------------------------------------------------------------------
# Chain validation through the eigenvector of eigenvalue 1.

def _support_connected(adj: np.ndarray) -> bool:
    """True when the (symmetric) support graph is connected."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in np.nonzero(adj[v])[0]:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return bool(seen.all())


def _is_bipartite(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    color = np.full(n, -1, dtype=int)
    color[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for u in np.nonzero(adj[v])[0]:
            if u == v:
                return False
            if color[u] == -1:
                color[u] = 1 - color[v]
                stack.append(int(u))
            elif color[u] == color[v]:
                return False
    return True


def eig_validate_chain(p) -> MarkovChain:
    """The dense validation `markov.validate_chain` replaced, as its reference.

    pi is the eigenvector of eigenvalue 1 from a nonsymmetric `np.linalg.eig`
    of P; connectivity and bipartiteness are scans of the dense support, and
    detailed balance is checked on the whole N x N flow matrix. Checks, in
    order: shape and nonnegativity, column sums, connectivity of the support,
    the fixed point, detailed balance, a symmetric support, aperiodicity and
    the spectrum.
    """
    mat = np.array(p, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise ValidationError("need at least two states")
    if not np.all(np.isfinite(mat)) or np.any(mat < 0):
        raise ValidationError("transition probabilities must be finite and nonnegative")
    if np.max(np.abs(mat.sum(axis=0) - 1.0)) > COLUMN_SUM_ATOL:
        raise ValidationError("columns must sum to 1 (column-stochastic convention)")

    support = mat > 0
    if not _support_connected(support | support.T):
        raise ValidationError("chain is reducible (support graph not connected)")

    w, vecs = np.linalg.eig(mat)
    idx = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[idx] - 1.0) > 1e-9:
        raise ValidationError("no eigenvalue 1: not a stochastic fixed point")
    pi = np.real(vecs[:, idx])
    pi = pi / pi.sum()
    if np.any(pi <= 0):
        raise ValidationError("stationary vector is not strictly positive")
    if np.max(np.abs(mat @ pi - pi)) > 1e-9:
        raise ValidationError("fixed-point residual too large")

    balance = mat * pi[None, :]
    if np.max(np.abs(balance - balance.T)) > DETAILED_BALANCE_ATOL:
        raise ValidationError("detailed balance fails: chain is not reversible")
    if not np.array_equal(support, support.T):
        raise ValidationError("support is not symmetric")

    if not np.any(np.diag(mat) > 0) and _is_bipartite(support):
        raise ValidationError("chain is periodic (bipartite support, no self-loops)")

    eigs = np.linalg.eigvalsh(discriminant_matrix(mat))
    if float(eigs.min()) < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"spectrum has negative eigenvalue {eigs.min():.3e}; lazify the chain first"
        )
    return MarkovChain(transition=mat, stationary=pi, edges=np.argwhere(mat.T))


# ---------------------------------------------------------------------------
# Chain families, the chain JSON writer and survival probabilities.

def lazify(p) -> np.ndarray:
    """(P + 1)/2: shifts the spectrum into [0, 1] while keeping the fixed point."""
    mat = np.asarray(p, dtype=float)
    return (mat + np.eye(mat.shape[0])) / 2


def symmetric_two_state() -> MarkovChain:
    return validate_chain(np.full((2, 2), 0.5))


def validate_chain_any_spectrum(p) -> MarkovChain:
    """`markov.validate_chain` with every spectrum accepted, for the classical
    formulas on chains with negative eigenvalues (a state with no self-loop
    whose neighbors all lie outside its block forces one). pi is the one the
    library's spanning tree gives, bit for bit."""
    floor = markov.EIGENVALUE_FLOOR
    markov.EIGENVALUE_FLOOR = -math.inf
    try:
        return validate_chain(p)
    finally:
        markov.EIGENVALUE_FLOOR = floor


def random_reversible_chain(rng: np.random.Generator, n: int, **kwargs) -> MarkovChain:
    return validate_chain(random_reversible_matrix(rng, n, **kwargs))


def random_reversible_matrix(
    rng: np.random.Generator,
    n: int,
    extra_edges: int | None = None,
    laziness: float = 0.5,
    max_degree: int | None = None,
) -> np.ndarray:
    """Transition matrix of a random walk on a random connected weighted graph,
    lazified into validity.

    Symmetric edge weights give detailed balance with pi proportional to the
    weighted degree; the laziness shift keeps the spectrum nonnegative. The
    transition matrix itself is generally not symmetric (degrees differ).
    An optional per-node degree cap bounds the sparsity at max_degree + 1.
    """
    if n < 2:
        raise ValidationError("need at least two states")
    if max_degree is not None and max_degree < 2:
        raise ValidationError("max_degree below 2 cannot stay connected")
    w = np.zeros((n, n))
    degree = np.zeros(n, dtype=int)
    order = rng.permutation(n)

    def link(a, b):
        w[a, b] = w[b, a] = rng.uniform(0.2, 1.0)
        degree[[a, b]] += 1

    for i in range(1, n):
        if max_degree is None:
            b = order[rng.integers(0, i)]
        else:
            candidates = [order[j] for j in range(i) if degree[order[j]] < max_degree]
            b = candidates[rng.integers(0, len(candidates))] if candidates else order[rng.integers(0, i)]
        link(order[i], b)
    if extra_edges is None:
        extra_edges = n
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a == b or w[a, b] > 0:
            continue
        if max_degree is not None and (degree[a] >= max_degree or degree[b] >= max_degree):
            continue
        link(a, b)
    deg = w.sum(axis=0)
    p = w / deg[None, :]
    if laziness > 0:
        p = laziness * np.eye(n) + (1 - laziness) * p
    return p


def seeded_regular_partition(n: int) -> MarkedPartition:
    """The seeded random regular chain on n states with every 8th state marked:
    P = 1/2 + 1/8 sum_k (Pi_k + Pi_k^T), with Pi_1 and Pi_2 the matrices of
    two permutations drawn in turn from default_rng(1) (a fixed point adds
    1/4 to P_ii). It is the chain of CI's `hitting-regular-256` config."""
    rng = np.random.default_rng(1)
    p = 0.5 * np.eye(n)
    states = np.arange(n)
    for perm in (rng.permutation(n), rng.permutation(n)):
        np.add.at(p, (perm, states), 0.125)
        np.add.at(p, (states, perm), 0.125)
    return markov.mark_states(validate_chain(p), range(0, n, 8))


def random_sparse_dyadic_chain(
    rng: np.random.Generator, n: int, degree: int, **kwargs
) -> MarkovChain:
    return validate_chain(random_sparse_dyadic_matrix(rng, n, degree, **kwargs))


def random_sparse_dyadic_matrix(
    rng: np.random.Generator,
    n: int,
    degree: int,
    bits: int = 10,
    edge_cap_divisor: int = 4,
) -> np.ndarray:
    """Transition matrix of a sparse reversible chain whose probabilities are
    exact dyadic rationals k/2^bits.

    Built from integer symmetric edge weights on a bounded-degree connected
    graph, padded with self-loop weight so every column totals 2^bits; the
    self-loop majority keeps the spectrum nonnegative. Row/column sparsity is
    at most degree + 1 (neighbors plus the self-loop). Per-edge weights are
    capped at 2^bits/(edge_cap_divisor * degree); the default keeps plenty of
    laziness, and divisor 2 trades laziness for larger spectral gaps
    (`random_sparse_dyadic_chain` validates the result, so a rare unlucky
    draw raises instead of slipping through).
    """
    if degree < 1 or n < 2:
        raise ValidationError("need degree >= 1 and n >= 2")
    if edge_cap_divisor < 2:
        raise ValidationError("edge_cap_divisor below 2 abandons the self-loop majority")
    denom = 1 << bits
    w = np.zeros((n, n), dtype=np.int64)
    neighbor_count = np.zeros(n, dtype=int)
    order = rng.permutation(n)
    cap = denom // (edge_cap_divisor * degree)

    def link(a, b):
        weight = int(rng.integers(1, cap))
        w[a, b] += weight
        w[b, a] += weight
        neighbor_count[[a, b]] += 1

    for i in range(1, n):
        candidates = [order[j] for j in range(i) if neighbor_count[order[j]] < degree]
        b = candidates[rng.integers(0, len(candidates))] if candidates else order[rng.integers(0, i)]
        link(order[i], b)
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        if a != b and neighbor_count[a] < degree and neighbor_count[b] < degree and w[a, b] == 0:
            link(a, b)
    p = np.zeros((n, n))
    for s in range(n):
        off = int(w[:, s].sum())
        if off >= denom:
            raise ValidationError("edge weights overflow the dyadic budget")
        p[:, s] = w[:, s] / denom
        p[s, s] = (denom - off) / denom
    return p


def chain_to_json(chain: MarkovChain, marked) -> dict:
    """The sparse-triplet form `markov.chain_from_json` reads."""
    rows, cols = np.nonzero(chain.transition)
    entries = [
        [int(r), int(c), float(chain.transition[r, c])] for r, c in zip(rows, cols)
    ]
    return {
        "n_states": int(chain.n_states),
        "entries": entries,
        "marked": [int(s) for s in sorted(set(marked))],
    }


def survival_probability(mp: MarkedPartition, t_prime: int) -> float:
    """pi_U <1_U| (P_UU)^t |pi_U>: probability the walk is still unmarked after t steps."""
    if t_prime < 0:
        raise ValidationError("t_prime must be nonnegative")
    power = np.linalg.matrix_power(mp.p_uu, t_prime)
    return float(mp.pi_u * np.ones(mp.n_unmarked) @ power @ mp.pi_u_conditioned)


def exact_hitting_time_inverse(mp: MarkedPartition) -> float:
    """t_h = pi_U <sqrt(pi_U)| H_U^{-1} |sqrt(pi_U)> on the unmarked block: the
    second closed form, for `markov.exact_hitting_time_resolvent`."""
    v = mp.sqrt_pi_u
    sol = np.linalg.solve(mp.h_matrix, v)
    return float(mp.pi_u * np.real(v @ sol))


def complex_path_hitting(mp: MarkedPartition, epsilon: float) -> tuple[InverseGrid, float]:
    """A hitting task's grid and circuit expectation with H_U decomposed in
    complex128, the reference for the float64 path
    `MarkedPartition.spectral_measure` takes. The expectation sums the filter
    over the whole spectrum."""
    h = (np.eye(mp.n_unmarked) - discriminant_matrix(mp.p_uu)).astype(complex)
    eigs, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    grid = calibrate_inverse_grid(float(eigs[0]), epsilon)
    weights = np.abs(vecs.conj().T @ mp.sqrt_pi_u) ** 2
    return grid, mp.pi_u * float(weights @ grid.inverse_filter(eigs)) / grid.gamma


def outcome_distribution(true_value: float, m: int) -> np.ndarray:
    """The exact M-point phase-estimation outcome distribution for an amplitude,
    the reference `inverse.amplitude_estimation`'s sampler is checked against.

    Pr(y) = sin^2(M pi d_y) / (M^2 sin^2(pi d_y)) with d_y = theta - y/M and
    theta = asin(sqrt(a))/pi; the removable singularity at d_y = 0 takes its
    limit value 1. Sums to 1 exactly for every M.
    """
    if not (0.0 <= true_value <= 1.0):
        raise ValidationError(f"amplitude must be in [0, 1], got {true_value!r}")
    if m < 1:
        raise ValidationError("m must be positive")
    theta = math.asin(math.sqrt(true_value)) / math.pi
    delta = theta - np.arange(m) / m
    sin_delta = np.sin(np.pi * delta)
    tiny = np.abs(sin_delta) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tiny, 1.0, np.sin(m * np.pi * delta) ** 2 / (m**2 * sin_delta**2))


# ---------------------------------------------------------------------------
# The walk Hamiltonian H_U through the full N x N discriminant.

@dataclass(frozen=True)
class DiscriminantPair:
    """H_U built the two ways that are cross-checked, and the values read off it.

    The reference for `MarkedPartition.h_matrix`, `spectral_measure`, `delta`,
    `exact_hitting_time_inverse` and `inverse.t_circuit_expectation`.
    """

    h_matrix: HermitianOperator
    delta: float

    def t_exact(self, mp: MarkedPartition) -> float:
        v = mp.sqrt_pi_u
        return float(mp.pi_u * np.real(v @ np.linalg.solve(self.h_matrix.matrix, v)))

    def exact_amplitude(self, grid: InverseGrid, mp: MarkedPartition) -> float:
        eigs, vecs = self.h_matrix.eigensystem
        _check_spectrum(grid, eigs)
        weights = np.abs(vecs.conj().T @ mp.sqrt_pi_u) ** 2
        filtered = grid.inverse_filter(np.maximum(eigs, 0.0))
        return mp.pi_u * float(weights @ filtered) / grid.gamma


def discriminant_pair(mp: MarkedPartition) -> DiscriminantPair:
    """H_U as the U-block of the full N x N discriminant, checked two ways.

    The discriminant sqrt(P o P^T) must match the similarity transform
    D^{-1} P D with D = diag(sqrt(pi)), and its U-block 1 - S_UU must match
    the direct 1 - D_U^{-1} P_UU D_U; then the spectrum must lie in (0, 1].
    """
    chain = mp.chain
    p = chain.transition
    s = discriminant_matrix(p)
    d = np.sqrt(chain.stationary)
    similar = (p * d[None, :]) / d[:, None]
    if np.max(np.abs(s - similar)) > 1e-10:
        raise ValidationError("discriminant does not match the similarity transform")
    u = list(mp.unmarked)
    h_block = np.eye(len(u)) - s[np.ix_(u, u)]
    d_u = d[u]
    direct = np.eye(len(u)) - (mp.p_uu * d_u[None, :]) / d_u[:, None]
    if np.max(np.abs(h_block - direct)) > 1e-10:
        raise ValidationError("restricted Hamiltonian mismatch between constructions")
    h = HermitianOperator(h_block)
    delta = float(h.eigensystem[0][0])
    if delta <= 0:
        raise ValidationError(f"restricted Hamiltonian is not positive: delta = {delta:.3e}")
    if float(h.eigensystem[0][-1]) > 1.0 + 1e-9:
        raise ValidationError("restricted Hamiltonian exceeds 1; chain spectrum has negatives")
    return DiscriminantPair(h_matrix=h, delta=delta)


# ---------------------------------------------------------------------------
# Dense views and assembly of the sparse-access construction.

def _dense(n: int, pairs: np.ndarray, blocks: np.ndarray, diagonal=0.0) -> np.ndarray:
    """diag(diagonal) with each 2x2 block added in at its index pair."""
    m = np.diag(np.broadcast_to(np.asarray(diagonal, dtype=complex), (n,)))
    np.add.at(m, (pairs[:, :, None], pairs[:, None, :]), blocks)
    return m


def dense_parts(n: int, parts: tuple) -> np.ndarray:
    """The operator F given by the parts (pairs, blocks, off) of a `sparse_chain.Level`."""
    pairs, blocks, off = parts
    m = np.diag(np.broadcast_to(np.asarray(off, dtype=complex), (n,)))
    m[pairs[:, :, None], pairs[:, None, :]] = blocks
    return m


@dataclass(frozen=True)
class EdgeSum:
    """sum_e weights_e |mu_e><mu_e| + diag(diagonal), each mu_e a normalized
    two-coordinate vector with coefficients mu_bar_e on the index pair pairs_e."""

    n_states: int
    pairs: np.ndarray
    weights: np.ndarray
    mu_bar: np.ndarray
    diagonal: np.ndarray | float

    @property
    def blocks(self) -> np.ndarray:
        return self.weights[:, None, None] * sparse_chain._outer(self.mu_bar)

    @cached_property
    def matrix(self) -> HermitianOperator:
        return HermitianOperator(_dense(self.n_states, self.pairs, self.blocks, self.diagonal))


def build_h_bar(mp: MarkedPartition) -> tuple[EdgeSum, HermitianOperator]:
    """The ordered-pair states of 1 - S, each orientation of each edge once with
    weight alpha_bar, and their dense sum, which reproduces 1 - S: off-diagonal
    entries -sqrt(Pr(s|s')Pr(s'|s)), diagonal 1 - Pr(s|s)."""
    pairs, p_to, p_from = sparse_chain._pair_table(mp.chain)
    terms = EdgeSum(mp.chain.n_states, pairs, *sparse_chain._pair_data(p_to, p_from), 0.0)
    return terms, terms.matrix


@dataclass(frozen=True)
class SparseConstruction:
    """What `decomposition_manifest` builds, from its own helpers: the projected
    walk Hamiltonian on the edge table, the color of each edge, and the
    ancilla levels (the colors, then the boundary), with dense views."""

    projected: EdgeSum
    colors: np.ndarray
    levels: list

    @property
    def n_colors(self) -> int:
        return len(self.levels) - 1

    @property
    def classes(self) -> tuple:
        """The edges (a, b) of each color, in edge-table order."""
        return tuple(
            tuple(map(tuple, self.projected.pairs[self.colors == k].tolist()))
            for k in range(self.n_colors)
        )

    def restricted(self, unmarked) -> np.ndarray:
        idx = list(unmarked)
        return self.projected.matrix.matrix[np.ix_(idx, idx)]

    def factor(self, k: int) -> np.ndarray:
        """The unitary F of level k + 1: Z_k for a color, the boundary diagonal last."""
        return dense_parts(self.projected.n_states, self.levels[k].parts)

    def sqrt_block(self, k: int) -> np.ndarray:
        """p F + q F^dagger for level k + 1, the square root of its part of H."""
        level = self.levels[k]
        parts = sparse_chain._combine(level.parts, *level.coefficients)
        return dense_parts(self.projected.n_states, parts)

    def class_h(self, k: int) -> np.ndarray:
        """The projector sum sum_e alpha_bar_e |mu_e><mu_e| of color k."""
        p = self.projected
        edges = self.colors == k
        return _dense(p.n_states, p.pairs[edges], p.blocks[edges] / 2)


def sparse_construction(mp: MarkedPartition) -> SparseConstruction:
    table = sparse_chain._pair_table(mp.chain)
    pairs, alpha_bar, mu_bar, colors = sparse_chain._edge_table(mp, table)
    boundary = sparse_chain._boundary_weights(mp, table)
    levels = sparse_chain._levels(mp, pairs, alpha_bar, mu_bar, colors, boundary)
    projected = sparse_chain.walk_hamiltonian(alpha_bar, mu_bar, boundary)
    return SparseConstruction(EdgeSum(mp.chain.n_states, pairs, *projected), colors, levels)


def assemble_tilde_h_sparse(
    construction: SparseConstruction,
) -> tuple[LcuOperator, GapAmplifiedHamiltonian]:
    """The enlarged operator and its 4(K'+1) unitaries as matrices, built from
    the levels' dense views, their (scale, weight) and the term signs, the
    last level being the boundary. Each color block enters as
    sqrt(2) * sqrt(h_k) so the ancilla-0 sector of the square recovers the
    doubled (ordered-pair) edge weights; the boundary block enters unscaled.
    The weighted sum is checked against the enlarged operator.
    """
    levels = construction.levels
    blocks = [level.terms[0] * construction.sqrt_block(k) for k, level in enumerate(levels)]
    g = assemble_gap_amplified(blocks, construction.projected.n_states)
    terms: list[tuple[float, np.ndarray]] = []
    for k, level in enumerate(levels, start=1):
        _, weight = level.terms
        signs = BOUNDARY_SIGNS if k == len(levels) else COLOR_SIGNS
        u = construction.factor(k - 1)
        for t, (sign, rotation) in enumerate(zip(signs, 2 * ancilla_rotations(k, g.ancilla_dim))):
            terms.append((weight, sign * np.kron(u.conj().T if t >= 2 else u, rotation)))
    decomposition = LcuOperator(dim=g.dim, terms=tuple(terms))
    residual = float(np.max(np.abs(decomposition.weighted_sum() - g.operator.matrix)))
    if residual > sparse_chain.ATOL:
        raise ValidationError(f"unitary expansion misses the enlarged operator by {residual:.3e}")
    return decomposition, g


# ---------------------------------------------------------------------------
# CLI configs as JSON Schema (Draft 2020-12): the shape each command accepts.

_MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "re": {"type": "array", "items": {"type": "number"}},
        "im": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["dim", "re", "im"],
    "additionalProperties": False,
}

_HAMILTONIAN_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"pauli": {"type": "string"}},
            "required": ["pauli"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"matrix": _MATRIX_SCHEMA},
            "required": ["matrix"],
            "additionalProperties": False,
        },
    ]
}

_CHAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "n_states": {"type": "integer", "minimum": 2},
        "entries": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [{"type": "integer"}, {"type": "integer"}, {"type": "number"}],
                "minItems": 3,
                "maxItems": 3,
            },
        },
        "marked": {"type": "array", "items": {"type": "integer"}},
    },
    "required": ["n_states", "entries", "marked"],
    "additionalProperties": False,
}

_COMMON = {
    "command": {"type": "string"},
    "seed": {"type": "integer", "minimum": 0},
    "out": {"type": "string"},
    "constants": {"type": "object"},
}
_OPEN_UNIT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_JOBS = {"type": "integer", "minimum": 1}
_MODE = {"enum": ["desk", "oracle-free"]}
# The cost-sweep parameters that count states; a non-integer count is a config error.
_COUNTS = ("n_states", "n_dim")


def _nonempty_array(items: dict) -> dict:
    return {"type": "array", "items": items, "minItems": 1}


def _command_schema(required: list[str], **properties: dict) -> dict:
    return {
        "type": "object",
        "properties": {**_COMMON, **properties},
        "required": ["command", *required],
        "additionalProperties": False,
    }


def _cost_sweep_schema() -> dict:
    schema = _command_schema(
        ["model", "sweep_var", "values"],
        model={"enum": sorted(_COST_MODELS)},
        sweep_var={"enum": ["delta", "epsilon", "beta"]},
        values=_nonempty_array({"type": "number", "exclusiveMinimum": 0}),
        fixed={"type": "object"},
        jobs=_JOBS,
    )
    schema["allOf"] = [
        {
            "if": {"properties": {"model": {"const": model}}},
            "then": {
                "properties": {
                    "sweep_var": {"enum": sweep_vars},
                    "fixed": {
                        "properties": {
                            key: {"type": "integer" if key in _COUNTS else "number"}
                            for key in defaults
                        },
                        "additionalProperties": False,
                    },
                },
            },
        }
        for model, (sweep_vars, defaults) in _COST_MODELS.items()
    ]
    return schema


_SCHEMAS = {
    "gibbs": _command_schema(
        ["hamiltonian", "beta", "epsilon"],
        hamiltonian=_HAMILTONIAN_SCHEMA,
        beta={"type": "number", "minimum": 0},
        epsilon=_OPEN_UNIT,
        mode=_MODE,
        z_lower_bound={"type": "number", "exclusiveMinimum": 0},
    ),
    "hitting": _command_schema(
        ["chain", "epsilon"],
        chain=_CHAIN_SCHEMA,
        epsilon=_OPEN_UNIT,
        confidence=_OPEN_UNIT,
        mode=_MODE,
        delta_lower_bound={"type": "number", "exclusiveMinimum": 0},
    ),
    "appendix-verify": _command_schema(["chain"], chain=_CHAIN_SCHEMA),
    "lemma1-sweep": _command_schema(
        ["hamiltonian", "betas", "epsilons"],
        hamiltonian=_HAMILTONIAN_SCHEMA,
        betas=_nonempty_array({"type": "number", "minimum": 0}),
        epsilons=_nonempty_array(_OPEN_UNIT),
        jobs=_JOBS,
    ),
    "lemma2-sweep": _command_schema(
        ["deltas", "epsilons"],
        deltas=_nonempty_array({"type": "number", "exclusiveMinimum": 0, "maximum": 1}),
        epsilons=_nonempty_array(_OPEN_UNIT),
        dim={"type": "integer", "minimum": 1, "maximum": 64},
        samples={"type": "integer", "minimum": 1, "maximum": 64},
        jobs=_JOBS,
    ),
    "cost-sweep": _cost_sweep_schema(),
}
_VALIDATORS = {c: jsonschema.validators.validator_for(s)(s) for c, s in _SCHEMAS.items()}


def schema_accepts(config, overrides: dict | None = None) -> bool:
    """Whether a config, with the non-None overrides its command's schema lists,
    passes that schema."""
    if not isinstance(config, dict) or config.get("command") not in list(_SCHEMAS):
        return False
    schema = _SCHEMAS[config["command"]]
    for key, value in (overrides or {}).items():
        if value is not None and key in schema["properties"]:
            config = {**config, key: value}
    return _VALIDATORS[config["command"]].is_valid(config)
