"""Executing linear combinations of unitaries on states, exactly.

Two interchangeable term representations:

* `LcuOperator` stores explicit unitary matrices, one per term.
* `EvolutionLcu` stores a family exp(-i t H~) indexed by a symmetric Gaussian
  node grid and optional per-block time scales. Terms are never materialized:
  acting on a state reduces to evaluating the real scalar filter
  sum_l gamma_l cos(t_l E) on the eigenvalues of H~, which is the same sum the
  explicit representation would compute, grouped by eigenvalue.

Both are reference implementations on the enlarged space, as is the exact
dilation `extended_lcu_state`. The pipelines evaluate the same even filter on
the spectrum of H directly (`gaussian_cosine_series` at sqrt of each
eigenvalue), and the tests check them against these objects at small sizes.

`gaussian_cosine_series` is the numerical kernel of both pipelines. It runs
its recurrence over cache-sized blocks of the argument with in-place buffer
updates; every element still sees the same floating-point operations in the
same order, so its values are those of the plain whole-array recurrence, bit
for bit.

Amplitude amplification is modeled by round counting on exact success
amplitudes rather than by simulating reflection circuits: the round count is
the only thing downstream cost ledgers consume, and exact amplitudes make it
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import AnnihilationError, ValidationError
from .gap_amplification import UNITARY_ATOL, GapAmplifiedHamiltonian, unitarity_defect
from .operators import StateVector, as_square_matrix

_DILATION_TERM_CAP = 1024
_DILATION_SIZE_CAP = 1 << 18
_FILTER_CHUNK = 1 << 22
_COSINE_BLOCK = 1 << 14


def gaussian_weights(delta_y: float, j_max: int) -> np.ndarray:
    """Weights w_j = delta_y exp(-y_j^2/2)/sqrt(2 pi) for j = 0..j_max."""
    j = np.arange(j_max + 1)
    return delta_y / math.sqrt(2 * math.pi) * np.exp(-0.5 * (j * delta_y) ** 2)


def gaussian_weight_sum(delta_y: float, j_max: int) -> float:
    """w_0 + 2 sum_{j>=1} w_j: the total weight of the symmetric grid, close to 1."""
    w = gaussian_weights(delta_y, j_max)
    return float(w[0] + 2 * w[1:].sum())


def gaussian_cosine_series(a, delta_y: float, j_max: int):
    """Evaluate sum_{j=-J..J} w_j exp(-i y_j a) over the symmetric Gaussian grid.

    Real by symmetry: w_0 + 2 sum_{j>=1} w_j cos(j delta_y a). Uses the
    Chebyshev cosine recurrence so the cost per grid node is a multiply-add,
    not a transcendental call. `a` may be a scalar or any ndarray; the result
    is a C-ordered float array of its shape.

    The recurrence runs over the flattened argument in blocks of
    `_COSINE_BLOCK` elements, updating five block-sized buffers in place so
    they stay in cache. Each element sees the same operations in the same
    order, acc += (2 w_j) T_j then T_{j+1} = (2c) T_j - T_{j-1}, so the
    result does not depend on the block size, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    w = gaussian_weights(delta_y, j_max)
    flat = a.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _COSINE_BLOCK):
        acc = out[start : start + _COSINE_BLOCK]
        acc.fill(w[0])
        t_cur = np.cos(delta_y * flat[start : start + _COSINE_BLOCK])
        c2 = 2.0 * t_cur
        t_prev = np.ones_like(t_cur)
        t_next = np.empty_like(t_cur)
        for j in range(1, j_max + 1):
            wj = w[j]
            if wj == 0.0:
                break
            np.multiply(t_cur, 2.0 * wj, out=t_next)
            acc += t_next
            np.multiply(c2, t_cur, out=t_next)
            t_next -= t_prev
            t_prev, t_cur, t_next = t_cur, t_next, t_prev
    return out.reshape(a.shape)


@dataclass(frozen=True)
class LcuOperator:
    """Explicit positive weights and unitary matrices; gamma_total = sum of weights."""

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        checked = []
        for i, (gamma, u) in enumerate(self.terms):
            if not (gamma > 0 and math.isfinite(gamma)):
                raise ValidationError(f"term {i}: weight must be positive, got {gamma!r}")
            m = as_square_matrix(u, self.dim)
            if unitarity_defect(m) > UNITARY_ATOL:
                raise ValidationError(f"term {i}: matrix is not unitary")
            m.flags.writeable = False
            checked.append((float(gamma), m))
        if not checked:
            raise ValidationError("an LCU needs at least one term")
        object.__setattr__(self, "terms", tuple(checked))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def gamma_total(self) -> float:
        return sum(gamma for gamma, _ in self.terms)

    def iter_terms(self) -> Iterator[tuple[float, np.ndarray]]:
        return iter(self.terms)

    def apply_sum(self, x: np.ndarray) -> np.ndarray:
        """sum_l gamma_l V_l x for a vector or a matrix of column vectors."""
        x = np.asarray(x, dtype=complex)
        out = np.zeros_like(x)
        for gamma, u in self.terms:
            out += gamma * (u @ x)
        return out


@dataclass(frozen=True)
class EvolutionLcu:
    """LCU whose unitaries are exp(-i y_j s_b H~) over a symmetric Gaussian grid.

    Term (b, j) has weight scale_weights[b] * w_j and time y_j * scales[b].
    Because the grid is symmetric in j, the summed operator is the real even
    filter F(H~) with F(E) = sum_b scale_weights[b] * S_b(E), where S_b is the
    Gaussian cosine series at argument scales[b] * E.
    """

    hamiltonian: GapAmplifiedHamiltonian
    delta_y: float
    j_max: int
    scales: np.ndarray
    scale_weights: np.ndarray

    def __post_init__(self):
        scales = np.array(self.scales, dtype=float).reshape(-1)
        weights = np.array(self.scale_weights, dtype=float).reshape(-1)
        if scales.shape != weights.shape or scales.size == 0:
            raise ValidationError("scales and scale_weights must be matching nonempty arrays")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValidationError("scale weights must be positive and finite")
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
        w, _ = self.hamiltonian.operator.eigensystem
        return self.filter_values(w)

    def apply_sum(self, x: np.ndarray) -> np.ndarray:
        _, v = self.hamiltonian.operator.eigensystem
        f = self._own_filter
        x = np.asarray(x, dtype=complex)
        if x.ndim == 1:
            return v @ (f * (v.conj().T @ x))
        return v @ (f[:, None] * (v.conj().T @ x))

    def iter_terms(self) -> Iterator[tuple[float, np.ndarray]]:
        """Materialize terms one at a time, block-major then j = -J..J."""
        w, v = self.hamiltonian.operator.eigensystem
        node_w = gaussian_weights(self.delta_y, self.j_max)
        for s, b in zip(self.scales, self.scale_weights):
            for j in range(-self.j_max, self.j_max + 1):
                t = j * self.delta_y * s
                yield float(b * node_w[abs(j)]), (v * np.exp(-1j * t * w)) @ v.conj().T

    def to_dense(self) -> LcuOperator:
        if self.n_terms > _DILATION_TERM_CAP:
            raise ValidationError(f"refusing to materialize {self.n_terms} terms")
        return LcuOperator(dim=self.dim, terms=tuple(self.iter_terms()))


def b_state(weights) -> StateVector:
    """Coefficient state with amplitudes sqrt(gamma_l / gamma)."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise ValidationError("empty weight list")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    return StateVector(np.sqrt(w / w.sum()).astype(complex))


def amplification_rounds(success_amplitude: float, constants: Constants = DEFAULT_CONSTANTS) -> int:
    """ceil(c / asin(a)): the round count that amplifies amplitude a to order one."""
    a = min(max(success_amplitude, 0.0), 1.0)
    if a == 0.0:
        raise AnnihilationError("cannot amplify a zero amplitude")
    return max(1, math.ceil(constants.amp_round_constant / math.asin(a)))


def coefficient_unitary(weights) -> np.ndarray:
    """Real unitary whose first column is the coefficient state (a Householder reflection)."""
    b = b_state(weights).amplitudes.real
    dim = b.shape[0]
    e0 = np.zeros(dim)
    e0[0] = 1.0
    v = e0 - b
    vv = float(v @ v)
    if vv < 1e-28:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / vv


def extended_lcu_state(x: LcuOperator | EvolutionLcu, phi: StateVector) -> StateVector:
    """The exact dilated state (B^dagger (x) 1) SELECT (B (x) 1) |phi>|0>.

    System-major layout of dimension dim * L. The ancilla-0 block equals
    (X/gamma)|phi>, so its norm is the LCU success amplitude. Only sensible for small term counts, so grid-family LCUs
    must be coarse enough to materialize.
    """
    if phi.dim != x.dim:
        raise ValidationError(f"dimension mismatch: operator {x.dim}, state {phi.dim}")
    n_terms = x.n_terms
    if n_terms > _DILATION_TERM_CAP or n_terms * x.dim > _DILATION_SIZE_CAP:
        raise ValidationError(
            f"dilation with {n_terms} terms on dimension {x.dim} exceeds the materialization cap"
        )
    gammas = []
    columns = np.empty((x.dim, n_terms), dtype=complex)
    for l, (gamma, u) in enumerate(x.iter_terms()):
        gammas.append(gamma)
        columns[:, l] = u @ phi.amplitudes
    b = coefficient_unitary(gammas)
    # After B: psi[i, l] = phi_i b_l; SELECT applies V_l per ancilla column.
    psi = columns * b[:, 0]
    psi = psi @ b.conj()
    return StateVector(psi.reshape(-1))


def ancilla_zero_block(state: StateVector, system_dim: int, n_terms: int) -> np.ndarray:
    """Extract the ancilla-0 system block from a dilated state (system-major layout)."""
    psi = state.amplitudes.reshape(system_dim, n_terms)
    return np.array(psi[:, 0])

