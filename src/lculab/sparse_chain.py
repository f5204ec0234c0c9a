"""Sparse-access construction of the gap-amplified walk Hamiltonian.

From edge-list access to a reversible chain and its marked set, the
symmetrized walk operator 1 - S is assembled as a sum of rank-1 projectors
onto two-coordinate states, one per ordered edge. Restricting to the unmarked block and grouping
the surviving pairs by a proper edge coloring makes each group a sum of
orthogonal projectors, whose square root is exactly expressible through a
single unitary Z_k that is the identity apart from one 2x2 block per edge. A
separate diagonal factor handles the boundary term. The colored square-root
blocks assemble into the enlarged operator whose square restricts to the walk
Hamiltonian, together with its presentation as a positive combination of
unitaries; that unitary expansion is the construction's only presentation.

All of it is kept as per-edge data, which `decomposition_manifest` (the
`appendix-verify` path) checks in O(N d) without any N x N or enlarged matrix.
The dense matrices are views of the same data, built only when read, and serve
as test oracles. The sparse-access gate cost of simulating the construction is
priced by `cost.theorem2_cost`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .gap_amplification import UNITARY_ATOL, ancilla_coupler, ancilla_rotations, unitarity_defect
from .markov import MarkovChain
from .operators import HermitianOperator

_ATOL = 1e-10
# Each square-root factor F at ancilla level k enters the enlarged operator as
# B_k = scale * sqrt_h and expands into four unitaries sign * (F_t (x) R_t) of
# one weight, with F_t = F, F, F^dagger, F^dagger and R_t = R_-, R_+, R_-, R_+
# the ancilla rotations of level k. Entries are (scale, weight, signs).
_COLOR_TERMS = (math.sqrt(2.0), math.sqrt(2.0) / 4, (1, -1, -1, 1))
_BOUNDARY_TERMS = (1.0, 0.25, (1j, -1j, 1j, -1j))


@dataclass(frozen=True)
class SparseChainOracle:
    """Sparse access to a validated chain, through its edge list, plus marked membership."""

    chain: MarkovChain
    marked: tuple[int, ...]

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def unmarked(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.marked_mask).tolist())

    @cached_property
    def marked_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_states, dtype=bool)
        mask[list(self.marked)] = True
        return mask

    @cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chain's edges (s, s'), s != s', by s then s', with Pr(s|s') and Pr(s'|s)."""
        p = self.chain.transition
        edges = self.chain.edges
        s, sp = edges[edges[:, 0] != edges[:, 1]].T
        return np.stack([s, sp], axis=1), p[s, sp], p[sp, s]


def sparse_oracle(chain: MarkovChain, marked) -> SparseChainOracle:
    marked = tuple(sorted(set(int(s) for s in marked)))
    if not marked or len(marked) >= chain.n_states:
        raise ValidationError("marked set must be nonempty and proper")
    if marked[0] < 0 or marked[-1] >= chain.n_states:
        raise ValidationError("marked state out of range")
    return SparseChainOracle(chain=chain, marked=marked)


def _pair_data(p_to: np.ndarray, p_from: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per ordered pair (sigma, sigma'), the squared norm alpha_bar of
    mu = (sqrt(Pr(sigma|sigma'))|sigma'> - sqrt(Pr(sigma'|sigma))|sigma>)/sqrt(2)
    and the normalized coefficients of mu on (sigma, sigma')."""
    alpha_bar = (p_to + p_from) / 2
    if np.any(alpha_bar > 1 + 1e-12):
        raise ValidationError("pair weight exceeds 1; transition rows are not substochastic")
    mu = np.stack([-np.sqrt(p_from / 2), np.sqrt(p_to / 2)], axis=-1)
    return alpha_bar, mu / np.sqrt(alpha_bar)[:, None]


def _outer(mu_bar: np.ndarray) -> np.ndarray:
    return mu_bar[:, :, None] * mu_bar[:, None, :]


def _dense(n: int, pairs: np.ndarray, blocks: np.ndarray, diagonal=0.0) -> np.ndarray:
    """Dense view: diag(diagonal) with each 2x2 block added in at its index pair."""
    m = np.diag(np.broadcast_to(np.asarray(diagonal, dtype=complex), (n,)))
    np.add.at(m, (pairs[:, :, None], pairs[:, None, :]), blocks)
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
        return self.weights[:, None, None] * _outer(self.mu_bar)

    @cached_property
    def matrix(self) -> HermitianOperator:
        return HermitianOperator(_dense(self.n_states, self.pairs, self.blocks, self.diagonal))


def pair_states(oracle: SparseChainOracle) -> EdgeSum:
    """All ordered-pair projector states of h-bar: pairs (s, s'), s != s', each
    orientation contributing once with weight alpha_bar."""
    pairs, p_to, p_from = oracle.pair_table
    alpha_bar, mu_bar = _pair_data(p_to, p_from)
    return EdgeSum(oracle.n_states, pairs, alpha_bar, mu_bar, 0.0)


@dataclass(frozen=True)
class ProjectedWalkHamiltonian(EdgeSum):
    """The unmarked-block restriction of 1 - S: per unmarked edge (a, b), a < b,
    weight 2 alpha_bar; on the diagonal, per state, the total transition
    probability from it into the marked set (0 on marked states)."""

    unmarked: tuple[int, ...] = ()

    def restricted(self) -> np.ndarray:
        idx = list(self.unmarked)
        return self.matrix.matrix[np.ix_(idx, idx)]


def project_h(terms: EdgeSum, oracle: SparseChainOracle) -> ProjectedWalkHamiltonian:
    """Restrict the ordered-pair sum to the unmarked block.

    Pairs inside the block survive with doubled weight (both orientations share
    one projector, kept in the orientation a < b); pairs straddling the
    boundary collapse onto the diagonal term sum_{marked s} Pr(s|s') |s'><s'|.
    """
    if not oracle.unmarked or not oracle.marked:
        raise ValidationError("both blocks must be nonempty")
    keep = _unmarked_edges(oracle, terms.pairs)
    return ProjectedWalkHamiltonian(
        oracle.n_states, terms.pairs[keep], 2.0 * terms.weights[keep], terms.mu_bar[keep],
        _boundary_weights(oracle), unmarked=oracle.unmarked,
    )


def _unmarked_edges(oracle: SparseChainOracle, pairs: np.ndarray) -> np.ndarray:
    """Mask of the pairs (a, b), a < b, with both ends unmarked: one per unmarked edge."""
    a, b = pairs.T
    return (a < b) & ~oracle.marked_mask[a] & ~oracle.marked_mask[b]


def _boundary_weights(oracle: SparseChainOracle) -> np.ndarray:
    """Per state, the total probability of stepping from it into the marked set; 0 if marked."""
    pairs, _, p_from = oracle.pair_table
    s, sp = pairs.T
    leaving = ~oracle.marked_mask[s] & oracle.marked_mask[sp]
    return np.bincount(s[leaving], weights=p_from[leaving], minlength=oracle.n_states)


@dataclass(frozen=True)
class EdgeColoring:
    """Proper coloring of the unmarked-block edges: classes are matchings."""

    classes: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_colors(self) -> int:
        return len(self.classes)


def color_edges(oracle: SparseChainOracle) -> EdgeColoring:
    """Greedy proper edge coloring over the sorted edge list; at most 2d-1 colors."""
    pairs = oracle.pair_table[0]
    edges = [tuple(e) for e in pairs[_unmarked_edges(oracle, pairs)].tolist()]
    vertex_colors: dict[int, set[int]] = defaultdict(set)
    assignment: list[int] = []
    for a, b in edges:
        used = vertex_colors[a] | vertex_colors[b]
        color = min(set(range(len(used) + 1)) - used)
        assignment.append(color)
        vertex_colors[a].add(color)
        vertex_colors[b].add(color)
    n_colors = max(assignment) + 1 if assignment else 0
    classes = tuple(
        tuple(e for e, c in zip(edges, assignment) if c == k) for k in range(n_colors)
    )
    return EdgeColoring(classes=classes)


# An operator F given by its parts (pairs, blocks, off): 2x2 blocks on disjoint
# index pairs, `off` on the diagonal elsewhere, zero everywhere else.
def _adjoint(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().transpose(0, 2, 1)


def _combine(parts: tuple, p: complex, q: complex) -> tuple:
    """The parts of p F + q F^dagger."""
    pairs, blocks, off = parts
    return pairs, p * blocks + q * _adjoint(blocks), p * off + q * np.conj(off)


def _max_entry(parts: tuple) -> float:
    _, blocks, off = parts
    return float(max(np.max(np.abs(blocks), initial=0.0), np.max(np.abs(off))))


def _dense_parts(n: int, parts: tuple) -> np.ndarray:
    pairs, blocks, off = parts
    m = np.diag(np.broadcast_to(np.asarray(off, dtype=complex), (n,)))
    m[pairs[:, :, None], pairs[:, None, :]] = blocks
    return m


@dataclass(frozen=True)
class ColorSqrtFactor:
    """One color class: its projector sum h_k = sum_e alpha_bar_e |mu_e><mu_e| and,
    per edge, the angle delta_e = asin(sqrt(alpha_bar_e)) and the 2x2 block of
    Z_k = exp(i sum_e delta_e |mu_e><mu_e|). Z_k is the identity off the blocks,
    and its imaginary part (-i Z_k + i Z_k^dagger)/2 is the square root of h_k."""

    color: int
    h: EdgeSum
    deltas: np.ndarray
    z_blocks: np.ndarray
    sqrt_coefficients = (-0.5j, 0.5j)

    @property
    def parts(self) -> tuple:
        return self.h.pairs, self.z_blocks, 1.0

    @property
    def h_matrix(self) -> np.ndarray:
        return self.h.matrix.matrix

    @property
    def z_unitary(self) -> np.ndarray:
        return _dense_parts(self.h.n_states, self.parts)

    @property
    def sqrt_h(self) -> np.ndarray:
        return _dense_parts(self.h.n_states, _combine(self.parts, *self.sqrt_coefficients))


@dataclass(frozen=True)
class DiagonalSqrtFactor:
    """Boundary factor: diagonal phases with cos(theta_s) = sqrt(b_s) on
    unmarked states, b_s the probability of stepping from s into the marked
    set, and phase i on marked ones; its square root block is (U + U^dagger)/2."""

    phases: np.ndarray
    thetas: np.ndarray
    sqrt_coefficients = (0.5, 0.5)

    @property
    def parts(self) -> tuple:
        return np.zeros((0, 2), dtype=int), np.zeros((0, 2, 2), dtype=complex), self.phases

    @property
    def u_diagonal(self) -> np.ndarray:
        return np.diag(self.phases)

    @property
    def sqrt_h(self) -> np.ndarray:
        return _dense_parts(len(self.phases), _combine(self.parts, *self.sqrt_coefficients))


@dataclass(frozen=True)
class SqrtFactors:
    colors: tuple[ColorSqrtFactor, ...]
    diagonal: DiagonalSqrtFactor


def build_sqrt_factors(
    coloring: EdgeColoring, oracle: SparseChainOracle
) -> SqrtFactors:
    """Per-color square roots via Z_k = exp(i sum_e delta_e |mu_e><mu_e|), plus the
    boundary diagonal factor."""
    n = oracle.n_states
    p = oracle.chain.transition
    colors = []
    for k, edge_class in enumerate(coloring.classes):
        pairs = np.array(edge_class, dtype=int).reshape(-1, 2)
        # orientation (sigma=a, sigma'=b): the projector is orientation-free
        alpha_bar, mu_bar = _pair_data(p[pairs[:, 0], pairs[:, 1]], p[pairs[:, 1], pairs[:, 0]])
        deltas = np.arcsin(np.minimum(np.sqrt(alpha_bar), 1.0))
        z_blocks = np.eye(2) + (np.exp(1j * deltas) - 1.0)[:, None, None] * _outer(mu_bar)
        h = EdgeSum(n, pairs, alpha_bar, mu_bar, 0.0)
        colors.append(ColorSqrtFactor(k, h, deltas, z_blocks))
    unmarked = list(oracle.unmarked)
    thetas = np.zeros(n)
    thetas[unmarked] = np.arccos(np.minimum(np.sqrt(_boundary_weights(oracle)[unmarked]), 1.0))
    phases = np.full(n, 1j, dtype=complex)
    phases[unmarked] = np.exp(1j * thetas[unmarked])
    return SqrtFactors(colors=tuple(colors), diagonal=DiagonalSqrtFactor(phases, thetas))


def _levels(factors: SqrtFactors) -> list:
    """(ancilla level, factor, (scale, weight, signs)): colors at 1..K', the boundary last."""
    levels = [(k, f, _COLOR_TERMS) for k, f in enumerate(factors.colors, start=1)]
    return levels + [(len(levels) + 1, factors.diagonal, _BOUNDARY_TERMS)]


def _unitarity_defect(parts: tuple, adjoint: bool) -> float:
    """`unitarity_defect` of F, or of F^dagger, from the parts of F."""
    pairs, blocks, off = parts
    gram = blocks @ _adjoint(blocks) if adjoint else _adjoint(blocks) @ blocks
    return _max_entry((pairs, gram - np.eye(2), np.abs(off) ** 2 - 1.0))


def check_unitary_expansion(factors: SqrtFactors) -> list[float]:
    """Check the 4(K'+1) unitary terms from their factors; return their weights.

    A term sign * (F_t (x) R_t) has unitarity defect at most
    (1 + d_sign)(1 + d_F)(1 + d_R) - 1, from the defects of its factors: F_t's
    per block and on the diagonal, R_t's once per level. The terms of factor k
    sum to F (x) X + F^dagger (x) Y, so they miss
    B_k (x) C_k = F (x) b C + F^dagger (x) b' C by the largest entry of
    (X - b C)_ij F + (Y - b' C)_ij F^dagger over the ancilla entries ij.
    """
    ancilla_dim = len(factors.colors) + 2
    weights: list[float] = []
    for k, factor, (scale, weight, signs) in _levels(factors):
        rotations = ancilla_rotations(k, ancilla_dim)
        for t, sign in enumerate(signs):
            d_f = _unitarity_defect(factor.parts, adjoint=t >= 2)
            d_r = unitarity_defect(rotations[t % 2])
            if (1 + abs(abs(sign) ** 2 - 1)) * (1 + d_f) * (1 + d_r) - 1 > UNITARY_ATOL:
                raise ValidationError(f"term {len(weights)}: matrix is not unitary")
            weights.append(weight)
        coupler = ancilla_coupler(k, ancilla_dim)
        b, b_adjoint = (scale * c * coupler for c in factor.sqrt_coefficients)
        x = weight * (signs[0] * rotations[0] + signs[1] * rotations[1]) - b
        y = weight * (signs[2] * rotations[0] + signs[3] * rotations[1]) - b_adjoint
        miss = max(
            (_max_entry(_combine(factor.parts, p, q)) for p, q in zip(x.flat, y.flat) if p or q),
            default=0.0,
        )
        if miss > _ATOL:
            raise ValidationError(f"unitary expansion misses the enlarged operator by {miss:.3e}")
    return weights


def reconstruction_residual(projected: ProjectedWalkHamiltonian, factors: SqrtFactors) -> float:
    """max |sum_k B_k^2 - H| over the edge blocks and the diagonal, H the projected
    walk Hamiltonian and sum_k B_k^2 the ancilla-0 sector of the squared
    enlarged operator. The color classes are matchings, so both sides vanish
    elsewhere."""
    n = projected.n_states
    pairs, squares, diagonal = [], [], np.zeros(n, dtype=complex)
    for _, factor, (scale, _, _) in _levels(factors):
        coefficients = (scale * c for c in factor.sqrt_coefficients)
        f_pairs, blocks, off = _combine(factor.parts, *coefficients)
        square = blocks @ blocks
        on_diagonal = np.broadcast_to(off * off, (n,)).astype(complex)
        on_diagonal[f_pairs] = np.diagonal(square, axis1=1, axis2=2)
        diagonal += on_diagonal
        pairs.append(f_pairs)
        squares.append(square)
    pairs, squares = np.concatenate(pairs), np.concatenate(squares)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    if not np.array_equal(pairs[order], projected.pairs):
        raise ValidationError("color classes do not partition the unmarked edges")
    target = projected.blocks
    target_diagonal = projected.diagonal + np.bincount(
        projected.pairs.ravel(), np.diagonal(target, axis1=1, axis2=2).ravel(), minlength=n
    )
    off_diagonal = squares[order][:, [0, 1], [1, 0]] - target[:, [0, 1], [1, 0]]
    misses = (np.abs(off_diagonal).max(initial=0.0), np.abs(diagonal - target_diagonal).max())
    return float(max(misses))


def decomposition_manifest(oracle: SparseChainOracle) -> dict:
    """Run the sparse construction on its per-edge data and summarize it for the manifest JSON."""
    projected = project_h(pair_states(oracle), oracle)
    coloring = color_edges(oracle)
    factors = build_sqrt_factors(coloring, oracle)
    weights = check_unitary_expansion(factors)
    residual = reconstruction_residual(projected, factors)
    if residual > _ATOL:
        raise ValidationError(
            f"squared blocks miss the projected walk Hamiltonian by {residual:.3e}"
        )
    return {
        "colors": coloring.n_colors,
        "terms": len(weights),
        "alpha_list": weights,
        "reconstruction_residual": residual,
    }
