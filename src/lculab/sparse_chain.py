"""Sparse-access construction of the gap-amplified walk Hamiltonian.

From neighbor-list access to a reversible chain, the symmetrized walk operator
1 - S is assembled as a sum of rank-1 projectors onto two-coordinate states,
one per ordered neighbor pair. Restricting to the unmarked block and grouping
the surviving pairs by a proper edge coloring makes each group a sum of
orthogonal projectors, whose square root is exactly expressible through a
single diagonal-in-the-group unitary Z_k. A separate diagonal factor handles
the boundary term. The colored square-root blocks assemble into the enlarged
operator whose square restricts to the walk Hamiltonian, together with its
presentation as a positive combination of unitaries; that unitary expansion
is the construction's only presentation, and the assembly checks it against
the enlarged operator. The sparse-access gate cost of simulating it is priced
by `cost.theorem2_cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gap_amplification import (
    GapAmplifiedHamiltonian,
    UnitaryDecomposition,
    ancilla_rotations,
    assemble_gap_amplified,
)
from .markov import MarkovChain
from .operators import HermitianOperator

_ATOL = 1e-10


@dataclass(frozen=True)
class SparseChainOracle:
    """Neighbor-list access to a reversible chain plus marked membership.

    For each state s, `neighbors[s]` lists (s', Pr(s|s'), Pr(s'|s)) over the
    states s' with a nonzero transition either way; reversibility makes the
    listing symmetric. Sparsity d is the largest list length.
    """

    chain: MarkovChain
    marked: tuple[int, ...]
    neighbors: tuple[tuple[tuple[int, float, float], ...], ...]
    d: int

    def is_marked(self, state: int) -> bool:
        return state in self._marked_set

    @property
    def _marked_set(self) -> frozenset:
        return frozenset(self.marked)

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def unmarked(self) -> tuple[int, ...]:
        m = self._marked_set
        return tuple(s for s in range(self.n_states) if s not in m)


def sparse_oracle(chain: MarkovChain, marked) -> SparseChainOracle:
    marked = tuple(sorted(set(int(s) for s in marked)))
    if not marked or len(marked) >= chain.n_states:
        raise ValidationError("marked set must be nonempty and proper")
    if marked[0] < 0 or marked[-1] >= chain.n_states:
        raise ValidationError("marked state out of range")
    p = chain.transition
    listing = []
    for s in range(chain.n_states):
        row = []
        for sp in range(chain.n_states):
            to_s = float(p[s, sp])   # Pr(s | s')
            from_s = float(p[sp, s])  # Pr(s' | s)
            if to_s != 0.0 or from_s != 0.0:
                if to_s == 0.0 or from_s == 0.0:
                    raise ValidationError("support is not symmetric; chain is not reversible")
                row.append((sp, to_s, from_s))
        listing.append(tuple(row))
    d = max(len(row) for row in listing)
    if d != chain.sparsity:
        raise ValidationError("neighbor lists disagree with the dense sparsity")
    return SparseChainOracle(chain=chain, marked=marked, neighbors=tuple(listing), d=d)


@dataclass(frozen=True)
class MuState:
    """Unnormalized two-coordinate vector attached to an ordered neighbor pair.

    vector = (sqrt(Pr(s|s'))|s'> - sqrt(Pr(s'|s))|s>)/sqrt(2); its squared norm
    is alpha_bar = (Pr(s|s') + Pr(s'|s))/2.
    """

    sigma: int
    sigma_prime: int
    vector: np.ndarray
    alpha_bar: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.alpha_bar)

    def normalized(self) -> np.ndarray:
        return self.vector / self.norm


def _mu_state(n: int, sigma: int, sigma_prime: int, p_to: float, p_from: float) -> MuState:
    vec = np.zeros(n, dtype=complex)
    vec[sigma_prime] += math.sqrt(p_to / 2)
    vec[sigma] -= math.sqrt(p_from / 2)
    alpha_bar = (p_to + p_from) / 2
    if alpha_bar > 1 + 1e-12:
        raise ValidationError("pair weight exceeds 1; transition rows are not substochastic")
    return MuState(sigma=sigma, sigma_prime=sigma_prime, vector=vec, alpha_bar=alpha_bar)


def build_h_bar(oracle: SparseChainOracle) -> tuple[list[MuState], HermitianOperator]:
    """All ordered-pair projector states and their sum, which reproduces 1 - S.

    Ordered pairs (s, s'), s != s', each orientation contributing once: the
    off-diagonal entries come out as -sqrt(Pr(s|s')Pr(s'|s)) and the diagonal
    as 1 - Pr(s|s).
    """
    n = oracle.n_states
    terms: list[MuState] = []
    for s in range(n):
        for sp, p_to, p_from in oracle.neighbors[s]:
            if sp == s:
                continue
            terms.append(_mu_state(n, s, sp, p_to, p_from))
    total = np.zeros((n, n), dtype=complex)
    for mu in terms:
        total += np.outer(mu.vector, mu.vector.conj())
    return terms, HermitianOperator(total)


@dataclass(frozen=True)
class ProjectedWalkHamiltonian:
    """The unmarked-block restriction of 1 - S, split into edge and boundary parts.

    `edges` maps each unordered unmarked pair to its alpha_bar and normalized
    two-coordinate vector; `boundary` holds, per unmarked state, the total
    transition probability into the marked set. Both parts live on the full
    state space with support inside the unmarked block.
    """

    n_states: int
    unmarked: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], float, np.ndarray], ...]
    boundary: np.ndarray
    matrix: HermitianOperator

    def restricted(self) -> np.ndarray:
        idx = list(self.unmarked)
        return self.matrix.matrix[np.ix_(idx, idx)]


def project_h(terms: list[MuState], oracle: SparseChainOracle) -> ProjectedWalkHamiltonian:
    """Restrict the ordered-pair sum to the unmarked block.

    Pairs inside the block survive with doubled weight (both orientations share
    one projector); pairs straddling the boundary collapse onto the diagonal
    term sum_{marked s} Pr(s|s') |s'><s'|.
    """
    n = oracle.n_states
    marked = set(oracle.marked)
    unmarked = oracle.unmarked
    if not unmarked or not marked:
        raise ValidationError("both blocks must be nonempty")
    edge_map: dict[tuple[int, int], tuple[float, np.ndarray]] = {}
    for mu in terms:
        if mu.sigma in marked or mu.sigma_prime in marked:
            continue
        key = (min(mu.sigma, mu.sigma_prime), max(mu.sigma, mu.sigma_prime))
        if key not in edge_map:
            edge_map[key] = (mu.alpha_bar, mu.normalized())
    boundary = np.zeros(n)
    for sp in unmarked:
        boundary[sp] = _boundary_weight(oracle, sp)
    total = np.zeros((n, n), dtype=complex)
    for (_, _), (alpha_bar, mu_bar) in edge_map.items():
        total += 2.0 * alpha_bar * np.outer(mu_bar, mu_bar.conj())
    total += np.diag(boundary.astype(complex))
    edges = tuple(
        (key, alpha_bar, mu_bar) for key, (alpha_bar, mu_bar) in sorted(edge_map.items())
    )
    return ProjectedWalkHamiltonian(
        n_states=n,
        unmarked=unmarked,
        edges=edges,
        boundary=boundary,
        matrix=HermitianOperator(total),
    )


def _boundary_weight(oracle: SparseChainOracle, state: int) -> float:
    """Total probability of stepping from `state` into the marked set."""
    marked = set(oracle.marked)
    return sum(p_from for (s, _, p_from) in oracle.neighbors[state] if s in marked)


@dataclass(frozen=True)
class EdgeColoring:
    """Proper coloring of the unmarked-block edges: classes are matchings."""

    edges: tuple[tuple[int, int], ...]
    classes: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_colors(self) -> int:
        return len(self.classes)


def color_edges(oracle: SparseChainOracle) -> EdgeColoring:
    """Greedy proper edge coloring over the sorted edge list; at most 2d-1 colors."""
    marked = set(oracle.marked)
    edges = sorted(
        {
            (min(s, sp), max(s, sp))
            for s in oracle.unmarked
            for (sp, _, _) in oracle.neighbors[s]
            if sp != s and sp not in marked
        }
    )
    vertex_colors: dict[int, set[int]] = {}
    assignment: list[int] = []
    for a, b in edges:
        used = vertex_colors.setdefault(a, set()) | vertex_colors.setdefault(b, set())
        color = 0
        while color in used:
            color += 1
        assignment.append(color)
        vertex_colors[a].add(color)
        vertex_colors[b].add(color)
    n_colors = max(assignment) + 1 if assignment else 0
    classes = tuple(
        tuple(e for e, c in zip(edges, assignment) if c == k) for k in range(n_colors)
    )
    return EdgeColoring(edges=tuple(edges), classes=classes)


@dataclass(frozen=True)
class ColorSqrtFactor:
    """One color class: its projector sum h_k and the unitary Z_k whose imaginary
    part is the square root, sin(delta_e) = sqrt(alpha_bar_e) per edge."""

    color: int
    h_matrix: np.ndarray
    z_unitary: np.ndarray

    @property
    def sqrt_h(self) -> np.ndarray:
        return (-1j * self.z_unitary + 1j * self.z_unitary.conj().T) / 2


@dataclass(frozen=True)
class DiagonalSqrtFactor:
    """Boundary factor: diagonal phases with cos(theta_s) = sqrt(b_s) on
    unmarked states, b_s the probability of stepping from s into the marked
    set, and phase i on marked ones."""

    u_diagonal: np.ndarray
    thetas: np.ndarray

    @property
    def sqrt_h(self) -> np.ndarray:
        return (self.u_diagonal + self.u_diagonal.conj().T) / 2


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
    eye = np.eye(n, dtype=complex)
    for k, edge_class in enumerate(coloring.classes):
        h_k = np.zeros((n, n), dtype=complex)
        z_k = eye.copy()
        for a, b in edge_class:
            # orientation (sigma=a, sigma'=b): the projector is orientation-free
            mu = _mu_state(n, a, b, float(p[a, b]), float(p[b, a]))
            mu_bar = mu.normalized()
            proj = np.outer(mu_bar, mu_bar.conj())
            h_k += mu.alpha_bar * proj
            delta = math.asin(min(math.sqrt(mu.alpha_bar), 1.0))
            z_k += (np.exp(1j * delta) - 1.0) * proj
        colors.append(ColorSqrtFactor(color=k, h_matrix=h_k, z_unitary=z_k))
    thetas = np.zeros(n)
    phases = np.full(n, 1j, dtype=complex)
    for s in oracle.unmarked:
        thetas[s] = math.acos(min(math.sqrt(_boundary_weight(oracle, s)), 1.0))
        phases[s] = np.exp(1j * thetas[s])
    diagonal = DiagonalSqrtFactor(u_diagonal=np.diag(phases), thetas=thetas)
    return SqrtFactors(colors=tuple(colors), diagonal=diagonal)


def assemble_tilde_h_sparse(
    factors: SqrtFactors, coloring: EdgeColoring, oracle: SparseChainOracle
) -> tuple[UnitaryDecomposition, GapAmplifiedHamiltonian]:
    """Assemble the enlarged operator from the colored square roots.

    Each color block enters as sqrt(2) * sqrt(h_k) so the ancilla-0 sector of
    the square recovers the doubled (ordered-pair) edge weights; the boundary
    block enters unscaled. Every block also expands into four unitaries
    through the one-level ancilla rotations, giving at most 4(K'+1) terms whose
    weighted sum equals the enlarged operator exactly.
    """
    color_blocks = [math.sqrt(2.0) * f.sqrt_h for f in factors.colors]
    blocks = color_blocks + [factors.diagonal.sqrt_h]
    g = assemble_gap_amplified(blocks, oracle.n_states)

    ancilla_dim = g.ancilla_dim
    terms: list[tuple[float, np.ndarray]] = []
    for k, factor in enumerate(factors.colors, start=1):
        rot_minus, rot_plus = ancilla_rotations(k, ancilla_dim)
        z = factor.z_unitary
        weight = math.sqrt(2.0) / 4
        terms.append((weight, np.kron(z, rot_minus)))
        terms.append((weight, -np.kron(z, rot_plus)))
        terms.append((weight, -np.kron(z.conj().T, rot_minus)))
        terms.append((weight, np.kron(z.conj().T, rot_plus)))
    k_diag = len(factors.colors) + 1
    rot_minus, rot_plus = ancilla_rotations(k_diag, ancilla_dim)
    u_d = factors.diagonal.u_diagonal
    for mat, rot, sign in (
        (u_d, rot_minus, 1j),
        (u_d, rot_plus, -1j),
        (u_d.conj().T, rot_minus, 1j),
        (u_d.conj().T, rot_plus, -1j),
    ):
        terms.append((0.25, sign * np.kron(mat, rot)))
    decomposition = UnitaryDecomposition(dim=g.dim, terms=tuple(terms))

    residual = float(np.max(np.abs(decomposition.weighted_sum() - g.operator.matrix)))
    if residual > _ATOL:
        raise ValidationError(f"unitary expansion misses the enlarged operator by {residual:.3e}")
    return decomposition, g


def decomposition_manifest(oracle: SparseChainOracle) -> dict:
    """Run the full sparse construction and summarize it for the manifest JSON."""
    terms, h_bar = build_h_bar(oracle)
    projected = project_h(terms, oracle)
    coloring = color_edges(oracle)
    factors = build_sqrt_factors(coloring, oracle)
    decomposition, g = assemble_tilde_h_sparse(factors, coloring, oracle)
    sector = g.sector_block(g.operator.matrix @ g.operator.matrix)
    residual = float(np.max(np.abs(sector - projected.matrix.matrix)))
    return {
        "colors": coloring.n_colors,
        "terms": decomposition.n_terms,
        "alpha_list": [float(alpha) for alpha, _ in decomposition.terms],
        "reconstruction_residual": residual,
    }
