"""Sparse-access construction of the gap-amplified walk Hamiltonian.

From edge-list access to a reversible chain and its marked set, the walk
Hamiltonian 1 - S on the unmarked block is a sum of rank-1 projectors onto
two-coordinate states mu_e, one per unmarked edge e = (a, b), a < b, plus a
diagonal boundary term. A greedy proper edge coloring splits the projectors
into orthogonal classes, so the square root of each class sum is exactly
expressible through one unitary Z_k, the identity apart from a 2x2 block per
edge; a diagonal unitary carries the boundary term the same way. Each such
square-root factor takes one ancilla level of the enlarged operator, whose
square restricts to the walk Hamiltonian, and expands into four unitary
terms: the construction's only presentation.

`decomposition_manifest` (the `appendix-verify` path) reads the chain's edge
list and the marked mask of a `markov.MarkedPartition`, and builds all of it
from one table of the unmarked edges in O(N d), without any N x N or
enlarged matrix; its dense views are test oracles. It checks only what a
chain decides: pair weights at most 1, each factor and its adjoint unitary,
and the squared blocks against the walk Hamiltonian. The sparse-access gate
cost of simulating the construction is priced by `cost.theorem2_cost`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .markov import MarkedPartition, MarkovChain

# The tolerance of the factor unitarity and the reconstruction checks.
ATOL = 1e-10
# Per ancilla level, (scale, weight): the level's block B_k is scale times the
# square root of its part of H, and it expands into four unitaries of one
# weight (see `Level`).
_COLOR_TERMS = (math.sqrt(2.0), math.sqrt(2.0) / 4)
_BOUNDARY_TERMS = (1.0, 0.25)


def _pair_table(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain's edges (s, s'), s != s', by s then s', with Pr(s|s') and Pr(s'|s)."""
    p = chain.transition
    s, sp = chain.edges[chain.edges[:, 0] != chain.edges[:, 1]].T
    return np.stack([s, sp], axis=1), p[s, sp], p[sp, s]


@dataclass(frozen=True)
class Level:
    """Ancilla level k of the enlarged operator, for one square-root factor F.

    F is given by its parts (pairs, blocks, off): 2x2 blocks on disjoint index
    pairs, `off` on the diagonal elsewhere. The level's block is
    B_k = scale * (p F + q F^dagger), (p, q) the coefficients, and it expands
    into four unitaries sign * (F_t (x) R_t) of one weight, with F_t = F, F,
    F^dagger, F^dagger and R_t = R_-, R_+, R_-, R_+ the ancilla rotations of
    level k; `terms` is (scale, weight). The signs (1, -1, -1, 1) on a color
    level and (i, -i, i, -i) on the boundary, and the rotations, depend on no
    chain, so only F is kept. `edges` are the edge-table rows of F's blocks.
    """

    edges: np.ndarray
    parts: tuple
    coefficients: tuple
    terms: tuple


def _pair_data(p_to: np.ndarray, p_from: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per pair (sigma, sigma'), the squared norm alpha_bar of
    mu = (sqrt(Pr(sigma|sigma'))|sigma'> - sqrt(Pr(sigma'|sigma))|sigma>)/sqrt(2)
    and the normalized coefficients of mu on (sigma, sigma')."""
    alpha_bar = (p_to + p_from) / 2
    if np.any(alpha_bar > 1 + 1e-12):
        raise ValidationError("pair weight exceeds 1; transition rows are not substochastic")
    mu = np.stack([-np.sqrt(p_from / 2), np.sqrt(p_to / 2)], axis=-1)
    return alpha_bar, mu / np.sqrt(alpha_bar)[:, None]


def _outer(mu_bar: np.ndarray) -> np.ndarray:
    return mu_bar[:, :, None] * mu_bar[:, None, :]


def _edge_table(mp: MarkedPartition, table: tuple) -> tuple[np.ndarray, ...]:
    """The unmarked edges (a, b), a < b, of the pair table, in its order, with their
    alpha_bar and mu_bar and one color each. The coloring is greedy: each edge in
    turn takes the least color free at both ends, so every class is a matching
    and at most 2d - 1 colors are used."""
    pairs, p_to, p_from = table
    a, b = pairs.T
    keep = (a < b) & ~mp.marked_mask[a] & ~mp.marked_mask[b]
    alpha_bar, mu_bar = _pair_data(p_to[keep], p_from[keep])
    taken: dict[int, set[int]] = defaultdict(set)
    colors = []
    for u, v in pairs[keep].tolist():
        used = taken[u] | taken[v]
        colors.append(min(set(range(len(used) + 1)) - used))
        taken[u].add(colors[-1])
        taken[v].add(colors[-1])
    return pairs[keep], alpha_bar, mu_bar, np.array(colors, dtype=int)


def _boundary_weights(mp: MarkedPartition, table: tuple) -> np.ndarray:
    """Per state, the total probability of stepping from it into the marked set, read
    off the pair table; 0 if marked."""
    pairs, _, p_from = table
    s, sp = pairs.T
    leaving = ~mp.marked_mask[s] & mp.marked_mask[sp]
    return np.bincount(s[leaving], weights=p_from[leaving], minlength=mp.chain.n_states)


def walk_hamiltonian(alpha_bar: np.ndarray, mu_bar: np.ndarray, boundary: np.ndarray) -> tuple:
    """The unmarked-block restriction of 1 - S as (weights, mu_bar, diagonal): weight
    2 alpha_bar on |mu_e><mu_e| per unmarked edge, whose two orientations share
    one projector, and the boundary weights, onto which the straddling pairs collapse."""
    return 2.0 * alpha_bar, mu_bar, boundary


def _levels(
    mp: MarkedPartition, pairs: np.ndarray, alpha_bar: np.ndarray, mu_bar: np.ndarray,
    colors: np.ndarray, boundary: np.ndarray,
) -> list[Level]:
    """The color levels 1..K', level k holding the edges of color k - 1, then the boundary.

    Z_k = exp(i sum_e delta_e |mu_e><mu_e|), delta_e = asin(sqrt(alpha_bar_e)),
    has one 2x2 block per edge of its class, and (-i Z_k + i Z_k^dagger)/2 is
    the square root of the class sum. The boundary factor U is diagonal, with
    cos(theta_s) = sqrt(b_s) on unmarked states, b_s the boundary weight, and
    phase i on marked ones; (U + U^dagger)/2 is the square root of diag(b).
    """
    deltas = np.arcsin(np.minimum(np.sqrt(alpha_bar), 1.0))
    z_blocks = np.eye(2) + (np.exp(1j * deltas) - 1.0)[:, None, None] * _outer(mu_bar)
    levels = []
    for k in range(int(colors.max(initial=-1)) + 1):
        edges = np.flatnonzero(colors == k)
        parts = (pairs[edges], z_blocks[edges], 1.0)
        levels.append(Level(edges, parts, (-0.5j, 0.5j), _COLOR_TERMS))
    unmarked = ~mp.marked_mask
    phases = np.full(len(boundary), 1j, dtype=complex)
    phases[unmarked] = np.exp(1j * np.arccos(np.minimum(np.sqrt(boundary[unmarked]), 1.0)))
    no_blocks = (np.zeros((0, 2), dtype=int), np.zeros((0, 2, 2), dtype=complex), phases)
    return levels + [Level(np.zeros(0, dtype=int), no_blocks, (0.5, 0.5), _BOUNDARY_TERMS)]


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().transpose(0, 2, 1)


def _combine(parts: tuple, p: complex, q: complex) -> tuple:
    """The parts of p F + q F^dagger."""
    pairs, blocks, off = parts
    return pairs, p * blocks + q * _adjoint(blocks), p * off + q * np.conj(off)


def _factor_defect(parts: tuple, adjoint: bool) -> float:
    """max |G - 1| over the entries, G = F^dagger F, or F F^dagger, from the parts of F."""
    _, blocks, off = parts
    gram = blocks @ _adjoint(blocks) if adjoint else _adjoint(blocks) @ blocks
    return float(max(np.max(np.abs(gram - np.eye(2)), initial=0.0),
                     np.max(np.abs(np.abs(off) ** 2 - 1.0))))


def check_factors(levels: list[Level]) -> list[float]:
    """Check each level's factor F, and F^dagger, once; return the weights of
    the 4(K'+1) unitary terms sign * (F_t (x) R_t), four per level.

    A term is unitary when F_t is, since its sign and rotation are, so a
    factor failing the check is reported as the first term that uses it.
    """
    weights: list[float] = []
    for level in levels:
        _, weight = level.terms
        for adjoint in (False, True):
            if _factor_defect(level.parts, adjoint) > ATOL:
                raise ValidationError(f"term {len(weights)}: matrix is not unitary")
            weights += [weight, weight]
    return weights


def reconstruction_residual(pairs: np.ndarray, projected: tuple, levels: list[Level]) -> float:
    """max |sum_k B_k^2 - H| over the edge blocks and the diagonal, H the projected
    walk Hamiltonian on the edge table `pairs` and sum_k B_k^2 the ancilla-0 sector
    of the squared enlarged operator. Each edge has one color and the classes
    are matchings, so both sides vanish elsewhere."""
    weights, mu_bar, boundary = projected
    n = len(boundary)
    squares = np.zeros((len(pairs), 2, 2), dtype=complex)
    diagonal = np.zeros(n, dtype=complex)
    for level in levels:
        coefficients = (level.terms[0] * c for c in level.coefficients)
        f_pairs, blocks, off = _combine(level.parts, *coefficients)
        square = blocks @ blocks
        squares[level.edges] = square
        diagonal += off * off
        diagonal[f_pairs] += np.diagonal(square, axis1=1, axis2=2)
    target = weights[:, None, None] * _outer(mu_bar)
    target_diagonal = boundary + np.bincount(
        pairs.ravel(), np.diagonal(target, axis1=1, axis2=2).ravel(), minlength=n
    )
    off_diagonal = squares[:, [0, 1], [1, 0]] - target[:, [0, 1], [1, 0]]
    misses = (np.abs(off_diagonal).max(initial=0.0), np.abs(diagonal - target_diagonal).max())
    return float(max(misses))


def decomposition_manifest(mp: MarkedPartition) -> dict:
    """Run the sparse construction on one edge table and summarize it for the manifest JSON."""
    table = _pair_table(mp.chain)
    pairs, alpha_bar, mu_bar, colors = _edge_table(mp, table)
    boundary = _boundary_weights(mp, table)
    levels = _levels(mp, pairs, alpha_bar, mu_bar, colors, boundary)
    weights = check_factors(levels)
    projected = walk_hamiltonian(alpha_bar, mu_bar, boundary)
    residual = reconstruction_residual(pairs, projected, levels)
    if residual > ATOL:
        raise ValidationError(
            f"squared blocks miss the projected walk Hamiltonian by {residual:.3e}"
        )
    return {
        "colors": len(levels) - 1,
        "terms": len(weights),
        "alpha_list": weights,
        "reconstruction_residual": residual,
    }
