"""Reversible Markov chains with marked subsets: validation, the marked
partition, the exact hitting time, variances, and the classical Monte-Carlo
baseline.

Transition matrices are column-stochastic: entry (s', s) is Pr(s'|s). The
stationary vector, detailed balance, irreducibility, aperiodicity and spectrum
nonnegativity are all checked at construction; nothing downstream re-validates.

A `MarkedPartition` is the one object that pairs a chain with its marked set,
and every chain command reads it; `mark_states` is the one reader of a marked
set. Everything else on it is built on first read: the marked mask, the
unmarked block P_UU and its weight pi_U, the walk Hamiltonian
H_U = 1 - sqrt(P_UU o P_UU^T) cut from that block alone (never the N x N
discriminant) with its lowest eigenvalue delta, and the solve of
(1 - P_UU) x = pi_U / pi_U, which the exact hitting time, the variance and the
Monte-Carlo sample count share.

The Monte-Carlo baseline runs its walks in batches of consecutive walk indices,
one numpy step per round for the whole batch. Its uniforms come from a
stateless counter stream (SplitMix64): draw d of walk w is a pure function of
(seed, w, d). Every walk of a batch is at the same draw index, so one stream
call draws a chunk of several rounds for every live walk, and its estimates
are those of a walk-by-walk loop, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import ValidationError, WalkTimeoutError
from .operators import DIMENSION_CAP, HermitianOperator, is_integer, is_number

COLUMN_SUM_ATOL = 1e-12
DETAILED_BALANCE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
# The Monte-Carlo estimator's cap on total walk steps, checked once per chunk.
# A chunk starts at a draw index of at most the cap + 1 and draws at most
# _CHUNK_DRAWS rounds, so a draw index can run one chunk past the cap; draw + 1
# must stay below 2^32 in the walk stream, and cap + _CHUNK_DRAWS + 1 does.
MAX_TOTAL_WALK_STEPS = 10**9
# A sample count this close to a whole number is that number (see
# chebyshev_sample_count).
_SNAP_ULPS = 64
# Elements of one Monte-Carlo round's threshold gather: a batch holds this
# many walks divided by the chain's sparsity, at least 256 under the 4096-state
# cap.
_BATCH_ELEMENTS = 2**20
# Uniforms one stream call draws: a chunk of _CHUNK_DRAWS // live rounds (at
# least one) for the live walks of a batch.
_CHUNK_DRAWS = 2**13
# SplitMix64 constants for the walk stream, as uint64 so that array
# arithmetic on them wraps modulo 2^64.
_GAMMA, _MIX1, _MIX2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_ONE, _U11, _U27, _U30, _U31, _U32 = map(np.uint64, (1, 11, 27, 30, 31, 32))


@dataclass(frozen=True)
class MarkovChain:
    """Validated reversible, irreducible, aperiodic chain with nonnegative spectrum.

    `edges` lists the pairs (a, b) with Pr(b|a) > 0, ordered by a and then b;
    it is the chain's sparsity pattern, read once from the matrix.
    """

    transition: np.ndarray
    stationary: np.ndarray
    edges: np.ndarray

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def sparsity(self) -> int:
        """The most states one state can step to (itself included)."""
        return int(np.bincount(self.edges[:, 0]).max())


def _breadth_first(n: int, a: np.ndarray, b: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Breadth-first search from state 0 along the edges (a, b), sorted by a.

    Returns the reached states in the order reached, and per state its depth
    (-1 if not reached) and its parent in the search tree.
    """
    bounds = np.searchsorted(a, np.arange(n + 1)).tolist()
    targets = b.tolist()
    depth = [-1] * n
    parent = [0] * n
    depth[0] = 0
    order = [0]
    for v in order:
        for u in targets[bounds[v] : bounds[v + 1]]:
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                parent[u] = v
                order.append(u)
    return order, np.array(depth), np.array(parent)


def validate_chain(p) -> MarkovChain:
    """Build a MarkovChain from a raw column-stochastic matrix, or reject it.

    The nonzeros of P are read once, as the edges (a, b) with Pr(b|a) > 0.
    One breadth-first search from state 0 over them gives connectivity,
    bipartiteness and a spanning tree, along which pi follows from
    pi_b / pi_a = Pr(b|a) / Pr(a|b); detailed balance on every edge then
    certifies pi (Kolmogorov's criterion).

    Checks, in order: shape and nonnegativity, column sums, that every state
    is reached, a symmetric support, detailed balance on every edge, the
    fixed-point residual, aperiodicity (some edge, self-loops included, joins
    two depths of equal parity), and nonnegativity of the spectrum (through
    the symmetrized similar matrix), down to EIGENVALUE_FLOOR.
    """
    mat = np.array(p, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    if n < 2:
        raise ValidationError("need at least two states")
    if not np.all(np.isfinite(mat)) or np.any(mat < 0):
        raise ValidationError("transition probabilities must be finite and nonnegative")
    col_sums = mat.sum(axis=0)
    if np.max(np.abs(col_sums - 1.0)) > COLUMN_SUM_ATOL:
        raise ValidationError("columns must sum to 1 (column-stochastic convention)")

    a, b = np.nonzero(mat.T)
    order, depth, parent = _breadth_first(n, a, b)
    if len(order) < n:
        raise ValidationError("chain is reducible (support graph not connected)")
    forward, backward = mat[b, a], mat[a, b]
    if not np.all(backward > 0):
        raise ValidationError("support is not symmetric")

    child = np.array(order[1:])
    up = parent[child]
    ratio = mat[child, up] / mat[up, child]
    pi = [1.0] * n
    for s, q, r in zip(child.tolist(), up.tolist(), ratio.tolist()):
        pi[s] = pi[q] * r
    pi = np.array(pi)
    pi /= pi.sum()
    if not np.all(pi > 0):
        raise ValidationError("stationary vector is not strictly positive")
    if np.max(np.abs(forward * pi[a] - backward * pi[b])) > DETAILED_BALANCE_ATOL:
        raise ValidationError("detailed balance fails: chain is not reversible")
    if np.max(np.abs(mat @ pi - pi)) > 1e-9:
        raise ValidationError("fixed-point residual too large")

    if np.all(depth[a] % 2 != depth[b] % 2):
        raise ValidationError("chain is periodic (bipartite support, no self-loops)")

    eigs = np.linalg.eigvalsh(discriminant_matrix(mat))
    if float(eigs.min()) < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"spectrum has negative eigenvalue {eigs.min():.3e}; lazify the chain first"
        )

    edges = np.stack([a, b], axis=1)
    for arr in (mat, pi, edges):
        arr.flags.writeable = False
    return MarkovChain(transition=mat, stationary=pi, edges=edges)


def discriminant_matrix(p: np.ndarray) -> np.ndarray:
    """Entrywise sqrt(P o P^T), the symmetric matrix similar to P for reversible chains."""
    return np.sqrt(np.asarray(p) * np.asarray(p).T)


@dataclass(frozen=True)
class MarkedPartition:
    """A chain split into unmarked (U) and marked (M) blocks; the mask, the
    U-block and everything read off it are built on first read."""

    chain: MarkovChain
    marked: tuple[int, ...]
    unmarked: tuple[int, ...]

    @property
    def n_unmarked(self) -> int:
        return len(self.unmarked)

    @cached_property
    def marked_mask(self) -> np.ndarray:
        """Per state, whether it is marked."""
        mask = np.zeros(self.chain.n_states, dtype=bool)
        mask[list(self.marked)] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def p_uu(self) -> np.ndarray:
        u = list(self.unmarked)
        p_uu = self.chain.transition[np.ix_(u, u)]
        p_uu.flags.writeable = False
        return p_uu

    @cached_property
    def pi_u(self) -> float:
        return float(self.chain.stationary[list(self.unmarked)].sum())

    @property
    def pi_u_conditioned(self) -> np.ndarray:
        """Stationary vector conditioned on U (sums to 1)."""
        return self.chain.stationary[list(self.unmarked)] / self.pi_u

    @property
    def sqrt_pi_u(self) -> np.ndarray:
        """Unit vector with entries sqrt(pi(s))/sqrt(pi_U) over U."""
        return np.sqrt(self.chain.stationary[list(self.unmarked)] / self.pi_u)

    @cached_property
    def h_matrix(self) -> HermitianOperator:
        """H_U = 1 - D_U^{-1} P_UU D_U = 1 - sqrt(P_UU o P_UU^T), with D_U = diag(sqrt(pi_U)).

        Its spectrum must lie in (0, 1]: delta > 0 for an irreducible chain,
        and the top stays at 1 only if the chain's spectrum is nonnegative.
        """
        h = HermitianOperator(np.eye(self.n_unmarked) - discriminant_matrix(self.p_uu))
        eigs = h.eigensystem[0]
        if float(eigs[0]) <= 0:
            raise ValidationError(f"restricted Hamiltonian is not positive: delta = {eigs[0]:.3e}")
        if float(eigs[-1]) > 1.0 + 1e-9:
            raise ValidationError("restricted Hamiltonian exceeds 1; chain spectrum has negatives")
        return h

    @cached_property
    def delta(self) -> float:
        """The smallest eigenvalue of H_U; 1/delta upper-bounds t_h / pi_U."""
        return float(self.h_matrix.eigensystem[0][0])

    @cached_property
    def resolvent(self) -> np.ndarray:
        """x = (1 - P_UU)^{-1} |pi_U> / pi_U by one dense solve."""
        x = np.linalg.solve(np.eye(self.n_unmarked) - self.p_uu, self.pi_u_conditioned)
        x.flags.writeable = False
        return x


def read_marked(marked, n_states: int) -> tuple[int, ...]:
    """The sorted distinct states of a marked set over n_states states.

    A state is an integer, a numpy integer or an integral float, as in
    `parse_triplet`. Anything else, an empty or full set, or a state out of
    range raises ValidationError.
    """
    try:
        items = list(marked)
    except TypeError:
        raise ValidationError(f"marked set {marked!r} is not a list of states") from None
    if not all(is_integer(s) for s in items):
        raise ValidationError(f"marked set {marked!r} is not a list of integers")
    states = tuple(sorted({int(s) for s in items}))
    if not states:
        raise ValidationError("marked set must be nonempty")
    if states[0] < 0 or states[-1] >= n_states:
        raise ValidationError("marked state out of range")
    if len(states) == n_states:
        raise ValidationError("unmarked set must be nonempty")
    return states


def mark_states(chain: MarkovChain, marked) -> MarkedPartition:
    marked = read_marked(marked, chain.n_states)
    unmarked = tuple(sorted(set(range(chain.n_states)).difference(marked)))
    return MarkedPartition(chain=chain, marked=marked, unmarked=unmarked)


def exact_hitting_time_resolvent(mp: MarkedPartition) -> float:
    """t_h = pi_U <1_U| (1 - P_UU)^{-1} |pi_U>, read off the partition's resolvent."""
    return float(mp.pi_u * mp.resolvent.sum())


def exact_variance(mp: MarkedPartition) -> float:
    """Closed-form variance of the hitting time of a stationary-started walk.

    2 pi_U <1_U| P_UU (1-P_UU)^{-2} |pi_U> + t_h - t_h^2, using
    sum_t t x^t = x/(1-x)^2 termwise on the block.
    """
    t_h = exact_hitting_time_resolvent(mp)
    second = np.linalg.solve(np.eye(mp.n_unmarked) - mp.p_uu, mp.resolvent)
    series = float(np.ones(mp.n_unmarked) @ (mp.p_uu @ second))
    var = 2 * mp.pi_u * series + t_h - t_h * t_h
    return max(var, 0.0)


def chebyshev_sample_count(
    mp: MarkedPartition, epsilon: float, constants: Constants = DEFAULT_CONSTANTS
) -> int:
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    # The product is often a whole number up to rounding, which the solves in
    # exact_variance leave 5 ulps off on the lazy 8-cycle at epsilon 0.1, 14
    # on the lazy 16-cycle at stay 0.9 and epsilon 1, and 49 on the lazy
    # 32-cycle at stay 0.75 and epsilon 0.1. Taking it as that number keeps a
    # one-ulp move of the variance from moving the count by one.
    x = constants.mc_sample_constant * exact_variance(mp) / epsilon**2
    if math.isfinite(x) and abs(x - round(x)) <= _SNAP_ULPS * math.ulp(x):
        x = round(x)
    return max(1, math.ceil(x))


def expected_mc_cost(
    mp: MarkedPartition, epsilon: float, constants: Constants = DEFAULT_CONSTANTS
) -> tuple[int, float]:
    """(sample count, expected total applications of P) for the classical estimator."""
    m = chebyshev_sample_count(mp, epsilon, constants)
    return m, m * exact_hitting_time_resolvent(mp)


def check_seed(seed: int) -> None:
    """Reject a seed that is not a nonnegative integer, before numpy sees it."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, a bijection on [0, 2^64), on a uint64 array:
    array arithmetic wraps silently under numpy 1.x and 2.x, scalars warn."""
    z = (z ^ (z >> _U30)) * _MIX1
    z = (z ^ (z >> _U27)) * _MIX2
    return z ^ (z >> _U31)


def stream_uniforms(base: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """Uniform draw `draw` of the walk whose term is `base`, in [0, 1),
    elementwise over broadcast uint64 arrays.

    Walk w's term under key is key + (w * 2^32 + 1) * gamma mod 2^64, and
    z = mix64(base + draw * gamma mod 2^64) is output w * 2^32 + draw of the
    SplitMix64 sequence from state key; u = (z >> 11) * 2^-53, as numpy's
    Generator.random converts. A seed's key is mix64(seed), a bijection, so
    distinct seeds have distinct keys, and seed 0 reads the sequence from
    state 0. w and draw + 1 must stay below 2^32. A walk keeps its term while
    it runs, so a call pays only for the draw indices.
    """
    z = _mix64(base + draw * _GAMMA)
    return (z >> _U11) * 2.0**-53


def classical_mc_estimate(mp: MarkedPartition, epsilon: float, seed: int) -> tuple[float, int, int]:
    """Monte-Carlo hitting-time estimate from seeded stationary-start walks.

    Walk i reads draw 0 (its start) and draw t (its step t) from
    stream_uniforms under the seed's key, so samples can be partitioned
    across workers and merged by averaging without changing the result.
    Returns (estimate, samples_used, total P applications).

    The walks run in batches of consecutive indices, as many as fit
    _BATCH_ELEMENTS / sparsity, and each walk carries its stream term. One
    stream call starts a whole batch. Its walks are all at the same draw
    index, so one call draws a chunk of max(1, _CHUNK_DRAWS // live) rounds
    for every live walk. Within a chunk a marked state steps to itself, each
    round adds the live count to the step total, and the chunk ends early
    once no walk is live; walks that reached a marked state leave the batch
    between chunks. A draw depends on nothing but (seed, walk, draw), so the
    walks are the ones a walk-by-walk loop takes. A step is a bisection of
    ceil(log2(sparsity)) rounds over the column's cumulative sums (see
    _step_table).
    The step total is an integer sum over walks, so the result does not depend
    on the batch width, the chunk length or the order in which walks finish.
    WalkTimeoutError is raised when the total step count passes
    MAX_TOTAL_WALK_STEPS, checked after each chunk.
    """
    check_seed(seed)
    if seed >= 2**64:
        raise ValidationError(f"seed must be below 2^64, got {seed!r}")
    key = _mix64(np.array([seed], dtype=np.uint64))
    m = chebyshev_sample_count(mp, epsilon)
    if m >= 2**32:
        raise ValidationError(f"{m} walks exceed the stream's 2^32 walk indices")
    chain = mp.chain
    unmarked = ~mp.marked_mask
    # Rounding can leave a cumulative sum just below 1, and a draw above it
    # would index past the last state. Dividing by the last entry pins it at 1
    # and is exact where it already is 1.
    cum_pi = np.cumsum(chain.stationary)
    cum_pi /= cum_pi[-1]
    targets, thresholds = _step_table(chain)
    targets[mp.marked_mask] = np.flatnonzero(mp.marked_mask)[:, None]
    row = targets.shape[1]
    targets, thresholds = targets.ravel(), thresholds.ravel()
    # bisection level k compares the entry `stride - 1` past the current one
    levels = [(row >> k, thresholds[(row >> k) - 1 :]) for k in range(1, row.bit_length())]

    width = _BATCH_ELEMENTS // chain.sparsity
    total_steps = 0
    for first in range(0, m, width):
        walk = np.arange(first, min(first + width, m), dtype=np.uint64)
        base = key + ((walk << _U32) + _ONE) * _GAMMA
        start = stream_uniforms(base, np.zeros(1, dtype=np.uint64))
        state = np.searchsorted(cum_pi, start, side="right")
        live = unmarked[state]
        live_count = int(np.count_nonzero(live))
        draw = 1
        while live_count:
            if live_count < base.size:
                base, state = base[live], state[live]
            rounds = max(1, _CHUNK_DRAWS // live_count)
            chunk = stream_uniforms(base, np.arange(draw, draw + rounds, dtype=np.uint64)[:, None])
            for u in chunk:
                total_steps += live_count
                pos = state * row
                for stride, level in levels:
                    pos += stride * (level[pos] <= u)
                state = targets[pos]
                live = unmarked[state]
                live_count = int(np.count_nonzero(live))
                if not live_count:
                    break
            draw += rounds
            if total_steps > MAX_TOTAL_WALK_STEPS:
                raise WalkTimeoutError(f"exceeded {MAX_TOTAL_WALK_STEPS} total walk steps")
    # every step adds one to one walk's hitting time, so the times sum to it
    return total_steps / m, m, total_steps


def _step_table(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray]:
    """Per-state support of each column and its cumulative sums, padded to the
    power of two at or above the sparsity.

    Row s lists the states reachable from s in ascending order (targets) and
    the cumulative sums of column s at those states, divided by the column's
    total (thresholds), padded with +inf. A step from s on draw u < 1 goes to
    targets[s, k] with k the count of thresholds <= u. Zero entries add 0.0
    exactly to a cumulative sum, so the thresholds are those of the dense
    column, bit for bit, and this is the state that searchsorted over that
    column picks. A row ascends and ends at 1.0 or +inf, so a row of length
    2^j finds k by a j-round bisection.
    """
    cols, rows = chain.edges.T
    counts = np.bincount(cols, minlength=chain.n_states)
    rank = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    row = 1 << (chain.sparsity - 1).bit_length()
    shape = (chain.n_states, row)
    targets = np.zeros(shape, dtype=np.intp)
    targets[cols, rank] = rows
    thresholds = np.zeros(shape)
    thresholds[cols, rank] = chain.transition[rows, cols]
    thresholds = np.cumsum(thresholds, axis=1)
    thresholds /= thresholds[:, -1:]
    thresholds[np.arange(row) >= counts[:, None]] = np.inf
    return targets, thresholds


# ---------------------------------------------------------------------------
# Chain families.

def lazy_cycle(n: int, stay: float = 0.5) -> MarkovChain:
    """Cycle walk that stays put with probability `stay` and hops to a random neighbor
    otherwise. stay >= 1/2 keeps the spectrum nonnegative."""
    if n < 3:
        raise ValidationError("cycle needs at least 3 states")
    if n > DIMENSION_CAP:
        raise ValidationError(f"{n} states exceed cap {DIMENSION_CAP}")
    if not 0.5 <= stay < 1.0:
        raise ValidationError("stay probability must lie in [0.5, 1)")
    p = np.zeros((n, n))
    hop = (1.0 - stay) / 2
    for s in range(n):
        p[s, s] = stay
        p[(s + 1) % n, s] += hop
        p[(s - 1) % n, s] += hop
    return validate_chain(p)


# ---------------------------------------------------------------------------
# Sparse-triplet JSON wire format.

def parse_triplet(item) -> tuple[int, int, float]:
    """(row, col, Pr(row|col)) from a chain entry [integer, integer, number].

    Python and numpy integers and floats are numbers; bools, strings, nulls,
    fractional indices and integers too large for a double raise
    ValidationError.
    """
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 3
        or not (is_integer(item[0]) and is_integer(item[1]) and is_number(item[2]))
    ):
        raise ValidationError(f"chain entry {item!r} is not [integer, integer, number]")
    try:
        return int(item[0]), int(item[1]), float(item[2])
    except OverflowError:
        message = f"chain entry ({item[0]}, {item[1]}): probability too large for a double"
        raise ValidationError(message) from None


class ChainJson(NamedTuple):
    """The sparse-triplet JSON form of a chain as `read_chain` types it."""

    n_states: int
    entries: list[tuple[int, int, float]]
    marked: list[int]


def read_chain(obj) -> ChainJson:
    """Type a {"n_states", "entries", "marked"} object: n_states an integer >= 2, each
    entry by `parse_triplet`, marked a list of integers. `chain_from_json` checks the
    entries' ranges, and `mark_states` reads the marked set."""
    if not (isinstance(obj, dict) and obj.keys() == {"n_states", "entries", "marked"}):
        raise ValidationError("malformed chain JSON: the fields are not n_states, entries, marked")
    n, entries, marked = obj["n_states"], obj["entries"], obj["marked"]
    if not (is_integer(n) and n >= 2):
        raise ValidationError(f"malformed chain JSON: n_states {n!r} is not an integer >= 2")
    if not isinstance(entries, (list, tuple)):
        raise ValidationError(f"malformed chain JSON: entries {entries!r} is not a list")
    if not (isinstance(marked, (list, tuple)) and all(map(is_integer, marked))):
        raise ValidationError(f"marked set {marked!r} is not a list of integers")
    return ChainJson(int(n), [parse_triplet(item) for item in entries], [int(s) for s in marked])


def chain_from_json(obj) -> tuple[MarkovChain, list[int]]:
    """The chain of a JSON object, or of a `ChainJson` already read from one, and its
    marked list as typed, for `mark_states` to read."""
    n, entries, marked = obj if isinstance(obj, ChainJson) else read_chain(obj)
    # checked before the n x n matrix is allocated
    if n > DIMENSION_CAP:
        raise ValidationError(f"{n} states exceed cap {DIMENSION_CAP}")
    p = np.zeros((n, n))
    seen = set()
    for r, c, prob in entries:
        if not (0 <= r < n and 0 <= c < n):
            raise ValidationError(f"triplet index out of range: {[r, c, prob]!r}")
        if (r, c) in seen:
            raise ValidationError("a (row, col) index repeats in the triplets")
        seen.add((r, c))
        p[r, c] = prob
    return validate_chain(p), marked
