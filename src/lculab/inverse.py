"""Hitting-time estimation by applying the operator inverse as a double grid of evolutions.

1/x = integral of exp(-z x) over z >= 0, and each exp(-z x) is itself a
Gaussian integral of phases exp(-i y sqrt(2 z) x). Discretizing both
integrals expresses H^{-1} as one large positive combination of evolutions of
the gap-amplified H~. The hitting time is then gamma times the expectation of
that combination in the stationary state conditioned on the unmarked block,
estimated by a phase-estimation amplitude sampler at the metrology rate.

Every chain quantity comes from one `MarkedPartition`: the spectral measure
of sqrt(pi_U) under the walk Hamiltonian H_U (its eigenvalues and their
weights), the gap delta, and the exact hitting time, read off the resolvent
solve that the classical cost comparison shares. The combination is even in
H~, so on the ancilla-0 sector it is the certified scalar filter
`InverseGrid.inverse_filter` of H_U. The pipeline evaluates that filter on
the eigenvalues of H_U that carry stationary weight, reads no eigenvector and
never builds H~, so nothing is larger than the chain itself, whose N the
dimension cap bounds. The tests build the combination over evolutions of H~
as the reference it is checked against.

Every argument sqrt(2 z_k x) of the filter meets the same y-series, so a
grid reads it off one `GaussianCosineTable` over its whole domain x <= 1,
built on first use: 16 Clenshaw steps per argument instead of the J + 1
cosines of the direct sum, and an error near float64's resolution. The
row-order z-sum carries the exact rounding error of each of its additions,
so it adds about one rounding to the value instead of one per z-node.

The grid and the expectation are fixed by the chain, delta and epsilon, so a
`HittingTimeTask` builds them on first read; only the amplitude sample
depends on the seed, and a seed sweep over one task reuses the rest.

Each calibration round is first bounded in closed form, in O(samples). The
inner y-sum is the trapezoid rule for a Gaussian, so by Poisson summation it
is exp(-z x) plus an aliasing term and minus a truncation tail, both bounded
explicitly; the left z-sum of exp(-z x) is geometric. That gives an interval
(lo, hi) holding the sample test's max error (`InverseGrid.error_bounds`),
with a margin for roundoff. A round is accepted when hi is within target and
rejected when lo is past it, where the sample test would give the same
verdict, so the interval never changes a grid; only a round whose interval
holds the target evaluates the filter (`sample_error`), on all samples. The
grid holds its inner y-grid, the `HsGrid` at beta = 2 z_K, whose calibration
settles its rounds by the same two methods and runs only when z_K changes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .cost import CostEntry, CostReport, hitting_eps_prime, hitting_ledger, presentation_gate_cost
from .errors import CalibrationError, ValidationError
from .gap_amplification import split_indices
from .gibbs import MAX_REFINEMENTS, SAMPLE_COUNT, TARGET_MARGIN, HsGrid, calibrate_hs_grid
from .lcu import UNIT_ROUNDOFF, GaussianCosineTable, cosine_series_bounds, cosine_table_bound
from .markov import MarkedPartition, check_seed, exact_hitting_time_resolvent, expected_mc_cost

logger = logging.getLogger(__name__)

BASE_CONFIDENCE = 8.0 / math.pi**2
# The most (K+1) * n * (J+1) node terms of the double sum one filter call
# may take: 11x the lazy 32-cycle's whole spectrum at eps 0.1 (K = 138,422,
# n = 31, J = 2,090; its expectation filters 16 of them), the largest run
# measured to finish. Past it the left-rule z-grid is too fine for the gap or
# the precision, and the call fails before it allocates anything.
_FILTER_WORK_BUDGET = 10**11
# The top of the filter's domain: a spectrum in [delta, 1], with room for its
# rounding (`MarkedPartition.spectral_measure` admits a top up to 1 + 1e-9).
_X_MAX = 1.0 + 1e-6


@dataclass(frozen=True)
class InverseGrid:
    """Double grid z_k = k*delta_z (k = 0..K) over `inner`, the y-grid
    y_j = j*delta_y (j = -J..J) calibrated for exp(-z_K x) at beta = 2 z_K.

    The combination sum_{k,j} delta_z w_j exp(-i y_j sqrt(2 z_k) H~)
    approximates H^{-1} on spectra inside [delta_lower, 1]; gamma, the total
    weight, tracks z_K to relative order of the calibration's epsilon.
    """

    delta_lower: float
    delta_z: float
    k_max: int
    inner: HsGrid

    @property
    def delta_y(self) -> float:
        return self.inner.delta_y

    @property
    def j_max(self) -> int:
        return self.inner.j_max

    @property
    def z_max(self) -> float:
        return self.k_max * self.delta_z

    @property
    def z_nodes(self) -> np.ndarray:
        return np.arange(self.k_max + 1) * self.delta_z

    @property
    def gamma(self) -> float:
        return (self.k_max + 1) * self.delta_z * self.inner.weight_sum

    @cached_property
    def table(self) -> GaussianCosineTable:
        """The y-series on every argument sqrt(2 z_k x) of the filter's domain
        0 <= x <= `_X_MAX`, built on first read. Its top is rounded as the
        arguments are, so it bounds each of them."""
        a_max = float(np.sqrt(2.0 * (self.z_max * _X_MAX)))
        return GaussianCosineTable(a_max, self.delta_y, self.j_max)

    def inverse_filter(self, x) -> np.ndarray:
        """The scalar double sum approximating 1/x at 0 <= x <= 1 (+1e-6). Each
        y-series is read off `table`, and the z-series is summed in row order at
        every x, with each addition's rounding error added back, so a value does
        not depend on the call's width. A call past `_FILTER_WORK_BUDGET`
        node terms of the double sum, (K+1) n (J+1), is a `CalibrationError`."""
        x = np.asarray(x, dtype=float)
        work = (self.k_max + 1) * x.size * (self.j_max + 1)
        if work > _FILTER_WORK_BUDGET:
            raise CalibrationError(
                f"the inverse filter needs (K+1) n (J+1) = {work:.3g} element-steps "
                f"(K={self.k_max}, n={x.size}, J={self.j_max}), past the budget of "
                f"{_FILTER_WORK_BUDGET:.0e}: the left-rule z-grid (delta_z={self.delta_z:.3g}, "
                f"gap bound {self.delta_lower:.3g}) is too fine"
            )
        if x.size and not (x.min() >= 0.0 and x.max() <= _X_MAX):
            raise ValidationError(
                f"the inverse filter takes 0 <= x <= {_X_MAX!r}, got [{x.min()!r}, {x.max()!r}]"
            )
        series = self.table(np.sqrt(2.0 * np.outer(self.z_nodes, x)))
        # Row-order partial sums s_k = fl(s_{k-1} + x_k), and each addition's
        # exact rounding error by TwoSum: with b = s_k - s_{k-1}, it is
        # (s_{k-1} - (s_k - b)) + (x_k - b). The errors are summed in row order too.
        sums = np.cumsum(series, axis=0)
        errors = np.empty_like(series)
        errors[0] = 0.0
        rounded = errors[1:]
        np.subtract(sums[1:], sums[:-1], out=rounded)
        series[1:] -= rounded
        np.subtract(sums[1:], rounded, out=rounded)
        np.subtract(sums[:-1], rounded, out=rounded)
        rounded += series[1:]
        return self.delta_z * (sums[-1] + np.cumsum(errors, axis=0, out=errors)[-1])

    def sample_error(self, samples: np.ndarray) -> tuple[float, float]:
        """The sample test's max error |1/x - inverse_filter(x)|, as (err, err)."""
        err = float(np.max(np.abs(1.0 / samples - self.inverse_filter(samples))))
        return err, err

    def error_bounds(self, samples: np.ndarray) -> tuple[float, float]:
        """An interval (lo, hi) that holds the error `sample_error` computes, in closed form.

        With G(x) = delta_z expm1(-(K+1) delta_z x) / expm1(-delta_z x), the left
        z-sum of exp(-z x), the filter lies within B = (K+1) delta_z (images +
        tail) of G wherever a_max = sqrt(2 z_K max x) < pi/delta_y, where images
        and tail are the y-sum's Poisson images and truncation tail at a_max
        (`cosine_series_bounds`). The computed filter differs from the exact one
        by at most the roundoff margin, with u = 2^-53 and s = 1 + delta_y,
            eta(x) = (K+1) delta_z [roundoff + 2 (K+1) s u] + 64 u/x + 1e-9 B,
        where roundoff bounds each y-series value the grid's `table` reads off
        (`cosine_table_bound`: coefficient and phase rounding, Chebyshev
        truncation and Clenshaw roundoff), the z-sum adds K+1 series, each at
        most s in size, with its additions' rounding errors added back in (which
        errs by less than the plain sum the term covers), 64 u/x covers 1/x, the
        final scaling and subtraction, and the float evaluation of G, and 1e-9 B
        covers that of images and tail.
        So lo = max(|G - 1/x| - B - eta) and hi = max(|G - 1/x| + B + eta); at
        a_max >= pi/delta_y the interval is (-inf, inf).
        """
        k1, dz, dy = self.k_max + 1, self.delta_z, self.delta_y
        # sqrt(2 z_K x) rounds at most 2u low, so the factor keeps a_max an upper bound.
        a_max = math.sqrt(2.0 * self.z_max * float(samples.max())) * (1.0 + 4.0 * UNIT_ROUNDOFF)
        images, tail, _ = cosine_series_bounds(a_max, dy, self.j_max)
        if images == math.inf:
            return -math.inf, math.inf
        bound = k1 * dz * (images + tail)
        geometric = dz * np.expm1(-k1 * dz * samples) / np.expm1(-dz * samples)
        gap = np.abs(geometric - 1.0 / samples)
        roundoff = cosine_table_bound(a_max, dy, self.j_max)
        eta = (
            k1 * dz * (roundoff + 2.0 * k1 * (1.0 + dy) * UNIT_ROUNDOFF)
            + 64.0 * UNIT_ROUNDOFF / samples
            + 1e-9 * bound
        )
        return float(np.max(gap - bound - eta)), float(np.max(gap + bound + eta))


def calibrate_inverse_grid(delta_lower: float, epsilon: float) -> InverseGrid:
    """Pick (z_K, delta_z) and the inner node grid so the double sum hits 1/x.

    Seeds z_K = (1/Delta) ln(1/(Delta eps)) and delta_z = eps, and calibrates
    the inner grid to tolerance eps/(4 z_K) whenever z_K changes: a round that
    keeps z_K keeps the last inner grid, which is a pure function of z_K and
    eps. On failure the exponential tail diagnostic decides whether to double
    z_K or halve delta_z. The exit test is the full double sum against 1/x on
    64 samples of [Delta, 1]: a grid is accepted only when every sample is
    within target. Each round's error is first bounded by the grid's
    `error_bounds` interval (lo, hi), and a round is accepted at hi <= target
    and rejected at lo > target, as `calibrate_hs_grid` settles its rounds.
    Only a round with lo <= target < hi runs `sample_error`, one filter call
    on all samples, so the interval changes no grid.
    """
    if not (0 < delta_lower <= 1):
        raise ValidationError(f"delta_lower must be in (0, 1], got {delta_lower!r}")
    if not (0 < epsilon < 1):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon!r}")
    kappa = 1.0 / delta_lower
    z_target = kappa * math.log(kappa / epsilon)
    delta_z = epsilon
    half = SAMPLE_COUNT // 2
    samples = np.unique(np.concatenate([
        np.geomspace(delta_lower, 1.0, half), np.linspace(delta_lower, 1.0, SAMPLE_COUNT - half)
    ]))
    target = TARGET_MARGIN * epsilon / 2

    inner = None
    for iteration in range(MAX_REFINEMENTS):
        nodes = z_target / delta_z
        if not math.isfinite(nodes):
            raise CalibrationError(
                f"inverse grid needs z_K/delta_z = {nodes} nodes at "
                f"delta_lower {delta_lower!r}, epsilon {epsilon!r}"
            )
        k_max = max(1, math.ceil(nodes))
        z_max = k_max * delta_z
        if inner is None or inner.beta != 2.0 * z_max:
            inner = calibrate_hs_grid(1.0, 2.0 * z_max, epsilon / (2.0 * z_max))
        grid = InverseGrid(delta_lower=delta_lower, delta_z=delta_z, k_max=k_max, inner=inner)
        # The error is the interval (lo, hi); the filter's own is (err, err).
        lo, hi = grid.error_bounds(samples)
        if lo <= target < hi:
            lo, hi = grid.sample_error(samples)
        logger.debug(
            "inverse-grid calibration %d: z_K=%.3g delta_z=%.3g K=%d J=%d "
            "err in [%.3e, %.3e] target=%.3e",
            iteration, z_max, delta_z, k_max, inner.j_max, lo, hi, target,
        )
        if hi <= target:
            return grid
        tail = math.exp(-z_max * delta_lower) / delta_lower
        if tail > epsilon / 8:
            z_target *= 2
        else:
            delta_z /= 2
    raise CalibrationError(
        f"inverse grid failed to reach {target:.3e} within {MAX_REFINEMENTS} refinements"
    )


def t_circuit_expectation(grid: InverseGrid, mp: MarkedPartition) -> float:
    """(pi_U / gamma) <sqrt(pi_U)| X |sqrt(pi_U)> on the sector spectrum of H_U.

    X acts on the ancilla-0 sector as inverse_filter(H), so with H = sum_i
    lambda_i |v_i><v_i| and weights w_i = |<v_i|sqrt(pi_U)>|^2, the
    partition's `spectral_measure`, the value is
    pi_U sum_i w_i inverse_filter(lambda_i) / gamma. This equals t_h / gamma
    up to the grid's discretization error. The spectrum lies inside the
    grid's [delta_lower, 1]: `spectral_measure` bounds its top by 1, and a
    task's delta is at most H_U's lowest eigenvalue.

    The filter is evaluated only where w_i gamma > 2^-60 max_k w_k, and a
    skipped eigenvalue adds 0 in its slot, so the sum keeps its length and
    order. Every weight of the double sum is positive and every cosine at
    most 1, so |inverse_filter| <= gamma: skipping moves the value by at
    most pi_U sum_skipped w_i, and the estimate z_K * value by at most
    z_K pi_U sum_skipped w_i. Each skipped term is below 2^-60 of the
    largest one, itself at least w_max since the filter is near 1/x >= 1.
    On the lazy cycles the reflection-odd eigenvectors carry weight near
    1e-32 and are skipped; a chain without such a symmetry skips nothing.
    """
    eigs, weights = mp.spectral_measure
    live = weights * grid.gamma > 2.0**-60 * weights.max()
    f = np.zeros_like(eigs)
    f[live] = grid.inverse_filter(eigs[live])
    return mp.pi_u * float(weights @ f) / grid.gamma


def _fejer_outcome(theta: float, m: int, u: float) -> int:
    """Inverse transform: the outcome in [0, M) that a uniform u in [0, 1) draws.
    Walk k = 0, +1, -1, +2, ... mod M from y0 = round(M theta) = M theta - f, adding
    Pr(y0 + k) = (sin(pi f) / (M sin(pi (f - k) / M)))^2 (1 at a zero denominator) until
    the sum passes u: O(log M) steps expected, as tails fall like 1/(pi^2 k^2). Roundoff
    alone, in at most about M 2^-53 of all u, leaves u unpassed: the last outcome is taken."""
    y0 = round(m * theta)
    f = m * theta - y0
    s, total = math.sin(math.pi * f), 0.0
    for step in range(m):
        k = (step + 1) // 2 if step % 2 else -(step // 2)
        den = m * math.sin(math.pi * (f - k) / m)
        total += 1.0 if den == 0.0 else (s / den) ** 2
        if total > u:
            break
    return (y0 + k) % m


def amplitude_estimation(
    true_value: float,
    epsilon: float,
    confidence: float = BASE_CONFIDENCE,
    seed: int = 0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[float, int]:
    """Sample the canonical phase-estimation estimate of an amplitude in [0, 1].

    The M-point outcome distribution Pr(y) = sin^2(M pi d_y)/(M^2 sin^2(pi d_y)),
    d_y = theta - y/M with theta = asin(sqrt(a))/pi, is sampled exactly, one
    uniform per outcome, by `_fejer_outcome`; the estimate is sin^2(pi y / M).
    M = ceil(c/eps) rounded up to even so that a = 0 and a = 1 sit exactly on
    the grid. Confidence above the single-run level 8/pi^2 is bought by median
    boosting; returns (estimate, total grover queries).
    """
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    if not (0.0 < confidence < 1.0):
        raise ValidationError("confidence must be in (0, 1)")
    check_seed(seed)
    if not (0.0 <= true_value <= 1.0):
        raise ValidationError(f"amplitude must be in [0, 1], got {true_value!r}")
    m = math.ceil(constants.ae_query_constant / epsilon)
    m += m % 2
    if confidence <= BASE_CONFIDENCE + 1e-12:
        repetitions = 1
    else:
        repetitions = 1 + 2 * math.ceil(
            constants.ae_boost_constant * math.log(1.0 / (1.0 - confidence))
        )
    theta = math.asin(math.sqrt(true_value)) / math.pi
    rng = np.random.default_rng([seed])
    outcomes = np.array([_fejer_outcome(theta, m, u) for u in rng.random(repetitions)])
    estimates = np.sin(np.pi * outcomes / m) ** 2
    return float(np.median(estimates)), repetitions * m


@dataclass(frozen=True)
class HittingTimeTask:
    """A hitting-time estimation problem at absolute precision epsilon."""

    partition: MarkedPartition
    epsilon: float
    confidence: float = BASE_CONFIDENCE
    delta_lower: float | None = None
    constants: Constants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValidationError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.delta_lower is not None and not (
            0 < self.delta_lower <= self.partition.delta + 1e-12
        ):
            raise ValidationError("delta_lower must be a positive lower bound on the gap")

    @property
    def delta(self) -> float:
        return self.delta_lower if self.delta_lower is not None else self.partition.delta

    @property
    def epsilon_prime(self) -> float:
        return hitting_eps_prime(self.delta, self.epsilon, self.constants)

    @cached_property
    def grid(self) -> InverseGrid:
        """The inverse grid calibrated at (delta, epsilon), built on first read."""
        return calibrate_inverse_grid(self.delta, self.epsilon)

    @cached_property
    def amplitude(self) -> float:
        """The exact circuit expectation on `grid`, built on first read."""
        return t_circuit_expectation(self.grid, self.partition)


@dataclass(frozen=True)
class HittingTimeResult:
    estimate: float
    exact_amplitude: float
    z_max: float
    grover_queries: int
    cost: CostReport
    classical_cost_comparison: tuple[int, float]
    exact_hitting_time: float


def estimate_hitting_time(task: HittingTimeTask, seed: int = 0) -> HittingTimeResult:
    """Full pipeline: sample one amplitude estimate of the task's circuit
    expectation at precision eps', and rescale by z_K. The ledger prices one
    run as queries * (C_W + C_U + C_sqrt_pi + C_B).

    Only the sample depends on the seed. The task's grid and expectation are
    built on its first run, so a seed sweep over one task reuses them.
    """
    constants = task.constants
    mp = task.partition
    grid = task.grid
    amp = task.amplitude
    amp_clipped = min(max(amp, 0.0), 1.0)
    if amp_clipped != amp:
        # |inverse_filter| <= gamma keeps amp <= pi_U <= 1, so only a negative
        # amplitude, a filter far off 1/x, can be clamped.
        logger.warning("circuit expectation %.6g clamped to %g for sampling", amp, amp_clipped)
    estimate_raw, queries = amplitude_estimation(
        amp_clipped, task.epsilon_prime, task.confidence, seed, constants
    )
    t_hat = grid.z_max * estimate_raw

    t_evolve = grid.inner.evolution_time
    eigs = mp.spectral_measure[0]
    c_w = presentation_gate_cost(t_evolve, eigs[split_indices(eigs)], task.epsilon_prime, constants)
    cost = hitting_ledger(
        CostEntry(c_w, "evolution gate model at t = y_J sqrt(2 z_K)"), task.delta,
        task.epsilon, CostEntry(queries, "measured grover queries"), constants,
    )
    classical = expected_mc_cost(mp, task.epsilon, constants)
    return HittingTimeResult(
        estimate=t_hat,
        exact_amplitude=amp,
        z_max=grid.z_max,
        grover_queries=queries,
        cost=cost,
        classical_cost_comparison=classical,
        exact_hitting_time=exact_hitting_time_resolvent(mp),
    )
