"""Hitting-time estimation by applying the operator inverse as a double grid of evolutions.

1/x = integral of exp(-z x) over z >= 0, and each exp(-z x) is itself a
Gaussian integral of phases exp(-i y sqrt(2 z) x). Discretizing both
integrals expresses H^{-1} as one large positive combination of evolutions of
the gap-amplified H~. The hitting time is then gamma times the expectation of
that combination in the stationary state conditioned on the unmarked block,
estimated by a phase-estimation amplitude sampler at the metrology rate.

Every chain quantity comes from one `MarkedPartition`: its walk Hamiltonian
H_U, the spectrum and gap delta of H_U, and the exact hitting time, read off
the resolvent solve that the classical cost comparison shares. The
combination is even in H~, so on the ancilla-0 sector it is the certified
scalar filter `InverseGrid.inverse_filter` of H_U. The pipeline evaluates that
filter on the spectrum of H_U and never builds H~, so nothing is larger than
the chain itself, whose N the dimension cap bounds. The tests build the
combination over evolutions of H~ as the reference it is checked against.

The grid and the expectation are fixed by the chain, delta and epsilon, so a
`HittingTimeTask` builds them on first read; only the amplitude sample
depends on the seed, and a seed sweep over one task reuses the rest.

Each calibration round is first decided in closed form, in O(samples). The
inner y-sum is the trapezoid rule for a Gaussian, so by Poisson summation it
is exp(-z x) plus an aliasing term and minus a truncation tail, both bounded
explicitly; the left z-sum of exp(-z x) is geometric. That bounds the
filter's error at each sample from above and below (`exit_certificate`),
with a margin for roundoff. A round is accepted or rejected on the bound
only where the sample test would give the same verdict, so the certificate
never changes a grid; only the rounds it leaves open run the cosine kernel.
Those check the samples a few at a time and reject a grid at the first
miss. A filter value does not depend on how many points share the call, so
the grids accepted are those of a test on all samples at once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .cost import CostEntry, CostReport, hitting_eps_prime, presentation_gate_cost
from .errors import CalibrationError, ValidationError
from .gap_amplification import split_indices
from .gibbs import calibrate_hs_grid
from .lcu import gaussian_cosine_series, gaussian_weight_sum
from .markov import MarkedPartition, check_seed, exact_hitting_time_resolvent, expected_mc_cost

logger = logging.getLogger(__name__)

_N_SAMPLES = 64
_MAX_ITERATIONS = 20
_EXIT_BLOCK = 8
_TARGET_MARGIN = 0.9
_BASE_CONFIDENCE = 8.0 / math.pi**2
_UNIT_ROUNDOFF = 2.0**-53
# The most (K+1) * n * (J+1) cosine-recurrence element-steps one filter call
# may take: 11x the lazy 32-cycle at eps 0.1 (K = 138,422, n = 31, J = 2,090),
# the largest run measured to finish. Past it the left-rule z-grid is too fine
# for the gap or the precision, and the call fails before it allocates anything.
_FILTER_WORK_BUDGET = 10**11


@dataclass(frozen=True)
class InverseGrid:
    """Double grid z_k = k*delta_z (k = 0..K) and y_j = j*delta_y (j = -J..J).

    The combination sum_{k,j} delta_z w_j exp(-i y_j sqrt(2 z_k) H~)
    approximates H^{-1} on spectra inside [delta_lower, 1]; gamma, the total
    weight, tracks z_K to relative order of the calibration's epsilon.
    """

    delta_lower: float
    delta_z: float
    k_max: int
    delta_y: float
    j_max: int

    @property
    def z_max(self) -> float:
        return self.k_max * self.delta_z

    @property
    def z_nodes(self) -> np.ndarray:
        return np.arange(self.k_max + 1) * self.delta_z

    @property
    def y_max(self) -> float:
        return self.j_max * self.delta_y

    @property
    def gamma(self) -> float:
        return (self.k_max + 1) * self.delta_z * gaussian_weight_sum(self.delta_y, self.j_max)

    def inverse_filter(self, x) -> np.ndarray:
        """The scalar double sum approximating 1/x at x >= 0. The z-series is summed
        in row order at every x, so a value does not depend on the call's width.
        A call past `_FILTER_WORK_BUDGET` element-steps is a `CalibrationError`."""
        x = np.asarray(x, dtype=float)
        work = (self.k_max + 1) * x.size * (self.j_max + 1)
        if work > _FILTER_WORK_BUDGET:
            raise CalibrationError(
                f"the inverse filter needs (K+1) n (J+1) = {work:.3g} element-steps "
                f"(K={self.k_max}, n={x.size}, J={self.j_max}), past the budget of "
                f"{_FILTER_WORK_BUDGET:.0e}: the left-rule z-grid (delta_z={self.delta_z:.3g}, "
                f"gap bound {self.delta_lower:.3g}) is too fine"
            )
        args = np.sqrt(2.0 * np.outer(self.z_nodes, x))
        series = gaussian_cosine_series(args, self.delta_y, self.j_max)
        return self.delta_z * np.cumsum(series, axis=0, out=series)[-1]


def exit_certificate(
    grid: InverseGrid, samples: np.ndarray, target: float
) -> tuple[bool | None, float]:
    """Decide the sample exit test from the grid alone: (verdict, max U).

    With G(x) = delta_z expm1(-(K+1) delta_z x) / expm1(-delta_z x), the left
    z-sum of exp(-z x), the filter lies within B = (K+1) delta_z (alias +
    tail) of G wherever a_max = sqrt(2 z_K max x) < pi/delta_y:
    - alias = 2 sum_{m>=1} exp(-(2 pi m/delta_y - a_max)^2/2), the Poisson
      images of the y-sum, bounded by its first term over a geometric factor;
    - tail = erfc(J delta_y/sqrt(2)), the weight past |j| = J.
    The computed filter differs from the exact one by at most the roundoff
    margin, with u = 2^-53 and s = 1 + delta_y,
        eta(x) = u (K+1) delta_z [16 ((1 + 1/delta_y)^2 + (J+1) s) + 2 (K+1) s]
                 + 64 u/x + 1e-9 B.
    - The cosine recurrence errs by at most 5.5 j^2 u at term j: 4 ulps in
      its cosine move T_j by at most j^2 times that, and each step's 3u
      reaches T_j through |U_n| <= n+1. The weights bound the weighted sum:
      sum_j 2 w_j j^2 <= (1 + 0.6 delta_y)/delta_y^2, since y^2 phi(y) is
      unimodal. The rounded nodes move the phase by at most 3 pi u, which
      the series feels through sum_j 2 w_j j <= (0.8 + 0.5 delta_y)/delta_y.
      With the J additions into the sum and the weights' own rounding,
      that is 16 ((1 + 1/delta_y)^2 + (J+1) s) u per series, with room.
    - The row-order z-sum adds K+1 series, each at most s in size.
    - 64 u/x covers 1/x, the final scaling and subtraction, and the float
      evaluation of G; 1e-9 B covers that of alias and tail.
    U(x) = |G - 1/x| + B + eta(x) bounds the error the sample test computes.
    The verdict is True when max U <= target, False when some sample has
    |G - 1/x| - B - eta > target, and None when the bound cannot tell or
    a_max >= pi/delta_y; only then does the sample test run.
    """
    k1, dz, dy = grid.k_max + 1, grid.delta_z, grid.delta_y
    # sqrt(2 z_K x) rounds at most 2u low, so the factor keeps a_max an upper bound.
    a_max = math.sqrt(2.0 * grid.z_max * float(samples.max())) * (1.0 + 4.0 * _UNIT_ROUNDOFF)
    if a_max >= math.pi / dy:
        return None, math.inf
    # b_m = 2 pi m/dy - a_max grows by 2 pi/dy per m, so the m >= 2 images
    # shrink geometrically, by exp(-2 pi b_1/dy) or faster.
    b1 = 2.0 * math.pi / dy - a_max
    alias = 2.0 * math.exp(-0.5 * b1 * b1) / -math.expm1(-2.0 * math.pi * b1 / dy)
    tail = math.erfc(grid.j_max * dy / math.sqrt(2.0))
    bound = k1 * dz * (alias + tail)
    geometric = dz * np.expm1(-k1 * dz * samples) / np.expm1(-dz * samples)
    gap = np.abs(geometric - 1.0 / samples)
    s = 1.0 + dy
    per_series = 16.0 * ((1.0 + 1.0 / dy) ** 2 + (grid.j_max + 1) * s)
    eta = _UNIT_ROUNDOFF * (k1 * dz * (per_series + 2.0 * k1 * s) + 64.0 / samples) + 1e-9 * bound
    upper = float(np.max(gap + bound + eta))
    if upper <= target:
        return True, upper
    if np.any(gap - bound - eta > target):
        return False, upper
    return None, upper


def calibrate_inverse_grid(delta_lower: float, epsilon: float) -> InverseGrid:
    """Pick (z_K, delta_z) and the inner node grid so the double sum hits 1/x.

    Seeds z_K = (1/Delta) ln(1/(Delta eps)) and delta_z = eps, recalibrating
    the inner grid to tolerance eps/(4 z_K) whenever z_K changes; on failure
    the exponential tail diagnostic decides whether to double z_K or halve
    delta_z. The exit test is the full double sum against 1/x on 64 samples
    of [Delta, 1]: a grid is accepted only when every sample is within
    target. Each round is first put to `exit_certificate`, which accepts or
    rejects it in closed form only where the sample test would agree, so it
    changes no grid. The rounds it leaves open check the samples in
    ascending blocks of at most `_EXIT_BLOCK` and stop at the first block
    that misses. The filter's values do not depend on the width of a call,
    so the rounds, the accepted grid and its error are those of the full
    test.
    """
    if not (0 < delta_lower <= 1):
        raise ValidationError(f"delta_lower must be in (0, 1], got {delta_lower!r}")
    if not (0 < epsilon < 1):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon!r}")
    kappa = 1.0 / delta_lower
    z_target = kappa * math.log(kappa / epsilon)
    delta_z = epsilon
    samples = np.unique(
        np.concatenate(
            [
                np.geomspace(delta_lower, 1.0, _N_SAMPLES // 2),
                np.linspace(delta_lower, 1.0, _N_SAMPLES - _N_SAMPLES // 2),
            ]
        )
    )
    blocks = [samples[i : i + _EXIT_BLOCK] for i in range(0, samples.size, _EXIT_BLOCK)]
    target = _TARGET_MARGIN * epsilon / 2

    for iteration in range(_MAX_ITERATIONS):
        k_max = max(1, math.ceil(z_target / delta_z))
        z_max = k_max * delta_z
        inner = calibrate_hs_grid(1.0, 2.0 * z_max, epsilon / (2.0 * z_max))
        grid = InverseGrid(
            delta_lower=delta_lower,
            delta_z=delta_z,
            k_max=k_max,
            delta_y=inner.delta_y,
            j_max=inner.j_max,
        )
        accepted, upper = exit_certificate(grid, samples, target)
        if accepted is None:
            err, checked = 0.0, 0
            for block in blocks:
                err = max(err, float(np.max(np.abs(1.0 / block - grid.inverse_filter(block)))))
                checked += block.size
                if err > target:
                    break
            accepted = err <= target
            how = f"kernel, err={err:.3e} over the first {checked} of {samples.size} samples"
        else:
            how = "certificate " + ("accept" if accepted else "reject")
        logger.debug(
            "inverse-grid calibration %d: z_K=%.3g delta_z=%.3g K=%d J=%d "
            "decided by %s; max U=%.3e target=%.3e",
            iteration, z_max, delta_z, k_max, inner.j_max, how, upper, target,
        )
        if accepted:
            return grid
        tail = math.exp(-z_max * delta_lower) / delta_lower
        if tail > epsilon / 8:
            z_target *= 2
        else:
            delta_z /= 2
    raise CalibrationError(
        f"inverse grid failed to reach {target:.3e} within {_MAX_ITERATIONS} refinements"
    )


def t_circuit_expectation(grid: InverseGrid, mp: MarkedPartition) -> float:
    """(pi_U / gamma) <sqrt(pi_U)| X |sqrt(pi_U)> on the sector spectrum of H_U.

    X acts on the ancilla-0 sector as inverse_filter(H), so with H = sum_i
    lambda_i |v_i><v_i| the value is pi_U sum_i |<v_i|sqrt(pi_U)>|^2
    inverse_filter(lambda_i) / gamma. This equals t_h / gamma up to the grid's
    discretization error. The spectrum lies inside the grid's [delta_lower, 1]:
    `MarkedPartition.h_matrix` bounds its top by 1, and a task's delta is at
    most H_U's lowest eigenvalue.
    """
    eigs, vecs = mp.h_matrix.eigensystem
    weights = np.abs(vecs.conj().T @ mp.sqrt_pi_u) ** 2
    return mp.pi_u * float(weights @ grid.inverse_filter(eigs)) / grid.gamma


def outcome_distribution(true_value: float, m: int) -> np.ndarray:
    """The exact M-point phase-estimation outcome distribution for an amplitude.

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


def amplitude_estimation(
    true_value: float,
    epsilon: float,
    confidence: float = _BASE_CONFIDENCE,
    seed: int = 0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[float, int]:
    """Sample the canonical phase-estimation estimate of an amplitude in [0, 1].

    The M-point outcome distribution Pr(y) = sin^2(M pi d_y)/(M^2 sin^2(pi d_y)),
    d_y = theta - y/M with theta = asin(sqrt(a))/pi, is sampled exactly; the
    estimate is sin^2(pi y / M). M = ceil(c/eps) rounded up to even so that
    a = 0 and a = 1 sit exactly on the grid. Confidence above the single-run
    level 8/pi^2 is bought by median boosting; returns (estimate, total grover
    queries).
    """
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    if not (0.0 < confidence < 1.0):
        raise ValidationError("confidence must be in (0, 1)")
    check_seed(seed)
    m = math.ceil(constants.ae_query_constant / epsilon)
    m += m % 2
    probs = outcome_distribution(true_value, m)
    probs = probs / probs.sum()
    if confidence <= _BASE_CONFIDENCE + 1e-12:
        repetitions = 1
    else:
        repetitions = 1 + 2 * math.ceil(
            constants.ae_boost_constant * math.log(1.0 / (1.0 - confidence))
        )
    rng = np.random.default_rng([seed])
    outcomes = rng.choice(m, size=repetitions, p=probs)
    estimates = np.sin(np.pi * outcomes / m) ** 2
    return float(np.median(estimates)), repetitions * m


@dataclass(frozen=True)
class HittingTimeTask:
    """A hitting-time estimation problem at absolute precision epsilon."""

    partition: MarkedPartition
    epsilon: float
    confidence: float = _BASE_CONFIDENCE
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
    delta = task.delta
    grid = task.grid
    amp = task.amplitude
    amp_clipped = min(max(amp, 0.0), 1.0)
    estimate_raw, queries = amplitude_estimation(
        amp_clipped, task.epsilon_prime, task.confidence, seed, constants
    )
    t_hat = grid.z_max * estimate_raw

    t_evolve = grid.y_max * math.sqrt(2.0 * grid.z_max)
    eigs = mp.h_matrix.eigensystem[0]
    c_w = presentation_gate_cost(t_evolve, eigs[split_indices(eigs)], task.epsilon_prime, constants)
    c_b = constants.b_gate_cost_constant * math.log(1.0 / (delta * task.epsilon))
    per_rep = c_w + constants.marked_oracle_cost + constants.sqrt_pi_oracle_cost + c_b
    cost = CostReport.build(
        entries={
            "C_W": CostEntry(c_w, "evolution gate model at t = y_J sqrt(2 z_K)"),
            "C_U": CostEntry(constants.marked_oracle_cost, "marked-membership oracle"),
            "C_sqrt_pi": CostEntry(constants.sqrt_pi_oracle_cost, "stationary-state oracle"),
            "C_B": CostEntry(c_b, "coefficient state, c ln(1/(Delta eps)) gates"),
            "ae_repetitions": CostEntry(queries, "measured grover queries"),
        },
        total=queries * per_rep,
        total_formula="grover_queries * (C_W + C_U + C_sqrt_pi + C_B)",
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
