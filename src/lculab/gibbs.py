"""Thermal-state preparation through a discretized Hubbard-Stratonovich combination.

The operator exp(-beta H / 2) is expanded as a Gaussian-weighted sum of
evolutions exp(-i y_j sqrt(beta) H~) of the gap-amplified Hamiltonian. Because
the node grid is symmetric, the sum is an even function of H~ and acts on the
ancilla-0 sector exactly as the same scalar filter of H, which is what the
grid calibration certifies sample by sample. Acting on half of a maximally
entangled pair and tracing the ancillas yields the thermal state.

A `GibbsTask` sets the precision eps' = c eps sqrt(Z/N) from the exact Z of H
or a lower bound on it, as a `HittingTimeTask` sets its eps' from Delta.
`prepare_gibbs` evaluates the certified filter on the spectrum of H, so it
never builds H~ and the dimension cap applies to H itself; its ledger reads
only the weights of H's projector presentation. The trace distance to the
exact thermal state is taken on the same spectrum, so one eigendecomposition
of H serves the whole run. The tests build the same sum over evolutions of H~
as the reference it is checked against.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .cost import CostEntry, CostReport, gibbs_eps_prime, presentation_gate_cost, thermal_ledger
from .errors import CalibrationError, PreconditionWarning, ValidationError
from .gap_amplification import check_weight, require_psd
from .lcu import (
    UNIT_ROUNDOFF,
    amplification_rounds,
    cosine_series_bounds,
    gaussian_cosine_series,
    gaussian_weight_sum,
)
from .operators import HermitianOperator

logger = logging.getLogger(__name__)

# Both grid calibrations' sample test: a grid passes at error <= TARGET_MARGIN *
# tolerance/2 on SAMPLE_COUNT points, and a calibration fails after MAX_REFINEMENTS.
SAMPLE_COUNT, TARGET_MARGIN, MAX_REFINEMENTS = 64, 0.9, 20
# Largest J a trial grid may take (Gibbs on "1.0 Z" at beta = 1e12 reaches 9.5e6);
# past it, or at a spacing of 0, calibration fails before allocating a node array.
_MAX_J = 10**7


@dataclass(frozen=True)
class HsGrid:
    """Symmetric Gaussian node grid y_j = j * delta_y, j = -J..J, with weights
    w_j = delta_y exp(-y_j^2/2)/sqrt(2 pi)."""

    j_max: int
    delta_y: float
    beta: float

    @property
    def y_max(self) -> float:
        return self.j_max * self.delta_y

    @property
    def weight_sum(self) -> float:
        return gaussian_weight_sum(self.delta_y, self.j_max)

    def kernel(self, x) -> np.ndarray:
        """The scalar filter sum_j w_j exp(-i y_j sqrt(beta x)) for x >= 0 (real by symmetry)."""
        a = np.sqrt(self.beta * np.asarray(x, dtype=float))
        return gaussian_cosine_series(a, self.delta_y, self.j_max)


def _trial_grid(delta_y: float, y_max: float, beta: float) -> HsGrid:
    """The grid of spacing delta_y that reaches y_max: J = max(1, ceil(y_max/delta_y))."""
    if not (delta_y > 0 and y_max / delta_y <= _MAX_J):
        raise CalibrationError(
            f"node grid delta_y={delta_y:.3g}, y_max={y_max:.3g} needs over {_MAX_J} nodes"
        )
    return HsGrid(j_max=max(1, math.ceil(y_max / delta_y)), delta_y=delta_y, beta=beta)


def _grid_error(
    delta_y: float, y_max: float, beta: float, samples: np.ndarray
) -> tuple[float, float]:
    """The sample test's max error |exp(-beta x/2) - kernel(x)|, computed on the
    kernel, as the degenerate interval (err, err)."""
    approx = _trial_grid(delta_y, y_max, beta).kernel(samples)
    err = float(np.max(np.abs(np.exp(-beta * samples / 2) - approx)))
    return err, err


def _error_bounds(
    delta_y: float, y_max: float, beta: float, samples: np.ndarray
) -> tuple[float, float]:
    """An interval (lo, hi) that holds the error `_grid_error` computes, in closed form.

    At a = sqrt(beta x) the kernel is exp(-a^2/2) plus the Poisson images, all
    positive, minus a truncation tail of size at most erfc(J delta_y/sqrt(2))
    (`cosine_series_bounds`). So every sample's error is at most images(a_max)
    + tail, at least the m = 1 image exp(-(2 pi/delta_y - a)^2/2) minus the
    tail, and at a = 0, where the kernel is the weight sum, at least the
    weight past |j| = J, erfc((J+1) delta_y/sqrt(2)), minus images(0). Each
    end is widened by eta = roundoff + 8u + 1e-9 (images + tail): the series'
    own error, the float evaluation of exp(-beta x/2) (whose argument differs
    from a^2/2 by 3 ulps) and the subtraction, and that of the bound terms.
    The kernel's arguments are computed as `HsGrid.kernel` computes them.
    """
    grid = _trial_grid(delta_y, y_max, beta)
    a = np.sqrt(beta * samples)
    images, tail, roundoff = cosine_series_bounds(float(a.max()), delta_y, grid.j_max)
    if images == math.inf:
        return -math.inf, math.inf
    eta = roundoff + 8.0 * UNIT_ROUNDOFF + 1e-9 * (images + tail)
    lo = float(np.max(np.exp(-0.5 * (2.0 * math.pi / delta_y - a) ** 2))) - tail
    if a.min() == 0.0:
        beyond = math.erfc((grid.j_max + 1) * delta_y / math.sqrt(2.0))
        lo = max(lo, beyond - cosine_series_bounds(0.0, delta_y, grid.j_max)[0])
    return lo - eta, images + tail + eta


def _sample_points(norm_bound: float) -> np.ndarray:
    lin = np.linspace(0.0, norm_bound, SAMPLE_COUNT // 2)
    geo = np.geomspace(max(norm_bound * 1e-4, 1e-12), norm_bound, SAMPLE_COUNT // 2)
    return np.concatenate([lin, geo])


def calibrate_hs_grid(norm_bound: float, beta: float, epsilon_prime: float) -> HsGrid:
    """Choose (delta_y, J) so the scalar filter reproduces exp(-beta x/2) on [0, norm_bound].

    Starts from the unit-constant seed delta_y = 1/sqrt(norm * beta * ln(1/eps'))
    and y_max = sqrt(ln(1/eps')), then halves delta_y or grows y_max, whichever
    gives the smaller max error over 64 samples, until that error is below
    eps'/2. Each error is first bounded in closed form (`_error_bounds`): a grid
    is accepted or rejected on the bound, and a refinement chosen on it, only
    where the intervals decide what the errors would, so the bound never
    changes a grid. Only the comparisons it leaves open run the cosine kernel
    (`_grid_error`). A grid the kernel rejects while its discretization bound
    (images + tail at a_max = sqrt(beta norm)) is at most half the target
    misses on the kernel's roundoff, which no refinement lowers: halving
    delta_y or growing J only raises it, so that grid fails the calibration
    at once. It warns about nothing, since the calibration test is
    self-certifying: Lemma 1's validity window (norm*beta >= 4,
    ln(1/eps') >= 4) belongs to the thermal pipeline, and `prepare_gibbs`
    checks it.
    """
    if not (norm_bound > 0 and math.isfinite(norm_bound)):
        raise ValidationError(f"norm bound must be positive, got {norm_bound!r}")
    if beta < 0 or not math.isfinite(beta):
        raise ValidationError(f"beta must be nonnegative, got {beta!r}")
    if not (0 < epsilon_prime < 1):
        raise ValidationError(f"epsilon_prime must be in (0, 1), got {epsilon_prime!r}")

    log_inv = math.log(1.0 / epsilon_prime)
    # The spacing seed needs beta > 0; at beta = 0 every node grid works and
    # only the weight sum is constrained, so seed as if norm*beta sat at 4.
    beta_seed = max(beta, 4.0 / norm_bound)
    delta_y = 1.0 / math.sqrt(norm_bound * beta_seed * log_inv)
    y_max = math.sqrt(log_inv)
    samples = _sample_points(norm_bound)
    a_max = math.sqrt(beta * norm_bound)
    target = TARGET_MARGIN * epsilon_prime / 2

    # Each err is an interval (lo, hi) holding a trial grid's error; the
    # kernel's own error is the interval (err, err).
    err = _error_bounds(delta_y, y_max, beta, samples)
    for iteration in range(MAX_REFINEMENTS):
        if err[0] <= target < err[1]:
            err = _grid_error(delta_y, y_max, beta, samples)
        if err[1] <= target:
            break
        if err[0] == err[1]:
            j_max = _trial_grid(delta_y, y_max, beta).j_max
            images, tail, _ = cosine_series_bounds(a_max, delta_y, j_max)
            if images + tail <= target / 2:
                raise CalibrationError(
                    f"node grid failed to reach {target:.3e}: at delta_y={delta_y:.3g}, "
                    f"J={j_max} the kernel errs by {err[1]:.3e} with a discretization "
                    f"bound of {images + tail:.3e}, so its roundoff misses the target"
                )
        err_half = _error_bounds(delta_y / 2, y_max, beta, samples)
        err_grow = _error_bounds(delta_y, 1.5 * y_max, beta, samples)
        if not (err_half[1] <= err_grow[0] or err_grow[1] < err_half[0]):
            err_half = _grid_error(delta_y / 2, y_max, beta, samples)
            err_grow = _grid_error(delta_y, 1.5 * y_max, beta, samples)
        if err_half[1] <= err_grow[0]:
            delta_y /= 2
            err = err_half
        else:
            y_max *= 1.5
            err = err_grow
        logger.debug(
            "hs-grid calibration %d: delta_y=%.3g y_max=%.3g err in [%.3e, %.3e] target=%.3e",
            iteration, delta_y, y_max, err[0], err[1], target,
        )
    else:
        if err[0] != err[1]:
            err = _grid_error(delta_y, y_max, beta, samples)
        raise CalibrationError(
            f"node grid failed to reach {target:.3e} in {MAX_REFINEMENTS} refinements "
            f"(err={err[1]:.3e})"
        )
    return _trial_grid(delta_y, y_max, beta)


@dataclass(frozen=True)
class GibbsTask:
    """A thermal-preparation problem: Hamiltonian, temperature, precision, and the
    weights alpha_k of a presentation H = sum_k alpha_k Pi_k, which is all the
    ledger reads of it. H must be PSD with lambda_max(H) <= sum_k alpha_k.
    eps' = c eps sqrt(Z/N) reads the exact partition function Z of H, or
    `z_lower_bound` capped at Z; a bound above Z (1 + 1e-12) is rejected."""

    hamiltonian: HermitianOperator
    beta: float
    epsilon: float
    weights: tuple[float, ...]
    z_lower_bound: float | None = None
    constants: Constants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        if self.beta < 0 or not math.isfinite(self.beta):
            raise ValidationError(f"beta must be nonnegative, got {self.beta!r}")
        if not (0 < self.epsilon < 1):
            raise ValidationError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        weights = tuple(check_weight(i, alpha) for i, alpha in enumerate(self.weights))
        object.__setattr__(self, "weights", weights)
        energies = self.hamiltonian.eigensystem[0]
        require_psd(energies)
        if sum(weights) < energies[-1] - 1e-8:
            raise ValidationError(f"weights sum below lambda_max(H) = {energies[-1]:.6g}")
        bound = self.z_lower_bound
        if bound is not None and not 0 < bound <= self.partition_function * (1 + 1e-12):
            raise ValidationError(
                f"z_lower_bound must be a positive lower bound on Z = "
                f"{self.partition_function:.6g}, got {bound!r}"
            )

    @cached_property
    def partition_function(self) -> float:
        """The exact Z = sum_i exp(-beta E_i) over the spectrum of H."""
        return float(np.sum(np.exp(-self.beta * self.hamiltonian.eigensystem[0])))

    @property
    def epsilon_prime(self) -> float:
        z = self.partition_function
        if self.z_lower_bound is not None:
            z = min(float(self.z_lower_bound), z)
        return gibbs_eps_prime(self.epsilon, z, self.hamiltonian.dim, self.constants)


@dataclass(frozen=True)
class GibbsResult:
    """A prepared thermal state of its task, kept as the filter values f on spec(H)."""

    task: GibbsTask
    filter_values: np.ndarray
    trace_dist: float
    success_amplitude: float
    amplification_rounds: int
    cost: CostReport
    grid: HsGrid
    precondition_warnings: tuple[str, ...]

    @cached_property
    def prepared_density(self) -> HermitianOperator:
        """The dense state f(H)^2 / tr f(H)^2 (symmetrized in place), built on first read."""
        vectors = self.task.hamiltonian.eigensystem[1]
        f = self.filter_values
        return HermitianOperator((vectors * f**2) @ vectors.conj().T / float(np.linalg.norm(f)) ** 2)


def prepare_gibbs(task: GibbsTask) -> GibbsResult:
    """Run the thermal pipeline end to end and compare against the exact state.

    The internal precision is the task's eps'. The prepared density is the
    ancilla trace of the normalized combination acting on half of a maximally
    entangled pair, and the ledger prices the run as
    rounds * (C_W(t, eps') + n + log2 J).

    Lemma 1's validity window (norm*beta >= 4, ln(1/eps') >= 4) is checked
    here, after calibration: outside it the run warns (`PreconditionWarning`),
    records the message in `precondition_warnings`, and goes on.

    On the ancilla-0 sector the combination is the filter f = grid.kernel(H),
    so the partner-traced state is f(H)^2 / tr f(H)^2 and the success
    amplitude is ||f(H) (x) 1 |pair>|| / gamma = ||f||_2 / (sqrt(N) gamma),
    with f evaluated on the eigenvalues of H. The prepared and exact states
    share H's eigenbasis, so the trace distance is read off the spectrum too;
    the dense prepared state is built only when `prepared_density` is read.
    """
    h, constants, eps_prime = task.hamiltonian, task.constants, task.epsilon_prime
    n_dim, energies = h.dim, h.eigensystem[0]

    norm_bound = max(h.spectral_norm, 1e-9)
    grid = calibrate_hs_grid(norm_bound, task.beta, eps_prime)
    collected: list[str] = []
    log_inv = math.log(1.0 / eps_prime)
    if norm_bound * task.beta < 4 * (1 - 1e-9) or log_inv < 4 * (1 - 1e-9):
        message = (
            f"outside the stated validity window: norm*beta = {norm_bound * task.beta:.3g} "
            f"(want >= 4), ln(1/eps') = {log_inv:.3g} (want >= 4)"
        )
        collected.append(message)
        warnings.warn(message, PreconditionWarning, stacklevel=2)

    # Roundoff can put the lowest eigenvalue of a PSD H just below zero,
    # where the kernel's sqrt(beta x) is undefined.
    f = grid.kernel(np.maximum(energies, 0.0))
    f_norm = float(np.linalg.norm(f))
    raw_amplitude = f_norm / (math.sqrt(n_dim) * grid.weight_sum)
    success_amplitude = min(raw_amplitude, 1.0)
    if success_amplitude != raw_amplitude:
        logger.warning("success amplitude %.6g clamped to 1", raw_amplitude)
    rounds = amplification_rounds(success_amplitude, constants)

    # Both states are diagonal in H's eigenbasis, so their trace distance is
    # half the l1 distance between the two population vectors.
    boltzmann = np.exp(-task.beta * (energies - energies[0]))
    populations = f**2 / np.sum(f**2)
    dist = 0.5 * float(np.sum(np.abs(populations - boltzmann / np.sum(boltzmann))))

    t_max = grid.y_max * math.sqrt(task.beta)
    c_w = presentation_gate_cost(t_max, task.weights, eps_prime, constants)
    cost = thermal_ledger(
        CostEntry(c_w, "evolution gate model at t = y_J sqrt(beta), precision eps'"), n_dim,
        grid.j_max, CostEntry(rounds, "ceil(c/asin(a)) at the measured amplitude"),
    )
    return GibbsResult(
        task=task,
        filter_values=f,
        trace_dist=dist,
        success_amplitude=success_amplitude,
        amplification_rounds=rounds,
        cost=cost,
        grid=grid,
        precondition_warnings=tuple(collected),
    )
