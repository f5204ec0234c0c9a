"""Unified gate-count ledger with explicit constants, plus scaling-fit helpers.

Every entry carries a provenance string naming the closed form it evaluates,
and totals are recomputable from the entries. Both theorems price their
evolutions with one gate model, `evolution_gate_cost`: c u tau ln(tau/eps) /
lnln(tau/eps) (truncated-Taylor-series simulation), where only the per-unit
factor u differs between the projector LCU (`select_unit_cost`) and sparse
access (d ln N + C_P + C_U); `presentation_gate_cost` prices a projector LCU
from its weights alone. Fits are slope-only: multiplying all costs by a constant
never changes a fitted exponent, and the dominant power law can be extracted by
dividing out the formula's own explicit logarithmic factors before fitting.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .errors import ValidationError
from .lcu import amplification_rounds


@dataclass(frozen=True)
class CostEntry:
    value: float
    formula: str

    def __post_init__(self):
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValidationError(f"cost entry must be finite and nonnegative, got {self.value!r}")


@dataclass(frozen=True)
class CostReport:
    entries: dict[str, CostEntry]
    total: float
    total_formula: str

    @classmethod
    def build(cls, entries: dict[str, CostEntry], total: float, total_formula: str) -> "CostReport":
        if not (total >= 0 and math.isfinite(total)):
            raise ValidationError(f"total must be finite and nonnegative, got {total!r}")
        return cls(entries=dict(entries), total=float(total), total_formula=total_formula)

    def value(self, name: str) -> float:
        return self.entries[name].value

    def to_json(self) -> dict:
        return {
            "entries": {
                name: {"value": entry.value, "formula": entry.formula}
                for name, entry in sorted(self.entries.items())
            },
            "total": self.total,
            "total_formula": self.total_formula,
        }


def log_over_loglog(ratio: float) -> float:
    """ln(r)/lnln(r) with the lnln factor clamped at 1 for r <= e^e (and ln clamped at 0)."""
    log_r = max(math.log(ratio), 0.0)
    loglog = math.log(log_r) if log_r > 1.0 else 0.0
    return log_r / max(loglog, 1.0)


def evolution_gate_cost(tau: float, epsilon: float, per_unit: float, constants: Constants) -> float:
    """Gates to simulate an evolution of weighted length tau to precision eps:
    c * u * tau * ln(tau/eps)/lnln(tau/eps), and 0 at tau = 0."""
    if not (tau >= 0 and math.isfinite(tau)):
        raise ValidationError(f"tau must be nonnegative and finite, got {tau!r}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    if tau == 0:
        return 0.0
    return constants.total_cost_constant * per_unit * tau * log_over_loglog(tau / epsilon)


def select_unit_cost(k_terms: int, constants: Constants) -> float:
    """Per-unit factor ln(K) C_U + K of the select oracle over K unitaries (K >= 1)."""
    k = max(k_terms, 1)
    return math.log(k) * constants.unitary_gate_cost + k


def presentation_gate_cost(
    t: float, weights: Sequence[float], epsilon: float, constants: Constants
) -> float:
    """C_W of evolving H = sum_k alpha_k Pi_k for time t, from the weights alone:
    tau = |t| sum_k sqrt(alpha_k), summed in list order, over K = len(weights) terms."""
    tau = abs(t) * sum(math.sqrt(alpha) for alpha in weights)
    return evolution_gate_cost(tau, epsilon, select_unit_cost(len(weights), constants), constants)


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def theorem1_cost(
    n_dim: float,
    z: float,
    beta: float,
    epsilon: float,
    norm_bound: float = 1.0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> CostReport:
    """Closed-form ledger for the thermal-preparation pipeline.

    rounds ~ ceil(c/asin(sqrt(Z/N))); per round one simulated evolution of a
    single unit-weight projector at t = sqrt(beta ln(1/eps')), plus n gates of
    state preparation and log2 J gates for the coefficient state. A companion
    entry evaluates the qubit-Hamiltonian specialization sqrt(N beta / Z)
    polylog for comparison.
    """
    _check_positive(n_dim=n_dim, z=z, epsilon=epsilon)
    if beta < 0 or not math.isfinite(beta):
        raise ValidationError(f"beta must be nonnegative, got {beta!r}")
    if z > n_dim * (1 + 1e-9):
        raise ValidationError("partition function exceeds dimension; shift the spectrum first")
    eps_prime = gibbs_eps_prime(epsilon, z, n_dim, constants)
    log_inv = math.log(1.0 / eps_prime)
    t = math.sqrt(max(beta, 1e-300) * log_inv)
    j_nodes = max(math.sqrt(max(norm_bound * beta, 1.0)) * log_inv, 2.0)
    amplitude = min(math.sqrt(z / n_dim), 1.0)
    rounds = amplification_rounds(amplitude, constants)
    c_w = presentation_gate_cost(t, (1.0,), eps_prime, constants)
    n_qubits = max(1.0, math.ceil(math.log2(n_dim)))
    total = rounds * (c_w + n_qubits + math.log2(j_nodes))
    qubit_arg = math.sqrt(n_dim * max(beta, 1.0) / z) / epsilon
    qubit_form = math.sqrt(n_dim * max(beta, 1.0) / z) * math.log(qubit_arg) ** 2
    return CostReport.build(
        entries={
            "C_W": CostEntry(c_w, "evolution gate model at t = sqrt(beta ln(1/eps'))"),
            "state_prep": CostEntry(n_qubits, "n two-qubit gates"),
            "C_B": CostEntry(math.log2(j_nodes), "coefficient state, log2 J gates"),
            "amplification_rounds": CostEntry(rounds, "ceil(c/asin(sqrt(Z/N)))"),
            "qubit_form": CostEntry(
                qubit_form, "sqrt(N beta/Z) polylog(sqrt(N beta/Z)/eps), ln^2 convention"
            ),
        },
        total=total,
        total_formula="rounds * (C_W + n + log2 J)",
    )


def gibbs_eps_prime(epsilon: float, z: float, n_dim: float, constants: Constants) -> float:
    """Internal precision of the thermal pipeline: eps' = c eps sqrt(Z/N)."""
    return constants.gibbs_eps_prime_constant * epsilon * math.sqrt(z / n_dim)


def hitting_eps_prime(delta_lower: float, epsilon: float, constants: Constants) -> float:
    log_inv = math.log(1.0 / (epsilon * delta_lower))
    return constants.hitting_eps_prime_constant * epsilon * delta_lower / max(log_inv, 1.0)


def _theorem2_log_and_tau(delta_lower: float, epsilon: float, d: float) -> tuple[float, float]:
    """ln(1/(eps Delta)) and Theorem 2's tau = |t| d^2 at t = ln(1/(eps Delta))/sqrt(Delta)."""
    log_inv = math.log(1.0 / (epsilon * delta_lower))
    return log_inv, log_inv / math.sqrt(delta_lower) * d * d


def theorem2_cost(
    delta_lower: float,
    epsilon: float,
    d: float,
    n_states: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> CostReport:
    """Closed-form ledger for the hitting-time pipeline with sparse-access oracles.

    Estimation repetitions ~ c/eps'; each repetition simulates the enlarged
    evolution for t ~ ln(1/(eps Delta))/sqrt(Delta) with tau = |t| d^2, queries
    the marked and amplitude oracles, and prepares the coefficient state at
    C_B = c ln(1/(Delta eps)).
    """
    _check_positive(delta_lower=delta_lower, epsilon=epsilon, d=d, n_states=n_states)
    if delta_lower > 1:
        raise ValidationError("delta_lower must lie in (0, 1]")
    eps_prime = hitting_eps_prime(delta_lower, epsilon, constants)
    log_inv, tau = _theorem2_log_and_tau(delta_lower, epsilon, d)
    per_unit = d * math.log(n_states) + constants.sparse_oracle_cost + constants.marked_oracle_cost
    c_w = evolution_gate_cost(tau, eps_prime, per_unit, constants)
    c_b = constants.b_gate_cost_constant * log_inv
    repetitions = constants.ae_query_constant / eps_prime
    per_rep = (
        c_w + constants.marked_oracle_cost + constants.sqrt_pi_oracle_cost + c_b
    )
    return CostReport.build(
        entries={
            "C_W": CostEntry(c_w, "sparse evolution gate model, tau = |t| d^2"),
            "C_U": CostEntry(constants.marked_oracle_cost, "marked-membership oracle"),
            "C_sqrt_pi": CostEntry(constants.sqrt_pi_oracle_cost, "stationary-state oracle"),
            "C_B": CostEntry(c_b, "coefficient state, c ln(1/(Delta eps)) gates"),
            "ae_repetitions": CostEntry(repetitions, "c / eps' estimation repetitions"),
        },
        total=repetitions * per_rep,
        total_formula="ae_repetitions * (C_W + C_U + C_sqrt_pi + C_B)",
    )


def theorem2_log_correction(delta_lower: float, epsilon: float, d: float) -> float:
    """Product of the explicit logarithmic factors of the hitting-time total.

    Dividing the total by this leaves const * eps^{-1} Delta^{-3/2}, so
    log-log fits of the corrected totals recover the dominant exponents.
    """
    _check_positive(delta_lower=delta_lower, epsilon=epsilon, d=d)
    eps_prime = hitting_eps_prime(delta_lower, epsilon, DEFAULT_CONSTANTS)
    log_inv, tau = _theorem2_log_and_tau(delta_lower, epsilon, d)
    return log_inv * log_inv * log_over_loglog(tau / eps_prime)


@dataclass(frozen=True)
class FitResult:
    exponent: float
    r_squared: float


def fit_scaling(points) -> FitResult:
    """Least-squares slope of log(cost) against log(x).

    Needs at least four points spanning at least one decade in x.
    """
    pts = [(float(x), float(c)) for x, c in points]
    if len(pts) < 4:
        raise ValidationError("need at least 4 points for a scaling fit")
    xs = np.array([p[0] for p in pts])
    cs = np.array([p[1] for p in pts])
    if np.any(xs <= 0) or np.any(cs <= 0):
        raise ValidationError("scaling fits need positive coordinates")
    if xs.max() / xs.min() < 10.0:
        raise ValidationError("points must span at least one decade")
    lx, lc = np.log(xs), np.log(cs)
    if np.allclose(lc, lc[0]):
        return FitResult(exponent=0.0, r_squared=1.0)
    slope, intercept = np.polyfit(lx, lc, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((lc - predicted) ** 2))
    ss_tot = float(np.sum((lc - lc.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(exponent=float(slope), r_squared=r2)
