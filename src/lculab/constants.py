"""One record holding every tunable constant of the cost and round-count models.

Asymptotic prefactors default to 1.0 so that scaling fits never depend on them.
The few algorithmic constants (amplification rounds, Chebyshev sample count,
phase-estimation grid) carry their conventional defaults and are exposed here
so experiments can override them from a JSON file.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Constants:
    # Amplitude amplification: rounds = ceil(c / asin(a)).
    amp_round_constant: float = math.pi / 4
    # Phase-estimation grid size M = ceil(c / eps), rounded up to even.
    ae_query_constant: float = math.pi
    # Median-boost repetitions ~ c * ln(1/(1 - confidence)) above the base level.
    ae_boost_constant: float = 1.0
    # Chebyshev sample count M = ceil(c * variance / eps^2).
    mc_sample_constant: float = 16.0
    # Thermal pipeline: eps' = c * eps * sqrt(Z/N).
    gibbs_eps_prime_constant: float = 0.5
    # Hitting-time pipeline: eps' = c * eps * Delta / ln(1/(eps*Delta)).
    hitting_eps_prime_constant: float = 0.5
    # Coefficient-state gate cost C_B = c * ln(1/(Delta*eps)).
    b_gate_cost_constant: float = 1.0
    # Prefactor c of the evolution gate model C_W (cost.evolution_gate_cost).
    total_cost_constant: float = 1.0
    # Per-unitary gate cost C_U of the select oracle.
    unitary_gate_cost: float = 1.0
    # Sparse-access oracle costs C_P, C_U(marked membership) and C_sqrt_pi.
    sparse_oracle_cost: float = 1.0
    marked_oracle_cost: float = 1.0
    sqrt_pi_oracle_cost: float = 1.0

    @classmethod
    def from_dict(cls, values: dict[str, float]) -> "Constants":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValidationError(f"unknown constants: {sorted(unknown)}")
        for name, value in values.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # exact comparisons: an integer past the double range is rejected,
            # not overflowed
            if not number or not 0 < value <= sys.float_info.max:
                raise ValidationError(f"constant {name!r} must be a positive finite number")
        return cls(**{k: float(v) for k, v in values.items()})


DEFAULT_CONSTANTS = Constants()
