import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lculab.constants import DEFAULT_CONSTANTS
from lculab.cost import (
    CostEntry,
    fit_scaling,
    hitting_eps_prime,
    presentation_gate_cost,
    theorem1_cost,
    theorem2_cost,
    theorem2_log_correction,
)
from lculab.errors import ValidationError


class TestCostReport:
    def test_entries_carry_provenance_and_total_recomputes(self):
        report = theorem2_cost(0.25, 0.1, 3, 32)
        assert all(entry.formula for entry in report.entries.values())
        per_rep = sum(
            report.value(name) for name in ("C_W", "C_U", "C_sqrt_pi", "C_B")
        )
        assert report.total == pytest.approx(report.value("ae_repetitions") * per_rep)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            CostEntry(-1.0, "nope")


class TestPresentationGateCost:
    def test_reads_only_the_weights(self):
        # sum sqrt(alpha) = 3 and K = 3; a negative time prices as its magnitude
        tau = 2.0 * 3.0
        factor = math.log(tau / 1e-3) / math.log(math.log(tau / 1e-3))
        expected = (math.log(3) + 3) * tau * factor
        cost = presentation_gate_cost(-2.0, (0.25, 1.0, 2.25), 1e-3, DEFAULT_CONSTANTS)
        assert cost == pytest.approx(expected, rel=1e-14)
        assert presentation_gate_cost(1.0, (), 0.1, DEFAULT_CONSTANTS) == 0.0


class TestTheorem1:
    def test_infinite_temperature_prefactor(self):
        report = theorem1_cost(8.0, 8.0, 0.0, 0.1)
        assert report.value("amplification_rounds") == 1

    def test_beta_slope_tracks_amplitude(self):
        # fixed spectrum; quadrupling beta scales rounds roughly with
        # sqrt(Z_beta / Z_4beta) and the total picks up the doubled
        # evolution time on top of that
        energies = np.array([0.0, 0.5, 0.75, 1.0])
        beta = 6.0
        z1 = float(np.sum(np.exp(-beta * energies)))
        z2 = float(np.sum(np.exp(-4 * beta * energies)))
        report1 = theorem1_cost(4.0, z1, beta, 0.05)
        report2 = theorem1_cost(4.0, z2, 4 * beta, 0.05)
        r1 = report1.value("amplification_rounds")
        r2 = report2.value("amplification_rounds")
        assert r2 / r1 == pytest.approx(math.sqrt(z1 / z2), rel=0.5)
        assert report2.total / report1.total == pytest.approx(
            2 * math.sqrt(z1 / z2), rel=0.5
        )

    def test_unit_constant_arithmetic(self):
        # one unit-weight term: K = 1 and tau = t
        report = theorem1_cost(8.0, 4.0, 8.0, 0.05)
        eps_prime = 0.5 * 0.05 * math.sqrt(4.0 / 8.0)
        tau = math.sqrt(8.0 * math.log(1 / eps_prime))
        factor = math.log(tau / eps_prime) / math.log(math.log(tau / eps_prime))
        c_w = tau * factor
        assert report.value("C_W") == pytest.approx(c_w)

    def test_z_sanity_check(self):
        with pytest.raises(ValidationError):
            theorem1_cost(4.0, 8.0, 1.0, 0.1)


class TestTheorem2:
    def test_unit_constant_arithmetic(self):
        report = theorem2_cost(0.25, 0.1, 3, 32)
        eps_prime = hitting_eps_prime(0.25, 0.1, DEFAULT_CONSTANTS)
        log_inv = math.log(1 / (0.1 * 0.25))
        tau = log_inv / math.sqrt(0.25) * 9
        factor = math.log(tau / eps_prime) / math.log(math.log(tau / eps_prime))
        c_w = (3 * math.log(32) + 2) * tau * factor
        assert report.value("C_W") == pytest.approx(c_w)
        assert report.value("C_B") == pytest.approx(log_inv)

    def test_dominant_delta_exponent(self):
        # two-point fit after dividing out the explicit log factors
        eps, d, n = 0.1, 3, 32
        deltas = [0.2, 0.002]
        corrected = [
            theorem2_cost(delta, eps, d, n).total
            / theorem2_log_correction(delta, eps, d)
            for delta in deltas
        ]
        slope = math.log(corrected[1] / corrected[0]) / math.log(deltas[1] / deltas[0])
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_epsilon_halving_doubles_within_logs(self):
        t1 = theorem2_cost(0.25, 0.1, 3, 32).total
        t2 = theorem2_cost(0.25, 0.05, 3, 32).total
        assert 2.0 < t2 / t1 < 2.0 * (math.log(1 / (0.05 * 0.25)) / math.log(1 / (0.1 * 0.25))) ** 3

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            theorem2_cost(0.0, 0.1, 3, 32)
        with pytest.raises(ValidationError):
            theorem2_cost(1.5, 0.1, 3, 32)


class TestFitScaling:
    def test_exact_power_law(self):
        xs = np.geomspace(1, 100, 8)
        fit = fit_scaling([(x, x**2) for x in xs])
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_power_law_with_log_correction(self):
        xs = np.geomspace(100, 10000, 10)
        fit = fit_scaling([(x, x**1.5 * math.log(x)) for x in xs])
        assert 1.5 <= fit.exponent <= 1.7

    def test_constant_data(self):
        xs = np.geomspace(1, 50, 6)
        fit = fit_scaling([(x, 3.0) for x in xs])
        assert fit.exponent == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 100.0), st.floats(0.5, 3.0))
    def test_scale_invariance(self, scale, exponent):
        xs = np.geomspace(1, 30, 6)
        base = fit_scaling([(x, x**exponent) for x in xs])
        scaled = fit_scaling([(x, scale * x**exponent) for x in xs])
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)

    def test_degenerate_spread_rejected(self):
        with pytest.raises(ValidationError):
            fit_scaling([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
        with pytest.raises(ValidationError):
            fit_scaling([(1.0, 1.0), (20.0, 2.0)])
