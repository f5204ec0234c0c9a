import logging
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from lculab import inverse, lcu
from lculab.errors import CalibrationError, ValidationError
from lculab import gibbs
from lculab.gibbs import HsGrid
from lculab.inverse import (
    HittingTimeTask,
    InverseGrid,
    amplitude_estimation,
    calibrate_inverse_grid,
    estimate_hitting_time,
    t_circuit_expectation,
)
from lculab.markov import lazy_cycle, mark_states, validate_chain
from lculab.rand import random_hermitian_with_spectrum, random_state
from oracles import (
    LcuOperator,
    all_kernel_hs_grid,
    build_tilde_h,
    complex_path_hitting,
    exact_hitting_time_inverse,
    exponential_grid_error,
    inverse_lcu,
    outcome_distribution,
    perturbed_unitary,
    psd_split,
    random_reversible_chain,
    symmetric_two_state,
    validate_chain_any_spectrum,
    y_series_reference,
)


def _exit_samples(delta_lower):
    """The 64 calibration samples of [Delta, 1], ascending, duplicates merged."""
    return np.unique(
        np.concatenate([np.geomspace(delta_lower, 1.0, 32), np.linspace(delta_lower, 1.0, 32)])
    )


def _full_exit_calibration(delta_lower, epsilon):
    """The calibration loop with its exit test run on all samples in one call,
    no certificate, and the inner grid calibrated on the kernel at every round."""
    kappa = 1.0 / delta_lower
    z_target = kappa * math.log(kappa / epsilon)
    delta_z = epsilon
    samples = _exit_samples(delta_lower)
    target = 0.9 * epsilon / 2
    for _ in range(20):
        k_max = max(1, math.ceil(z_target / delta_z))
        z_max = k_max * delta_z
        inner = all_kernel_hs_grid(1.0, 2.0 * z_max, epsilon / (2.0 * z_max))
        grid = InverseGrid(delta_lower=delta_lower, delta_z=delta_z, k_max=k_max, inner=inner)
        if float(np.max(np.abs(1.0 / samples - grid.inverse_filter(samples)))) <= target:
            return grid
        if math.exp(-z_max * delta_lower) / delta_lower > epsilon / 8:
            z_target *= 2
        else:
            delta_z /= 2
    raise AssertionError("reference calibration did not converge")


def _cycle_delta(n=8):
    return mark_states(lazy_cycle(n), [0]).delta


def _count_kernel_calls(monkeypatch):
    """Record the argument shape of every `gaussian_cosine_series` call of both grids."""
    calls = []

    def counting(a, delta_y, j_max, _original=lcu.gaussian_cosine_series):
        calls.append(np.shape(a))
        return _original(a, delta_y, j_max)

    monkeypatch.setattr(lcu, "gaussian_cosine_series", counting)
    monkeypatch.setattr(gibbs, "gaussian_cosine_series", counting)
    return calls


class TestGridCalibration:
    def test_exponential_stage_oracle(self):
        # the z-grid alone approximates 1/x once z_K covers the tail
        delta, eps = 0.25, 0.01
        z_k = (1 / delta) * math.log(1 / (delta * eps)) * 2
        dz = eps / 4
        assert exponential_grid_error(dz, math.ceil(z_k / dz), delta) <= eps / 4

    def test_full_double_sum_at_top_of_spectrum(self):
        grid = calibrate_inverse_grid(0.25, 0.01)
        err = abs(1.0 - grid.inverse_filter(np.array([1.0]))[0])
        assert err <= 0.01 / 2

    def test_full_double_sum_on_fresh_samples(self):
        grid = calibrate_inverse_grid(0.25, 0.05)
        xs = np.random.default_rng(3).uniform(0.25, 1.0, size=100)
        err = np.max(np.abs(1.0 / xs - grid.inverse_filter(xs)))
        assert err <= 0.05 / 2

    def test_gamma_tracks_z_max(self):
        for delta, eps in [(0.5, 0.1), (0.25, 0.05), (0.125, 0.05)]:
            grid = calibrate_inverse_grid(delta, eps)
            assert abs(grid.gamma - grid.z_max) <= grid.z_max * eps / 4

    @pytest.mark.parametrize(
        "delta, eps",
        [
            (None, 0.1),  # the lazy 8-cycle marked at 0: two rejected rounds
            (0.5, 0.35),  # accepted on the first round
            (0.25, 0.2),  # a lemma2-sweep point
            (0.5, 0.2),  # a round the interval leaves open, rejected on the filter
            (1.0, 0.5),  # a single sample
        ],
    )
    def test_block_exit_test_picks_the_full_test_grid(self, delta, eps):
        delta = _cycle_delta() if delta is None else delta
        grid = calibrate_inverse_grid(delta, eps)
        assert grid == _full_exit_calibration(delta, eps)

    def test_filter_on_a_block_matches_the_full_call(self):
        grid = calibrate_inverse_grid(_cycle_delta(), 0.1)
        xs = np.random.default_rng(5).uniform(grid.delta_lower, 1.0, size=62)
        full = grid.inverse_filter(xs)
        for start in range(0, xs.size, 8):
            block = xs[start : start + 8]
            assert np.array_equal(grid.inverse_filter(block), full[start : start + block.size])

    def test_filter_value_does_not_depend_on_call_width(self):
        # a lone column is summed in the same order as a column among others
        grid = calibrate_inverse_grid(0.5, 0.1)
        xs = np.unique(np.concatenate([np.geomspace(0.5, 1.0, 32), np.linspace(0.5, 1.0, 32)]))
        full = grid.inverse_filter(xs)
        for i, x in enumerate(xs):
            assert grid.inverse_filter(xs[i : i + 1])[0] == full[i]
            assert grid.inverse_filter(x)[0] == full[i]

    def test_filter_is_within_a_few_units_of_roundoff_of_the_exact_double_sum(self):
        # the table errs near float64's resolution and the z-sum adds back its
        # own rounding errors, so on the two-state chain's grid (K = 240,
        # J = 41) each value is within 4u relative of the double sum at 30
        # digits
        grid = calibrate_inverse_grid(0.5, 0.1)
        xs = np.array([0.3, 0.7, 1.0])
        with mpmath.workdps(30):
            dz = mpmath.mpf(grid.delta_z)
            for x, value in zip(xs, grid.inverse_filter(xs)):
                points = [mpmath.sqrt(2 * k * dz * mpmath.mpf(x)) for k in range(grid.k_max + 1)]
                exact = dz * mpmath.fsum(y_series_reference(points, grid.delta_y, grid.j_max))
                assert abs(value - exact) <= 4 * 2.0**-53 * exact

    def test_filter_takes_the_unit_interval_with_room_for_rounding(self):
        # the table covers sqrt(2 z_K x) up to x = 1 + 1e-6; a spectrum's top
        # may round past 1, and anything further is refused
        grid = calibrate_inverse_grid(0.5, 0.1)
        assert grid.inverse_filter(np.array([0.0, 1.0, 1.0 + 1e-9, 1.0 + 1e-6])).shape == (4,)
        for bad in (-1e-300, np.nextafter(1.0 + 1e-6, 2.0), math.nan):
            with pytest.raises(ValidationError, match="the inverse filter takes"):
                grid.inverse_filter(np.array([0.5, bad]))

    @staticmethod
    def _count_filter_calls(monkeypatch):
        calls = []
        original = InverseGrid.inverse_filter

        def counting(grid, x):
            calls.append((grid, np.array(x, dtype=float)))
            return original(grid, x)

        monkeypatch.setattr(InverseGrid, "inverse_filter", counting)
        return calls

    def test_cycle_calibration_runs_no_kernel(self, monkeypatch):
        # the certificate rejects two rounds and accepts the third, and the
        # inner y-grid calibrations run on their own closed-form bound
        calls = self._count_filter_calls(monkeypatch)
        kernel_calls = _count_kernel_calls(monkeypatch)
        grid = calibrate_inverse_grid(_cycle_delta(), 0.1)
        assert calls == []
        assert kernel_calls == []
        assert (grid.k_max, grid.j_max) == (5856, 315)

    def test_inner_grid_is_recalibrated_only_when_z_max_changes(self, monkeypatch):
        # the lazy 8-cycle doubles z_K after round one, then halves delta_z,
        # which keeps z_K: three rounds, two inner calibrations
        calls = []

        def counting(norm, beta, eps, _original=gibbs.calibrate_hs_grid):
            calls.append((norm, beta, eps))
            return _original(norm, beta, eps)

        monkeypatch.setattr(inverse, "calibrate_hs_grid", counting)
        grid = calibrate_inverse_grid(_cycle_delta(), 0.1)
        assert [beta for _, beta, _ in calls] == pytest.approx([grid.z_max, 2.0 * grid.z_max])
        assert calls[-1][1] == 2.0 * grid.z_max == grid.inner.beta
        assert grid == _full_exit_calibration(_cycle_delta(), 0.1)

    @pytest.mark.parametrize(
        "delta, eps, rounds", [(None, 0.1, 3), (0.5, 0.2, 3)], ids=["cycle", "delta-0.5-eps-0.2"]
    )
    def test_open_round_makes_one_filter_call(self, monkeypatch, delta, eps, rounds):
        # with every round left open, each round evaluates the filter once, on
        # all samples, and the grid is the one the interval would pick
        monkeypatch.setattr(InverseGrid, "error_bounds", lambda grid, samples: (-math.inf, math.inf))
        calls = self._count_filter_calls(monkeypatch)
        delta = _cycle_delta() if delta is None else delta
        accepted = calibrate_inverse_grid(delta, eps)
        assert len({grid for grid, _ in calls}) == len(calls) == rounds
        assert calls[-1][0] == accepted
        samples = _exit_samples(delta)
        assert all(np.array_equal(x, samples) for _, x in calls)
        assert accepted == _full_exit_calibration(delta, eps)

    def test_interval_opens_a_round_only_around_the_target(self, monkeypatch):
        # (0.5, 0.2) opens its first round and settles its second in closed form
        calls = self._count_filter_calls(monkeypatch)
        calibrate_inverse_grid(0.5, 0.2)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "n, delta, eps",
        [(8, None, 0.1), (16, None, 0.1), (None, 1.0, 0.5), (None, 0.5, 0.35)],
        ids=["lazy-8-cycle", "lazy-16-cycle", "delta-1-eps-0.5", "delta-0.5-eps-0.35"],
    )
    def test_warns_about_nothing(self, n, delta, eps):
        # the inner y-grid of the last two lies outside Lemma 1's validity
        # window, which is the thermal pipeline's to check
        delta = _cycle_delta(n) if n else delta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate_inverse_grid(delta, eps)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            calibrate_inverse_grid(0.0, 0.1)
        with pytest.raises(ValidationError):
            calibrate_inverse_grid(0.5, 1.5)

    def test_certificate_keeps_the_full_test_grids(self):
        # seeded log-uniform pairs; a few reach Delta = 0.05, where rounds run
        # thousands of z-nodes
        rng = np.random.default_rng(19)
        deltas = np.exp(rng.uniform(math.log(0.05), 0.0, size=50))
        epsilons = np.exp(rng.uniform(math.log(0.1), math.log(0.6), size=50))
        for delta, eps in zip(deltas, epsilons):
            grid = calibrate_inverse_grid(float(delta), float(eps))
            assert grid == _full_exit_calibration(float(delta), float(eps))


def _grid(delta_lower, z_max, k_max, ratio, y_max):
    """A grid with K z-nodes up to z_max, and a_max delta_y = ratio * pi."""
    delta_z = z_max / k_max
    delta_y = ratio * math.pi / math.sqrt(2.0 * z_max)
    j_max = max(1, round(y_max / delta_y))
    inner = HsGrid(j_max=j_max, delta_y=delta_y, beta=2.0 * (k_max * delta_z))
    return InverseGrid(delta_lower=delta_lower, delta_z=delta_z, k_max=k_max, inner=inner)


class TestExitCertificate:
    """The certificate's interval against the sample test it stands in for.

    It adds to the closed-form bound the roundoff margin
    eta(x) = (K+1) delta_z [roundoff + 2 (K+1) s u] + 64 u/x + 1e-9 B, with
    u = 2^-53 and s = 1 + delta_y: the cosine table's error
    (`cosine_table_bound`); the row-order z-sum of K+1 terms; and the float
    evaluation of 1/x, G and the bound B itself (see `InverseGrid.error_bounds`).
    The kernel error is the oracle: the interval must hold it, so a round
    accepted at hi <= target has every sample within target, and one
    rejected at lo > target some sample outside it.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        delta=st.floats(0.05, 1.0),
        z_max=st.floats(0.5, 200.0),
        k_max=st.integers(1, 400),
        ratio=st.floats(0.2, 1.2),
        y_max=st.floats(0.5, 9.0),
    )
    # at y_max = 9 the aliasing and tail bound B is below the rounding, so
    # the interval's ends at the error's own bits rest on eta: these two
    # grids need it above and below
    @example(delta=0.5, z_max=20.0, k_max=100, ratio=0.25, y_max=9.0)
    @example(delta=0.5, z_max=8.0, k_max=200, ratio=0.25, y_max=9.0)
    def test_interval_holds_the_kernel_error(self, delta, z_max, k_max, ratio, y_max):
        grid = _grid(delta, z_max, k_max, ratio, y_max)
        samples = _exit_samples(delta)
        err = float(np.max(np.abs(1.0 / samples - grid.inverse_filter(samples))))
        lo, hi = grid.error_bounds(samples)
        assert lo <= err <= hi
        assert grid.sample_error(samples) == (err, err)

    def test_open_at_the_nyquist_phase(self):
        grid = _grid(0.25, 50.0, 200, 1.0, 6.0)
        assert grid.error_bounds(_exit_samples(0.25)) == (-math.inf, math.inf)

    def test_bound_is_tight_on_the_cycle_grid(self):
        grid = calibrate_inverse_grid(_cycle_delta(), 0.1)
        samples = _exit_samples(grid.delta_lower)
        lo, hi = grid.error_bounds(samples)
        err = float(np.max(np.abs(1.0 / samples - grid.inverse_filter(samples))))
        assert hi <= 0.045
        assert 0.8 * err <= lo <= err <= hi <= 1.2 * err


class TestFilterWorkBudget:
    def test_past_the_budget_raises_before_allocating(self):
        # K + 1 = 10^12 z-nodes: one node array alone would take 8 TB
        inner = HsGrid(j_max=10**4, delta_y=1e-3, beta=2e9)
        grid = InverseGrid(delta_lower=1e-9, delta_z=1e-3, k_max=10**12, inner=inner)
        with pytest.raises(CalibrationError, match="past the budget"):
            grid.inverse_filter(np.array([0.5]))
        # K = 336,224,857 comes from delta_z = eps, not from the wide gap
        with pytest.raises(CalibrationError, match="past the budget") as err:
            calibrate_inverse_grid(0.5, 1e-7)
        assert "z-grid (delta_z=1e-07, gap bound 0.5) is too fine" in str(err.value)

    def test_budget_is_inclusive(self, monkeypatch):
        grid = calibrate_inverse_grid(0.5, 0.3)
        x = np.linspace(0.5, 1.0, 5)
        work = (grid.k_max + 1) * x.size * (grid.j_max + 1)
        monkeypatch.setattr(inverse, "_FILTER_WORK_BUDGET", work)
        assert grid.inverse_filter(x).shape == x.shape
        monkeypatch.setattr(inverse, "_FILTER_WORK_BUDGET", work - 1)
        with pytest.raises(CalibrationError):
            grid.inverse_filter(x)

    def test_lazy_32_cycle_is_inside_the_budget(self):
        # the largest run measured to finish keeps a tenth of the budget
        grid = calibrate_inverse_grid(mark_states(lazy_cycle(32), [0]).delta, 0.1)
        assert (grid.k_max + 1) * 31 * (grid.j_max + 1) * 10 <= inverse._FILTER_WORK_BUDGET


class TestInverseLcu:
    def test_one_dimensional_inverse(self):
        grid = calibrate_inverse_grid(0.5, 0.02)
        g = build_tilde_h(psd_split(np.array([[0.5]])))
        combo = inverse_lcu(grid, g)
        state = g.embed_sector_state(np.array([1.0]))
        out = combo.apply_sum(state)
        assert abs(out[0].real - 2.0) <= 0.02
        assert abs(out[1]) <= 1e-12

    def test_residual_on_random_spectra(self, rng):
        delta, eps = 0.25, 0.05
        grid = calibrate_inverse_grid(delta, eps)
        for _ in range(5):
            dim = int(rng.integers(2, 9))
            h = random_hermitian_with_spectrum(rng, dim, delta, 1.0)
            g = build_tilde_h(psd_split(h))
            combo = inverse_lcu(grid, g)
            h_inv = np.linalg.inv(h)
            for _ in range(5):
                phi = random_state(rng, dim)
                expected = g.embed_sector_state(h_inv @ phi)
                got = combo.apply_sum(g.embed_sector_state(phi))
                assert np.linalg.norm(expected - got) <= eps / 2

    def test_spectrum_violation_detected(self):
        grid = calibrate_inverse_grid(0.5, 0.05)
        g = build_tilde_h(psd_split(np.diag([0.1, 1.0])))  # 0.1 < delta
        with pytest.raises(ValidationError):
            inverse_lcu(grid, g)

    def test_structured_apply_equals_term_sum(self, rng):
        # the filter evaluation is the literal weighted sum of the terms
        grid = calibrate_inverse_grid(0.5, 0.3)
        g = build_tilde_h(psd_split(random_hermitian_with_spectrum(rng, 4, 0.5, 1.0)))
        combo = inverse_lcu(grid, g)
        phi = random_state(rng, combo.dim)
        brute = np.zeros_like(phi)
        count = 0
        for gamma, u in combo.iter_terms():
            brute += gamma * (u @ phi)
            count += 1
        assert count == combo.n_terms
        np.testing.assert_allclose(combo.apply_sum(phi), brute, atol=1e-10)
        total = sum(gamma for gamma, _ in combo.iter_terms())
        assert total == pytest.approx(combo.gamma_total, rel=1e-12)
        assert combo.gamma_total == pytest.approx(grid.gamma, rel=1e-12)

    def test_perturbed_unitaries_keep_budget(self, rng):
        # coarse grid so terms can be materialized; each term perturbed by
        # eps/(4 z_K) keeps the total within eps
        eps = 0.1
        grid = calibrate_inverse_grid(0.5, eps)
        g = build_tilde_h(psd_split(np.array([[0.5]])))
        combo = inverse_lcu(grid, g)
        budget = eps / (4 * grid.z_max)
        terms = tuple((w, perturbed_unitary(rng, u, budget * 0.999)) for w, u in combo.iter_terms())
        x = LcuOperator(dim=combo.dim, terms=terms)
        state = g.embed_sector_state(np.array([1.0]))
        assert abs(x.apply_sum(state)[0].real - 2.0) <= eps


class TestCircuitExpectation:
    def test_two_state_value(self):
        chain = symmetric_two_state()
        mp = mark_states(chain, [1])
        grid = calibrate_inverse_grid(mp.delta, 0.02)
        value = t_circuit_expectation(grid, mp)
        # equals t_h / gamma up to the discretization budget
        assert abs(value - 1.0 / grid.gamma) <= 0.02 / grid.gamma * 2

    def test_singleton_unmarked_block(self):
        # U = {0} with a strong self-loop: 1x1 analytic check
        p = np.array(
            [
                [0.50, 0.25, 0.25],
                [0.25, 0.75, 0.00],
                [0.25, 0.00, 0.75],
            ]
        )
        chain = validate_chain(p)
        mp = mark_states(chain, [1, 2])
        grid = calibrate_inverse_grid(mp.delta, 0.02)
        value = t_circuit_expectation(grid, mp)
        t_h = exact_hitting_time_inverse(mp)
        assert value * grid.gamma == pytest.approx(t_h, abs=0.02 * mp.pi_u * 2)

    def test_z_max_substitution_changes_little(self):
        chain = symmetric_two_state()
        mp = mark_states(chain, [1])
        grid = calibrate_inverse_grid(mp.delta, 0.04)
        value = t_circuit_expectation(grid, mp)
        substituted = value * grid.gamma / grid.z_max
        assert abs(substituted - value) <= 0.04 / 4 * abs(value) + 1e-12


    @pytest.mark.parametrize(
        "mp",
        [
            mark_states(symmetric_two_state(), [1]),
            mark_states(lazy_cycle(8), [0]),
            mark_states(lazy_cycle(16), [0]),
            mark_states(random_reversible_chain(np.random.default_rng(31), 9), [2]),
        ],
        ids=["two-state", "lazy-8-cycle", "lazy-16-cycle", "reversible-9"],
    )
    def test_real_h_u_keeps_the_complex_path_grid(self, mp):
        # H_U is real symmetric, so it is decomposed in float64; the grid is
        # calibrated from its lowest eigenvalue and must not move
        assert mp.h_matrix.dtype == np.float64
        task = HittingTimeTask(mp, 0.1)
        ref_grid, ref_amplitude = complex_path_hitting(mp, 0.1)
        grid = task.grid
        assert (grid.k_max, grid.j_max, grid.delta_y) == (
            ref_grid.k_max, ref_grid.j_max, ref_grid.delta_y
        )
        assert task.amplitude == pytest.approx(ref_amplitude, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "mp, eps, skipped",
        [
            (mark_states(lazy_cycle(8), [0]), 0.1, 3),
            (mark_states(lazy_cycle(16), [0]), 0.1, 7),
            # eps 0.8 keeps the full-spectrum reference to K = 12,985 z-nodes
            (mark_states(lazy_cycle(32), [0]), 0.8, 15),
            (mark_states(random_reversible_chain(np.random.default_rng(31), 9), [2]), 0.1, 0),
        ],
        ids=["lazy-8-cycle", "lazy-16-cycle", "lazy-32-cycle", "no-symmetry"],
    )
    def test_skipped_eigenvalues_change_no_bit(self, monkeypatch, mp, eps, skipped):
        grid = calibrate_inverse_grid(mp.delta, eps)
        eigs, weights = mp.spectral_measure
        filtered = []
        original = InverseGrid.inverse_filter

        def recording(grid, x):
            filtered.append(np.array(x))
            return original(grid, x)

        monkeypatch.setattr(InverseGrid, "inverse_filter", recording)
        value = t_circuit_expectation(grid, mp)
        live = np.isin(eigs, filtered[0])
        assert len(filtered) == 1 and eigs.size - int(live.sum()) == skipped
        monkeypatch.undo()
        full = grid.inverse_filter(eigs)
        assert value == mp.pi_u * float(weights @ full) / grid.gamma
        # the certified bound: |filter| <= gamma, so z_K * value moves by at
        # most z_K pi_U sum_skipped w_i
        assert np.all(np.abs(full) <= grid.gamma)
        moved = grid.z_max * mp.pi_u * abs(float(weights[~live] @ full[~live])) / grid.gamma
        assert moved <= grid.z_max * mp.pi_u * float(weights[~live].sum()) <= 1e-20


class TestAmplitudeEstimation:
    def test_exact_at_zero_and_one(self):
        for a in (0.0, 1.0):
            est, queries = amplitude_estimation(a, epsilon=0.037, seed=1)
            assert est == pytest.approx(a, abs=1e-12)
            assert queries >= 1

    def test_distribution_normalized(self):
        for m in [2, 3, 17, 64, 158, 1001]:
            for a in [0.0, 0.1, 0.3, 0.5, 0.9, 1.0]:
                probs = outcome_distribution(a, m)
                assert abs(probs.sum() - 1.0) <= 1e-10

    def test_exact_at_grid_angles(self):
        m = 100
        y0 = 17
        a = math.sin(math.pi * y0 / m) ** 2
        probs = outcome_distribution(a, m)
        support = np.nonzero(probs > 1e-12)[0]
        estimates = np.sin(np.pi * support / m) ** 2
        np.testing.assert_allclose(estimates, a, atol=1e-12)

    def test_coverage_at_target_precision(self):
        eps = 0.02
        hits = 0
        runs = 10_000
        rng = np.random.default_rng(99)
        m = math.ceil(math.pi / eps)
        m += m % 2
        theta, _ = _walk_order(0.3, m)
        outcomes = np.array([inverse._fejer_outcome(theta, m, u) for u in rng.random(runs)])
        estimates = np.sin(np.pi * outcomes / m) ** 2
        hits = int(np.sum(np.abs(estimates - 0.3) <= eps))
        assert hits / runs >= 0.81

    def test_confidence_boosting_uses_more_queries(self):
        _, q_base = amplitude_estimation(0.3, 0.05, confidence=0.81, seed=3)
        _, q_boost = amplitude_estimation(0.3, 0.05, confidence=0.99, seed=3)
        assert q_boost > q_base

    def test_deterministic_given_seed(self):
        a = amplitude_estimation(0.42, 0.03, seed=11)
        b = amplitude_estimation(0.42, 0.03, seed=11)
        assert a == b

    def test_rejects_amplitude_outside_unit_interval(self):
        for a in (-1e-300, 1.0 + 2**-52, float("nan")):
            with pytest.raises(ValidationError, match=r"amplitude must be in \[0, 1\]"):
                amplitude_estimation(a, 0.1)

    @pytest.mark.parametrize("m", [16, 20])
    @pytest.mark.parametrize("a", [0.13, 0.3, 0.77])
    def test_walk_is_the_oracle_inverse_transform(self, m, a):
        # c_k: the oracle's probabilities summed in walk order. The walk must
        # turn at each c_k, to within 1e-12.
        theta, order = _walk_order(a, m)
        c = np.cumsum(outcome_distribution(a, m)[order])
        for k in range(m):
            assert inverse._fejer_outcome(theta, m, c[k] - 1e-12) == order[k]
            if k + 1 < m:
                assert inverse._fejer_outcome(theta, m, c[k] + 1e-12) == order[k + 1]

    @pytest.mark.parametrize("m,a", [(20, 0.3), (38, 0.123), (9198, 0.0123)])
    def test_walk_draws_match_the_oracle(self, m, a):
        # 2e4 seeded uniforms through the walk; adjacent outcomes are pooled
        # until each bin expects at least 5, and the chi-square statistic is
        # held to its 1e-6 upper quantile.
        n = 20_000
        theta, _ = _walk_order(a, m)
        draws = [inverse._fejer_outcome(theta, m, u) for u in np.random.default_rng(0).random(n)]
        observed = np.bincount(draws, minlength=m)
        expected = n * outcome_distribution(a, m)
        bins, obs, exp = [], 0.0, 0.0
        for o, e in zip(observed, expected):
            obs, exp = obs + o, exp + e
            if exp >= 5:
                bins.append([obs, exp])
                obs = exp = 0.0
        bins[-1][0] += obs
        bins[-1][1] += exp
        obs_b, exp_b = np.array(bins).T
        statistic = float(np.sum((obs_b - exp_b) ** 2 / exp_b))
        assert statistic < stats.chi2.isf(1e-6, len(bins) - 1)

    def test_walk_ends_on_a_uniform_one_ulp_below_one(self):
        # At M = 16, a = 0.3 the walk's sum of all 16 probabilities is
        # 1 - 3.3e-16, below this u: the walk still ends after M outcomes,
        # on the last one it visits.
        theta, order = _walk_order(0.3, 16)
        y = inverse._fejer_outcome(theta, 16, np.nextafter(1.0, 0.0))
        assert 0 <= y < 16 and y == order[-1]

    def test_sampler_holds_no_outcome_array(self):
        # M = 4e7 outcomes: an M-point array of probabilities alone is 320 MB.
        tracemalloc.start()
        try:
            _, queries = amplitude_estimation(0.3, math.pi / 4e7, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert queries >= 4e7
        assert peak < 1 << 20


def _walk_order(a, m):
    """theta and the outcomes in the order the sampler's walk visits them:
    round(M theta) + 0, +1, -1, +2, -2, ... mod M."""
    theta = math.asin(math.sqrt(a)) / math.pi
    y0 = round(m * theta)
    return theta, [(y0 + ((s + 1) // 2 if s % 2 else -(s // 2))) % m for s in range(m)]


class TestEstimateHittingTime:
    def test_two_state_coverage(self):
        chain = symmetric_two_state()
        mp = mark_states(chain, [1])
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        hits = 0
        runs = 200
        for seed in range(runs):
            res = estimate_hitting_time(task, seed=seed)
            if abs(res.estimate - 1.0) <= 4 * 0.1:
                hits += 1
        assert hits / runs >= 0.81

    def test_seed_sweep_builds_grid_and_expectation_once(self, monkeypatch):
        calls = {"calibrate_inverse_grid": 0, "t_circuit_expectation": 0}
        for name in calls:
            def counted(*args, _original=getattr(inverse, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(inverse, name, counted)
        mp = mark_states(lazy_cycle(8, 0.5), [0])
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        results = [estimate_hitting_time(task, seed=seed) for seed in (0, 1, 2)]
        assert calls == {"calibrate_inverse_grid": 1, "t_circuit_expectation": 1}
        for seed, res in zip((0, 1, 2), results):
            fresh = estimate_hitting_time(HittingTimeTask(partition=mp, epsilon=0.1), seed=seed)
            assert res == fresh

    def test_hitting_run_calls_the_kernel_once(self, monkeypatch):
        # calibration is decided in closed form; the expectation builds one
        # table for its grid and reads the 4 weighted eigenvalues of the lazy
        # 8-cycle's 7 off it, and `gaussian_cosine_series` never runs
        kernel_calls = _count_kernel_calls(monkeypatch)
        builds, reads = [], []

        class CountingTable(lcu.GaussianCosineTable):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

            def __call__(self, a):
                reads.append(np.shape(a))
                return super().__call__(a)

        monkeypatch.setattr(inverse, "GaussianCosineTable", CountingTable)
        task = HittingTimeTask(partition=mark_states(lazy_cycle(8, 0.5), [0]), epsilon=0.1)
        estimate_hitting_time(task, seed=0)
        grid = task.grid
        assert kernel_calls == []
        assert builds == [(grid.table.a_max, grid.delta_y, grid.j_max)]
        assert reads == [(grid.k_max + 1, 4)]

    def test_clamped_amplitude_warns(self, monkeypatch, caplog):
        mp = mark_states(lazy_cycle(8, 0.5), [0])
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        with caplog.at_level(logging.WARNING, logger="lculab.inverse"):
            estimate_hitting_time(task, seed=0)
        assert caplog.records == []
        monkeypatch.setattr(inverse, "t_circuit_expectation", lambda grid, mp: -1e-3)
        clamped = HittingTimeTask(partition=mp, epsilon=0.1)
        with caplog.at_level(logging.WARNING, logger="lculab.inverse"):
            res = estimate_hitting_time(clamped, seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            "circuit expectation -0.001 clamped to 0 for sampling"
        ]
        # the estimate samples the clamped amplitude; the record keeps the raw one
        assert res.exact_amplitude == -1e-3
        assert res.estimate == res.z_max * amplitude_estimation(
            0.0, clamped.epsilon_prime, clamped.confidence, 0, clamped.constants
        )[0]

    def test_singleton_identity_block(self):
        # U = one state, no self transitions among unmarked: H = [1], t_h = pi_U
        p = np.array(
            [
                [0.00, 0.25, 0.25],
                [0.50, 0.50, 0.25],
                [0.50, 0.25, 0.50],
            ]
        )
        chain = validate_chain_any_spectrum(p)
        mp = mark_states(chain, [1, 2])
        np.testing.assert_allclose(mp.h_matrix, [[1.0]])
        task = HittingTimeTask(partition=mp, epsilon=0.05)
        res = estimate_hitting_time(task, seed=5)
        assert abs(res.estimate - mp.pi_u) <= 4 * 0.05

    def test_discretization_error_isolated_from_sampling(self):
        # gamma * amplitude reproduces t_h before any estimation noise
        chain = lazy_cycle(8, 0.5)
        mp = mark_states(chain, [0])
        eps = 0.1
        grid = calibrate_inverse_grid(mp.delta, eps)
        amp = t_circuit_expectation(grid, mp)
        t_h = exact_hitting_time_inverse(mp)
        assert abs(amp * grid.gamma - t_h) <= eps

    def test_lazy_96_cycle(self):
        # 72 unmarked states: the enlarged operator would have dimension
        # 72 * 73, above the cap; the pipeline works on the 72-state block
        chain = lazy_cycle(96, 0.5)
        mp = mark_states(chain, list(range(0, 96, 4)))
        assert mp.n_unmarked == 72
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        res = estimate_hitting_time(task, seed=0)
        assert abs(res.z_max * res.exact_amplitude - res.exact_hitting_time) <= 0.1

    def test_cost_ledger_fields(self):
        chain = symmetric_two_state()
        mp = mark_states(chain, [1])
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        res = estimate_hitting_time(task, seed=0)
        for name in ("C_W", "C_U", "C_sqrt_pi", "C_B", "ae_repetitions"):
            assert name in res.cost.entries
        per_rep = (
            res.cost.value("C_W")
            + res.cost.value("C_U")
            + res.cost.value("C_sqrt_pi")
            + res.cost.value("C_B")
        )
        assert res.cost.total == pytest.approx(res.grover_queries * per_rep)
        assert res.classical_cost_comparison is not None

    def test_reference_cost_matches_closed_form(self):
        from lculab.cost import theorem2_cost

        chain = symmetric_two_state()
        mp = mark_states(chain, [1])
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        # the closed-form ledger and the pipeline run at the same eps'
        report = theorem2_cost(task.delta, task.epsilon, 2, 2, task.constants)
        assert report.value("ae_repetitions") == pytest.approx(
            task.constants.ae_query_constant / task.epsilon_prime, rel=1e-15
        )

    def test_delta_lower_bound_override(self):
        chain = symmetric_two_state()
        mp = mark_states(chain, [1])
        task = HittingTimeTask(partition=mp, epsilon=0.1, delta_lower=0.25)
        assert task.delta == 0.25
        with pytest.raises(ValidationError):
            HittingTimeTask(partition=mp, epsilon=0.1, delta_lower=0.9)
