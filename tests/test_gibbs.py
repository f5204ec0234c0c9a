import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lculab import gibbs
from lculab.errors import PreconditionWarning, ValidationError
from lculab.gap_amplification import parse_pauli_lines
from lculab.gibbs import GibbsTask, calibrate_hs_grid, prepare_gibbs
from lculab.lcu import amplification_rounds, gaussian_weights
from lculab.operators import DensityMatrix, HermitianOperator, matrix_function
from lculab.rand import random_state
from oracles import (
    BENCH_TFIM_6,
    LcuOperator,
    ProjectorDecomposition,
    all_kernel_hs_grid,
    build_tilde_h,
    hs_lcu,
    maximally_entangled_state,
    perturbed_unitary,
    psd_split,
    random_psd,
    reduced_density,
    trace_distance,
)

EPS4 = math.exp(-4)


class TestGridCalibration:
    def test_weight_sum_near_one(self):
        grid = calibrate_hs_grid(1.0, 4.0, EPS4)
        assert abs(grid.weight_sum - 1.0) <= EPS4 / 2

    def test_scalar_test_on_fresh_samples(self):
        # validate on points the calibration loop never saw
        grid = calibrate_hs_grid(1.0, 4.0, EPS4)
        xs = np.random.default_rng(5).uniform(0.0, 1.0, size=200)
        err = np.max(np.abs(np.exp(-4.0 * xs / 2) - grid.kernel(xs)))
        assert err <= EPS4 / 2

    def test_warns_about_nothing_outside_the_window(self):
        # norm*beta = 2 is outside Lemma 1's window, which prepare_gibbs checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate_hs_grid(1.0, 2.0, EPS4)

    def test_weights_symmetric(self):
        # the kernel is the explicit sum over the symmetric grid j = -J..J,
        # whose imaginary part cancels
        grid = calibrate_hs_grid(1.0, 5.0, EPS4)
        half = gaussian_weights(grid.delta_y, grid.j_max)
        w = np.concatenate([half[:0:-1], half])
        y = np.arange(-grid.j_max, grid.j_max + 1) * grid.delta_y
        assert y[0] == -grid.y_max
        x = np.linspace(0.0, 1.0, 7)
        explicit = np.exp(-1j * np.outer(np.sqrt(grid.beta * x), y)) @ w
        np.testing.assert_allclose(explicit.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(grid.kernel(x), explicit.real, atol=1e-12)
        assert grid.weight_sum == pytest.approx(w.sum(), rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            calibrate_hs_grid(-1.0, 4.0, EPS4)
        with pytest.raises(ValidationError):
            calibrate_hs_grid(1.0, 4.0, 1.5)


def _kernel_calls(monkeypatch):
    """Record the argument shape of every cosine-kernel call the thermal pipeline makes."""
    calls = []

    def counting(a, delta_y, j_max, _original=gibbs.gaussian_cosine_series):
        calls.append(np.shape(a))
        return _original(a, delta_y, j_max)

    monkeypatch.setattr(gibbs, "gaussian_cosine_series", counting)
    return calls


class TestErrorBounds:
    """The closed-form interval against the error the kernel computes.

    `_error_bounds` widens the Poisson bounds by eta = roundoff + 8u +
    1e-9 (images + tail), with roundoff the per-series margin of
    `cosine_series_bounds`; the kernel's own sample test is the oracle.
    """

    @settings(max_examples=120, deadline=None)
    @given(
        norm=st.floats(0.5, 20.0),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        ratio=st.floats(0.05, 1.2),
        y_max=st.floats(0.5, 9.0),
    )
    # at y_max = 9 the images and the tail are below the rounding, so the
    # interval at these grids rests on eta alone
    @example(norm=1.0, beta=0.0, ratio=0.3, y_max=9.0)
    @example(norm=20.0, beta=100.0, ratio=0.1, y_max=9.0)
    def test_interval_holds_the_kernel_error(self, norm, beta, ratio, y_max):
        # ratio is delta_y * a_max / pi; past 1 the interval is unbounded
        delta_y = ratio * math.pi / max(math.sqrt(beta * norm), 1.0)
        samples = gibbs._sample_points(norm)
        assert samples[0] == 0.0
        # all 64 samples, the x = 0 sample alone, and the rest without it
        for points in (samples, samples[:1], samples[1:]):
            lo, hi = gibbs._error_bounds(delta_y, y_max, beta, points)
            err, _ = gibbs._grid_error(delta_y, y_max, beta, points)
            assert lo <= err <= hi
            if ratio < 1:
                assert hi < math.inf

    def test_x_zero_bound_decides_a_short_grid(self):
        # beta = 0: every sample sits at a = 0, where the kernel is the weight
        # sum; the weight past |j| = J sets the error from both sides
        samples = gibbs._sample_points(1.0)
        lo, hi = gibbs._error_bounds(0.5, 1.0, 0.0, samples)
        err, _ = gibbs._grid_error(0.5, 1.0, 0.0, samples)
        assert 0.5 * err < lo <= err <= hi < 2.0 * err

    def test_grids_equal_the_all_kernel_loop(self, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        rng = np.random.default_rng(23)
        cases = [
            (
                math.exp(rng.uniform(math.log(0.5), math.log(20.0))),
                math.exp(rng.uniform(math.log(0.2), math.log(100.0))),
                math.exp(rng.uniform(math.log(1e-8), math.log(0.2))),
            )
            for _ in range(120)
        ]
        cases += [(1.0, 0.0, EPS4), (3.0, 0.0, 1e-6), (0.5, 0.2, 0.1)]
        kernel_runs = 0
        for norm, beta, eps in cases:
            before = len(calls)
            grid = calibrate_hs_grid(norm, beta, eps)
            kernel_runs += len(calls) - before
            assert grid == all_kernel_hs_grid(norm, beta, eps), (norm, beta, eps)
        # the reference runs the kernel on every trial grid; over all these
        # calibrations the bound leaves it two comparisons
        assert kernel_runs <= 2

    def test_tfim_calibration_runs_no_kernel(self, monkeypatch):
        # the 6-qubit TFIM of the gibbs-tfim benchmark at beta 2, eps 0.05:
        # the one kernel call is the filter on the 64 eigenvalues of H
        calls = _kernel_calls(monkeypatch)
        matrix, weights, _ = parse_pauli_lines(BENCH_TFIM_6)
        task = GibbsTask(HermitianOperator(matrix), beta=2.0, epsilon=0.05, weights=weights)
        prepare_gibbs(task)
        assert calls == [(64,)]


class TestHsLcu:
    def test_zero_hamiltonian_reduces_to_weight_sum(self, rng):
        p = ProjectorDecomposition(dim=2, terms=())
        g = build_tilde_h(p)
        grid = calibrate_hs_grid(1.0, 4.0, EPS4)
        combo = hs_lcu(grid, g)
        phi = random_state(rng, 2)
        out = combo.apply_sum(phi)
        np.testing.assert_allclose(out, grid.weight_sum * phi, atol=EPS4 / 2)

    def test_thermal_kernel_on_diagonal_hamiltonian(self, rng):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        g = build_tilde_h(psd_split(h))
        grid = calibrate_hs_grid(1.0, 8.0, EPS4)
        combo = hs_lcu(grid, g)
        target = matrix_function(h, lambda x: math.exp(-8.0 * x / 2))
        for _ in range(20):
            phi = random_state(rng, 2)
            expected = g.embed_sector_state(target @ phi)
            got = combo.apply_sum(g.embed_sector_state(phi))
            assert np.linalg.norm(expected - got) <= EPS4 / 2

    def test_kernel_bound_random_psd(self, rng):
        # residual bound on random PSD operators inside the validity window
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            h_mat = random_psd(rng, dim, norm=1.0)
            beta = 4.0 / 1.0 * float(rng.uniform(1.0, 2.0))
            g = build_tilde_h(psd_split(h_mat))
            grid = calibrate_hs_grid(1.0, beta, EPS4)
            combo = hs_lcu(grid, g)
            h = HermitianOperator(h_mat)
            target = matrix_function(h, lambda x: math.exp(-beta * x / 2))
            for _ in range(5):
                phi = random_state(rng, dim)
                expected = g.embed_sector_state(target @ phi)
                got = combo.apply_sum(g.embed_sector_state(phi))
                assert np.linalg.norm(expected - got) <= EPS4 / 2

    def test_perturbed_evolutions_double_the_budget(self, rng):
        # replacing each evolution by an eps'/4-close unitary keeps the total
        # error within eps'
        h = HermitianOperator(np.diag([0.0, 1.0]))
        g = build_tilde_h(psd_split(h))
        grid = calibrate_hs_grid(1.0, 8.0, EPS4)
        combo = hs_lcu(grid, g)
        target = matrix_function(h, lambda x: math.exp(-8.0 * x / 2))
        terms = tuple(ticket for ticket in combo.iter_terms())
        perturbed = tuple(
            (w, perturbed_unitary(rng, u, EPS4 / 4 * 0.999)) for w, u in terms
        )
        x = LcuOperator(dim=combo.dim, terms=perturbed)
        for _ in range(10):
            phi = random_state(rng, 2)
            expected = g.embed_sector_state(target @ phi)
            got = x.apply_sum(g.embed_sector_state(phi))
            assert np.linalg.norm(expected - got) <= EPS4


class TestMaximallyEntangled:
    def test_bell_state(self):
        s = maximally_entangled_state(1)
        np.testing.assert_allclose(
            s.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
        )

    def test_two_qubit_schmidt(self):
        s = maximally_entangled_state(2)
        psi = s.amplitudes.reshape(4, 4)
        svals = np.linalg.svd(psi, compute_uv=False)
        np.testing.assert_allclose(svals, 0.5, atol=1e-14)

    def test_reduced_state_maximally_mixed(self):
        for n in range(1, 5):
            s = maximally_entangled_state(n)
            dim = 2**n
            for keep in (0, 1):
                red = reduced_density(s.amplitudes, (dim, dim), keep=keep)
                np.testing.assert_allclose(red, np.eye(dim) / dim, atol=1e-12)

    def test_thermal_norm_identity(self, rng):
        # || exp(-beta H / 2) (x) 1 |pair> ||^2 = Z / N exactly
        dim = 4
        h = HermitianOperator(random_psd(rng, dim, norm=1.0))
        beta = 5.0
        kernel = matrix_function(h, lambda x: math.exp(-beta * x / 2))
        pair = maximally_entangled_state(2).amplitudes.reshape(dim, dim)
        image = kernel @ pair
        z = float(np.sum(np.exp(-beta * h.eigensystem[0])))
        assert np.linalg.norm(image) ** 2 == pytest.approx(z / dim, abs=1e-10)


def _exact_thermal(h: HermitianOperator, beta: float) -> DensityMatrix:
    energies, _ = h.eigensystem
    shifted = matrix_function(h, lambda x: math.exp(-beta * (x - energies[0])))
    return DensityMatrix(shifted / np.sum(np.exp(-beta * (energies - energies[0]))))


class TestPrepareGibbs:
    def test_infinite_temperature(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        task = GibbsTask(hamiltonian=h, beta=0.0, epsilon=0.05, weights=psd_split(h).weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            res = prepare_gibbs(task)
        np.testing.assert_allclose(res.prepared_density.matrix, np.eye(2) / 2, atol=1e-10)
        assert res.partition_function == pytest.approx(2.0)
        assert res.success_amplitude == pytest.approx(1.0, abs=0.01)

    def test_one_qubit_diagonal(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        task = GibbsTask(hamiltonian=h, beta=8.0, epsilon=0.05, weights=psd_split(h).weights)
        res = prepare_gibbs(task)
        assert res.trace_dist <= 0.05
        exact = _exact_thermal(h, 8.0)
        dense = trace_distance(res.prepared_density, exact)
        assert dense <= 0.05
        assert res.trace_dist == pytest.approx(dense, abs=1e-14)
        expected_amp = math.sqrt(res.partition_function / 2)
        assert abs(res.success_amplitude - expected_amp) <= 2 * res.epsilon_prime

    def test_three_qubit_pauli_hamiltonian(self, rng):
        # shifted two-local Hamiltonian, beta chosen so that norm * beta = 8
        text = "1.0 ZZI\n0.7 IZZ\n0.4 XIX\n0.3 IXI\n2.4 III"
        matrix, weights, offset = parse_pauli_lines(text)
        h = HermitianOperator(matrix)
        norm = h.spectral_norm
        beta = 8.0 / norm
        task = GibbsTask(hamiltonian=h, beta=beta, epsilon=0.1, weights=weights)
        res = prepare_gibbs(task)
        assert res.trace_dist <= 0.1
        exact = _exact_thermal(h, beta)
        dense = trace_distance(res.prepared_density, exact)
        assert dense <= 0.1
        assert res.trace_dist == pytest.approx(dense, abs=1e-14)

    def test_clamped_amplitude_warns(self, monkeypatch, caplog):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        task = GibbsTask(hamiltonian=h, beta=4.0, epsilon=0.05, weights=psd_split(h).weights)
        with caplog.at_level(logging.WARNING, logger="lculab"):
            res = prepare_gibbs(task)
        assert caplog.records == []
        # a kernel twice too large puts the amplitude ratio past 1
        kernel = gibbs.HsGrid.kernel
        monkeypatch.setattr(gibbs.HsGrid, "kernel", lambda grid, x: 2 * kernel(grid, x))
        with caplog.at_level(logging.WARNING, logger="lculab"):
            clamped = prepare_gibbs(task)
        raw = 2 * res.success_amplitude
        assert [r.getMessage() for r in caplog.records] == [
            f"success amplitude {raw:.6g} clamped to 1"
        ]
        assert (clamped.success_amplitude, clamped.amplification_rounds) == (1.0, 1)

    def test_rounds_track_amplitude_target(self):
        h = HermitianOperator(np.diag([0.0, 0.5, 0.75, 1.0]))
        dec = psd_split(h)
        for beta in [4.5, 6.0, 9.0, 12.0]:
            task = GibbsTask(hamiltonian=h, beta=beta, epsilon=0.05, weights=dec.weights)
            res = prepare_gibbs(task)
            target = amplification_rounds(math.sqrt(res.partition_function / 4))
            assert res.amplification_rounds <= 2 * target
            assert target <= 2 * res.amplification_rounds

    def test_oracle_free_mode(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        task = GibbsTask(hamiltonian=h, beta=8.0, epsilon=0.05, weights=psd_split(h).weights)
        z_true = 1.0 + math.exp(-8.0)
        res = prepare_gibbs(task, mode="oracle-free", z_lower_bound=0.5 * z_true)
        assert res.trace_dist <= 0.05
        with pytest.raises(ValidationError):
            prepare_gibbs(task, mode="oracle-free")

    def test_precondition_flagged_not_masked(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        task = GibbsTask(hamiltonian=h, beta=2.0, epsilon=0.3, weights=psd_split(h).weights)
        with pytest.warns(PreconditionWarning):
            res = prepare_gibbs(task)
        assert res.precondition_warnings
        # outside the stated window the calibration still achieves its bound
        assert res.trace_dist <= 0.3

    def test_window_warning_message(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        task = GibbsTask(hamiltonian=h, beta=2.0, epsilon=0.3, weights=psd_split(h).weights)
        message = (
            "outside the stated validity window: norm*beta = 2 (want >= 4), "
            "ln(1/eps') = 2.18 (want >= 4)"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = prepare_gibbs(task)
        assert [(w.category, str(w.message)) for w in caught] == [(PreconditionWarning, message)]
        assert caught[0].filename == __file__
        assert res.precondition_warnings == (message,)

    def test_zero_hamiltonian_end_to_end(self):
        # empty presentation: all evolutions are the identity and the
        # prepared state is exactly maximally mixed
        h = HermitianOperator(np.zeros((2, 2)))
        task = GibbsTask(hamiltonian=h, beta=3.0, epsilon=0.1, weights=())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            res = prepare_gibbs(task)
        np.testing.assert_allclose(res.prepared_density.matrix, np.eye(2) / 2, atol=1e-10)
        assert res.trace_dist <= 1e-10

    def test_nine_qubit_tfim(self):
        # N(K+1) = 512 * 18 would exceed the dimension cap; the pipeline works on N = 512
        n = 9
        lines = []
        for i in range(n - 1):
            lines.append("-1.0 " + "I" * i + "ZZ" + "I" * (n - i - 2))
        for i in range(n):
            lines.append(f"-{0.5 + 0.1 * i} " + "I" * i + "X" + "I" * (n - i - 1))
        matrix, weights, _ = parse_pauli_lines("\n".join(lines))
        h = HermitianOperator(matrix)
        task = GibbsTask(hamiltonian=h, beta=2.0, epsilon=0.05, weights=weights)
        res = prepare_gibbs(task)
        assert res.trace_dist <= 0.05
        dense = trace_distance(res.prepared_density, _exact_thermal(h, 2.0))
        assert dense <= 0.05
        assert res.trace_dist == pytest.approx(dense, abs=1e-14)

    def test_weights_below_top_eigenvalue_rejected(self):
        # sum_k alpha_k Pi_k <= sum_k alpha_k, so no projectors with these
        # weights reach lambda_max = 2
        h = HermitianOperator(np.diag([0.0, 2.0]))
        with pytest.raises(ValidationError, match="below lambda_max"):
            GibbsTask(
                hamiltonian=h,
                beta=4.0,
                epsilon=0.1,
                weights=psd_split(np.diag([0.0, 1.0])).weights,
            )
        for weights in ((2.0,), (1.0, 1.0), (2.0 - 1e-9,)):
            task = GibbsTask(hamiltonian=h, beta=4.0, epsilon=0.1, weights=weights)
            assert task.weights == weights

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_bad_weight_rejected_like_a_decomposition(self, alpha):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match="term 1: weight must be positive") as from_task:
            GibbsTask(hamiltonian=h, beta=4.0, epsilon=0.1, weights=(1.0, alpha))
        with pytest.raises(ValidationError) as from_decomposition:
            ProjectorDecomposition(dim=2, terms=((1.0, np.eye(2)), (alpha, np.eye(2))))
        assert str(from_task.value) == str(from_decomposition.value)

    def test_non_psd_hamiltonian_rejected_like_psd_split(self):
        h = HermitianOperator(np.diag([-1e-9, 1.0]))
        with pytest.raises(ValidationError, match="not PSD") as from_task:
            GibbsTask(hamiltonian=h, beta=4.0, epsilon=0.1, weights=(1.0,))
        with pytest.raises(ValidationError) as from_split:
            psd_split(h)
        assert str(from_task.value) == str(from_split.value)
        # roundoff below zero passes both
        h = HermitianOperator(np.diag([-1e-11, 1.0]))
        assert GibbsTask(hamiltonian=h, beta=4.0, epsilon=0.1, weights=(1.0,)).weights == (1.0,)
        assert psd_split(h).weights == (1.0,)


def _criterion_3_hamiltonians():
    one = HermitianOperator(np.diag([0.0, 1.0]))
    yield one, psd_split(one).weights
    for text in ("0.8 ZI\n0.6 IZ\n0.5 ZZ", "1.0 ZZI\n0.7 IZZ\n0.4 XIX\n0.3 IXI"):
        matrix, weights, _ = parse_pauli_lines(text)
        yield HermitianOperator(matrix), weights


class TestSpectralTraceDistance:
    """`trace_dist` is read off the spectrum of H; the dense oracle diagonalizes
    the difference of the two density matrices."""

    @pytest.mark.parametrize("epsilon", [0.1, 0.05])
    def test_matches_dense_oracle_on_criterion_3_hamiltonians(self, epsilon):
        for h, weights in _criterion_3_hamiltonians():
            beta = 8.0 / h.spectral_norm
            task = GibbsTask(hamiltonian=h, beta=beta, epsilon=epsilon, weights=weights)
            with warnings.catch_warnings():
                # criterion 3 runs one point outside the validity window on purpose
                warnings.simplefilter("ignore", PreconditionWarning)
                res = prepare_gibbs(task)
            dense = trace_distance(res.prepared_density, _exact_thermal(h, beta))
            assert res.trace_dist == pytest.approx(dense, abs=1e-14)

    @staticmethod
    def _mpmath_trace_distance(h: HermitianOperator, grid, beta: float):
        """Half the l1 distance between the two populations on spec(H), at 40 digits."""
        with mpmath.workdps(40):
            a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in h.matrix])
            spectrum, _ = mpmath.eighe(a)
            energies = [spectrum[i] for i in range(h.dim)]
            dy, b = mpmath.mpf(grid.delta_y), mpmath.mpf(beta)
            w = [dy * mpmath.exp(-((j * dy) ** 2) / 2) / mpmath.sqrt(2 * mpmath.pi)
                 for j in range(grid.j_max + 1)]

            def kernel(x):
                arg = mpmath.sqrt(b * max(x, 0))
                return w[0] + 2 * mpmath.fsum(w[j] * mpmath.cos(j * dy * arg) for j in range(1, len(w)))

            prepared = [kernel(x) ** 2 for x in energies]
            exact = [mpmath.exp(-b * (x - min(energies))) for x in energies]
            p_sum, q_sum = mpmath.fsum(prepared), mpmath.fsum(exact)
            return mpmath.fsum(abs(p / p_sum - q / q_sum) for p, q in zip(prepared, exact)) / 2

    @pytest.mark.parametrize("text", ["1.0 Z\n0.5 X", "1.0 ZI\n0.5 XX\n0.3 IY"])
    def test_matches_forty_digit_evaluation(self, text):
        # the dense route read 5.8e-12 relative on the first Hamiltonian
        matrix, weights, _ = parse_pauli_lines(text)
        h = HermitianOperator(matrix)
        res = prepare_gibbs(GibbsTask(hamiltonian=h, beta=4.0, epsilon=0.1, weights=weights))
        reference = self._mpmath_trace_distance(h, res.grid, 4.0)
        assert float(abs(res.trace_dist - reference) / reference) <= 2e-12
