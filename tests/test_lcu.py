import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lculab.constants import DEFAULT_CONSTANTS
from lculab.errors import AnnihilationError, ValidationError
from lculab.gibbs import HsGrid
from lculab.lcu import (
    amplification_rounds,
    _COSINE_BLOCK,
    gaussian_cosine_series,
    gaussian_weights,
)
from lculab.rand import random_state, random_unitary
from oracles import (
    LcuOperator,
    ProjectorDecomposition,
    StateVector,
    ancilla_zero_block,
    b_state,
    build_tilde_h,
    coefficient_unitary,
    extended_lcu_state,
    hs_lcu,
    random_projector,
)


class TestBState:
    def test_uniform_weights(self):
        s = b_state([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(s.amplitudes, 0.5, atol=1e-15)

    def test_two_term_normalization(self):
        s = b_state([3.0, 1.0])
        np.testing.assert_allclose(s.amplitudes, [math.sqrt(3) / 2, 0.5], atol=1e-15)

    def test_gaussian_grid_weights(self):
        half = gaussian_weights(0.3, 12)
        w = np.concatenate([half[:0:-1], half])
        s = b_state(w)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
        ratio = (s.amplitudes[3] / s.amplitudes[7]) ** 2
        assert ratio == pytest.approx(w[3] / w[7], rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40))
    def test_norm_one_property(self, weights):
        s = b_state(weights)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValidationError):
            b_state([])
        with pytest.raises(ValidationError):
            b_state([1.0, 0.0])


class TestAmplificationRounds:
    def test_round_formula(self):
        c = DEFAULT_CONSTANTS
        assert amplification_rounds(1.0, c) == 1
        a = 0.01
        assert amplification_rounds(a, c) == math.ceil((math.pi / 4) / math.asin(a))
        with pytest.raises(AnnihilationError):
            amplification_rounds(0.0, c)

    def test_clamped_amplitude_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lculab.lcu"):
            for a in (1.0, 0.5, 0.01):
                amplification_rounds(a)
            assert caplog.records == []
            assert amplification_rounds(1.5) == 1
            with pytest.raises(AnnihilationError):
                amplification_rounds(-0.25)
        assert [r.getMessage() for r in caplog.records] == [
            "success amplitude 1.5 clamped to 1 for round counting",
            "success amplitude -0.25 clamped to 0 for round counting",
        ]


class TestDilation:
    def test_single_unitary_block(self, rng):
        u = random_unitary(rng, 3)
        x = LcuOperator(dim=3, terms=((2.0, u),))
        phi = StateVector(random_state(rng, 3))
        psi = extended_lcu_state(x, phi)
        block = ancilla_zero_block(psi, 3, 1)
        np.testing.assert_allclose(block, u @ phi.amplitudes, atol=1e-12)

    def test_cancellation_gives_zero_block(self, rng):
        x = LcuOperator(dim=2, terms=((0.5, np.eye(2)), (0.5, -np.eye(2))))
        phi = StateVector(random_state(rng, 2))
        block = ancilla_zero_block(extended_lcu_state(x, phi), 2, 2)
        assert np.linalg.norm(block) <= 1e-12

    def test_block_matches_weighted_sum(self, rng):
        terms = tuple((float(rng.uniform(0.2, 1.0)), random_unitary(rng, 4)) for _ in range(4))
        x = LcuOperator(dim=4, terms=terms)
        phi = StateVector(random_state(rng, 4))
        block = ancilla_zero_block(extended_lcu_state(x, phi), 4, 4)
        expected = x.apply_sum(phi.amplitudes) / x.gamma_total
        np.testing.assert_allclose(block, expected, atol=1e-10)

    def test_dilation_consistency_random_family(self, rng):
        # the renormalized ancilla-0 block is the normalized X phi, and its
        # norm is the success amplitude ||X phi|| / gamma
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            n_terms = int(rng.integers(1, 17))
            terms = tuple(
                (float(rng.uniform(0.1, 2.0)), random_unitary(rng, dim)) for _ in range(n_terms)
            )
            x = LcuOperator(dim=dim, terms=terms)
            phi = StateVector(random_state(rng, dim))
            raw = x.apply_sum(phi.amplitudes)
            block = ancilla_zero_block(extended_lcu_state(x, phi), dim, n_terms)
            np.testing.assert_allclose(
                block / np.linalg.norm(block), raw / np.linalg.norm(raw), atol=1e-10
            )
            assert np.linalg.norm(block) == pytest.approx(
                np.linalg.norm(raw) / x.gamma_total, abs=1e-10
            )

    def test_dilated_state_is_normalized(self, rng):
        terms = tuple((1.0, random_unitary(rng, 3)) for _ in range(3))
        x = LcuOperator(dim=3, terms=terms)
        psi = extended_lcu_state(x, StateVector(random_state(rng, 3)))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_unitary_first_column(self):
        b = coefficient_unitary([3.0, 1.0, 4.0])
        np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(b[:, 0], b_state([3.0, 1.0, 4.0]).amplitudes.real, atol=1e-12)


def _unblocked_series(a, delta_y, j_max):
    """The recurrence on the whole argument at once, with fresh arrays per step."""
    a = np.asarray(a, dtype=float)
    w = gaussian_weights(delta_y, j_max)
    c = np.cos(delta_y * a)
    acc = np.full_like(c, w[0])
    t_prev = np.ones_like(c)
    t_cur = c
    for j in range(1, j_max + 1):
        wj = w[j]
        if wj == 0.0:
            break
        acc += (2.0 * wj) * t_cur
        t_prev, t_cur = t_cur, 2.0 * c * t_cur - t_prev
    return acc


def _series_cases():
    rng = np.random.default_rng(17)
    z = np.arange(401) * 0.05
    x = np.unique(np.concatenate([np.geomspace(0.04, 1.0, 32), np.linspace(0.04, 1.0, 32)]))
    grid_args = np.sqrt(2.0 * np.outer(z, x))
    wide = rng.uniform(0.0, 40.0, size=(90, 700))
    return {
        "scalar": (1.7, 0.05, 300),
        "empty": (np.empty(0), 0.05, 300),
        "long-1d": (rng.uniform(0.0, 40.0, size=2 * _COSINE_BLOCK + 37), 0.03, 400),
        "grid-2d": (grid_args, 0.014, 315),
        "strided-view": (wide[::3, 1::2], 0.05, 200),
        "transposed-view": (wide.T, 0.05, 200),
        "j-max-zero": (rng.uniform(0.0, 40.0, size=100), 0.05, 0),
        "weights-underflow": (rng.uniform(0.0, 40.0, size=5000), 0.05, 1000),
    }


class TestGaussianSeries:
    def test_matches_direct_sum(self, rng):
        delta_y, j_max = 0.21, 25
        a = rng.uniform(-8, 8, size=40)
        direct = np.zeros_like(a)
        w = gaussian_weights(delta_y, j_max)
        for j in range(-j_max, j_max + 1):
            direct += w[abs(j)] * np.cos(j * delta_y * a)
        np.testing.assert_allclose(gaussian_cosine_series(a, delta_y, j_max), direct, atol=1e-12)

    def test_approximates_gaussian(self):
        # fine symmetric grid reproduces exp(-a^2/2) well inside its bandwidth
        a = np.linspace(0.0, 3.0, 30)
        out = gaussian_cosine_series(a, 0.05, 200)
        np.testing.assert_allclose(out, np.exp(-0.5 * a * a), atol=1e-8)

    @pytest.mark.parametrize("case", list(_series_cases()))
    def test_blocked_kernel_is_bit_identical(self, case):
        # the blocked in-place recurrence does each element's arithmetic in
        # the same order, so equality is exact, not within a tolerance
        a, delta_y, j_max = _series_cases()[case]
        got = gaussian_cosine_series(a, delta_y, j_max)
        want = _unblocked_series(a, delta_y, j_max)
        assert isinstance(got, np.ndarray)
        assert got.shape == np.shape(a)
        assert np.array_equal(got, want)

    def test_underflow_case_reaches_the_early_break(self):
        _, delta_y, j_max = _series_cases()["weights-underflow"]
        assert gaussian_weights(delta_y, j_max)[-1] == 0.0


class TestEvolutionLcu:
    def _small_combo(self, rng):
        proj = random_projector(rng, 3, 2)
        p = ProjectorDecomposition(dim=3, terms=((0.8, proj),))
        g = build_tilde_h(p)
        grid = HsGrid(j_max=6, delta_y=0.4, beta=1.7)
        return hs_lcu(grid, g)

    def test_structured_matches_dense(self, rng):
        combo = self._small_combo(rng)
        dense = combo.to_dense()
        assert dense.n_terms == combo.n_terms
        assert dense.gamma_total == pytest.approx(combo.gamma_total, rel=1e-12)
        phi = random_state(rng, combo.dim)
        np.testing.assert_allclose(
            combo.apply_sum(phi), dense.apply_sum(phi), atol=1e-10
        )

    def test_dilation_block_for_structured_combo(self, rng):
        combo = self._small_combo(rng)
        phi = StateVector(random_state(rng, combo.dim))
        psi = extended_lcu_state(combo, phi)
        block = ancilla_zero_block(psi, combo.dim, combo.n_terms)
        expected = combo.apply_sum(phi.amplitudes) / combo.gamma_total
        np.testing.assert_allclose(block, expected, atol=1e-10)

    def test_term_enumeration_weights(self, rng):
        combo = self._small_combo(rng)
        total = sum(w for w, _ in combo.iter_terms())
        assert total == pytest.approx(combo.gamma_total, rel=1e-12)
