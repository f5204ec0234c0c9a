import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lculab.constants import DEFAULT_CONSTANTS
from lculab.errors import AnnihilationError, ValidationError
from lculab.gibbs import HsGrid
from lculab.inverse import InverseGrid
from lculab.lcu import (
    GaussianCosineTable,
    amplification_rounds,
    _COSINE_BLOCK,
    cosine_series_bounds,
    cosine_table_bound,
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
    y_series_reference,
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

    def test_amplitude_outside_the_unit_interval_raises(self):
        # no caller passes one: prepare_gibbs clamps to 1 and theorem1_cost
        # takes min(sqrt(Z/N), 1), so a value outside [0, 1] is a fault
        for a in (1.5, -0.25, 1.0 + 2**-52, -(2**-1074), math.nan):
            with pytest.raises(ValidationError, match="success amplitude must lie in"):
                amplification_rounds(a)


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


def _series_cases():
    rng = np.random.default_rng(17)
    z = np.arange(401) * 0.05
    x = np.unique(np.concatenate([np.geomspace(0.04, 1.0, 32), np.linspace(0.04, 1.0, 32)]))
    grid_args = np.sqrt(2.0 * np.outer(z, x))
    wide = rng.uniform(0.0, 40.0, size=(90, 700))
    return {
        "scalar": (1.7, 0.05, 300),
        "empty": (np.empty(0), 0.05, 300),
        "long-1d": (rng.uniform(0.0, 40.0, size=40_000), 0.03, 400),
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
        # a C-ordered array of the argument's shape, bit-identical for a view
        # and for its contiguous copy (the blocks read the same flat values),
        # and each value within the roundoff bound of the 30-digit sum (at up
        # to 24 seeded elements of a case)
        a, delta_y, j_max = _series_cases()[case]
        got = gaussian_cosine_series(a, delta_y, j_max)
        assert isinstance(got, np.ndarray)
        assert got.shape == np.shape(a)
        assert got.flags.c_contiguous
        assert np.array_equal(got, gaussian_cosine_series(np.copy(a, order="C"), delta_y, j_max))
        flat, values = np.ravel(a), got.reshape(-1)
        if flat.size == 0:
            return
        picks = np.random.default_rng(5).choice(flat.size, size=min(24, flat.size), replace=False)
        roundoff = cosine_series_bounds(float(np.abs(flat).max()), delta_y, j_max)[2]
        exact = y_series_reference(flat[picks], delta_y, j_max)
        for value, reference in zip(values[picks], exact):
            assert abs(value - reference) <= roundoff

    @settings(max_examples=40, deadline=None)
    @given(
        delta_y=st.floats(1e-3, 1.0),
        j_max=st.integers(0, 3000),
        nyquist_fraction=st.floats(0.0, 1.0, exclude_max=True),
        fraction=st.floats(0.0, 1.0),
    )
    # the closest call: the roundoff bound is 0.37 of the recurrence's there
    @example(delta_y=1.0, j_max=0, nyquist_fraction=0.999999, fraction=1.0)
    def test_roundoff_bound_holds_and_never_exceeds_the_recurrence_bound(
        self, delta_y, j_max, nyquist_fraction, fraction
    ):
        # on 0 <= a <= a_max < pi/delta_y, against the 30-digit sum; the
        # Chebyshev cosine recurrence this kernel replaced was bounded by
        # 16 ((1 + 1/delta_y)^2 + (J+1)(1 + delta_y)) u, and a grid's error
        # interval may only narrow
        a_max = nyquist_fraction * math.pi / delta_y
        points = np.array([fraction * a_max, a_max])
        roundoff = cosine_series_bounds(a_max, delta_y, j_max)[2]
        exact = y_series_reference(points, delta_y, j_max)
        for value, reference in zip(gaussian_cosine_series(points, delta_y, j_max), exact):
            assert abs(value - reference) <= roundoff
        recurrence = 16.0 * 2.0**-53 * ((1.0 + 1.0 / delta_y) ** 2 + (j_max + 1) * (1.0 + delta_y))
        assert roundoff <= recurrence


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


# Inner grids that `calibrate_inverse_grid` accepts, as (delta_lower, delta_z, K,
# delta_y, J): the lazy 8-cycle at eps 0.1 (the `hitting-cycle` benchmark),
# the lazy 16-cycle at eps 0.1, and the two-state chain at eps 0.1 with the
# oracle-free bound delta_lower_bound = 1e-4.
_TABLE_GRIDS = {
    "lazy-8-cycle": (0.03806023374435666, 0.05, 5856, 0.014030048294086332, 315),
    "lazy-16-cycle": (0.009607359798384832, 0.05, 28928, 0.005800979638086831, 829),
    "two-state-1e-4": (1e-4, 0.05, 4605171, 0.00037620655572812267, 15618),
}


class TestGaussianCosineTable:
    @staticmethod
    def _table(name):
        delta_lower, delta_z, k_max, delta_y, j_max = _TABLE_GRIDS[name]
        inner = HsGrid(j_max=j_max, delta_y=delta_y, beta=2.0 * (k_max * delta_z))
        return InverseGrid(delta_lower, delta_z, k_max, inner).table

    @pytest.mark.parametrize("name", list(_TABLE_GRIDS))
    def test_error_is_under_the_stated_bound(self, name):
        # against a 30-digit sum at a = 0, a = a_max, the cell edges on both
        # sides and seeded points
        table = self._table(name)
        edges = 2.0 * table.half_width * np.array([1, table.coefficients.shape[1] - 1])
        points = np.concatenate([
            [0.0, table.a_max], edges, np.nextafter(edges, 0.0),
            np.random.default_rng(11).uniform(0.0, table.a_max, size=2),
        ])
        bound = cosine_table_bound(table.a_max, table.delta_y, table.j_max)
        exact = y_series_reference(points, table.delta_y, table.j_max)
        for value, reference in zip(table(points), exact):
            assert abs(value - reference) <= bound

    def test_value_does_not_depend_on_the_call_width(self):
        # bit for bit, across block boundaries, shapes and strides
        table = self._table("lazy-8-cycle")
        rng = np.random.default_rng(23)
        a = rng.uniform(0.0, table.a_max, size=2 * _COSINE_BLOCK + 37)
        full = table(a)
        assert full.shape == a.shape
        for start, stop in [(0, 1), (5, 9), (_COSINE_BLOCK - 3, _COSINE_BLOCK + 4), (a.size - 1, a.size)]:
            assert np.array_equal(table(a[start:stop]), full[start:stop])
        assert table(a[7]).shape == ()
        assert table(a[7]) == full[7]
        wide = a[: 90 * 300].reshape(90, 300)
        assert np.array_equal(table(wide[::3, 1::2]), full[: 90 * 300].reshape(90, 300)[::3, 1::2])
        assert np.array_equal(table(wide.T), full[: 90 * 300].reshape(90, 300).T)
        assert table(np.empty(0)).shape == (0,)

    def test_arguments_outside_the_domain_are_rejected(self):
        table = GaussianCosineTable(3.0, 0.2, 30)
        for bad in (-1e-300, np.nextafter(3.0, 4.0), math.nan):
            with pytest.raises(ValidationError, match="must lie in"):
                table(np.array([1.0, bad]))
        with pytest.raises(ValidationError):
            GaussianCosineTable(math.inf, 0.2, 30)
