import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lculab.errors import SingularityError, ValidationError
from lculab.operators import (
    DensityMatrix,
    HermitianOperator,
    matrix_from_json,
    matrix_function,
)
from lculab.rand import random_state, random_unitary
from oracles import (
    StateVector,
    matrix_to_json,
    pure_density,
    random_hermitian,
    reduced_density,
    spectral_projector,
    trace_distance,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestEig:
    def test_diagonal(self):
        w, v = HermitianOperator(np.diag([0.0, 1.0])).eigensystem
        np.testing.assert_allclose(w, [0.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2))

    def test_pauli_x_spectrum(self):
        w, _ = HermitianOperator(PAULI_X).eigensystem
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_random_reconstruction(self, rng):
        h = HermitianOperator(random_hermitian(rng, 8))
        w, v = h.eigensystem
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - h.matrix, ord=2) <= 1e-10 * 8
        # eigenvector matrix is unitary
        np.testing.assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-12)

    def test_ascending_order(self, rng):
        w, _ = HermitianOperator(random_hermitian(rng, 6)).eigensystem
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_tiny_defect(self):
        a = np.array([[1.0, 0.5 + 4e-13], [0.5, 2.0]], dtype=complex)
        h = HermitianOperator(a)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) == 0.0

    def test_degenerate_eigenspace_projector_is_basis_independent(self, rng):
        # Same degenerate operator built in two rotated presentations gives
        # the same spectral projector.
        u = random_unitary(rng, 4)
        d = np.diag([1.0, 1.0, 2.0, 3.0])
        h1 = HermitianOperator(u @ d @ u.conj().T)
        # permute the degenerate block basis before rotating
        perm = np.eye(4)[:, [1, 0, 2, 3]]
        h2 = HermitianOperator(u @ perm @ d @ perm.T @ u.conj().T)
        p1 = spectral_projector(h1, 1.0)
        p2 = spectral_projector(h2, 1.0)
        np.testing.assert_allclose(p1, p2, atol=1e-10)


class TestMatrixFunction:
    def test_identity_function(self, rng):
        h = HermitianOperator(random_hermitian(rng, 5))
        np.testing.assert_allclose(matrix_function(h, lambda x: x), h.matrix, atol=1e-10)

    def test_exponential_on_diagonal(self):
        h = HermitianOperator(np.diag([0.0, math.log(2.0)]))
        out = matrix_function(h, lambda x: math.exp(-x))
        np.testing.assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-14)

    def test_singular_inverse_raises(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(SingularityError):
            matrix_function(h, lambda x: 1.0 / x)

    def test_composition(self, rng):
        h = HermitianOperator(random_hermitian(rng, 6))
        f = lambda x: math.exp(-abs(x))
        g = lambda x: x * x
        composed = matrix_function(h, lambda x: f(g(x)))
        via_spectrum = matrix_function(HermitianOperator(matrix_function(h, g)), f)
        np.testing.assert_allclose(composed, via_spectrum, atol=1e-9)


def _random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = _random_density(rng, 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_hand_computed_diagonal(self):
        a = DensityMatrix(np.diag([0.75, 0.25]))
        b = DensityMatrix(np.diag([0.5, 0.5]))
        assert trace_distance(a, b) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            trace_distance(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetry_and_triangle(self, seed):
        g = np.random.default_rng(seed)
        a, b, c = (_random_density(g, 3) for _ in range(3))
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_contractive_under_partial_trace(self, seed):
        # Purifications of two states: discarding the purifier cannot
        # increase distinguishability.
        g = np.random.default_rng(seed)
        psi, phi = random_state(g, 12), random_state(g, 12)
        joint_a = DensityMatrix(np.outer(psi, psi.conj()))
        joint_b = DensityMatrix(np.outer(phi, phi.conj()))
        red_a = DensityMatrix(reduced_density(psi, (3, 4), keep=0))
        red_b = DensityMatrix(reduced_density(phi, (3, 4), keep=0))
        assert trace_distance(red_a, red_b) <= trace_distance(joint_a, joint_b) + 1e-10


class TestStateAndDensityValidation:
    def test_state_norm_enforced(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]))

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_density_positivity_enforced(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_pure_density(self, rng):
        s = StateVector(random_state(rng, 4))
        rho = pure_density(s)
        assert np.trace(rho.matrix).real == pytest.approx(1.0)


class TestJsonRoundTrip:
    def test_matrix_exact_round_trip(self, rng):
        a = random_hermitian(rng, 5) + 1j * 0.1 * random_hermitian(rng, 5)
        a = a + a.conj().T  # any square complex matrix works; make it interesting
        blob = json.dumps(matrix_to_json(a))
        back = matrix_from_json(json.loads(blob))
        assert np.array_equal(back, a)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", "x"),
            ("re", [1.0, "a", 0.0, 1.0]),
            ("dim", 2.5),
            ("dim", True),
            ("dim", -1),
            ("re", [1.0, True, 0.0, 1.0]),
            ("im", [0.0, "1.5", 0.0, 0.0]),
            ("re", [1.0, None, 0.0, 1.0]),
        ],
        ids=[
            "string-dim", "string-entry", "fractional-dim", "bool-dim", "negative-dim",
            "bool-entry", "string-im-entry", "null-entry",
        ],
    )
    def test_unreadable_field_is_a_validation_error(self, field, value):
        obj = {"dim": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
        obj[field] = value
        with pytest.raises(ValidationError, match="malformed matrix JSON"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_integer_past_the_double_range_is_a_validation_error(self, field):
        obj = {"dim": 1, "re": [0], "im": [0]}
        obj[field] = [10**400]
        with pytest.raises(ValidationError, match="too large for a double"):
            matrix_from_json(obj)

    def test_numpy_numbers_are_numbers(self):
        obj = {"dim": np.int64(1), "re": [np.float64(2.0)], "im": [np.int32(0)]}
        assert np.array_equal(matrix_from_json(obj), [[2.0]])

    def test_numpy_arrays_are_lists_of_numbers(self):
        obj = {"dim": 2, "re": np.array([1.0, 2.0, 2.0, 3.0]), "im": np.zeros(4, dtype=np.int64)}
        assert np.array_equal(matrix_from_json(obj), [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "re", [np.ones((2, 2)), np.ones(4, dtype=bool)], ids=["two-dimensional", "bool-array"]
    )
    def test_array_that_is_not_a_list_of_numbers_is_refused(self, re):
        with pytest.raises(ValidationError, match="re is not a list of numbers"):
            matrix_from_json({"dim": 2, "re": re, "im": [0.0] * 4})
