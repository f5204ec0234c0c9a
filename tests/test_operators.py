import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lculab import cli, operators
from lculab.errors import SingularityError, ValidationError
from lculab.operators import (
    DIMENSION_CAP,
    HermitianOperator,
    as_square_matrix,
    matrix_from_json,
    matrix_function,
    symmetrize,
)
from lculab.rand import random_state, random_unitary
from oracles import (
    DensityMatrix,
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


def _typed_by_cli(tmp_path, matrix: dict) -> dict:
    """A matrix object as the CLI's config reader types it, in a gibbs config."""
    path = tmp_path / "config.json"
    payload = {"command": "gibbs", "hamiltonian": {"matrix": matrix}, "beta": 1.0, "epsilon": 0.1}
    path.write_text(json.dumps(payload))
    return cli.load_config(str(path))["hamiltonian"]["matrix"]


class TestJsonRoundTrip:
    """Round trips call the library; malformed objects are typed at the CLI
    boundary, where a message names the field by its path."""

    def test_matrix_exact_round_trip(self, rng):
        a = random_hermitian(rng, 5) + 1j * 0.1 * random_hermitian(rng, 5)
        a = a + a.conj().T  # any square complex matrix works; make it interesting
        blob = json.dumps(matrix_to_json(a))
        back = matrix_from_json(json.loads(blob))
        assert np.array_equal(back, a)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValidationError, match="entry count does not match"):
            matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("dim", "x", "dim"),
            ("re", [1.0, "a", 0.0, 1.0], r"re\[1\]"),
            ("dim", 2.5, "dim"),
            ("dim", True, "dim"),
            ("dim", -1, "dim"),
            ("re", [1.0, True, 0.0, 1.0], r"re\[1\]"),
            ("im", [0.0, "1.5", 0.0, 0.0], r"im\[1\]"),
            ("re", [1.0, None, 0.0, 1.0], r"re\[1\]"),
        ],
        ids=[
            "string-dim", "string-entry", "fractional-dim", "bool-dim", "negative-dim",
            "bool-entry", "string-im-entry", "null-entry",
        ],
    )
    def test_unreadable_field_is_a_validation_error(self, tmp_path, field, value, path):
        obj = {"dim": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
        obj[field] = value
        with pytest.raises(ValidationError, match=rf"^hamiltonian\.matrix\.{path} must be "):
            _typed_by_cli(tmp_path, obj)

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_integer_past_the_double_range_is_a_validation_error(self, tmp_path, field):
        obj = {"dim": 1, "re": [0], "im": [0]}
        obj[field] = [10**400]
        message = rf"^hamiltonian\.matrix\.{field} holds a number too large for a double$"
        with pytest.raises(ValidationError, match=message):
            _typed_by_cli(tmp_path, obj)

    def test_numpy_numbers_are_numbers(self):
        obj = {"dim": np.int64(1), "re": [np.float64(2.0)], "im": [np.int32(0)]}
        assert np.array_equal(matrix_from_json(obj), [[2.0]])

    def test_numpy_arrays_are_lists_of_numbers(self):
        obj = {"dim": 2, "re": np.array([1.0, 2.0, 2.0, 3.0]), "im": np.zeros(4, dtype=np.int64)}
        assert np.array_equal(matrix_from_json(obj), [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "re", [[[1.0, 1.0], [1.0, 1.0]], [True] * 4], ids=["two-dimensional", "bool-array"]
    )
    def test_array_that_is_not_a_list_of_numbers_is_refused(self, tmp_path, re):
        message = r"^hamiltonian\.matrix\.re\[0\] must be a number"
        with pytest.raises(ValidationError, match=message):
            _typed_by_cli(tmp_path, {"dim": 2, "re": re, "im": [0.0] * 4})


class TestAsSquareMatrix:
    @pytest.mark.parametrize(
        "values, match",
        [
            ([[1.0, 2.0], [3.0]], "rows are not of one length"),
            ([["a"]], "entries are not numbers"),
            ([[1.0, "a"], [0.0, 1.0]], "entries are not numbers"),
            ([[None]], "entries are not numbers"),
            (np.zeros((0, 0)), "non-empty square matrix"),
            ([], "non-empty square matrix"),
            ([[1.0, 2.0]], "non-empty square matrix"),
            ([[math.inf]], "non-finite"),
        ],
        ids=["ragged", "string", "mixed-string", "none", "0x0", "empty-list", "1x2", "inf"],
    )
    def test_edge_input_is_a_validation_error(self, values, match):
        with pytest.raises(ValidationError, match=match):
            as_square_matrix(values)

    def test_empty_hamiltonian_refused_before_a_task(self):
        # a 0x0 matrix used to pass, and GibbsTask then failed in numpy's min()
        with pytest.raises(ValidationError, match="non-empty square matrix"):
            HermitianOperator(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "values",
        [
            [[True, False], [False, True]],
            np.eye(3, dtype=bool),
            [[2, 1], [1, 2]],
            np.array([[2, -1], [-1, 2]], dtype=np.int32),
            np.array([[1.5, 0.5], [0.5, 1.5]], dtype=np.float32),
        ],
        ids=["bool-list", "bool-array", "int-list", "int32-array", "float32-array"],
    )
    def test_bool_and_integer_input_is_float64(self, values):
        a = as_square_matrix(values)
        assert a.dtype == np.float64 and np.array_equal(a, np.asarray(values, dtype=float))
        assert HermitianOperator(values).eigensystem[0].dtype == np.float64

    @pytest.mark.parametrize("shape", [(DIMENSION_CAP + 1,) * 2, (3000, 3001)])
    def test_array_shape_checked_before_any_copy(self, shape):
        # a broadcast view holds one element; a float64 copy would take 72 MB or more
        values = np.broadcast_to(np.array(True), shape)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                as_square_matrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


@st.composite
def hermitian_inputs(draw):
    """(matrix, is_real): a real symmetric or complex Hermitian matrix of dim
    1-64 with a nonnegative spectrum drawn from a few levels, so that spectra
    are often degenerate, and exactly Hermitian entries. is_real says that
    every imaginary part is 0."""
    dim = draw(st.integers(1, 64))
    is_real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.uniform(0.0, 2.0, size=draw(st.integers(1, dim)))
    w = levels[rng.integers(0, levels.size, size=dim)]
    g = rng.standard_normal((dim, dim))
    if not is_real:
        g = g + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    h = (q * w) @ q.conj().T
    h = (h + h.conj().T) / 2
    return h, is_real or not h.imag.any()


class TestDtypeRule:
    @settings(max_examples=40, deadline=None)
    @given(drawn=hermitian_inputs(), tiny=st.sampled_from([1e-300, 5e-324, 1e-13]))
    def test_real_where_real(self, drawn, tiny):
        h, is_real = drawn
        dim = h.shape[0]
        rho = h / np.trace(h).real
        for a in (h, rho):
            ref = np.linalg.eigvalsh(a.astype(complex))
            tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
            one_imag = a.astype(complex)
            one_imag[0, dim - 1] += 1j * tiny
            cases = [(a, is_real), (a.astype(complex), is_real), (one_imag, False)]
            for x, real in cases:
                dtype = np.float64 if real else np.complex128
                assert matrix_from_json(matrix_to_json(x)).dtype == dtype
                op = HermitianOperator(x)
                assert op.matrix.dtype == dtype
                np.testing.assert_allclose(op.eigensystem[0], ref, rtol=0, atol=tol)
                if a is rho:
                    density = DensityMatrix(x)
                    assert density.matrix.dtype == dtype
                    np.testing.assert_allclose(
                        np.linalg.eigvalsh(density.matrix), ref, rtol=0, atol=tol
                    )
        if dim > 1 and is_real:
            skewed = rho.copy()
            skewed[0, 1] += 1e-9
            with pytest.raises(ValidationError, match="matrix is not Hermitian: max-entry defect"):
                HermitianOperator(skewed)
            with pytest.raises(ValidationError, match="density matrix is not Hermitian within tolerance"):
                DensityMatrix(skewed)

    def test_real_json_builds_no_complex_array(self):
        # a 512 x 512 complex array would take 4 MiB, twice the real matrix
        n = 512
        re = np.random.default_rng(4).uniform(-1.0, 1.0, size=n * n)
        obj = {"dim": n, "re": re, "im": np.zeros(n * n)}
        tracemalloc.start()
        try:
            a = matrix_from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.dtype == np.float64 and a.tobytes() == re.tobytes()
        assert peak <= 1.5 * re.nbytes


class TestSymmetrize:
    def test_real_construction_peaks_near_one_copy(self):
        # a real 1024 x 1024 density matrix with a 1e-14 Hermiticity defect
        n = 1024
        off = np.triu(np.random.default_rng(12).uniform(-1e-6, 1e-6, size=(n, n)), 1)
        rho = np.eye(n) / n + off + off.T
        rho[0, 1] += 1e-14
        for build in (HermitianOperator, DensityMatrix):
            tracemalloc.start()
            try:
                built = build(rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert built.matrix.dtype == np.float64
            assert peak <= 1.5 * rho.nbytes

    @pytest.mark.parametrize("panel", [1, 64, operators._PANEL_ELEMENTS])
    @pytest.mark.parametrize("dim", [1, 7, 300])
    def test_equals_the_hermitian_mean_bit_for_bit(self, monkeypatch, rng, dim, panel):
        # a dense matrix, and a sparse one whose zero entries have imaginary
        # parts that cancel exactly: (a + a.conj().T) / 2 gives them +0.0
        monkeypatch.setattr(operators, "_PANEL_ELEMENTS", panel)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        dense = random_hermitian(rng, dim) + 1e-13 * noise
        mask = rng.random((dim, dim)) < 0.3
        sparse = np.where(mask | mask.T | np.eye(dim, dtype=bool), dense, 0)
        for a in (dense, sparse):
            expected = (a + a.conj().T) / 2
            defect = float(np.max(np.abs(a - a.conj().T)))
            assert 0 < defect <= 1e-12
            assert HermitianOperator(a).matrix.tobytes() == expected.tobytes()
            assert symmetrize(a) == defect
            assert a.tobytes() == expected.tobytes()
