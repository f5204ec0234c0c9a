import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from lculab.constants import DEFAULT_CONSTANTS
from lculab.cost import evolution_gate_cost, select_unit_cost
from lculab.errors import ValidationError
from lculab.gap_amplification import parse_pauli_lines, split_indices
from lculab.operators import DIMENSION_CAP, HermitianOperator
from lculab.rand import random_state
from oracles import (
    BENCH_TFIM_6,
    ProjectorDecomposition,
    assemble_gap_amplified,
    build_tilde_h,
    exact_evolution,
    pauli_projectors,
    psd_split,
    random_projector,
    random_psd,
    tilde_h_unitary_terms,
    unitarity_defect,
)

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_projector_decomposition(rng, dim, k):
    terms = tuple(
        (float(rng.uniform(0.1, 2.0)), random_projector(rng, dim, int(rng.integers(1, dim + 1))))
        for _ in range(k)
    )
    return ProjectorDecomposition(dim=dim, terms=terms)


class TestBuildTildeH:
    def test_scalar_projector(self):
        p = ProjectorDecomposition(dim=1, terms=((1.0, np.eye(1)),))
        g = build_tilde_h(p)
        np.testing.assert_allclose(g.operator.matrix, [[0, 1], [1, 0]], atol=1e-14)
        sq = g.operator.matrix @ g.operator.matrix
        np.testing.assert_allclose(g.sector_block(sq), [[1.0]], atol=1e-14)

    def test_diagonal_hamiltonian(self):
        g = build_tilde_h(psd_split(np.diag([0.0, 1.0])))
        sq = g.sector_block(g.operator.matrix @ g.operator.matrix)
        np.testing.assert_allclose(sq, np.diag([0.0, 1.0]), atol=1e-12)

    def test_random_psd_rank1_split(self, rng):
        h = random_psd(rng, 4, norm=1.5)
        g = build_tilde_h(psd_split(h))
        sq = g.sector_block(g.operator.matrix @ g.operator.matrix)
        np.testing.assert_allclose(sq, h, atol=1e-10)

    def test_split_of_an_operator_reuses_its_eigensystem(self, rng, monkeypatch):
        h = random_psd(rng, 5, norm=1.5)
        from_matrix = psd_split(h)
        op = HermitianOperator(h)
        _ = op.eigensystem  # fill the cache before counting
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        from_operator = psd_split(op)
        eigs = op.eigensystem[0]
        weights = tuple(map(float, eigs[split_indices(eigs)]))
        assert calls == []
        assert weights == from_operator.weights
        assert len(from_operator.terms) == len(from_matrix.terms)
        for (a1, p1), (a2, p2) in zip(from_operator.terms, from_matrix.terms):
            assert a1 == a2 and np.array_equal(p1, p2)

    def test_square_property_on_states(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            p = random_projector_decomposition(rng, dim, int(rng.integers(1, 5)))
            g = build_tilde_h(p)
            phi = random_state(rng, dim)
            lifted = g.embed_sector_state(phi)
            squared = g.operator.matrix @ (g.operator.matrix @ lifted)
            expected = g.embed_sector_state(p.sum_matrix() @ phi)
            assert np.linalg.norm(squared - expected) <= 1e-10

    def test_norm_bounds(self, rng):
        p = random_projector_decomposition(rng, 5, 4)
        g = build_tilde_h(p)
        tilde_norm = g.operator.spectral_norm
        h_norm = float(np.linalg.norm(p.sum_matrix(), ord=2))
        assert tilde_norm <= sum(map(math.sqrt, p.weights)) + 1e-9
        assert tilde_norm**2 >= h_norm - 1e-9

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            ProjectorDecomposition(dim=2, terms=((0.0, np.eye(2)),))

    def test_cap_checked_before_allocation(self):
        # 1025 * 4 = 4100 > 4096: the enlarged operator would take 269 MB
        system_dim = DIMENSION_CAP // 4 + 1
        block = np.zeros((system_dim, system_dim))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceeds cap"):
                assemble_gap_amplified([block] * 3, system_dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6 < (4 * system_dim) ** 2 * 16


class TestUnitaryTerms:
    def test_scalar_case_sums_to_coupler(self):
        ud = tilde_h_unitary_terms(ProjectorDecomposition(dim=1, terms=((1.0, np.eye(1)),)))
        assert ud.n_terms == 2
        np.testing.assert_allclose(ud.weighted_sum(), [[0, 1], [1, 0]], atol=1e-12)

    def test_empty_decomposition(self):
        p = ProjectorDecomposition(dim=3, terms=())
        g = build_tilde_h(p)
        assert g.operator.matrix.shape == (3, 3)
        np.testing.assert_allclose(g.operator.matrix, 0.0, atol=1e-15)

    def test_random_reconstruction_and_unitarity(self, rng):
        p = random_projector_decomposition(rng, 4, 3)
        g = build_tilde_h(p)
        ud = tilde_h_unitary_terms(p)
        assert ud.n_terms == 2 * len(p.terms)
        assert np.max(np.abs(ud.weighted_sum() - g.operator.matrix)) <= 1e-10
        for _, u in ud.terms:
            assert unitarity_defect(u) <= 1e-10
        # weight-sum convention matches sum of sqrt(alpha) exactly
        assert sum(w for w, _ in ud.terms) == pytest.approx(sum(map(math.sqrt, p.weights)))


class TestExactEvolution:
    def test_time_zero(self, rng):
        g = build_tilde_h(random_projector_decomposition(rng, 3, 2))
        np.testing.assert_allclose(exact_evolution(g, 0.0), np.eye(g.dim), atol=1e-14)

    def test_pi_rotation_of_coupler(self):
        g = build_tilde_h(ProjectorDecomposition(dim=1, terms=((1.0, np.eye(1)),)))
        np.testing.assert_allclose(exact_evolution(g, math.pi), -np.eye(2), atol=1e-12)

    def test_group_law_and_unitarity(self, rng):
        g = build_tilde_h(random_projector_decomposition(rng, 3, 3))
        t1, t2 = 0.7, -1.3
        composed = exact_evolution(g, t1) @ exact_evolution(g, t2)
        np.testing.assert_allclose(composed, exact_evolution(g, t1 + t2), atol=1e-10)
        assert unitarity_defect(exact_evolution(g, t1)) <= 1e-10

    def test_commutes_with_generator(self, rng):
        g = build_tilde_h(random_projector_decomposition(rng, 3, 2))
        u = exact_evolution(g, 0.9)
        h = g.operator.matrix
        assert np.max(np.abs(u @ h - h @ u)) <= 1e-9

    def test_matches_scipy_expm(self, rng):
        g = build_tilde_h(random_projector_decomposition(rng, 3, 2))
        t = 0.6
        reference = scipy.linalg.expm(-1j * t * g.operator.matrix)
        np.testing.assert_allclose(exact_evolution(g, t), reference, atol=1e-10)


def _gates(tau, epsilon, k_terms=1):
    unit = select_unit_cost(k_terms, DEFAULT_CONSTANTS)
    return evolution_gate_cost(tau, epsilon, unit, DEFAULT_CONSTANTS)


class TestSimulationCost:
    """The gate cost of simulating the enlarged evolution, `cost.evolution_gate_cost`."""

    def test_direct_formula_value(self):
        expected = 10.0 * math.log(1e4) / math.log(math.log(1e4))
        # K = 1: the select factor ln(1) C_U + 1 is 1
        assert select_unit_cost(1, DEFAULT_CONSTANTS) == 1.0
        assert _gates(10.0, 1e-3) == pytest.approx(expected)
        assert _gates(10.0, 1e-3) == pytest.approx(41.48, abs=0.01)
        assert _gates(10.0, 1e-3, k_terms=4) == pytest.approx((math.log(4) + 4) * expected)

    def test_loglog_clamp(self):
        assert _gates(2.0, 1.0) == pytest.approx(2.0 * math.log(2.0))  # tau/eps = 2 < e^e

    def test_doubling_tau_ratio(self):
        for tau in [10.0, 100.0, 1000.0]:
            ratio = _gates(2 * tau, 1e-3) / _gates(tau, 1e-3)
            assert 2.0 < ratio < 2.0 * math.log(2 * tau / 1e-3) / math.log(tau / 1e-3)

    def test_invalid_inputs(self):
        assert _gates(0.0, 0.1) == 0.0
        for tau, epsilon in [(-1.0, 0.1), (math.inf, 0.1), (math.nan, 0.1), (1.0, 0.0), (1.0, -1.0)]:
            with pytest.raises(ValidationError):
                _gates(tau, epsilon)

    def test_tau_conventions_agree(self, rng):
        # the unitary expansion's weight sum is sum_k sqrt(alpha_k), the tau per unit time
        p = random_projector_decomposition(rng, 4, 3)
        weights = sum(w for w, _ in tilde_h_unitary_terms(p).terms)
        assert weights == pytest.approx(sum(map(math.sqrt, p.weights)), rel=1e-14)


@st.composite
def pauli_texts(draw):
    """Word sets of 1-8 qubits: I/X/Y/Z letters, signed and zero coefficients
    (zero lines are skipped), repeated words, comments and blank lines."""
    n = draw(st.integers(1, 8))
    letters = st.text(st.sampled_from("IXYZ"), min_size=n, max_size=n)
    words = draw(st.lists(letters, min_size=1, max_size=4))
    nonzero = draw(st.floats(0.01, 3.0)) * draw(st.sampled_from([-1, 1]))
    lines = [f"{nonzero!r} {words[0]}"]
    for _ in range(draw(st.integers(0, 5))):
        coeff = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
        comment = "  # comment" if draw(st.booleans()) else ""
        lines.append(f"{coeff!r} {draw(st.sampled_from(words))}{comment}")
    return "# a word set\n\n" + "\n".join(draw(st.permutations(lines))) + "\n"


def _words(text: str) -> list[str]:
    """The Pauli words of a text's nonzero lines, the ones the parser keeps."""
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    return [word for coeff, word in filter(None, lines) if float(coeff) != 0.0]


class TestPauliParsing:
    def test_single_line(self):
        h, weights, offset = parse_pauli_lines("0.5 XZ")
        assert h.shape == (4, 4) and weights == (1.0,)
        expected = 0.5 * np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]])
        np.testing.assert_allclose(h - offset * np.eye(4), expected, atol=1e-14)

    def test_negative_coefficient_absorbed(self):
        h, weights, offset = parse_pauli_lines("-0.25 Z\n1.0 X")
        expected = -0.25 * PAULI_Z + 1.0 * np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(h - offset * np.eye(2), expected, atol=1e-14)
        assert weights == (0.5, 2.0)

    def test_pauli_z_gives_up_projector(self):
        h, weights, offset = parse_pauli_lines("0.5 Z")
        assert weights == (1.0,)
        np.testing.assert_allclose(h, np.diag([1.0, 0.0]), atol=1e-14)
        assert offset == pytest.approx(0.5)

    def test_identity_term(self):
        h, weights, offset = parse_pauli_lines("1.0 III")
        assert weights == (2.0,)
        np.testing.assert_allclose(h, 2.0 * np.eye(8), atol=1e-14)
        assert offset == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "text",
        [
            "1.0 ZZI\n0.7 IZZ\n0.4 XIX\n0.3 IXI",
            "0.8 XYI\n-0.6 IZY\n0.5 YYZ\n-0.3 XIX\n-0.2 IYI",
            BENCH_TFIM_6,
        ],
    )
    @settings(max_examples=20, deadline=None)
    @given(drawn=pauli_texts())
    def test_matches_reflection_route_bit_for_bit(self, text, drawn):
        # the reference builds each projector (sign(c) P + 1)/2 from Kronecker
        # products of the letters and sums them in line order, in complex; a
        # word set with even Y counts only parses to its real part
        for t in (text, drawn):
            h, weights, offset = parse_pauli_lines(t)
            ref, ref_offset = pauli_projectors(t)
            ref_sum = ref.sum_matrix()
            real = all(word.count("Y") % 2 == 0 for word in _words(t))
            assert h.dtype == (np.float64 if real else np.complex128)
            if real:
                assert not ref_sum.imag.any()
                ref_sum = ref_sum.real
            assert h.tobytes() == ref_sum.tobytes()
            assert weights == ref.weights and offset == ref_offset

    def test_comments_and_blank_lines(self):
        _, weights, _ = parse_pauli_lines("# two qubits\n\n0.5 XX  # coupling\n0.5 ZI\n")
        assert len(weights) == 2

    def test_bad_string_rejected(self):
        for text in ("0.5 XQ", "not_a_number XX", "0.5 XX extra", "0.5 XX\n0.5 Z", "0.0 XX"):
            with pytest.raises(ValidationError):
                parse_pauli_lines(text)

    @pytest.mark.parametrize("n_qubits", [13, 20])
    def test_cap_checked_before_allocation(self, n_qubits):
        # a 13-qubit matrix would take 1 GiB, a 20-qubit one 16 TiB
        text = "1.0 " + "Z" * n_qubits + "\n0.5 " + "X" * n_qubits
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"dimension {2**n_qubits} exceeds cap 4096"):
                parse_pauli_lines(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
