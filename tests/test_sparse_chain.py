import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from lculab.constants import DEFAULT_CONSTANTS
from lculab.cost import evolution_gate_cost, theorem2_cost
from lculab.gap_amplification import unitarity_defect
from lculab.inverse import (
    HittingTimeTask,
    calibrate_inverse_grid,
    estimate_hitting_time,
    t_circuit_expectation,
)
from lculab.errors import ValidationError
from lculab import sparse_chain
from lculab.markov import (
    chain_from_json,
    discriminant_matrix,
    lazy_cycle,
    mark_states,
    validate_chain,
)
from lculab.sparse_chain import decomposition_manifest, reconstruction_residual
from oracles import (
    SparseConstruction,
    assemble_tilde_h_sparse,
    build_h_bar,
    exact_hitting_time_inverse,
    inverse_lcu,
    random_reversible_chain,
    random_sparse_dyadic_chain,
    random_sparse_dyadic_matrix,
    sparse_construction,
    symmetric_two_state,
    validate_chain_any_spectrum,
)


def _pipeline(chain, marked):
    construction = sparse_construction(mark_states(chain, marked))
    decomposition, g = assemble_tilde_h_sparse(construction)
    return construction, decomposition, g


def _scan_neighbors(p):
    """The O(N^2) neighbor scan of a transition matrix: per state s, the
    (s', Pr(s|s'), Pr(s'|s)) with a nonzero transition either way."""
    n = p.shape[0]
    listing = []
    for s in range(n):
        row = []
        for sp in range(n):
            to_s = float(p[s, sp])   # Pr(s | s')
            from_s = float(p[sp, s])  # Pr(s' | s)
            if to_s != 0.0 or from_s != 0.0:
                if to_s == 0.0 or from_s == 0.0:
                    raise ValidationError("support is not symmetric; chain is not reversible")
                row.append((sp, to_s, from_s))
        listing.append(tuple(row))
    return tuple(listing)


def _dense_manifest(mp):
    """The manifest computed on the dense oracle views: the enlarged operator and its
    Kronecker terms, with the residual read from the sector of its square."""
    construction = sparse_construction(mp)
    decomposition, g = assemble_tilde_h_sparse(construction)
    sector = g.sector_block(g.operator.matrix @ g.operator.matrix)
    residual = np.max(np.abs(sector - construction.projected.matrix.matrix))
    return {
        "colors": construction.n_colors,
        "terms": decomposition.n_terms,
        "alpha_list": [float(alpha) for alpha, _ in decomposition.terms],
        "reconstruction_residual": float(residual),
    }


def _sparse_expectation(grid, g, mp):
    """(pi_U / gamma) <sqrt(pi_U)| X |sqrt(pi_U)> with X built over the sparse enlarged operator."""
    vec = np.zeros(mp.chain.n_states, dtype=complex)
    vec[list(mp.unmarked)] = mp.sqrt_pi_u
    state = g.embed_sector_state(vec)
    combo = inverse_lcu(grid, g)
    return mp.pi_u * float(np.real(np.vdot(state, combo.apply_sum(state)))) / combo.gamma_total


class TestOracle:
    def test_lookup_matches_dense(self, rng):
        chain = random_sparse_dyadic_chain(rng, 10, degree=3)
        pairs, to_s, from_s = sparse_chain._pair_table(chain)
        p = chain.transition
        for (s, sp), to, frm in zip(pairs.tolist(), to_s, from_s):
            assert to == p[s, sp]
            assert frm == p[sp, s]
        # symmetric closure
        listed = set(map(tuple, pairs.tolist()))
        assert listed == {(sp, s) for s, sp in listed}

    def test_marked_membership(self):
        mp = mark_states(symmetric_two_state(), [1])
        assert mp.marked_mask.tolist() == [False, True]

    @pytest.mark.parametrize("marked", [[99], [-1], [0, 3]])
    def test_out_of_range_marked_rejected(self, marked):
        with pytest.raises(ValidationError, match="out of range"):
            mark_states(lazy_cycle(3, 0.5), marked)

    def test_neighbors_equal_the_quadratic_scan(self, rng):
        for i in range(12):
            n = int(rng.integers(2, 40))
            if i % 2:
                chain = random_reversible_chain(rng, n, max_degree=4)
            else:
                chain = random_sparse_dyadic_chain(rng, n, degree=int(rng.integers(1, 5)))
            pairs, to_s, from_s = sparse_chain._pair_table(chain)
            scanned = [
                ((s, sp), to, frm)
                for s, row in enumerate(_scan_neighbors(chain.transition))
                for sp, to, frm in row
                if sp != s
            ]
            assert list(zip(map(tuple, pairs.tolist()), to_s.tolist(), from_s.tolist())) == scanned

    def test_asymmetric_support_rejected_like_the_scan(self):
        # Pr(2|0) != 0 but Pr(0|2) == 0; every state still reaches every other
        p = np.array([[0.5, 0.5, 0.0], [0.25, 0.0, 0.5], [0.25, 0.5, 0.5]])
        with pytest.raises(ValidationError, match="support is not symmetric"):
            _scan_neighbors(p)
        with pytest.raises(ValidationError, match="support is not symmetric"):
            validate_chain(p)


class TestBuildHBar:
    def test_two_state_hand_value(self):
        mp = mark_states(symmetric_two_state(), [1])
        terms, h_bar = build_h_bar(mp)
        np.testing.assert_allclose(h_bar.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        # both orientations of the single pair appear, each a two-coordinate state
        assert terms.pairs.tolist() == [[0, 1], [1, 0]]
        assert terms.weights[0] == pytest.approx(0.5)
        assert np.count_nonzero(terms.mu_bar[0]) == 2

    def test_isolated_self_loop_state(self):
        # state 2 talks only to itself apart from a weak bridge to keep the
        # chain irreducible; its diagonal entry is 1 - Pr(stay)
        p = np.array(
            [
                [0.600, 0.350, 0.050],
                [0.350, 0.600, 0.050],
                [0.050, 0.050, 0.900],
            ]
        )
        chain = validate_chain(p)
        mp = mark_states(chain, [1])
        _, h_bar = build_h_bar(mp)
        assert h_bar.matrix[2, 2].real == pytest.approx(1 - 0.9)

    def test_matches_one_minus_discriminant(self, rng):
        chain = lazy_cycle(8, 0.5)
        mp = mark_states(chain, [0])
        _, h_bar = build_h_bar(mp)
        expected = np.eye(8) - discriminant_matrix(chain.transition)
        assert np.max(np.abs(h_bar.matrix - expected)) <= 1e-10


class TestProjectH:
    def test_two_state_boundary_only(self):
        construction = sparse_construction(mark_states(symmetric_two_state(), [1]))
        np.testing.assert_allclose(construction.restricted([0]), [[0.5]], atol=1e-14)
        assert len(construction.projected.pairs) == 0

    def test_matches_dense_restriction(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 20))
            chain = random_sparse_dyadic_chain(rng, n, degree=4)
            marked = sorted(rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False))
            try:
                mp = mark_states(chain, marked)
            except ValidationError:
                continue
            construction = sparse_construction(mark_states(chain, marked))
            restricted = construction.restricted(mp.unmarked)
            assert np.max(np.abs(restricted - mp.h_matrix.matrix)) <= 1e-10

    def test_matches_dense_on_asymmetric_chains(self, rng):
        # reversible does not mean symmetric: unequal degrees make
        # Pr(a|b) != Pr(b|a), which exercises the boundary-direction choice
        for _ in range(6):
            n = int(rng.integers(6, 14))
            chain = random_reversible_chain(rng, n, max_degree=4)
            assert np.max(np.abs(chain.transition - chain.transition.T)) > 1e-3
            marked = sorted(rng.choice(n, size=max(1, n // 4), replace=False))
            try:
                mp = mark_states(chain, marked)
            except ValidationError:
                continue
            mp = mark_states(chain, marked)
            _, h_bar = build_h_bar(mp)
            expected_h_bar = np.eye(n) - discriminant_matrix(chain.transition)
            assert np.max(np.abs(h_bar.matrix - expected_h_bar)) <= 1e-10
            construction = sparse_construction(mp)
            restricted = construction.restricted(mp.unmarked)
            assert np.max(np.abs(restricted - mp.h_matrix.matrix)) <= 1e-10
            _, g = assemble_tilde_h_sparse(construction)
            sq = g.sector_block(g.operator.matrix @ g.operator.matrix)
            assert np.max(np.abs(sq - construction.projected.matrix.matrix)) <= 1e-10

    def test_boundary_direction_on_two_state_asymmetric_chain(self):
        # boundary weight is the probability of leaving U, not of entering it
        p = np.array(
            [
                [0.7, 0.6],
                [0.3, 0.4],
            ]
        )
        chain = validate_chain(p)
        construction = sparse_construction(mark_states(chain, [1]))
        assert construction.projected.diagonal[0] == pytest.approx(0.3)  # Pr(1|0), not Pr(0|1)
        mp = mark_states(chain, [1])
        np.testing.assert_allclose(construction.restricted([0]), mp.h_matrix.matrix, atol=1e-12)
        assert construction.sqrt_block(-1)[0, 0].real == pytest.approx(np.sqrt(0.3))

    def test_boundary_support(self):
        # boundary weights vanish on unmarked states with no marked neighbor
        chain = lazy_cycle(8, 0.5)
        diagonal = sparse_construction(mark_states(chain, [0])).projected.diagonal
        assert np.all(diagonal[2:7] == 0.0)
        assert diagonal[1] > 0 and diagonal[7] > 0


class TestColoring:
    def test_path_needs_two_colors(self):
        chain = lazy_cycle(4, 0.5)
        mp = mark_states(chain, [0])  # unmarked block is a path 1-2-3
        assert sparse_construction(mp).n_colors == 2

    def test_single_edge(self):
        chain = lazy_cycle(3, 0.5)
        construction = sparse_construction(mark_states(chain, [0]))
        assert construction.n_colors == 1
        assert construction.classes == (((1, 2),),)

    def test_proper_by_exhaustive_scan(self, rng):
        for _ in range(10):
            chain = random_sparse_dyadic_chain(rng, 16, degree=4)
            construction = sparse_construction(mark_states(chain, [0, 5]))
            for edge_class in construction.classes:
                vertices = [v for e in edge_class for v in e]
                assert len(vertices) == len(set(vertices))
            assert construction.n_colors <= 2 * chain.sparsity - 1

    def test_deterministic(self, rng):
        chain = random_sparse_dyadic_chain(rng, 12, degree=3)
        mp = mark_states(chain, [2])
        assert sparse_construction(mp).classes == sparse_construction(mp).classes


class TestSqrtFactors:
    def test_single_edge_quarter_angle(self):
        # alpha_bar = 1/2 gives delta = pi/4; check against the matrix exponential
        chain = lazy_cycle(3, 0.5)  # edge (1,2) has Pr = 0.25 each way -> alpha_bar = 1/4
        construction = sparse_construction(mark_states(chain, [0]))
        # independent oracle: scipy expm of the generator
        (a, b), = construction.classes[0]
        p = chain.transition
        vec = np.zeros(3, dtype=complex)
        vec[b] += math.sqrt(p[a, b] / 2)
        vec[a] -= math.sqrt(p[b, a] / 2)
        alpha_bar = (p[a, b] + p[b, a]) / 2
        mu_bar = vec / math.sqrt(alpha_bar)
        proj = np.outer(mu_bar, mu_bar.conj())
        delta = math.asin(math.sqrt(alpha_bar))
        z_ref = scipy.linalg.expm(1j * delta * proj)
        np.testing.assert_allclose(construction.factor(0), z_ref, atol=1e-12)
        np.testing.assert_allclose(
            construction.sqrt_block(0), math.sqrt(alpha_bar) * proj, atol=1e-12
        )

    def test_sqrt_identity_per_color(self, rng):
        chain = random_sparse_dyadic_chain(rng, 14, degree=4)
        construction = sparse_construction(mark_states(chain, [3]))
        for k in range(construction.n_colors):
            assert unitarity_defect(construction.factor(k)) <= 1e-10
            sqrt_h = construction.sqrt_block(k)
            assert np.max(np.abs(sqrt_h @ sqrt_h - construction.class_h(k))) <= 1e-10

    def test_diagonal_factor_angles(self):
        # full boundary weight -> theta = 0 and diagonal entry 1;
        # zero boundary weight -> theta = pi/2 and entry 0
        chain = lazy_cycle(8, 0.5)
        construction = sparse_construction(mark_states(chain, [0]))
        sqrt_h = construction.sqrt_block(-1)
        assert sqrt_h[4, 4].real == pytest.approx(0.0, abs=1e-15)  # no marked neighbor
        assert np.angle(construction.factor(-1)[4, 4]) == pytest.approx(math.pi / 2)
        # marked state itself carries phase i, so the symmetrized entry is 0
        assert sqrt_h[0, 0].real == pytest.approx(0.0, abs=1e-15)
        sq = sqrt_h @ sqrt_h
        np.testing.assert_allclose(np.diag(sq).real[1], chain.transition[0, 1], atol=1e-12)

    def test_full_boundary_weight_fixes_the_state(self):
        # an unmarked state that always jumps into the marked set has
        # theta = 0: the diagonal unitary fixes it and the symmetrized
        # entry is exactly 1
        p = np.array(
            [
                [0.0, 0.25, 0.25],
                [0.5, 0.50, 0.25],
                [0.5, 0.25, 0.50],
            ]
        )
        chain = validate_chain_any_spectrum(p)
        construction = sparse_construction(mark_states(chain, [1, 2]))
        assert np.angle(construction.factor(-1)[0, 0]) == pytest.approx(0.0)
        assert construction.factor(-1)[0, 0] == pytest.approx(1.0)
        assert construction.sqrt_block(-1)[0, 0].real == pytest.approx(1.0)

    def test_orthogonality_within_color(self, rng):
        chain = random_sparse_dyadic_chain(rng, 16, degree=4)
        construction = sparse_construction(mark_states(chain, [1]))
        p = chain.transition
        for edge_class in construction.classes:
            vectors = []
            for a, b in edge_class:
                vec = np.zeros(16, dtype=complex)
                vec[b] += math.sqrt(p[a, b] / 2)
                vec[a] -= math.sqrt(p[b, a] / 2)
                vectors.append(vec)
            for i in range(len(vectors)):
                for j in range(i + 1, len(vectors)):
                    assert np.vdot(vectors[i], vectors[j]) == 0.0

    def test_z_invariant_under_edge_permutation(self, rng):
        # the levels built from a shuffled edge table (colors kept per edge)
        # have the same dense factors: each Z_k is assembled edge by edge
        chain = random_sparse_dyadic_chain(rng, 12, degree=4)
        mp = mark_states(chain, [4])
        construction = sparse_construction(mp)
        table = sparse_chain._pair_table(mp.chain)
        pairs, alpha_bar, mu_bar, colors = sparse_chain._edge_table(mp, table)
        boundary = sparse_chain._boundary_weights(mp, table)
        order = rng.permutation(len(pairs))
        levels = sparse_chain._levels(
            mp, pairs[order], alpha_bar[order], mu_bar[order], colors[order], boundary
        )
        shuffled = SparseConstruction(construction.projected, construction.colors, levels)
        assert construction.n_colors == shuffled.n_colors >= 3
        for k in range(construction.n_colors + 1):
            np.testing.assert_array_equal(construction.factor(k), shuffled.factor(k))


class TestAssembly:
    def test_two_state_sector(self):
        _, decomposition, g = _pipeline(symmetric_two_state(), [1])
        sq = g.sector_block(g.operator.matrix @ g.operator.matrix)
        np.testing.assert_allclose(sq[0, 0], 0.5, atol=1e-12)
        assert decomposition.n_terms == 4  # no colors, diagonal block only

    def test_lazy_cycle_square_property(self):
        chain = lazy_cycle(8, 0.5)
        construction, decomposition, g = _pipeline(chain, [0])
        sq = g.sector_block(g.operator.matrix @ g.operator.matrix)
        assert np.max(np.abs(sq - construction.projected.matrix.matrix)) <= 1e-10
        assert decomposition.n_terms == 4 * (construction.n_colors + 1)
        for _, u in decomposition.terms:
            assert unitarity_defect(u) <= 1e-10

    def test_weighted_sum_is_exact(self, rng):
        chain = random_sparse_dyadic_chain(rng, 10, degree=3)
        _, decomposition, g = _pipeline(chain, [0, 4])
        assert np.max(np.abs(decomposition.weighted_sum() - g.operator.matrix)) <= 1e-10

    def test_sparse_matches_dense_pipeline(self, rng):
        for _ in range(8):
            n = int(rng.integers(8, 24))
            chain = random_sparse_dyadic_chain(rng, n, degree=4)
            marked = sorted(rng.choice(n, size=max(1, n // 6), replace=False))
            try:
                mp = mark_states(chain, marked)
            except ValidationError:
                continue
            _, _, g = _pipeline(chain, marked)
            u_idx = list(mp.unmarked)
            sq = g.sector_block(g.operator.matrix @ g.operator.matrix)
            assert np.max(np.abs(sq[np.ix_(u_idx, u_idx)] - mp.h_matrix.matrix)) <= 1e-10

    def test_hitting_time_through_sparse_path(self):
        chain = lazy_cycle(8, 0.5)
        mp = mark_states(chain, [0])
        _, _, g = _pipeline(chain, [0])
        task = HittingTimeTask(partition=mp, epsilon=0.1)
        res = estimate_hitting_time(task, seed=21)
        assert abs(res.estimate - res.exact_hitting_time) <= 4 * 0.1
        # evolving the sparse enlarged operator gives the pipeline's expectation
        assert _sparse_expectation(task.grid, g, mp) == pytest.approx(res.exact_amplitude, rel=1e-9)

    def test_deterministic_hitting_consistency_random_chains(self, rng):
        # gamma times the circuit expectation through the sparse enlarged
        # operator reproduces the exact hitting time before sampling noise and
        # the pipeline's sector value; one grid at a shared spectral lower
        # bound serves every chain
        epsilon = 0.25
        delta_floor = 0.02
        grid = calibrate_inverse_grid(delta_floor, epsilon)
        checked = 0
        attempts = 0
        while checked < 8 and attempts < 120:
            attempts += 1
            n = int(rng.integers(6, 13))
            try:
                chain = random_sparse_dyadic_chain(rng, n, degree=3, edge_cap_divisor=2)
                marked = sorted(rng.choice(n, size=max(1, n // 3), replace=False))
                mp = mark_states(chain, marked)
            except ValidationError:
                continue
            if mp.delta < delta_floor:
                continue
            _, _, g = _pipeline(chain, marked)
            amp = _sparse_expectation(grid, g, mp)
            t_exact = exact_hitting_time_inverse(mp)
            assert abs(amp * grid.gamma - t_exact) <= epsilon
            assert amp == pytest.approx(t_circuit_expectation(grid, mp), rel=1e-9)
            checked += 1
        assert checked == 8

    def test_manifest(self):
        chain = lazy_cycle(8, 0.5)
        mp = mark_states(chain, [0])
        manifest = decomposition_manifest(mp)
        assert manifest["reconstruction_residual"] <= 1e-10
        assert manifest["terms"] == len(manifest["alpha_list"])


class TestEdgeLevelManifest:
    """`decomposition_manifest` checks per-edge data only; the dense views are its oracle."""

    def test_matches_dense_oracle_on_random_chains(self, rng):
        checked = 0
        while checked < 20:
            n = int(rng.integers(4, 41))
            if checked % 2:
                chain = random_reversible_chain(rng, n, max_degree=4)
            else:
                chain = random_sparse_dyadic_chain(rng, n, degree=int(rng.integers(2, 5)))
            n_marked = int(rng.integers(1, max(2, n // 4)))
            marked = sorted(rng.choice(n, size=n_marked, replace=False))
            try:
                mp = mark_states(chain, marked)
            except ValidationError:
                continue
            edge = decomposition_manifest(mp)
            dense = _dense_manifest(mp)
            for key in ("colors", "terms", "alpha_list"):
                assert edge[key] == dense[key]
            assert edge["reconstruction_residual"] <= 1e-10
            assert dense["reconstruction_residual"] <= 1e-10
            assert abs(edge["reconstruction_residual"] - dense["reconstruction_residual"]) <= 1e-13
            checked += 1

    def test_dyadic_2000_through_the_json_reader(self):
        n = 2000
        p = random_sparse_dyadic_matrix(np.random.default_rng(7), n, degree=4)
        rows, cols = np.nonzero(p)
        blob = {
            "n_states": n,
            "entries": [[r, c, float(p[r, c])] for r, c in zip(rows.tolist(), cols.tolist())],
            "marked": list(range(0, n, 100)),
        }
        chain, marked = chain_from_json(blob)
        manifest = decomposition_manifest(mark_states(chain, marked))
        assert manifest["reconstruction_residual"] <= 1e-10
        # every column of a dyadic chain's symmetric weights sums to one, so pi is uniform
        pi = chain.stationary
        np.testing.assert_allclose(pi, 1 / n, rtol=1e-13)
        assert np.max(np.abs(chain.transition @ pi - pi)) <= 1e-15

    def test_one_pass_over_the_edge_table(self, monkeypatch):
        # the pair table, alpha_bar, mu_bar and the boundary weights are
        # computed once per manifest, and nothing of size N x N is allocated
        # (N^2 bytes is 4 MB)
        n = 2000
        p = random_sparse_dyadic_matrix(np.random.default_rng(7), n, degree=4)
        mp = mark_states(validate_chain(p), range(0, n, 100))
        calls = []
        for name in ("_pair_table", "_pair_data", "_boundary_weights"):
            original = getattr(sparse_chain, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(sparse_chain, name, counted)
        tracemalloc.start()
        try:
            decomposition_manifest(mp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(calls) == ["_boundary_weights", "_pair_data", "_pair_table"]
        assert peak < n * n

    def test_manifest_leaves_the_unmarked_block_unbuilt(self, rng):
        # the sparse path reads the edge list and the marked mask only
        mp = mark_states(random_sparse_dyadic_chain(rng, 24, degree=4), [0, 7])
        decomposition_manifest(mp)
        assert "marked_mask" in vars(mp)
        assert not {"p_uu", "pi_u", "h_matrix", "resolvent"} & vars(mp).keys()

    @staticmethod
    def _partition(rng):
        return mark_states(random_sparse_dyadic_chain(rng, 24, degree=4), [0, 7])

    def test_non_unitary_z_block_fires(self, rng, monkeypatch):
        build = sparse_chain._levels

        def broken(*args):
            levels = build(*args)
            pairs, z_blocks, off = levels[0].parts
            z_blocks = z_blocks.copy()
            z_blocks[0] *= 1.0 + 1e-6
            return [dataclasses.replace(levels[0], parts=(pairs, z_blocks, off))] + levels[1:]

        monkeypatch.setattr(sparse_chain, "_levels", broken)
        with pytest.raises(ValidationError, match="term 0: matrix is not unitary"):
            decomposition_manifest(self._partition(rng))

    def test_mis_scaled_term_weight_fires(self, rng, monkeypatch):
        scale, weight, signs = sparse_chain._COLOR_TERMS
        monkeypatch.setattr(sparse_chain, "_COLOR_TERMS", (scale, weight * (1.0 + 1e-6), signs))
        with pytest.raises(ValidationError, match="expansion misses the enlarged operator"):
            decomposition_manifest(self._partition(rng))

    def test_rotation_that_breaks_the_cancellation_fires(self, rng, monkeypatch):
        # a rest entry of R_+ off by a phase: each term stays unitary and the
        # coupler entries are right, but the rest parts no longer cancel
        rotations = sparse_chain.ancilla_rotations

        def broken(k, ancilla_dim):
            rot_minus, rot_plus = rotations(k, ancilla_dim)
            rot_plus = rot_plus.copy()
            rot_plus[-1, -1] *= np.exp(1e-6j)  # a rest entry on every level but the last
            return rot_minus, rot_plus

        monkeypatch.setattr(sparse_chain, "ancilla_rotations", broken)
        with pytest.raises(ValidationError, match="expansion misses the enlarged operator"):
            decomposition_manifest(self._partition(rng))

    @pytest.mark.parametrize("field", ["weights", "mu_bar", "diagonal"])
    def test_perturbed_edge_fires(self, rng, monkeypatch, field):
        # an edge weight off by 1e-6; the sign of one coordinate of an edge
        # vector flipped, which only the off-diagonal entries see; or a
        # boundary weight off by 1e-6, which only the diagonal sees
        mp = self._partition(rng)
        project = sparse_chain.walk_hamiltonian
        index = ("weights", "mu_bar", "diagonal").index(field)

        def perturbed(*args):
            projected = list(project(*args))
            values = projected[index].copy()
            if field == "mu_bar":
                values[len(values) // 2, 0] *= -1.0
            else:
                values[len(values) // 2] += 1e-6
            projected[index] = values
            return tuple(projected)

        table = sparse_chain._pair_table(mp.chain)
        pairs, alpha_bar, mu_bar, colors = sparse_chain._edge_table(mp, table)
        boundary = sparse_chain._boundary_weights(mp, table)
        levels = sparse_chain._levels(mp, pairs, alpha_bar, mu_bar, colors, boundary)
        projected = project(alpha_bar, mu_bar, boundary)
        assert reconstruction_residual(pairs, projected, levels) <= 1e-13
        projected = perturbed(alpha_bar, mu_bar, boundary)
        assert reconstruction_residual(pairs, projected, levels) > 1e-10
        monkeypatch.setattr(sparse_chain, "walk_hamiltonian", perturbed)
        with pytest.raises(ValidationError, match="miss the projected walk Hamiltonian"):
            decomposition_manifest(mp)


def _sparse_unit(d, n_states):
    c = DEFAULT_CONSTANTS
    return d * math.log(n_states) + c.sparse_oracle_cost + c.marked_oracle_cost


class TestSparseCost:
    """The sparse-access C_W: the evolution gate model with u = d ln N + C_P + C_U
    at tau = |t| d^2, as `theorem2_cost` prices it."""

    def test_arithmetic_example(self):
        tau = 10.0 * 2 * 2
        c_w = evolution_gate_cost(tau, 1e-3, _sparse_unit(2, 8), DEFAULT_CONSTANTS)
        factor = math.log(tau / 1e-3) / math.log(math.log(tau / 1e-3))
        assert c_w == pytest.approx((2 * math.log(8) + 2) * tau * factor)

    def test_theorem2_prices_its_evolution_with_the_sparse_unit(self):
        delta, epsilon, d, n = 0.25, 0.1, 3, 32
        eps_prime = DEFAULT_CONSTANTS.hitting_eps_prime_constant * epsilon * delta / math.log(
            1 / (epsilon * delta)
        )
        tau = math.log(1 / (epsilon * delta)) / math.sqrt(delta) * d * d
        expected = evolution_gate_cost(tau, eps_prime, _sparse_unit(d, n), DEFAULT_CONSTANTS)
        assert theorem2_cost(delta, epsilon, d, n).value("C_W") == pytest.approx(expected, rel=1e-15)

    def test_doubling_d_quadruples_tau(self):
        r1 = theorem2_cost(0.25, 0.1, 2, 16).value("C_W") / _sparse_unit(2, 16)
        r2 = theorem2_cost(0.25, 0.1, 4, 16).value("C_W") / _sparse_unit(4, 16)
        assert r2 / r1 > 4.0  # tau quadruples, log grows

    def test_monotone_in_each_argument(self):
        # t = ln(1/(eps Delta))/sqrt(Delta) grows as Delta falls
        base = theorem2_cost(0.25, 0.1, 3, 32).value("C_W")
        assert theorem2_cost(0.25, 0.1, 4, 32).value("C_W") > base
        assert theorem2_cost(0.25, 0.1, 3, 64).value("C_W") > base
        assert theorem2_cost(0.0625, 0.1, 3, 32).value("C_W") > base
        assert theorem2_cost(0.25, 0.01, 3, 32).value("C_W") > base
