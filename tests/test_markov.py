import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lculab import cli, markov
from lculab.constants import DEFAULT_CONSTANTS
from lculab.errors import ValidationError, WalkTimeoutError
from lculab.gibbs import HsGrid
from lculab.inverse import InverseGrid, amplitude_estimation, t_circuit_expectation
from lculab.markov import (
    MAX_TOTAL_WALK_STEPS,
    MarkovChain,
    chain_from_json,
    classical_mc_estimate,
    chebyshev_sample_count,
    discriminant_matrix,
    exact_hitting_time_resolvent,
    exact_variance,
    expected_mc_cost,
    lazy_cycle,
    mark_states,
    validate_chain,
)
from lculab.operators import DIMENSION_CAP, HermitianOperator
from oracles import (
    chain_to_json,
    discriminant_pair,
    exact_hitting_time_inverse,
    eig_validate_chain,
    lazify,
    random_reversible_chain,
    random_reversible_matrix,
    random_sparse_dyadic_chain,
    random_sparse_dyadic_matrix,
    seeded_regular_partition,
    survival_probability,
    symmetric_two_state,
    validate_chain_any_spectrum,
)


@pytest.fixture
def two_state():
    chain = symmetric_two_state()
    return mark_states(chain, [1])


class TestValidateChain:
    def test_symmetric_two_state(self):
        chain = symmetric_two_state()
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])
        assert chain.sparsity == 2

    def test_lazy_four_cycle(self):
        chain = lazy_cycle(4, 0.5)
        np.testing.assert_allclose(chain.stationary, 0.25)
        eigs = np.linalg.eigvalsh(discriminant_matrix(chain.transition))
        assert eigs.min() >= -1e-12

    def test_swap_chain_rejected(self):
        # eigenvalue -1 and period 2
        with pytest.raises(ValidationError):
            validate_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_lazified_swap_accepted(self):
        chain = validate_chain(lazify(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValidationError):
            validate_chain(np.array([[0.9, 0.5], [0.0, 0.5]]))

    def test_reducible_rejected(self):
        with pytest.raises(ValidationError):
            validate_chain(np.eye(4))

    def test_chain_over_cap_rejected_before_any_eigensolve(self, monkeypatch):
        # the lazy 4097-cycle is otherwise a valid chain, so only the cap stops it
        def refuse(*args, **kwargs):
            raise AssertionError("an eigen-solve ran on a chain over the cap")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        n = DIMENSION_CAP + 1
        states = np.arange(n)
        p = np.zeros((n, n))
        p[states, states] = 0.5
        p[(states + 1) % n, states] = p[(states - 1) % n, states] = 0.25
        with pytest.raises(ValidationError, match=f"^{n} states exceed cap {DIMENSION_CAP}$"):
            validate_chain(p)

    def test_irreversible_rejected(self):
        # three-state directed cycle with a uniform fixed point but no detailed balance
        p = np.array(
            [
                [0.5, 0.4, 0.1],
                [0.1, 0.5, 0.4],
                [0.4, 0.1, 0.5],
            ]
        )
        with pytest.raises(ValidationError):
            validate_chain(p)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 12))
    def test_generated_chains_validate(self, seed, n):
        g = np.random.default_rng(seed)
        chain = random_reversible_chain(g, n)
        assert chain.n_states == n

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_dyadic_chains_have_exact_probabilities(self, seed):
        g = np.random.default_rng(seed)
        chain = random_sparse_dyadic_chain(g, 12, degree=4, bits=10)
        scaled = chain.transition * (1 << 10)
        np.testing.assert_array_equal(scaled, np.round(scaled))
        assert chain.sparsity <= 6


def _family_matrix(family: str, seed: int) -> np.ndarray:
    """A raw transition matrix from one of the chain families the validation
    must sort: valid, periodic, reducible, irreversible, or with an asymmetric
    support."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    extra = int(rng.integers(0, n + 1))
    if family in ("reversible", "lazy-reversible"):
        # without laziness the walk may be periodic or have negative eigenvalues
        laziness = 0.5 if family == "lazy-reversible" else 0.0
        return random_reversible_matrix(rng, n, extra_edges=extra, laziness=laziness)
    if family == "dyadic":
        return random_sparse_dyadic_matrix(rng, n, degree=int(rng.integers(1, 5)))
    if family == "bipartite":
        # the walk on a tree, with no self-loops
        return random_reversible_matrix(rng, n, extra_edges=0, laziness=0.0)
    if family == "reducible":
        k = int(rng.integers(1, n - 1))
        p = np.zeros((n, n))
        p[:k, :k] = lazify(np.full((k, k), 1 / k))
        p[k:, k:] = random_reversible_matrix(rng, n - k)
        return p
    if family == "directed-3-cycle":
        # stay, step forward and step back, in eighths
        stay, forward = sorted(int(x) for x in rng.integers(0, 9, size=2))
        forward -= stay
        p = np.zeros((3, 3))
        for s in range(3):
            p[s, s] += stay / 8
            p[(s + 1) % 3, s] += forward / 8
            p[(s - 1) % 3, s] += (8 - stay - forward) / 8
        return p
    if family == "one-way-edge":
        # a tree walk plus one edge a -> b with no way back: still irreducible
        p = random_reversible_matrix(rng, n, extra_edges=0)
        b, a = np.argwhere(p == 0)[rng.integers(0, np.count_nonzero(p == 0))]
        p[a, a] /= 2
        p[b, a] = p[a, a]
        return p
    raise KeyError(family)


_FAMILIES = (
    "reversible", "lazy-reversible", "dyadic", "bipartite", "reducible",
    "directed-3-cycle", "one-way-edge",
)


def _verdict(validate, p):
    """The stationary vector of an accepted chain, or the rejection message."""
    try:
        return validate(p).stationary
    except ValidationError as exc:
        return str(exc)


def _exact_stationary(p: np.ndarray) -> list[Fraction]:
    """The exact stationary vector of a float matrix whose columns sum to 1
    exactly: (P - 1) pi = 0 with the last row replaced by sum(pi) = 1, by
    Gauss-Jordan elimination over the rationals."""
    n = p.shape[0]
    rows = [
        [Fraction(float(p[i, j])) - (i == j) for j in range(n)] + [Fraction(0)]
        for i in range(n - 1)
    ]
    rows.append([Fraction(1)] * (n + 1))
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


class TestTreeStationaryVector:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_FAMILIES), st.integers(0, 10**6))
    def test_same_verdict_as_the_eigenvector_reference(self, family, seed):
        p = _family_matrix(family, seed)
        support = p > 0
        if not np.array_equal(support, support.T):
            with pytest.raises(ValidationError, match="^support is not symmetric$"):
                validate_chain(p)
            return
        new, ref = _verdict(validate_chain, p), _verdict(eig_validate_chain, p)
        assert type(new) is type(ref)
        if isinstance(ref, str):
            assert new == ref
        else:
            np.testing.assert_allclose(new, ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "p",
        [
            *(lazy_cycle(n, stay).transition for n in (3, 4, 7, 12) for stay in (0.5, 0.75)),
            *(
                random_sparse_dyadic_matrix(np.random.default_rng(seed), n, degree=3)
                for seed, n in ((1, 2), (2, 5), (3, 9), (4, 12), (5, 12))
            ),
        ],
    )
    def test_no_further_from_exact_than_the_reference(self, p):
        exact = _exact_stationary(p)

        def distance(pi):
            return max(abs(Fraction(float(x)) - e) for x, e in zip(pi, exact))

        assert distance(validate_chain(p).stationary) <= distance(
            eig_validate_chain(p).stationary
        )

    def test_edges_are_the_sorted_nonzeros(self, rng):
        chain = random_reversible_chain(rng, 9, max_degree=3)
        a, b = chain.edges.T
        assert np.all(chain.transition[b, a] > 0)
        assert chain.edges.tolist() == np.argwhere(chain.transition.T).tolist()
        assert chain.sparsity == np.count_nonzero(chain.transition, axis=0).max()


# The chains the spectral measure is checked on, built when a test reads them.
_MEASURE_CHAINS = {
    "lazy-8-cycle": lambda: mark_states(lazy_cycle(8), [0]),
    "lazy-16-cycle": lambda: mark_states(lazy_cycle(16), [0]),
    "lazy-32-cycle": lambda: mark_states(lazy_cycle(32), [0]),
    "regular-256": lambda: seeded_regular_partition(256),
    "dense-64": lambda: _dense64(),
}
# A cycle marked at one state leaves a path, whose eigenvalues are distinct;
# marked at two antipodal states it leaves two equal paths, and every
# eigenvalue is double.
_DOUBLE_SPECTRUM_CHAINS = {
    "lazy-16-cycle-two-marked": lambda: mark_states(lazy_cycle(16), [0, 8]),
    "lazy-32-cycle-two-marked": lambda: mark_states(lazy_cycle(32), [0, 16]),
}


class TestMarkedPartition:
    def test_blocks(self, two_state):
        assert two_state.pi_u == pytest.approx(0.5)
        np.testing.assert_allclose(two_state.p_uu, [[0.5]])
        np.testing.assert_allclose(two_state.sqrt_pi_u, [1.0])

    def test_rejects_empty_or_full_marked_set(self):
        chain = symmetric_two_state()
        with pytest.raises(ValidationError):
            mark_states(chain, [])
        with pytest.raises(ValidationError):
            mark_states(chain, [0, 1])

    @pytest.mark.parametrize(
        "marked", [[1.5], ["1"], [True], [None], [float("nan")], 3],
        ids=["fractional", "string", "bool", "null", "nan", "bare-integer"],
    )
    def test_marked_states_are_typed(self, marked):
        # each of these once marked state 1 or raised TypeError
        with pytest.raises(ValidationError, match="marked set .* is not a list of"):
            mark_states(symmetric_two_state(), marked)

    @pytest.mark.parametrize(
        "marked", [[1], [np.int64(1)], [1.0], (1, 1), range(1, 2), np.array([1])],
        ids=["int", "numpy-int", "integral-float", "repeated", "range", "array"],
    )
    def test_marked_integers_accepted(self, marked):
        mp = mark_states(symmetric_two_state(), marked)
        assert mp.marked == (1,) and mp.unmarked == (0,)

    def test_one_reader_for_every_marked_set(self):
        # a marked set given to mark_states and one read from chain JSON are
        # rejected alike, with the same message
        chain = lazy_cycle(4, 0.5)
        blob = chain_to_json(chain, [0])
        for marked, message in [([], "nonempty"), ([4], "out of range"), ([0, 1, 2, 3], "unmarked set"),
                                ([0.5], "not a list of integers")]:
            blob["marked"] = marked
            errors = []
            for read in (lambda: mark_states(chain, marked),
                         lambda: mark_states(*chain_from_json(blob))):
                with pytest.raises(ValidationError, match=message) as info:
                    read()
                errors.append(str(info.value))
            assert errors[0] == errors[1]


    def test_hamiltonian_matches_the_two_way_reference(self, rng):
        # H_U cut from P_UU alone equals, bit for bit, the U-block of the full
        # discriminant, which the reference checks against the similarity
        # transform and against D_U^{-1} P_UU D_U; so does every value read
        # off it. The grid is coarse and uncalibrated: only the bits compare.
        inner = HsGrid(j_max=12, delta_y=0.5, beta=16.0)
        grid = InverseGrid(delta_lower=1e-3, delta_z=0.5, k_max=16, inner=inner)
        checked = 0
        for i in range(40):
            n = int(rng.integers(3, 13))
            try:
                chain = (random_reversible_chain(rng, n) if i % 2 else
                         random_sparse_dyadic_chain(rng, n, 3, edge_cap_divisor=2))
            except ValidationError:
                continue
            mp = mark_states(chain, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            ref = discriminant_pair(mp)
            assert np.array_equal(mp.h_matrix, ref.h_matrix.matrix)
            assert mp.delta == ref.delta
            assert exact_hitting_time_inverse(mp) == ref.t_exact(mp)
            assert t_circuit_expectation(grid, mp) == ref.exact_amplitude(grid, mp)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("name", _MEASURE_CHAINS)
    def test_spectral_measure_is_the_eigensystem_path_bit_for_bit(self, name):
        # the measure once came from H_U wrapped in a HermitianOperator, its
        # cached eigensystem, and the weights read off its eigenvectors
        mp = _MEASURE_CHAINS[name]()
        h = HermitianOperator(np.eye(mp.n_unmarked) - discriminant_matrix(mp.p_uu))
        eigs, vecs = h.eigensystem
        weights = np.abs(vecs.conj().T @ mp.sqrt_pi_u) ** 2
        assert mp.spectral_measure[0].tobytes() == eigs.tobytes()
        assert mp.spectral_measure[1].tobytes() == weights.tobytes()

    @pytest.mark.parametrize("name", _MEASURE_CHAINS)
    def test_h_matrix_is_exactly_symmetric(self, name):
        h = _MEASURE_CHAINS[name]().h_matrix
        assert h.dtype == np.float64 and np.array_equal(h, h.T)

    @pytest.mark.parametrize("name", [*_MEASURE_CHAINS, *_DOUBLE_SPECTRUM_CHAINS])
    def test_spectral_measure_integrates_to_the_hitting_time(self, name):
        # pi_U sum_i w_i / lambda_i = pi_U <sqrt(pi_U)| H_U^{-1} |sqrt(pi_U)> = t_h
        mp = {**_MEASURE_CHAINS, **_DOUBLE_SPECTRUM_CHAINS}[name]()
        eigs, weights = mp.spectral_measure
        gaps = np.diff(eigs)
        if name in _DOUBLE_SPECTRUM_CHAINS:
            assert np.max(gaps[::2]) <= 1e-12
        else:
            assert np.min(gaps) > 1e-6
        t_h = exact_hitting_time_resolvent(mp)
        assert mp.pi_u * float(weights @ (1.0 / eigs)) == pytest.approx(t_h, rel=1e-10, abs=0)

    def test_hamiltonian_above_one_rejected(self):
        # the 5-cycle without self-loops is aperiodic but has negative
        # eigenvalues, so H_U on its unmarked path tops out above 1
        p = np.zeros((5, 5))
        for s in range(5):
            p[(s + 1) % 5, s] = p[(s - 1) % 5, s] = 0.5
        mp = mark_states(validate_chain_any_spectrum(p), [0])
        with pytest.raises(ValidationError, match="restricted Hamiltonian exceeds 1"):
            mp.spectral_measure

class TestHittingTimeFormulas:
    def test_two_state_resolvent_equals_one(self, two_state):
        assert exact_hitting_time_resolvent(two_state) == pytest.approx(1.0)

    def test_two_state_geometric_series_oracle(self, two_state):
        # sum over survival probabilities, truncated with a tail bound
        total = sum(survival_probability(two_state, t) for t in range(60))
        assert exact_hitting_time_resolvent(two_state) == pytest.approx(total, abs=1e-12)

    def test_absorbing_dominant_block(self):
        # Pr(stay in U) = 0: hitting time equals pi_U. A no-self-loop state
        # whose neighbors are all marked forces a negative chain eigenvalue,
        # so spectrum validation is relaxed for this classical-formula check.
        p = np.array(
            [
                [0.0, 0.25, 0.25],
                [0.5, 0.50, 0.25],
                [0.5, 0.25, 0.50],
            ]
        )
        chain = validate_chain_any_spectrum(p)
        mp = mark_states(chain, [1, 2])
        assert exact_hitting_time_resolvent(mp) == pytest.approx(mp.pi_u)
        assert exact_hitting_time_inverse(mp) == pytest.approx(mp.pi_u)

    def test_two_state_inverse_formula(self, two_state):
        np.testing.assert_allclose(two_state.h_matrix, [[0.5]])
        assert exact_hitting_time_inverse(two_state) == pytest.approx(1.0)

    def test_lazy_cycle_series_oracle(self):
        chain = lazy_cycle(8, 0.5)
        mp = mark_states(chain, [0])
        t_resolvent = exact_hitting_time_resolvent(mp)
        # independent oracle: truncated survival series plus a spectral tail bound
        t_trunc = 0
        horizon = int(20 / mp.delta)
        for t in range(horizon):
            t_trunc += survival_probability(mp, t)
        tail = mp.pi_u * (1 - mp.delta) ** horizon / mp.delta
        assert abs(t_resolvent - t_trunc) <= tail + 1e-8

    def test_formula_equivalence_random_chains(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 17))
            chain = random_reversible_chain(rng, n)
            n_marked = int(rng.integers(1, n))
            marked = rng.choice(n, size=n_marked, replace=False)
            try:
                mp = mark_states(chain, marked)
            except ValidationError:
                continue
            t1 = exact_hitting_time_resolvent(mp)
            t2 = exact_hitting_time_inverse(mp)
            assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))

    def test_spectrum_similarity(self, rng):
        chain = random_reversible_chain(rng, 10)
        mp = mark_states(chain, [0, 3])
        h_spec = np.sort(np.linalg.eigvalsh(mp.h_matrix))
        p_spec = np.sort(1.0 - np.linalg.eigvals(mp.p_uu).real)
        np.testing.assert_allclose(h_spec, p_spec, atol=1e-9)
        assert mp.delta == pytest.approx(1.0 - np.linalg.eigvals(mp.p_uu).real.max(), abs=1e-9)
        assert 1.0 / mp.delta >= exact_hitting_time_resolvent(mp) / mp.pi_u - 1e-9


class TestSurvival:
    def test_time_zero_is_pi_u(self, two_state):
        assert survival_probability(two_state, 0) == pytest.approx(two_state.pi_u)
        # equivalently Pr(t = 0) = pi_M = 1 - pi_U
        assert 1 - survival_probability(two_state, 0) == pytest.approx(1 - two_state.pi_u)

    def test_two_state_one_step(self, two_state):
        assert survival_probability(two_state, 1) == pytest.approx(0.25)

    def test_spectral_decay_bound(self, rng):
        chain = random_reversible_chain(rng, 8)
        mp = mark_states(chain, [2])
        for t in [1, 5, 20, 80]:
            assert survival_probability(mp, t) <= mp.pi_u * (1 - mp.delta) ** t + 1e-12

    def test_monotone_nonincreasing(self, rng):
        chain = random_reversible_chain(rng, 6)
        mp = mark_states(chain, [1])
        values = [survival_probability(mp, t) for t in range(15)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestVariance:
    def test_two_state_value(self, two_state):
        # hand sum: E[t] = 1, E[t^2] = 3
        assert exact_variance(two_state) == pytest.approx(2.0)

    def test_bernoulli_case(self):
        p = np.array(
            [
                [0.0, 0.25, 0.25],
                [0.5, 0.50, 0.25],
                [0.5, 0.25, 0.50],
            ]
        )
        chain = validate_chain_any_spectrum(p)
        mp = mark_states(chain, [1, 2])
        expected = mp.pi_u - mp.pi_u**2
        assert exact_variance(mp) == pytest.approx(expected)

    def test_against_monte_carlo(self):
        chain = lazy_cycle(4, 0.5)
        mp = mark_states(chain, [0])
        var = exact_variance(mp)
        t_h = exact_hitting_time_resolvent(mp)
        n_samples = 100_000
        g = np.random.default_rng(7)
        cum_pi = np.cumsum(chain.stationary)
        cum_cols = np.cumsum(chain.transition, axis=0)
        times = np.empty(n_samples)
        for i in range(n_samples):
            state = int(np.searchsorted(cum_pi, g.random(), side="right"))
            t = 0
            while state != 0:
                t += 1
                state = int(np.searchsorted(cum_cols[:, state], g.random(), side="right"))
            times[i] = t
        sample_var = times.var(ddof=1)
        # variance of the sample variance ~ (mu4 - var^2)/n; three sigmas
        mu4 = np.mean((times - times.mean()) ** 4)
        se = math.sqrt((mu4 - sample_var**2) / n_samples)
        assert abs(sample_var - var) <= 3 * se
        assert abs(times.mean() - t_h) <= 3 * math.sqrt(var / n_samples)


class TestClassicalEstimator:
    def test_bernoulli_structure(self):
        p = np.array(
            [
                [0.0, 0.25, 0.25],
                [0.5, 0.50, 0.25],
                [0.5, 0.25, 0.50],
            ]
        )
        chain = validate_chain_any_spectrum(p)
        mp = mark_states(chain, [1, 2])
        estimate, samples, steps = classical_mc_estimate(mp, epsilon=0.05, seed=11)
        assert abs(estimate - mp.pi_u) <= 0.05
        # every walk takes zero or one step
        assert steps <= samples

    def test_two_state_coverage(self, two_state):
        hits = 0
        runs = 60
        for seed in range(runs):
            estimate, _, _ = classical_mc_estimate(two_state, epsilon=0.1, seed=seed)
            if abs(estimate - 1.0) <= 0.1:
                hits += 1
        assert hits >= 0.75 * runs

    def test_sample_count_formula(self, two_state):
        m = chebyshev_sample_count(two_state, 0.05)
        assert m == math.ceil(16.0 * 2.0 / 0.05**2)

    @pytest.mark.parametrize(
        "chain, marked, epsilon",
        [(lazy_cycle(8, 0.5), 0, 0.1), (lazy_cycle(8, 0.5), 0, 2.0)]
        + [(symmetric_two_state(), 1, epsilon) for epsilon in (0.1, 0.5, 2.0)]
        + [(lazy_cycle(16, 0.9), 0, 1.0), (lazy_cycle(32, 0.75), 0, 0.1)],
        ids=[
            "lazy-8-cycle-0.1", "lazy-8-cycle-2", "two-state-0.1", "two-state-0.5", "two-state-2",
            "lazy-16-cycle-stay-0.9", "lazy-32-cycle-stay-0.75",
        ],
    )
    def test_sample_count_steady_under_an_ulp_of_variance(
        self, monkeypatch, chain, marked, epsilon
    ):
        # each product is a whole number up to rounding: 1008000, 2520, 3200,
        # 128, 8, 4093600 (a plain ceil reads 4093601) and 1044278400
        mp = mark_states(chain, [marked])
        m = chebyshev_sample_count(mp, epsilon)
        assert m == round(16 * exact_variance(mp) / epsilon**2)
        v = exact_variance(mp)
        for nudged in (math.nextafter(v, -math.inf), math.nextafter(v, math.inf)):
            monkeypatch.setattr(markov, "exact_variance", lambda _, value=nudged: value)
            assert chebyshev_sample_count(mp, epsilon) == m

    def test_expected_cost(self, two_state):
        samples, steps = expected_mc_cost(two_state, 0.1)
        assert samples == chebyshev_sample_count(two_state, 0.1)
        assert steps == pytest.approx(samples * 1.0)

    def test_deterministic_given_seed(self, two_state):
        a = classical_mc_estimate(two_state, epsilon=0.2, seed=42)
        b = classical_mc_estimate(two_state, epsilon=0.2, seed=42)
        assert a == b

    def test_step_cap_raises_timeout(self, monkeypatch):
        chain = lazy_cycle(8, 0.5)
        mp = mark_states(chain, [0])
        monkeypatch.setattr(markov, "MAX_TOTAL_WALK_STEPS", 3)
        with pytest.raises(WalkTimeoutError):
            classical_mc_estimate(mp, epsilon=0.5, seed=1)

    def test_draw_below_one_past_short_stationary_table(self, monkeypatch):
        # this chain's stationary cumulative sum ends below 1; a start draw
        # between it and 1 must still land on the last state, here marked
        chain = random_reversible_chain(np.random.default_rng(0), 12)
        assert np.cumsum(chain.stationary)[-1] < 1.0
        mp = mark_states(chain, [11])
        monkeypatch.setattr(markov, "stream_uniforms", _BelowOneDraws())
        for estimate, samples, steps in _at_each_chunk_budget(
            lambda: classical_mc_estimate(mp, epsilon=1.0, seed=0)
        ):
            assert (estimate, steps) == (0.0, 0) and samples >= 1

    def test_draw_below_one_past_short_column_table(self, monkeypatch):
        # column 0 sums to 1 - 2^-53 in floating point; from state 0 a step
        # draw just below 1 must land on its last state, here marked
        p = np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]])
        assert np.cumsum(p[:, 0])[-1] < 1.0
        mp = mark_states(validate_chain(p), [2])
        monkeypatch.setattr(markov, "stream_uniforms", _BelowOneDraws(first=0.0))
        for estimate, samples, steps in _at_each_chunk_budget(
            lambda: classical_mc_estimate(mp, epsilon=1.0, seed=0)
        ):
            assert estimate == 1.0 and steps == samples

    def test_rejects_nan_epsilon_and_negative_seed(self, two_state):
        with pytest.raises(ValidationError):
            chebyshev_sample_count(two_state, float("nan"))
        with pytest.raises(ValidationError):
            classical_mc_estimate(two_state, epsilon=float("nan"), seed=0)
        for seed in (-1, 1.5):
            with pytest.raises(ValidationError):
                classical_mc_estimate(two_state, epsilon=0.5, seed=seed)
        with pytest.raises(ValidationError):
            amplitude_estimation(0.3, float("nan"))
        for seed in (-1, 1.5):
            with pytest.raises(ValidationError):
                amplitude_estimation(0.3, 0.1, seed=seed)


_MASK64 = 2**64 - 1


def _mix64_int(z):
    """The SplitMix64 finalizer on a Python int in [0, 2^64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _splitmix_z(seed, walk, draw):
    """The 64-bit output behind draw `draw` of walk `walk`: what splitmix64.c
    returns from state mix64(seed) + (walk * 2^32 + draw) * gamma."""
    state = (_mix64_int(seed) + (walk * 2**32 + draw + 1) * 0x9E3779B97F4A7C15) & _MASK64
    return _mix64_int(state)


def _splitmix_uniform(seed, walk, draw):
    return (_splitmix_z(seed, walk, draw) >> 11) * 2.0**-53


def _dense_cum_cols(chain):
    """Column-wise cumulative sums of the dense transition matrix, each divided
    by its column's total."""
    cum_cols = np.cumsum(chain.transition, axis=0)
    cum_cols /= cum_cols[-1]
    return cum_cols


def _walk_times(
    mp, epsilon, seed, constants=DEFAULT_CONSTANTS, max_total_steps=MAX_TOTAL_WALK_STEPS,
    uniform=_splitmix_uniform,
):
    """Each walk's hitting time, one walk at a time, one scalar draw and one
    searchsorted per step. Walk i takes draw 0 for its start and draw t for
    step t from `uniform(seed, i, draw)`."""
    m = chebyshev_sample_count(mp, epsilon, constants)
    chain = mp.chain
    marked = frozenset(mp.marked)
    cum_pi = np.cumsum(chain.stationary)
    cum_pi /= cum_pi[-1]
    cum_cols = _dense_cum_cols(chain)
    total_steps = 0
    times = []
    for i in range(m):
        state = int(np.searchsorted(cum_pi, uniform(seed, i, 0), side="right"))
        t = 0
        while state not in marked:
            t += 1
            total_steps += 1
            if total_steps > max_total_steps:
                raise WalkTimeoutError(f"exceeded {max_total_steps} total walk steps")
            state = int(np.searchsorted(cum_cols[:, state], uniform(seed, i, t), side="right"))
        times.append(t)
    return times


def _walk_by_walk_estimate(mp, epsilon, seed, **kwargs):
    """The reference that the batched walker must match bit for bit."""
    times = _walk_times(mp, epsilon, seed, **kwargs)
    return sum(times) / len(times), len(times), sum(times)


def _dense_step_table(chain):
    """The step table read off the dense column cumulative sums."""
    cum_cols = _dense_cum_cols(chain)
    cols, rows = chain.edges.T
    counts = np.bincount(cols, minlength=chain.n_states)
    rank = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    targets = np.zeros((chain.n_states, chain.sparsity), dtype=np.intp)
    thresholds = np.full((chain.n_states, chain.sparsity), np.inf)
    targets[cols, rank] = rows
    thresholds[cols, rank] = cum_cols[rows, cols]
    return targets, thresholds


def _cycle8():
    return mark_states(lazy_cycle(8, 0.5), [0])


def _cycle4():
    return mark_states(lazy_cycle(4, 0.5), [0])


def _two_state():
    return mark_states(symmetric_two_state(), [1])


def _random_reversible():
    return mark_states(random_reversible_chain(np.random.default_rng(5), 10), [3, 7])


def _sparse_dyadic():
    # 200 states of sparsity 5: the step table is far narrower than a column
    chain = random_sparse_dyadic_chain(np.random.default_rng(3), 200, 4, edge_cap_divisor=2)
    return mark_states(chain, range(0, 200, 10))


def _dense64():
    # a lazy walk on the complete graph with random symmetric weights
    w = np.random.default_rng(2).uniform(0.2, 1.0, size=(64, 64))
    w += w.T
    chain = validate_chain(0.5 * np.eye(64) + 0.5 * w / w.sum(axis=0))
    return mark_states(chain, range(0, 64, 8))


def _unvalidated_sparse_dyadic_2000():
    # The step table reads the transition matrix and its edges alone. This
    # matrix is symmetric, so pi is uniform; validation would spend twice the
    # table test's time on the 2000 x 2000 spectrum check.
    mat = random_sparse_dyadic_matrix(np.random.default_rng(20), 2000, 4)
    chain = MarkovChain(transition=mat, stationary=np.full(2000, 1 / 2000), edges=np.argwhere(mat.T))
    return mark_states(chain, [0])


_MC_CASES = [
    *[pytest.param(_cycle8, 2.0, seed, id=f"lazy-8-cycle-{seed}") for seed in range(501, 506)],
    pytest.param(_two_state, 0.1, 3, id="two-state"),
    pytest.param(_random_reversible, 0.5, 8, id="random-reversible"),
    pytest.param(_sparse_dyadic, 200.0, 1, id="sparse-dyadic-200"),
]

# Smaller runs of the same chains, for batch widths that split a run into many
# batches and end it on a partial one.
_SMALL_MC_CASES = [
    pytest.param(_cycle8, 4.0, 501, id="lazy-8-cycle"),
    pytest.param(_two_state, 0.3, 3, id="two-state"),
    pytest.param(_random_reversible, 1.0, 8, id="random-reversible"),
    pytest.param(_sparse_dyadic, 200.0, 1, id="sparse-dyadic-200"),
]


# Batch widths in walks, None for the default. The ids are the (lanes, draw
# block) pairs these cases ran when the walks ran on a fixed set of lanes, each
# buffering a block of draws; they keep the test names.
_LANES = [pytest.param(None, id="256-32"), pytest.param(3, id="3-2")]
_TINY_LANES = [pytest.param(3, id="3-2"), pytest.param(1, id="1-1")]


def _chunk_budgets(walks=None):
    """_CHUNK_DRAWS values to run at: one round per stream call, the default,
    and a chunk longer than any walk here, for batches of `walks` walks (None
    for the default width). A budget of 2^30 would hold 8 GiB of draws, and
    2^20 costs a narrow batch 8 MiB of draws per chunk."""
    return [1, markov._CHUNK_DRAWS, 2**20 if walks is None else walks * 2**12]


# Chains for the chunk budgets: sparsity 2, 3 and 3 (rows padded to 4), 5
# (padded to 8) and 64.
_CHUNK_CASES = [
    pytest.param(_two_state, 0.1, 3, id="two-state"),
    pytest.param(_cycle4, 0.5, 9, id="lazy-4-cycle"),
    pytest.param(_cycle8, 2.0, 501, id="lazy-8-cycle"),
    pytest.param(_sparse_dyadic, 200.0, 1, id="sparse-dyadic-200"),
    pytest.param(_dense64, 4.0, 4, id="dense-64"),
]


def _at_each_chunk_budget(run, walks=None):
    """What run() returns with _CHUNK_DRAWS patched to each of _chunk_budgets(walks)."""
    results = []
    for draws in _chunk_budgets(walks):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(markov, "_CHUNK_DRAWS", draws)
            results.append(run())
    return results


def _batch_walks(patch, mp, walks):
    """Make classical_mc_estimate run `mp` in batches of `walks` walks; setattr
    raises if the budget it patches is gone."""
    if walks is not None:
        patch.setattr(markov, "_BATCH_ELEMENTS", walks * mp.chain.sparsity)


class _CountingStream:
    """The stream, recording every call's walk count and draw indices."""

    def __init__(self):
        self.calls = []
        self._uniforms = markov.stream_uniforms

    def __call__(self, base, draw):
        self.calls.append((base.size, draw.ravel().tolist()))
        return self._uniforms(base, draw)


class TestLockstepWalker:
    @pytest.mark.parametrize("make, epsilon, seed", _MC_CASES)
    def test_matches_walk_by_walk_loop(self, make, epsilon, seed):
        mp = make()
        assert classical_mc_estimate(mp, epsilon, seed) == _walk_by_walk_estimate(mp, epsilon, seed)

    @pytest.mark.parametrize("lanes", _TINY_LANES)
    @pytest.mark.parametrize("make, epsilon, seed", _SMALL_MC_CASES)
    def test_matches_with_tiny_lanes(self, monkeypatch, make, epsilon, seed, lanes):
        mp = make()
        _batch_walks(monkeypatch, mp, lanes)
        assert classical_mc_estimate(mp, epsilon, seed) == _walk_by_walk_estimate(mp, epsilon, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        chain_seed=st.integers(0, 10_000),
        n=st.integers(2, 9),
        marked_draw=st.integers(0, 2**16),
        scale=st.floats(0.5, 4.0),
        seed=st.integers(0, 2**32),
        lanes=st.integers(1, 6),
    )
    def test_matches_walk_by_walk_loop_property(
        self, chain_seed, n, marked_draw, scale, seed, lanes
    ):
        chain = random_reversible_chain(np.random.default_rng(chain_seed), n)
        picks = np.random.default_rng(marked_draw)
        marked = picks.choice(n, size=int(picks.integers(1, n)), replace=False)
        mp = mark_states(chain, marked)
        # epsilon in units of the hitting time's standard deviation keeps the
        # run at most 64 walks
        epsilon = scale * math.sqrt(exact_variance(mp)) + 0.01
        expected = _walk_by_walk_estimate(mp, epsilon, seed)
        assert classical_mc_estimate(mp, epsilon, seed) == expected
        with pytest.MonkeyPatch.context() as patch:
            _batch_walks(patch, mp, lanes)
            assert classical_mc_estimate(mp, epsilon, seed) == expected

    @pytest.mark.parametrize("make, epsilon, seed", _CHUNK_CASES)
    def test_matches_at_each_chunk_budget(self, make, epsilon, seed):
        mp = make()
        expected = _walk_by_walk_estimate(mp, epsilon, seed)
        results = _at_each_chunk_budget(lambda: classical_mc_estimate(mp, epsilon, seed))
        assert results == [expected] * 3

    @pytest.mark.parametrize("lanes", _LANES)
    def test_step_cap_boundary(self, monkeypatch, lanes):
        mp = _cycle8()
        _batch_walks(monkeypatch, mp, lanes)
        reference = _walk_by_walk_estimate(mp, 4.0, 501)
        cap = reference[2]
        assert _walk_by_walk_estimate(mp, 4.0, 501, max_total_steps=cap) == reference
        with pytest.raises(WalkTimeoutError):
            _walk_by_walk_estimate(mp, 4.0, 501, max_total_steps=cap - 1)
        for draws in _chunk_budgets(lanes):
            monkeypatch.setattr(markov, "_CHUNK_DRAWS", draws)
            monkeypatch.setattr(markov, "MAX_TOTAL_WALK_STEPS", cap)
            assert classical_mc_estimate(mp, 4.0, 501) == reference
            monkeypatch.setattr(markov, "MAX_TOTAL_WALK_STEPS", cap - 1)
            with pytest.raises(WalkTimeoutError):
                classical_mc_estimate(mp, 4.0, 501)

    @pytest.mark.parametrize("lanes", _LANES)
    def test_draws_on_the_cumulative_sums(self, monkeypatch, lanes):
        # quarter-point draws land exactly on the lazy 4-cycle's cumulative
        # sums, where a step must pass over the entry equal to the draw
        mp = _cycle4()
        monkeypatch.setattr(markov, "stream_uniforms", _QuarterDraws(markov.stream_uniforms))
        _batch_walks(monkeypatch, mp, lanes)
        expected = _walk_by_walk_estimate(mp, 0.5, 9, uniform=_QuarterDraws(_splitmix_uniform))
        results = _at_each_chunk_budget(lambda: classical_mc_estimate(mp, 0.5, 9), lanes)
        assert results == [expected] * 3

    def test_stream_calls_stay_within_a_chunk(self, monkeypatch):
        # 2520 walks fit one batch: one call starts them all. Each later call
        # draws the next rounds, at most max(_CHUNK_DRAWS, live) values, and
        # the last starts at a round the longest walk still takes.
        mp = _cycle8()
        assert markov._BATCH_ELEMENTS // mp.chain.sparsity >= 2520
        stream = _CountingStream()
        monkeypatch.setattr(markov, "stream_uniforms", stream)
        assert classical_mc_estimate(mp, 2.0, 501) == _walk_by_walk_estimate(mp, 2.0, 501)
        longest = max(_walk_times(mp, 2.0, 501))
        assert stream.calls[0] == (2520, [0])
        draws = [d for _, call_draws in stream.calls for d in call_draws]
        assert draws == list(range(len(draws)))
        for live, call_draws in stream.calls:
            assert live * len(call_draws) <= max(markov._CHUNK_DRAWS, live)
        assert stream.calls[-1][1][0] <= longest <= stream.calls[-1][1][-1]
        assert len(stream.calls) < 1 + longest

    def test_batch_width_within_the_budget(self, monkeypatch):
        mp = _dense64()
        assert mp.chain.sparsity == 64
        budget = 5 * 64 + 63
        monkeypatch.setattr(markov, "_BATCH_ELEMENTS", budget)
        stream = _CountingStream()
        monkeypatch.setattr(markov, "stream_uniforms", stream)
        assert classical_mc_estimate(mp, 4.0, 4) == _walk_by_walk_estimate(mp, 4.0, 4)
        walks = [live for live, _ in stream.calls]
        assert len(walks) > 1 and max(walks) * mp.chain.sparsity <= budget

    @pytest.mark.parametrize(
        "make",
        [
            _cycle8, _two_state, _random_reversible, _sparse_dyadic, _cycle4,
            _unvalidated_sparse_dyadic_2000,
        ],
        ids=["lazy-8-cycle", "two-state", "random-reversible", "sparse-dyadic-200",
             "lazy-4-cycle", "sparse-dyadic-2000"],
    )
    def test_step_table_equals_the_dense_one(self, make):
        # the dense table, padded with +inf thresholds to a power of two
        chain = make().chain
        targets, thresholds = markov._step_table(chain)
        row = targets.shape[1]
        assert row & (row - 1) == 0 and chain.sparsity <= row < 2 * chain.sparsity
        expected_targets, expected_thresholds = _dense_step_table(chain)
        assert np.array_equal(targets[:, : chain.sparsity], expected_targets)
        assert np.array_equal(thresholds[:, : chain.sparsity], expected_thresholds)
        assert np.all(thresholds[:, chain.sparsity :] == np.inf)


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class _BelowOneDraws:
    """A stream stand-in: `first` for every start draw (draw 0), and the
    largest double below 1 for every step."""

    def __init__(self, first: float = _BELOW_ONE):
        self._first = first

    def __call__(self, base, draw):
        draw = np.broadcast_to(draw, np.broadcast_shapes(base.shape, draw.shape))
        return np.where(draw == 0, self._first, _BELOW_ONE)


class _QuarterDraws:
    """A stream stand-in whose draws are multiples of 1/4: floor(4u) / 4 of
    the uniforms u that `uniforms` gives for the same arguments, (base, draw)
    for the stream and (seed, walk, draw) for the reference."""

    def __init__(self, uniforms):
        self._uniforms = uniforms

    def __call__(self, *args):
        return np.floor(self._uniforms(*args) * 4) / 4


def _walk_terms(seed, walks):
    """Each walk's stream term, mix64(seed) + (walk * 2^32 + 1) * gamma mod 2^64."""
    terms = [(_mix64_int(seed) + (w * 2**32 + 1) * 0x9E3779B97F4A7C15) & _MASK64 for w in walks]
    return np.array(terms, dtype=np.uint64)


class TestWalkStream:
    def test_seed_zero_walk_zero_reads_the_reference_outputs(self):
        # splitmix64.c from state 0
        golden = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [_splitmix_z(0, 0, d) for d in range(3)] == golden
        uniforms = markov.stream_uniforms(_walk_terms(0, [0]), np.arange(3, dtype=np.uint64))
        assert uniforms.tolist() == [(z >> 11) * 2.0**-53 for z in golden]

    @pytest.mark.parametrize("seed", [0, 1, 501, 2**63, 2**64 - 1])
    def test_array_stream_equals_the_scalar_one(self, seed):
        walks = [0, 1, 7, 2**31, 2**32 - 1]
        draws = [0, 1, 2, 10**6, 10**9 + 1]
        base = _walk_terms(seed, walks)[:, None]
        got = markov.stream_uniforms(base, np.array(draws, dtype=np.uint64)).tolist()
        assert got == [[_splitmix_uniform(seed, w, d) for d in draws] for w in walks]
        assert all(0.0 <= u < 1.0 for row in got for u in row)

    def test_consecutive_seeds_have_distinct_keys(self):
        seeds = np.arange(10**5, dtype=np.uint64)
        keys = markov._mix64(seeds)
        assert np.unique(keys).size == seeds.size
        assert [int(keys[s]) for s in (0, 1, 99_999)] == [_mix64_int(s) for s in (0, 1, 99_999)]

    def test_seed_beyond_64_bits_rejected(self, two_state):
        classical_mc_estimate(two_state, epsilon=0.5, seed=2**64 - 1)
        with pytest.raises(ValidationError, match=r"below 2\^64"):
            classical_mc_estimate(two_state, epsilon=0.5, seed=2**64)

    def test_walk_count_beyond_32_bits_rejected_before_any_walk(self, two_state, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a walk ran")

        monkeypatch.setattr(markov, "stream_uniforms", no_draws)
        # 16 * 2 / eps^2 = 1.28e10 walks
        with pytest.raises(ValidationError, match="walks exceed"):
            classical_mc_estimate(two_state, epsilon=5e-5, seed=0)
        # the first count past the 2^32 walk indices
        monkeypatch.setattr(markov, "chebyshev_sample_count", lambda *args: 2**32)
        with pytest.raises(ValidationError, match="walks exceed"):
            classical_mc_estimate(two_state, epsilon=0.5, seed=0)

    def test_step_cap_beyond_the_draw_field_rejected(self):
        # a chunk starts at a draw index of at most the cap + 1 and draws at
        # most _CHUNK_DRAWS rounds, and draw + 1 must stay below 2^32; both
        # are constants, so no run can set one past that
        assert MAX_TOTAL_WALK_STEPS + markov._CHUNK_DRAWS + 1 < 2**32


def _typed_by_cli(tmp_path, chain: dict) -> dict:
    """A chain object as the CLI's config reader types it, in an appendix-verify config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "appendix-verify", "chain": chain}))
    return cli.load_config(str(path))["chain"]


class TestChainJson:
    """Round trips call the library; malformed objects are typed at the CLI
    boundary, where a message names the field by its path."""

    def test_round_trip(self, rng):
        chain = random_reversible_chain(rng, 6)
        blob = chain_to_json(chain, [0, 2])
        back, marked = chain_from_json(blob)
        np.testing.assert_allclose(back.transition, chain.transition, atol=1e-15)
        assert mark_states(back, marked).marked == (0, 2)

    def test_malformed_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^chain\.entries\[0\] must be "):
            _typed_by_cli(tmp_path, {"n_states": 2, "entries": [[0, 0]], "marked": []})

    @pytest.mark.parametrize(
        "field, value", [("n_states", "x"), ("n_states", 2.5), ("entries", 5)],
        ids=["string-n-states", "fractional-n-states", "integer-entries"],
    )
    def test_unreadable_field_is_a_validation_error(self, tmp_path, field, value):
        blob = chain_to_json(symmetric_two_state(), [1])
        blob[field] = value
        with pytest.raises(ValidationError, match=rf"^chain\.{field} must be "):
            _typed_by_cli(tmp_path, blob)

    @pytest.mark.parametrize(
        "triplet",
        [["a", 0, 0.5], [0, 0, None], [1.7, 0, 0.5], [True, 0, 0.5], ["1", 0, "0.5"]],
        ids=["string-row", "null-probability", "fractional-row", "bool-row", "strings"],
    )
    def test_triplets_are_typed(self, tmp_path, triplet):
        # each stands in for [1, 0, 0.5], which the last three coerce to
        blob = chain_to_json(symmetric_two_state(), [1])
        i = blob["entries"].index([1, 0, 0.5])
        blob["entries"][i] = triplet
        message = rf"^chain\.entries\[{i}\] must be \[integer, integer, number\], got "
        with pytest.raises(ValidationError, match=message):
            _typed_by_cli(tmp_path, blob)

    def test_probability_past_the_double_range_rejected(self, tmp_path):
        blob = chain_to_json(symmetric_two_state(), [1])
        blob["entries"][0][2] = 10**400
        with pytest.raises(ValidationError, match="^chain.entries .*too large for a double"):
            _typed_by_cli(tmp_path, blob)

    def test_numpy_numbers_accepted(self):
        blob = chain_to_json(symmetric_two_state(), [1])
        blob["entries"] = [[np.int64(r), np.int64(c), np.float64(v)] for r, c, v in blob["entries"]]
        chain, _ = chain_from_json(blob)
        np.testing.assert_array_equal(chain.transition, symmetric_two_state().transition)

    def test_repeated_index_rejected(self):
        # the later value would otherwise overwrite the first without a word
        blob = chain_to_json(symmetric_two_state(), [1])
        blob["entries"].insert(0, [0, 0, 0.9])
        with pytest.raises(ValidationError, match="index repeats"):
            chain_from_json(blob)
