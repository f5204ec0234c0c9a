"""The pipelines' sector evaluation against the enlarged-space oracle.

`prepare_gibbs` and `t_circuit_expectation` evaluate the certified filters on
the spectrum of H. Here the same combinations are built over evolutions of the
gap-amplified operator (`hs_lcu`, `inverse_lcu`) and applied to the lifted
inputs: the two must agree to roundoff, and the oracle's image must have no
component outside ancilla 0.
"""

import math
import warnings

import numpy as np
import pytest

from lculab.errors import PreconditionWarning, ValidationError
from lculab.gibbs import GibbsTask, prepare_gibbs
from lculab.inverse import (
    HittingTimeTask,
    calibrate_inverse_grid,
    estimate_hitting_time,
    t_circuit_expectation,
)
from lculab.markov import mark_states
from lculab.operators import HermitianOperator
from oracles import (
    ProjectorDecomposition,
    StateVector,
    ancilla_zero_block,
    build_tilde_h,
    extended_lcu_state,
    hs_lcu,
    inverse_lcu,
    psd_split,
    random_projector,
    random_reversible_chain,
    symmetric_two_state,
)

SEED = 20261018
TOL = 1e-12


def _leakage(g, image) -> float:
    """Largest entry of the image outside the ancilla-0 sector."""
    outside = np.ones(g.dim, dtype=bool)
    outside[g.sector_indices()] = False
    return float(np.max(np.abs(image[outside])))


def test_gibbs_matches_enlarged_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(8):
        dim = int(rng.integers(2, 9))
        terms = tuple(
            (float(rng.uniform(0.1, 1.0)), random_projector(rng, dim, int(rng.integers(1, dim + 1))))
            for _ in range(int(rng.integers(1, 5)))
        )
        decomposition = ProjectorDecomposition(dim=dim, terms=terms)
        h = HermitianOperator(decomposition.sum_matrix())
        beta = float(rng.uniform(4.0, 8.0)) / h.spectral_norm
        task = GibbsTask(hamiltonian=h, beta=beta, epsilon=0.05, weights=decomposition.weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            res = prepare_gibbs(task)

        # The oracle: the Hubbard-Stratonovich sum over evolutions of H~ acting
        # on half of a maximally entangled pair, one column per partner index.
        g = build_tilde_h(decomposition)
        combo = hs_lcu(res.grid, g)
        columns = np.zeros((g.dim, dim), dtype=complex)
        columns[g.sector_indices(), np.arange(dim)] = 1.0 / math.sqrt(dim)
        image = combo.apply_sum(columns)
        assert _leakage(g, image) <= TOL
        joint_norm = float(np.linalg.norm(image))
        blocks = image.reshape(dim, g.ancilla_dim, dim)
        rho = np.einsum("iak,jak->ij", blocks, blocks.conj()) / joint_norm**2
        assert np.max(np.abs(res.prepared_density.matrix - rho)) <= TOL
        assert res.success_amplitude == pytest.approx(joint_norm / combo.gamma_total, rel=TOL)


def test_hitting_matches_enlarged_oracle():
    rng = np.random.default_rng(SEED + 1)
    # One grid at a shared spectral lower bound serves every chain.
    grid = calibrate_inverse_grid(0.05, 0.2)
    checked = 0
    while checked < 8:
        n = int(rng.integers(3, 10))
        marked = rng.choice(n, size=int(rng.integers(max(1, n - 8), n)), replace=False)
        try:
            mp = mark_states(random_reversible_chain(rng, n), marked)
        except ValidationError:
            continue
        if mp.delta < grid.delta_lower:
            continue
        assert mp.n_unmarked <= 8
        task = HittingTimeTask(partition=mp, epsilon=0.2, delta_lower=grid.delta_lower)
        res = estimate_hitting_time(task, seed=checked)
        assert task.grid == grid

        g = build_tilde_h(psd_split(mp.h_matrix))
        combo = inverse_lcu(task.grid, g)
        state = g.embed_sector_state(mp.sqrt_pi_u)
        image = combo.apply_sum(state)
        assert _leakage(g, image) <= TOL
        oracle = mp.pi_u * float(np.real(np.vdot(state, image))) / combo.gamma_total
        assert res.exact_amplitude == pytest.approx(oracle, rel=TOL)
        checked += 1


def test_dilation_block_matches_sector_value():
    # the materialized coefficient-state dilation's ancilla-0 block carries
    # the same expectation as the sector evaluation
    mp = mark_states(symmetric_two_state(), [1])
    grid = calibrate_inverse_grid(mp.delta, 0.35)  # coarse grid keeps the term count small
    g = build_tilde_h(psd_split(mp.h_matrix))
    combo = inverse_lcu(grid, g)
    state = g.embed_sector_state(mp.sqrt_pi_u)
    dilated = extended_lcu_state(combo, StateVector(state))
    block = ancilla_zero_block(dilated, combo.dim, combo.n_terms)
    value = mp.pi_u * float(np.real(np.vdot(state, block)))
    assert value == pytest.approx(t_circuit_expectation(grid, mp), rel=1e-9)
