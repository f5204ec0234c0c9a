"""Golden ledgers: the four cost ledgers and the `appendix-verify` manifest,
pinned bit for bit.

Every entry and total is compared through `float.hex`, so any change in how a
closed form is evaluated (operand order included) shows up here. The inputs
are the `cost-sweep` defaults for the two theorem ledgers, the README's two
example configs for the pipeline ledgers, and a literal 4x4 matrix for the
thermal pipeline's matrix front door. The thermal pipeline's ledger is also
pinned as the `cost` object `gibbs` writes to summary.json, formulas and
value types included, and each theorem's pipeline and closed form are checked
to share their entry names and shared formulas. The manifest is pinned on the
README two-state chain, a seeded 80-state dyadic chain and an asymmetric
reversible chain.
"""

import math

import numpy as np
import pytest

from lculab import cli
from lculab.constants import DEFAULT_CONSTANTS
from lculab.cost import theorem1_cost, theorem2_cost
from lculab.gap_amplification import parse_pauli_lines
from lculab.gibbs import GibbsTask, prepare_gibbs
from lculab.inverse import HittingTimeTask, estimate_hitting_time
from lculab.markov import chain_from_json, mark_states, validate_chain
from lculab.operators import HermitianOperator
from lculab.sparse_chain import decomposition_manifest
from oracles import random_reversible_chain, random_sparse_dyadic_matrix

THEOREM1_DEFAULTS = {
    "C_B": "0x1.6dcf55202f73cp+1",
    "C_W": "0x1.79735e04f8ef9p+3",
    "amplification_rounds": "0x1.0000000000000p+1",
    "qubit_form": "0x1.8a56a1219e67ap+5",
    "state_prep": "0x1.8000000000000p+1",
    "total": "0x1.1a7399a682664p+5",
}
THEOREM2_DEFAULTS = {
    "C_B": "0x1.d82d33b32720dp+1",
    "C_U": "0x1.0000000000000p+0",
    "C_W": "0x1.bbea6bd1083f2p+11",
    "C_sqrt_pi": "0x1.0000000000000p+0",
    "ae_repetitions": "0x1.cf8eea5f07d67p+9",
    "total": "0x1.928f37c07d69cp+21",
}
README_GIBBS = {
    "C_B": "0x1.1d6753e032ea1p+2",
    "C_W": "0x1.a7ae7fad62e5dp+8",
    "amplification_rounds": "0x1.8000000000000p+1",
    "state_prep": "0x1.8000000000000p+1",
    "total": "0x1.435b15bdaac52p+10",
}
MATRIX_GIBBS = {
    "C_B": "0x1.0000000000000p+2",
    "C_W": "0x1.ff3ca32a54ee0p+7",
    "amplification_rounds": "0x1.0000000000000p+1",
    "state_prep": "0x1.0000000000000p+1",
    "total": "0x1.059e51952a770p+9",
}
# 2.3e-17 from the 40-digit `thermal_reference` on the run's eigenvalues and grid
MATRIX_GIBBS_TRACE_DIST = "0x1.bcd6e4b0973c0p-13"
# the thermal pipeline's formulas, as `gibbs` writes them to summary.json
GIBBS_FORMULAS = {
    "C_B": "coefficient state over 2J+1 nodes, log2 J gates",
    "C_W": "evolution gate model at t = y_J sqrt(beta), precision eps'",
    "amplification_rounds": "ceil(c/asin(a)) at the measured amplitude",
    "state_prep": "entangled-pair preparation, n two-qubit gates",
}
GIBBS_TOTAL_FORMULA = "rounds * (C_W + n + log2 J)"
# `to_json()` with floats through float.hex: the round and qubit counts stay ints
README_GIBBS_JSON = {
    "entries": {
        "C_B": {"value": README_GIBBS["C_B"], "formula": GIBBS_FORMULAS["C_B"]},
        "C_W": {"value": README_GIBBS["C_W"], "formula": GIBBS_FORMULAS["C_W"]},
        "amplification_rounds": {"value": 3, "formula": GIBBS_FORMULAS["amplification_rounds"]},
        "state_prep": {"value": 3, "formula": GIBBS_FORMULAS["state_prep"]},
    },
    "total": README_GIBBS["total"],
    "total_formula": GIBBS_TOTAL_FORMULA,
}
MATRIX_GIBBS_JSON = {
    "entries": {
        "C_B": {"value": MATRIX_GIBBS["C_B"], "formula": GIBBS_FORMULAS["C_B"]},
        "C_W": {"value": MATRIX_GIBBS["C_W"], "formula": GIBBS_FORMULAS["C_W"]},
        "amplification_rounds": {"value": 2, "formula": GIBBS_FORMULAS["amplification_rounds"]},
        "state_prep": {"value": 2, "formula": GIBBS_FORMULAS["state_prep"]},
    },
    "total": MATRIX_GIBBS["total"],
    "total_formula": GIBBS_TOTAL_FORMULA,
}
README_HITTING = {
    "C_B": "0x1.7f7427b73e391p+1",
    "C_U": "0x1.0000000000000p+0",
    "C_W": "0x1.6bdf7a1933376p+5",
    "C_sqrt_pi": "0x1.0000000000000p+0",
    "ae_repetitions": "0x1.7a00000000000p+8",
    "total": "0x1.2a258939bf5eep+14",
}

README_CHAIN = {
    "n_states": 2,
    "entries": [[0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5], [1, 1, 0.5]],
    "marked": [1],
}
# appendix-verify term weights: sqrt(2)/4 per color term, 1/4 per boundary term
COLOR_WEIGHT = "0x1.6a09e667f3bcdp-2"
BOUNDARY_WEIGHT = "0x1.0000000000000p-2"
README_MANIFEST = {
    "colors": 0,
    "terms": 4,
    "alpha_list": [BOUNDARY_WEIGHT] * 4,
    "reconstruction_residual": "0x1.0000000000000p-53",
}
DYADIC_80_MANIFEST = {
    "colors": 6,
    "terms": 28,
    "alpha_list": [COLOR_WEIGHT] * 24 + [BOUNDARY_WEIGHT] * 4,
    "reconstruction_residual": "0x1.0000000000000p-54",
}
REVERSIBLE_20_MANIFEST = {
    "colors": 5,
    "terms": 24,
    "alpha_list": [COLOR_WEIGHT] * 20 + [BOUNDARY_WEIGHT] * 4,
    "reconstruction_residual": "0x1.0000000000000p-53",
}


def _hex_ledger(report) -> dict:
    ledger = {name: float(entry.value).hex() for name, entry in report.entries.items()}
    ledger["total"] = float(report.total).hex()
    return ledger


def _hex_json(report) -> dict:
    """`report.to_json()` with each float value through `float.hex` and ints kept,
    so the comparison sees the value's type as well as its bits."""

    def exact(value):
        return value.hex() if isinstance(value, float) else value

    doc = report.to_json()
    for entry in doc["entries"].values():
        entry["value"] = exact(entry["value"])
    return {**doc, "total": exact(doc["total"])}


def _readme_gibbs():
    matrix, weights, _ = parse_pauli_lines("1.0 ZZI\n0.7 IZZ\n0.4 XIX\n0.3 IXI")
    task = GibbsTask(hamiltonian=HermitianOperator(matrix), beta=2.0, epsilon=0.05, weights=weights)
    return prepare_gibbs(task)


def _readme_hitting():
    chain, marked = chain_from_json(README_CHAIN)
    mp = mark_states(chain, marked)
    task = HittingTimeTask(partition=mp, epsilon=0.1, confidence=8 / math.pi**2)
    return estimate_hitting_time(task, seed=7)


def test_theorem1_at_cost_sweep_defaults():
    # the `gibbs` cost-sweep model: a linear spectrum on [0, 1], N = 8, beta 4, eps 0.1
    z = float(np.sum(np.exp(-4.0 * np.linspace(0.0, 1.0, 8))))
    assert _hex_ledger(theorem1_cost(8, z, 4.0, 0.1, norm_bound=1.0)) == THEOREM1_DEFAULTS


def test_theorem2_at_cost_sweep_defaults():
    assert _hex_ledger(theorem2_cost(0.25, 0.1, 3.0, 32.0)) == THEOREM2_DEFAULTS


def test_prepare_gibbs_on_readme_config():
    cost = _readme_gibbs().cost
    assert _hex_ledger(cost) == README_GIBBS
    assert _hex_json(cost) == README_GIBBS_JSON


def test_prepare_gibbs_on_matrix_config():
    # spectrum {0, 1, 1.25, 3} with complex entries; the zero eigenvalue is
    # dropped from the presentation, so the ledger prices K = 3 terms
    spec = {
        "matrix": {
            "dim": 4,
            "re": [2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.25],
            "im": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.5, 0.0],
        }
    }
    h, weights = cli._hamiltonian_from_config(spec)
    result, _ = cli._thermal_point(h, weights, 2.0, 0.05, DEFAULT_CONSTANTS)
    assert _hex_ledger(result.cost) == MATRIX_GIBBS
    assert _hex_json(result.cost) == MATRIX_GIBBS_JSON
    assert float(result.trace_dist).hex() == MATRIX_GIBBS_TRACE_DIST


def test_estimate_hitting_time_on_readme_config():
    assert _hex_ledger(_readme_hitting().cost) == README_HITTING


@pytest.mark.parametrize(
    "pipeline, closed_form, shared",
    [
        (
            lambda: _readme_gibbs().cost,
            lambda: theorem1_cost(8, 4.0, 4.0, 0.1, norm_bound=1.0),
            ["state_prep", "C_B"],
        ),
        (
            lambda: _readme_hitting().cost,
            lambda: theorem2_cost(0.25, 0.1, 3.0, 32.0),
            ["C_U", "C_sqrt_pi", "C_B"],
        ),
    ],
    ids=["theorem1", "theorem2"],
)
def test_pipeline_and_closed_form_share_one_ledger(pipeline, closed_form, shared):
    # the closed form may list extra entries (Theorem 1's qubit_form), never fewer
    run, formula = pipeline(), closed_form()
    assert set(run.entries) <= set(formula.entries)
    assert set(formula.entries) - set(run.entries) <= {"qubit_form"}
    for name in shared:
        assert run.entries[name].formula == formula.entries[name].formula, name
    assert run.total_formula == formula.total_formula


def _hex_manifest(chain, marked) -> dict:
    manifest = decomposition_manifest(mark_states(chain, marked))
    return {
        "colors": manifest["colors"],
        "terms": manifest["terms"],
        "alpha_list": [float(alpha).hex() for alpha in manifest["alpha_list"]],
        "reconstruction_residual": float(manifest["reconstruction_residual"]).hex(),
    }


def test_appendix_manifest_on_readme_chain():
    assert _hex_manifest(*chain_from_json(README_CHAIN)) == README_MANIFEST


def test_appendix_manifest_on_dyadic_80_chain():
    p = random_sparse_dyadic_matrix(np.random.default_rng(80), 80, degree=4)
    assert _hex_manifest(validate_chain(p), [0, 17, 53]) == DYADIC_80_MANIFEST


def test_appendix_manifest_on_asymmetric_chain():
    chain = random_reversible_chain(np.random.default_rng(12), 20, max_degree=4)
    assert np.max(np.abs(chain.transition - chain.transition.T)) > 0.1
    assert _hex_manifest(chain, [3, 11]) == REVERSIBLE_20_MANIFEST
