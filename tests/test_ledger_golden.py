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
reversible chain. The calibrated grids both ledgers read are pinned too:
y-grids from a seeded sweep of `calibrate_hs_grid`, and the inverse grids of
the lazy cycles and the CI `lemma2-sweep` points.
"""

import math

import numpy as np
import pytest

from lculab import cli
from lculab.constants import DEFAULT_CONSTANTS
from lculab import gibbs
from lculab.cost import theorem1_cost, theorem2_cost
from lculab.errors import CalibrationError
from lculab.gap_amplification import parse_pauli_lines
from lculab.gibbs import GibbsTask, calibrate_hs_grid, prepare_gibbs
from lculab.inverse import HittingTimeTask, calibrate_inverse_grid, estimate_hitting_time
from lculab.markov import chain_from_json, lazy_cycle, mark_states, validate_chain
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


# calibrate_hs_grid(norm, beta, eps') -> (J, delta_y, kernel calls), or the
# roundoff stop's message. Drawn from 600 calls at default_rng(0), each
# drawing norm 10^U(-2, 2), beta 10^U(-2, 4) and eps' 10^U(-16, -1) in turn:
# four grids accepted on the closed-form interval alone, five settled by one
# kernel call, and three targets below float64's resolution.
HS_GRIDS = {
    "bound-484": ((0.18769420005625026, 0.020792864772360604, 0.08862535369276861),
                  (8, "0x1.48e63c657588bp-2", 0)),
    "bound-8": ((2.894279349282436, 2.0047735580877157, 0.09081321204123737),
                (9, "0x1.1276f3c06fbf8p-2", 0)),
    "bound-213": ((10.61373992010266, 0.05042413400827574, 5.130011114889714e-13),
                  (85, "0x1.80fd2b6168ab5p-4", 0)),
    "bound-24": ((0.5774423323278052, 5340.020965812331, 3.1509187555881445e-09),
                 (1631, "0x1.0abed177a0edap-8", 0)),
    "kernel-270": ((0.05315586056676334, 6.575921447088688, 0.07629890373415857),
                   (8, "0x1.3f2f40d61de55p-2", 1)),
    "kernel-149": ((0.801271102542066, 0.3545246202222939, 2.1980229408552784e-14),
                   (95, "0x1.6d32d55bc75dbp-4", 1)),
    "kernel-57": ((95.42658730564736, 0.7864321729971159, 5.5040919930153974e-14),
                  (397, "0x1.5648a12a520c5p-6", 1)),
    "kernel-490": ((0.13983313706558095, 670.4017804656951, 6.497476584664102e-14),
                   (441, "0x1.33166bf02ff66p-6", 1)),
    "kernel-34": ((16.12583882823954, 3476.810004842601, 9.816441535862317e-13),
                  (9821, "0x1.a516e03614180p-11", 1)),
    "roundoff-336": ((0.015775271080513853, 0.39663822179212294, 9.844138676449197e-16),
                     "node grid failed to reach 4.430e-16: at delta_y=0.0851, J=104 the kernel "
                     "errs by 4.441e-16 with a discretization bound of 9.064e-19, so its "
                     "roundoff misses the target"),
    "roundoff-0": ((3.5305856304085927, 0.41564281988291657, 4.1172084842135977e-16),
                   "node grid failed to reach 1.853e-16: at delta_y=0.084, J=107 the kernel "
                   "errs by 4.441e-16 with a discretization bound of 2.504e-19, so its "
                   "roundoff misses the target"),
    "roundoff-6": ((0.15806931168292107, 3.4365552236420367, 2.6594698256711817e-16),
                   "node grid failed to reach 1.197e-16: at delta_y=0.0835, J=108 the kernel "
                   "errs by 3.331e-16 with a discretization bound of 1.931e-19, so its "
                   "roundoff misses the target"),
}
# calibrate_inverse_grid(delta, eps) -> (K, delta_z, J, delta_y): the lazy 8-
# and 16-cycles marked at state 0 (delta = None: the partition's gap) and the
# CI lemma2-sweep points; (0.5, 0.2) is the one whose round the filter decides
INVERSE_GRIDS = {
    "lazy-8-cycle": ((8, 0.1), (5856, "0x1.999999999999ap-5", 315, "0x1.cbbc934acdaa2p-7")),
    "lazy-16-cycle": ((16, 0.1), (28928, "0x1.999999999999ap-5", 829, "0x1.7c2c49d4917b0p-8")),
    "delta-0.5-eps-0.2": ((0.5, 0.2), (93, "0x1.999999999999ap-4", 30, "0x1.be18f6ab96c08p-4")),
    "delta-0.5-eps-0.1": ((0.5, 0.1), (240, "0x1.999999999999ap-5", 41, "0x1.6523e3d6617f4p-4")),
    "delta-0.25-eps-0.2": ((0.25, 0.2), (240, "0x1.999999999999ap-4", 57, "0x1.f9128fdf6c932p-5")),
    "delta-0.25-eps-0.1": ((0.25, 0.1), (591, "0x1.999999999999ap-5", 74, "0x1.a5d125f0a44dfp-5")),
}


@pytest.mark.parametrize("name", list(HS_GRIDS))
def test_hs_grid_calibration(monkeypatch, name):
    calls = []

    def counting(a, delta_y, j_max, _original=gibbs.gaussian_cosine_series):
        calls.append(np.shape(a))
        return _original(a, delta_y, j_max)

    monkeypatch.setattr(gibbs, "gaussian_cosine_series", counting)
    args, pinned = HS_GRIDS[name]
    if isinstance(pinned, str):
        with pytest.raises(CalibrationError) as err:
            calibrate_hs_grid(*args)
        assert str(err.value) == pinned
    else:
        grid = calibrate_hs_grid(*args)
        assert (grid.j_max, grid.delta_y.hex(), len(calls)) == pinned
        assert grid.beta == args[1]


@pytest.mark.parametrize("name", list(INVERSE_GRIDS))
def test_inverse_grid_calibration(name):
    (delta, eps), pinned = INVERSE_GRIDS[name]
    if name.startswith("lazy"):
        delta = mark_states(lazy_cycle(delta), [0]).delta
    grid = calibrate_inverse_grid(delta, eps)
    assert (grid.k_max, grid.delta_z.hex(), grid.j_max, grid.delta_y.hex()) == pinned
