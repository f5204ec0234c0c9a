import contextlib
import copy
import json
import math
import re
import shutil
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lculab import cli, markov, operators
from lculab.cli import main
from lculab.errors import ValidationError
from lculab.markov import lazy_cycle
from oracles import (
    _SCHEMAS, chain_to_json, random_reversible_matrix, random_sparse_dyadic_chain, schema_accepts,
    symmetric_two_state,
)


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _two_state_chain_json():
    return chain_to_json(symmetric_two_state(), [1])


_PAULI_GIBBS = {"command": "gibbs", "hamiltonian": {"pauli": "1.0 Z"}, "beta": 1.0, "epsilon": 0.1}
_PAULI_GIBBS_SWEEP = {
    "command": "lemma1-sweep", "hamiltonian": {"pauli": "1.0 Z"}, "betas": [1.0], "epsilons": [0.1],
}
# The 3-qubit open TFIM of the CI hash-seed step.
_TFIM_3 = "-1.0 ZZI\n-1.0 IZZ\n-0.7 XII\n-0.8 IXI\n-0.9 IIX"
_GIBBS_COST_SWEEP = {"command": "cost-sweep", "model": "gibbs", "sweep_var": "beta", "values": [1.0]}
_COST_SWEEP_ERRORS = [
    ("hitting-quantum", "delta", {"d": "x"}),
    ("hitting-quantum", "delta", {"n_sates": 32}),
    ("gibbs", "beta", {"delta": 0.2}),
    ("hitting-quantum", "beta", {}),
    ("hitting-classical", "beta", {}),
    ("gibbs", "delta", {}),
    ("gibbs", "beta", {"n_dim": 8.7}),
    ("hitting-classical", "epsilon", {"n_states": 16.5}),
]
_COST_SWEEP_IDS = [
    "non-number", "unknown-key", "key-of-another-model", "hq-beta", "hc-beta",
    "gibbs-delta", "fractional-n_dim", "fractional-n_states",
]
_BAD_TRIPLETS = [
    ["a", 0, 0.5], [None, 0, 0.5], [0, 0, None], [0.7, 0, 0.5], [0, 0, "0.5"],
    [0, 1], [0, 1, 0.5, 2], "x", {},
]
_BAD_TRIPLET_IDS = [
    "string-row", "null-row", "null-probability", "fractional-row", "string-probability",
    "short", "long", "string-entry", "object-entry",
]
_BAD_NUMBERS = ["0.5", True, None, [0.0]]


def _chain_config(**chain):
    return {"command": "hitting", "chain": {**_two_state_chain_json(), **chain}, "epsilon": 0.1}


def _entries_with(i, entry):
    entries = _two_state_chain_json()["entries"]
    entries[i] = entry
    return entries


def _matrix_config(**matrix):
    base = {"dim": 2, "re": [0.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
    hamiltonian = {"matrix": {**base, **matrix}}
    return {"command": "gibbs", "hamiltonian": hamiltonian, "beta": 1.0, "epsilon": 0.1}


# Per malformed chain, matrix or cost-sweep `fixed` object: the exit code and a
# piece of the message, which names the field by its path.
_WIRE_ERRORS = [
    (_chain_config(entries=_entries_with(0, ["a", 0, 0.5])), 1,
     "config error: chain.entries[0] must be [integer, integer, number], got ['a', 0, 0.5]"),
    (_chain_config(entries=_entries_with(1, [0, 1])), 1, "config error: chain.entries[1] must be"),
    (_chain_config(entries=_entries_with(2, [0, 1, 0.5, 2])), 1,
     "config error: chain.entries[2] must be"),
    (_chain_config(entries=_entries_with(0, [0, 0, 10**400])), 1,
     "config error: chain.entries holds a number too large for a double"),
    (_chain_config(entries=_entries_with(0, [10**400, 0, 0.5])), 3,
     "validation failure: triplet index out of range"),
    (_chain_config(entries=[]), 3, "validation failure: columns must sum to 1"),
    (_chain_config(marked=[0.5]), 1, "config error: chain.marked[0] must be an integer, got 0.5"),
    (_chain_config(marked=[]), 3, "validation failure: marked set must be nonempty"),
    (_chain_config(stay=0.5), 1, "config error: unknown fields ['stay']; chain takes"),
    ({"command": "appendix-verify", "chain": {"n_states": 2, "entries": []}}, 1,
     "config error: missing fields ['marked']; chain needs them"),
    (_chain_config(n_states="2"), 1, "config error: chain.n_states must be an integer"),
    (_matrix_config(re=[0.0, "a", 0.0, 1.0]), 1,
     "config error: hamiltonian.matrix.re[1] must be a number, got 'a'"),
    (_matrix_config(re=[0.0, 10**400, 0.0, 1.0]), 1,
     "config error: hamiltonian.matrix.re holds a number too large for a double"),
    (_matrix_config(re=[0.0, 0.0, 1.0]), 3,
     "validation failure: matrix JSON entry count does not match dim*dim"),
    (_matrix_config(dim=0), 1, "config error: hamiltonian.matrix.dim must be an integer"),
    ({**_GIBBS_COST_SWEEP, "fixed": {"n_sates": 8}}, 1,
     "config error: unknown fields ['n_sates']; fixed takes"),
    ({**_GIBBS_COST_SWEEP, "fixed": {"n_dim": 8.5}}, 1,
     "config error: fixed.n_dim must be an integer"),
]
_WIRE_ERROR_IDS = [
    "bad-triplet", "short-triplet", "long-triplet", "huge-probability", "huge-index",
    "empty-entries", "float-marked", "empty-marked", "unknown-chain-key", "missing-chain-key",
    "string-n_states", "bad-re", "huge-re", "entry-count", "dim-0", "unknown-fixed-key",
    "fractional-fixed-key",
]


@pytest.fixture
def one_qubit_matrix():
    return {"dim": 2, "re": [0.0, 0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0, 0.0]}


class TestGibbsCommand:
    def test_summary_meets_tolerance(self, tmp_path, one_qubit_matrix):
        config = _write_config(
            tmp_path,
            {
                "command": "gibbs",
                "hamiltonian": {"matrix": one_qubit_matrix},
                "beta": 8.0,
                "epsilon": 0.05,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["trace_dist"] <= 0.05
        assert summary["rounds"] >= 1
        for key in ("eps_prime", "J", "delta_y", "success_amp", "total_gate_model"):
            assert key in summary

    def test_precondition_violation_exits_two(self, tmp_path, one_qubit_matrix):
        config = _write_config(
            tmp_path,
            {
                "command": "gibbs",
                "hamiltonian": {"matrix": one_qubit_matrix},
                "beta": 1.0,
                "epsilon": 0.3,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 2
        summary = (tmp_path / "out" / "summary.json").read_text()
        assert (
            '  "precondition_warnings": [\n'
            '    "outside the stated validity window: norm*beta = 1 (want >= 4), '
            'ln(1/eps\') = 2.09 (want >= 4)"\n'
            '  ],\n'
        ) in summary

    def test_nan_z_lower_bound_exits_three(self, tmp_path, capsys):
        # json reads the NaN literal, and the (0, inf] reader lets NaN through
        payload = {**_PAULI_GIBBS, "mode": "oracle-free", "z_lower_bound": math.nan}
        config = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        assert main(["--config", config]) == 3
        err = capsys.readouterr().err
        assert "validation failure: oracle-free mode needs a positive z_lower_bound" in err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_non_psd_matrix_exits_three(self, tmp_path):
        matrix = {"dim": 2, "re": [-1.0, 0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0, 0.0]}
        config = _write_config(
            tmp_path,
            {
                "command": "gibbs",
                "hamiltonian": {"matrix": matrix},
                "beta": 2.0,
                "epsilon": 0.1,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 3
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"command": "gibbs", "beta": 8.0, "epsilon": 0.05},
            {"command": "lemma1-sweep", "betas": [6.0, 8.0], "epsilons": [0.05]},
        ],
    )
    def test_matrix_input_builds_no_projector(self, tmp_path, payload):
        # no projector type is left in the package to build; this keeps the
        # matrix front door's runs and their outputs
        matrix = {"dim": 3, "re": [2.0, 1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.5], "im": [0.0] * 9}
        config = _write_config(
            tmp_path,
            {**payload, "hamiltonian": {"matrix": matrix}, "out": str(tmp_path / "out")},
        )
        assert main(["--config", config]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("beta", [1e50, 1e308])
    def test_huge_beta_is_a_calibration_error(self, tmp_path, capsys, beta):
        # the node grid needs more nodes than the cap, or its spacing underflows to 0
        payload = {"command": "gibbs", "hamiltonian": {"pauli": "1.0 Z"}, "beta": beta}
        config = _write_config(tmp_path, {**payload, "epsilon": 0.1, "out": str(tmp_path / "out")})
        assert main(["--config", config]) == 3
        assert "run failed: node grid" in capsys.readouterr().err

    def test_pauli_run_takes_one_eigendecomposition(self, tmp_path, monkeypatch):
        # the trace distance is read off the spectrum of H, so the one eigh of
        # H serves the whole run and no density matrix is diagonalized
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        payload = {"command": "gibbs", "hamiltonian": {"pauli": "1.0 ZZI\n0.7 IZZ\n0.4 XIX\n0.3 IXI"}}
        config = _write_config(
            tmp_path, {**payload, "beta": 2.0, "epsilon": 0.05, "out": str(tmp_path / "out")}
        )
        assert main(["--config", config]) == 0
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_ten_qubit_tfim(self, tmp_path):
        n = 10
        lines = [f"1.0 {'I' * i}ZZ{'I' * (n - i - 2)}" for i in range(n - 1)]
        lines += [f"0.7 {'I' * i}X{'I' * (n - i - 1)}" for i in range(n)]
        config = _write_config(
            tmp_path,
            {
                "command": "gibbs",
                "hamiltonian": {"pauli": "\n".join(lines)},
                "beta": 2.0,
                "epsilon": 0.05,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["trace_dist"] <= 0.05

    @pytest.mark.parametrize("n_qubits", [13, 20])
    def test_pauli_word_over_cap_exits_three(self, tmp_path, capsys, n_qubits):
        payload = {"command": "gibbs", "hamiltonian": {"pauli": "1.0 " + "Z" * n_qubits}}
        config = _write_config(
            tmp_path, {**payload, "beta": 2.0, "epsilon": 0.05, "out": str(tmp_path / "out")}
        )
        assert main(["--config", config]) == 3
        assert f"dimension {2**n_qubits} exceeds cap 4096" in capsys.readouterr().err

    def test_pauli_input(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "gibbs",
                "hamiltonian": {"pauli": "1.0 Z\n1.0 I"},
                "beta": 4.0,
                "epsilon": 0.1,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0


class TestHittingCommand:
    def test_result_schema_and_value(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "hitting",
                "chain": _two_state_chain_json(),
                "epsilon": 0.1,
                "seed": 7,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert abs(result["t_hat"] - 1.0) <= 0.4
        assert result["t_exact"] == pytest.approx(1.0)
        for key in ("C_W", "C_U", "C_sqrt_pi", "C_B", "total"):
            assert key in result["cost_breakdown"]

    def test_oracle_free_mode_needs_bound(self, tmp_path):
        base = {
            "command": "hitting",
            "chain": _two_state_chain_json(),
            "epsilon": 0.1,
            "mode": "oracle-free",
            "out": str(tmp_path / "out"),
        }
        config = _write_config(tmp_path, base, "missing.json")
        assert main(["--config", config]) == 3
        config = _write_config(
            tmp_path, {**base, "delta_lower_bound": 0.25}, "bounded.json"
        )
        assert main(["--config", config]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert abs(result["t_hat"] - 1.0) <= 0.4

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_lower_bounds_end_with_an_exit_code(self, tmp_path, capsys, data):
        # gibbs on "1.0 Z" (exit 0 in desk mode) and hitting on the two-state
        # chain, at every bound the (0, inf] reader takes, NaN among them.
        # Desk mode ignores the bound; an oracle-free run that writes its
        # summary had a bound at most the exact Z.
        command, name, base = data.draw(st.sampled_from([
            ("gibbs", "z_lower_bound", {**_PAULI_GIBBS, "beta": 4.0, "epsilon": 0.01}),
            ("hitting", "delta_lower_bound",
             {"command": "hitting", "chain": _TWO_STATE, "epsilon": 0.1}),
        ]))
        mode = data.draw(st.sampled_from(["desk", "oracle-free"]))
        # doubles across (0, 1e308], and often below 2, near Z = 1.0003 and Delta = 0.5
        doubles = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
        near = st.floats(min_value=0.0, max_value=2.0, exclude_min=True)
        bound = data.draw(st.none() | st.sampled_from([math.nan, math.inf]) | doubles | near)
        # Oracle-free hitting leaves [1e-10, 1e-4) out. On the two-state chain
        # every bound tried there, from 1e-10 to 8e-5, exits 3 within 0.35 s
        # on a 2-core host, except 1e-8: it takes 1.6-5 s before the work
        # budget stops its grid at K = 2.07e10. The window stays until the
        # budget is counted in table arguments. From 1e-4 up a run ends
        # within 1.5 s.
        assume(command == "gibbs" or mode == "desk" or not 1e-10 <= (bound or 0) < 1e-4)
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        payload = {**base, "mode": mode, "out": str(out)}
        if bound is not None:
            payload[name] = bound
        code = main(["--config", _write_config(tmp_path, payload)])
        assert code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        if command == "gibbs" and mode == "oracle-free" and code != 3:
            summary = json.loads((out / "summary.json").read_text())
            assert bound <= summary["partition_function"] * (1 + 1e-12)

    def test_non_reversible_chain_exits_three(self, tmp_path):
        bad = {
            "n_states": 3,
            "entries": [
                [0, 0, 0.5], [1, 0, 0.4], [2, 0, 0.1],
                [0, 1, 0.1], [1, 1, 0.5], [2, 1, 0.4],
                [0, 2, 0.4], [1, 2, 0.1], [2, 2, 0.5],
            ],
            "marked": [0],
        }
        config = _write_config(
            tmp_path,
            {"command": "hitting", "chain": bad, "epsilon": 0.1, "out": str(tmp_path / "o")},
        )
        assert main(["--config", config]) == 3


    def test_run_takes_two_solves_and_one_eigendecomposition(self, tmp_path, monkeypatch):
        # H_U is built and diagonalized once, and the partition's one resolvent
        # solve serves the exact hitting time, the variance and the sample
        # count; the variance's second solve makes two
        calls = {"solve": 0, "eigh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        payload = {"command": "hitting", "chain": chain_to_json(lazy_cycle(8), [0]), "epsilon": 0.1}
        config = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        assert main(["--config", config]) == 0
        assert calls == {"solve": 2, "eigh": 1}

    def test_unmarked_block_over_cap_rejected_before_allocation(self, tmp_path, capsys):
        chain = {"n_states": 4098, "entries": [], "marked": [0]}
        config = _write_config(
            tmp_path,
            {"command": "hitting", "chain": chain, "epsilon": 0.1, "out": str(tmp_path / "o")},
        )
        assert main(["--config", config]) == 3
        assert "4098 states exceed cap 4096" in capsys.readouterr().err

    def test_filter_past_the_work_budget_exits_three(self, tmp_path, capsys):
        # the lazy 64-cycle's gap, 6.0e-4, asks K = 645,383 z-nodes on 63
        # eigenvalues: a 325 MB argument array, never allocated
        payload = {"command": "hitting", "chain": chain_to_json(lazy_cycle(64), [0]),
                   "epsilon": 0.1, "out": str(tmp_path / "o")}
        tracemalloc.start()
        try:
            assert main(["--config", _write_config(tmp_path, payload)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "past the budget" in capsys.readouterr().err
        assert peak < 50 * 2**20
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("command", ["hitting", "appendix-verify"])
    def test_chain_over_cap_rejected_whatever_its_unmarked_block(self, tmp_path, capsys, command):
        # one unmarked state, but the N x N matrix would still be built
        n = operators.DIMENSION_CAP + 1
        chain = {"n_states": n, "entries": [], "marked": list(range(1, n))}
        payload = {"command": command, "chain": chain, "out": str(tmp_path / "o")}
        if command == "hitting":
            payload["epsilon"] = 0.1
        config = _write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            assert main(["--config", config]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{n} states exceed cap 4096" in capsys.readouterr().err
        assert peak < n * n

    @pytest.mark.parametrize(
        "chain, marked", [(lazy_cycle(8), [0]), (symmetric_two_state(), [1])], ids=["cycle", "readme"]
    )
    def test_t_exact_is_the_resolvent_form(self, tmp_path, chain, marked):
        # the written t_exact is the resolvent closed form, bit for bit
        payload = {"command": "hitting", "chain": chain_to_json(chain, marked), "epsilon": 0.1,
                   "out": str(tmp_path / "out")}
        assert main(["--config", _write_config(tmp_path, payload)]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        mp = markov.mark_states(chain, marked)
        assert result["t_exact"] == markov.exact_hitting_time_resolvent(mp)


class TestAppendixVerify:
    def test_manifest(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "appendix-verify",
                "chain": _two_state_chain_json(),
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["reconstruction_residual"] <= 1e-10
        assert manifest["terms"] == len(manifest["alpha_list"])

    def test_runs_past_the_old_enlarged_cap(self, tmp_path):
        # N * (colors + 2) is about 8000, over the 4096 cap that the enlarged
        # space once had; the cap now applies to N, and nothing enlarged is built
        chain = random_sparse_dyadic_chain(np.random.default_rng(7), 1000, degree=4)
        config = _write_config(
            tmp_path,
            {
                "command": "appendix-verify",
                "chain": chain_to_json(chain, [0, 1, 2]),
                "out": str(tmp_path / "out"),
            },
        )
        tracemalloc.start()
        try:
            assert main(["--config", config]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 1000 * (manifest["colors"] + 2) > 4096
        assert manifest["reconstruction_residual"] <= 1e-10
        assert peak < 150e6

    @pytest.mark.parametrize("marked", [[99], [-1]])
    def test_out_of_range_marked_exits_three(self, tmp_path, marked):
        chain = chain_to_json(lazy_cycle(3, 0.5), marked)
        config = _write_config(
            tmp_path,
            {"command": "appendix-verify", "chain": chain, "out": str(tmp_path / "out")},
        )
        assert main(["--config", config]) == 3
        assert not (tmp_path / "out" / "manifest.json").exists()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_chains_the_reader_takes_end_with_an_exit_code(self, tmp_path, capsys, data):
        # 2 to 12 states: a random lazy reversible chain's triplets, some of
        # them dropped, moved to an index in or out of range, or given a
        # probability that is zero, negative, or a few ulps or parts in 1e9
        # off the chain's, and a marked set in or out of range
        n = data.draw(st.integers(2, 12))
        p = random_reversible_matrix(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
        entries = [[int(r), int(c), float(p[r, c])] for r, c in zip(*np.nonzero(p))]
        index = st.integers(-2, n + 1)
        edits = st.lists(st.tuples(
            st.integers(0, len(entries) - 1),
            st.sampled_from(["drop", "row", "col", "zero", "negative", "ulps", "scale"]),
            index, st.integers(-8, 8), st.floats(-1e-9, 1e-9),
        ), max_size=4)
        dropped = set()
        for i, kind, where, ulps, scale in data.draw(edits):
            entry = entries[i]
            if kind == "drop":
                dropped.add(i)
            elif kind in ("row", "col"):
                entry[kind == "col"] = where
            elif kind == "zero":
                entry[2] = 0.0
            elif kind == "negative":
                entry[2] = -abs(entry[2])
            elif kind == "ulps":
                entry[2] += ulps * math.ulp(entry[2])
            else:
                entry[2] *= 1.0 + scale
        entries = [e for i, e in enumerate(entries) if i not in dropped]
        marked = data.draw(st.just([0]) | st.lists(index, max_size=n + 1))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        payload = {"command": "appendix-verify", "out": str(out),
                   "chain": {"n_states": n, "entries": entries, "marked": marked}}
        code = main(["--config", _write_config(tmp_path, payload)])
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "manifest.json").exists() == (code == 0)


class TestSweeps:
    def test_matrix_lemma1_sweep_takes_one_eigendecomposition(
        self, tmp_path, one_qubit_matrix, monkeypatch
    ):
        # the sweep decomposes H once: its cached eigensystem serves the split
        # weights, and the task's checks and prepare_gibbs at every point
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        config = _write_config(
            tmp_path,
            {
                "command": "lemma1-sweep",
                "hamiltonian": {"matrix": one_qubit_matrix},
                "betas": [6.0, 8.0],
                "epsilons": [0.02, 0.05],
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        assert len(calls) == 1

    def test_lemma1_sweep_csv_columns(self, tmp_path, one_qubit_matrix):
        config = _write_config(
            tmp_path,
            {
                "command": "lemma1-sweep",
                "hamiltonian": {"matrix": one_qubit_matrix},
                "betas": [6.0, 8.0],
                "epsilons": [0.02],
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        header = (tmp_path / "out" / "lemma1_sweep.csv").read_text().splitlines()[0]
        assert header == (
            "beta,epsilon,eps_prime,J,delta_y,trace_dist,success_amp,rounds,total_gate_model"
        )
        assert (tmp_path / "out" / "plot_error_vs_beta.csv").exists()
        assert (tmp_path / "out" / "plot_cost_vs_beta.csv").exists()

    def test_lemma1_sweep_prices_pauli_presentation_as_gibbs(self, tmp_path):
        # both commands price the config's own presentation: five projector
        # terms here, not the spectral split of the summed matrix
        hamiltonian = {"pauli": "1.0 ZZI\n1.0 IZZ\n0.5 XII\n0.5 IXI\n0.5 IIX"}
        sweep = _write_config(
            tmp_path,
            {
                "command": "lemma1-sweep",
                "hamiltonian": hamiltonian,
                "betas": [2.0, 1.0],
                "epsilons": [0.05],
                "out": str(tmp_path / "sweep"),
            },
            "sweep.json",
        )
        assert main(["--config", sweep]) == 0
        rows = json.loads((tmp_path / "sweep" / "summary.json").read_text())["rows"]
        assert [row["beta"] for row in rows] == [1.0, 2.0]
        for row in rows:
            name = f"gibbs-{row['beta']}"
            config = _write_config(
                tmp_path,
                {
                    "command": "gibbs",
                    "hamiltonian": hamiltonian,
                    "beta": row["beta"],
                    "epsilon": 0.05,
                    "out": str(tmp_path / name),
                },
                f"{name}.json",
            )
            assert main(["--config", config]) == 0
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            for key in ("eps_prime", "J", "trace_dist", "success_amp", "rounds", "total_gate_model"):
                assert row[key] == summary[key], key

    def test_lemma2_sweep(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "lemma2-sweep",
                "deltas": [0.5],
                "epsilons": [0.1],
                "dim": 4,
                "samples": 3,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        rows = (tmp_path / "out" / "lemma2_sweep.csv").read_text().splitlines()
        assert rows[0].startswith("delta,epsilon,z_K,K,J")
        values = rows[1].split(",")
        assert float(values[-1]) <= 0.05  # residual within eps/2

    def test_lemma2_points_draw_distinct_operators(self, monkeypatch):
        # 1/0.3 and 1/0.33 truncate to the same integer; the two points must
        # still draw different random operators
        seen = []

        def recording(rng, dim, lo, hi):
            seen.append(rng.bit_generator.state["state"]["state"])
            return original(rng, dim, lo, hi)

        original = cli.random_hermitian_with_spectrum
        monkeypatch.setattr(cli, "random_hermitian_with_spectrum", recording)
        for delta in (0.3, 0.33):
            cli._lemma2_point(delta, 0.2, dim=3, n_samples=1, seed=5)
        assert len(seen) == 2 and seen[0] != seen[1]

    def test_cost_sweep_classical_reports_true_gap(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "cost-sweep",
                "model": "hitting-classical",
                "sweep_var": "delta",
                "values": [0.5, 0.25, 0.125],
                "fixed": {"n_states": 8},
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        rows = (tmp_path / "out" / "cost_sweep.csv").read_text().splitlines()[1:]
        gaps = [float(r.split(",")[1]) for r in rows]
        # the emitted x values are the chains' actual spectral gaps
        assert all(0 < g < 0.2 for g in gaps)
        assert gaps == sorted(gaps)

    def test_cost_sweep_gibbs_model(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "cost-sweep",
                "model": "gibbs",
                "sweep_var": "beta",
                "values": [2.0, 8.0, 32.0],
                "fixed": {"n_dim": 8},
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        rows = (tmp_path / "out" / "cost_sweep.csv").read_text().splitlines()
        totals = [float(r.split(",")[-1]) for r in rows[1:]]
        assert totals == sorted(totals)  # colder is costlier

    def test_cost_sweep(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "command": "cost-sweep",
                "model": "hitting-quantum",
                "sweep_var": "delta",
                "values": [0.5, 0.25, 0.125],
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 0
        header = (tmp_path / "out" / "cost_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("sweep_var,value,")
        assert header.endswith(",total")


    @pytest.mark.parametrize("model, sweep_var, fixed", _COST_SWEEP_ERRORS, ids=_COST_SWEEP_IDS)
    def test_cost_sweep_config_errors(self, tmp_path, model, sweep_var, fixed):
        config = _write_config(
            tmp_path,
            {
                "command": "cost-sweep",
                "model": model,
                "sweep_var": sweep_var,
                "values": [0.5, 0.25],
                "fixed": fixed,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_dim", [-1, 0])
    def test_cost_sweep_gibbs_count_below_one_exits_three(self, tmp_path, capsys, n_dim):
        payload = {
            "command": "cost-sweep", "model": "gibbs", "sweep_var": "beta", "values": [1.0],
            "fixed": {"n_dim": n_dim}, "out": str(tmp_path / "out"),
        }
        assert main(["--config", _write_config(tmp_path, payload)]) == 3
        assert "n_dim must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [operators.DIMENSION_CAP + 1, 10**15])
    @pytest.mark.parametrize(
        "model, field", [("hitting-classical", "n_states"), ("gibbs", "n_dim")]
    )
    def test_cost_sweep_count_over_cap_exits_three(self, tmp_path, capsys, model, field, count):
        # checked against the cap before the chain or the spectrum is allocated
        payload = {
            "command": "cost-sweep", "model": model, "sweep_var": "epsilon", "values": [0.5],
            "fixed": {field: count}, "out": str(tmp_path / "out"),
        }
        assert main(["--config", _write_config(tmp_path, payload)]) == 3
        err = capsys.readouterr().err
        assert re.search(rf"\b{count} .*exceeds? cap {operators.DIMENSION_CAP}", err)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cost_sweep_ends_with_an_exit_code(self, tmp_path, data):
        # every double the readers take, NaN and the infinities among them;
        # counts stay small enough for a quick chain, or past the cap
        model = data.draw(st.sampled_from(sorted(cli._COST_MODELS)))
        sweep_vars, defaults = cli._COST_MODELS[model]
        counts = st.one_of(
            st.integers(-(2**1023), 0), st.integers(1, 64),
            st.integers(operators.DIMENSION_CAP + 1, 2**1023),
        )
        fixed = data.draw(st.fixed_dictionaries({}, optional={
            k: counts if type(d) is int else st.floats() for k, d in defaults.items()
        }))
        values = st.floats(min_value=0.0, exclude_min=True) | st.just(math.nan)
        payload = {
            "command": "cost-sweep", "model": model,
            "sweep_var": data.draw(st.sampled_from(sweep_vars)),
            "values": data.draw(st.lists(values, min_size=1, max_size=3)), "fixed": fixed,
            "out": str(tmp_path / "out"),
        }
        assert main(["--config", _write_config(tmp_path, payload)]) in (0, 2, 3)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_thermal_and_inverse_sweeps_end_with_an_exit_code(self, tmp_path, capsys, data):
        # every double the readers take, NaN and inf among them: lemma1-sweep on
        # the 3-qubit TFIM, whose tight-eps points stop at the y-grid's first
        # roundoff miss, and lemma2-sweep. A lemma2-sweep point's left-rule
        # z-grid has about ln(1/(delta eps))/(delta eps) nodes, so below
        # delta eps = 1e-3 a point can take seconds before it exits 0 or 3:
        # 2.6 s at delta 1e-3, eps 0.1, where the filter reads 64 eigenvalues
        # off it, 21 s at delta 0.24, eps 6.1e-5, and 7 s at delta 1e-3,
        # eps 1e-300, where the inner y-grid's seed already has J = 1.2e6. So
        # points with delta eps below 1e-3 are left out, and with them every
        # delta below 1e-3.
        eps = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
        epsilons = data.draw(st.lists(eps | st.just(math.nan), min_size=1, max_size=2))
        if data.draw(st.booleans()):
            betas = st.floats(min_value=0.0) | st.just(math.nan)
            payload = {
                "command": "lemma1-sweep", "hamiltonian": {"pauli": _TFIM_3},
                "betas": data.draw(st.lists(betas, min_size=1, max_size=2)),
            }
        else:
            deltas = data.draw(st.lists(
                st.floats(min_value=1e-3, max_value=1.0) | st.just(math.nan), min_size=1, max_size=2
            ))
            assume(not any(d * e < 1e-3 for d in deltas for e in epsilons))
            payload = {
                "command": "lemma2-sweep", "deltas": deltas,
                "dim": data.draw(st.integers(1, 64)), "samples": data.draw(st.integers(1, 64)),
            }
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        payload.update(epsilons=epsilons, out=str(out))
        assert main(["--config", _write_config(tmp_path, payload)]) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({**_GIBBS_COST_SWEEP, "sweep_var": "epsilon", "values": [7.0]}, "eps'"),
            ({**_GIBBS_COST_SWEEP, "fixed": {"epsilon": 7.0}}, "eps'"),
            *(({"command": "cost-sweep", "model": "hitting-classical", "sweep_var": "epsilon",
                "values": [eps]}, "sample count") for eps in (1e-300, 1e-160, 1e300)),
            ({"command": "cost-sweep", "model": "hitting-quantum", "sweep_var": "delta",
              "values": [5e-324]}, "underflows to 0"),
            # the sweep names its own variable, eps, not Theorem 2's internal tau
            ({"command": "cost-sweep", "model": "hitting-quantum", "sweep_var": "epsilon",
              "values": [0.1, 5.0]},
             "validation failure: eps Delta must be at most 1, got eps 5.0, Delta 0.25"),
            ({"command": "lemma2-sweep", "deltas": [1e-160], "epsilons": [1e-160]}, "inverse grid"),
            ({"command": "hitting", "chain": chain_to_json(lazy_cycle(8), [0]), "epsilon": 1e-300,
              "mode": "oracle-free", "delta_lower_bound": 1e-300}, "inverse grid"),
        ],
        ids=["gibbs-values", "gibbs-fixed", "classical-1e-300", "classical-1e-160",
             "classical-1e300", "quantum-5e-324", "quantum-eps-delta-past-1", "lemma2",
             "hitting-oracle-free"],
    )
    def test_out_of_range_arithmetic_exits_three(self, tmp_path, capsys, payload, message):
        config = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        assert main(["--config", config]) == 3
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1


class TestConfigHandling:
    def test_empty_config_rejected(self, tmp_path):
        config = _write_config(tmp_path, {})
        assert main(["--config", config]) == 1

    def test_unknown_field_rejected(self, tmp_path, one_qubit_matrix):
        config = _write_config(
            tmp_path,
            {
                "command": "gibbs",
                "hamiltonian": {"matrix": one_qubit_matrix},
                "beta": 8.0,
                "epsilon": 0.05,
                "typo_field": 1,
            },
        )
        assert main(["--config", config]) == 1

    def test_unknown_command_rejected(self, tmp_path):
        config = _write_config(tmp_path, {"command": "nonsense"})
        assert main(["--config", config]) == 1

    def test_byte_identical_reruns(self, tmp_path, one_qubit_matrix):
        payload = {
            "command": "gibbs",
            "hamiltonian": {"matrix": one_qubit_matrix},
            "beta": 8.0,
            "epsilon": 0.05,
        }
        c1 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "a")}, "c1.json")
        c2 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "b")}, "c2.json")
        assert main(["--config", c1, "--seed", "5"]) == 0
        assert main(["--config", c2, "--seed", "5"]) == 0
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b

    def test_constants_override_file(self, tmp_path, one_qubit_matrix):
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps({"mc_sample_constant": 8.0}))
        config = _write_config(
            tmp_path,
            {
                "command": "hitting",
                "chain": _two_state_chain_json(),
                "epsilon": 0.2,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config, "--constants", str(constants)]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        # halved Chebyshev constant halves the expected classical sample count
        assert result["classical_comparison"]["samples"] == math.ceil(8.0 * 2.0 / 0.04)

    def test_jobs_flag_keeps_outputs_identical(self, tmp_path, one_qubit_matrix):
        payload = {
            "command": "lemma1-sweep",
            "hamiltonian": {"matrix": one_qubit_matrix},
            "betas": [6.0, 8.0],
            "epsilons": [0.02],
        }
        c1 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "serial")}, "s.json")
        c2 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "pool")}, "p.json")
        assert main(["--config", c1]) == 0
        assert main(["--config", c2, "--jobs", "2"]) == 0
        a = (tmp_path / "serial" / "lemma1_sweep.csv").read_bytes()
        b = (tmp_path / "pool" / "lemma1_sweep.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "payload, table",
        [
            (
                {
                    "command": "cost-sweep",
                    "model": "hitting-classical",
                    "sweep_var": "delta",
                    "values": [0.5, 0.25, 0.125],
                    "fixed": {"n_states": 8},
                },
                "cost_sweep.csv",
            ),
            (
                {
                    "command": "lemma2-sweep",
                    "deltas": [0.5, 0.25],
                    "epsilons": [0.2],
                    "dim": 4,
                    "samples": 2,
                },
                "lemma2_sweep.csv",
            ),
        ],
    )
    def test_jobs_flag_keeps_every_sweep_identical(self, tmp_path, payload, table):
        c1 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "serial")}, "s.json")
        c2 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "pool")}, "p.json")
        assert main(["--config", c1]) == 0
        assert main(["--config", c2, "--jobs", "2"]) == 0
        for name in (table, "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    def test_pool_sweep_reports_precondition_warnings(self, tmp_path, one_qubit_matrix):
        # both points sit outside the validity window, in the pool as serially
        payload = {
            "command": "lemma1-sweep",
            "hamiltonian": {"matrix": one_qubit_matrix},
            "betas": [1.0, 2.0],
            "epsilons": [0.3],
        }
        c1 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "serial")}, "s.json")
        c2 = _write_config(tmp_path, {**payload, "out": str(tmp_path / "pool")}, "p.json")
        assert main(["--config", c1]) == 2
        assert main(["--config", c2, "--jobs", "2"]) == 2
        a = (tmp_path / "serial" / "summary.json").read_bytes()
        assert a == (tmp_path / "pool" / "summary.json").read_bytes()

    @pytest.mark.parametrize("command", ["hitting", "appendix-verify"])
    @pytest.mark.parametrize("triplet", _BAD_TRIPLETS, ids=_BAD_TRIPLET_IDS)
    def test_chain_triplets_are_typed(self, tmp_path, capsys, command, triplet):
        chain = _two_state_chain_json()
        chain["entries"][0] = triplet
        payload = {"command": command, "chain": chain, "epsilon": 0.1, "out": str(tmp_path / "out")}
        if command == "appendix-verify":
            del payload["epsilon"]
        assert main(["--config", _write_config(tmp_path, payload)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gibbs", "lemma1-sweep"])
    @pytest.mark.parametrize("field", ["re", "im"])
    @pytest.mark.parametrize("value", _BAD_NUMBERS, ids=["string", "bool", "null", "nested-list"])
    def test_matrix_numbers_are_typed(
        self, tmp_path, capsys, one_qubit_matrix, command, field, value
    ):
        one_qubit_matrix[field][1] = value
        payload = {
            "command": command,
            "hamiltonian": {"matrix": one_qubit_matrix},
            "out": str(tmp_path / "out"),
        }
        if command == "gibbs":
            payload.update(beta=1.0, epsilon=0.1)
        else:
            payload.update(betas=[1.0], epsilons=[0.1])
        assert main(["--config", _write_config(tmp_path, payload)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, field", [("--seed", "seed"), ("--jobs", "jobs")])
    def test_invalid_overrides_rejected_like_config_fields(self, tmp_path, flag, field):
        payload = {
            "command": "lemma2-sweep",
            "deltas": [0.5],
            "epsilons": [0.2],
            "dim": 2,
            "samples": 1,
            "out": str(tmp_path / "out"),
        }
        bad = -1 if field == "seed" else 0
        in_config = _write_config(tmp_path, {**payload, field: bad}, "field.json")
        assert main(["--config", in_config]) == 1
        plain = _write_config(tmp_path, payload, "plain.json")
        assert main(["--config", plain, flag, str(bad)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({**_PAULI_GIBBS, "beta": 10**400}, "beta"),
            ({**_PAULI_GIBBS_SWEEP, "betas": [1.0, 10**400]}, "betas[1]"),
            ({**_GIBBS_COST_SWEEP, "values": [10**400]}, "values[0]"),
            ({**_GIBBS_COST_SWEEP, "fixed": {"norm": 10**400}}, "fixed.norm"),
        ],
        ids=["gibbs-beta", "lemma1-betas", "cost-sweep-values", "cost-sweep-fixed"],
    )
    def test_number_past_the_double_range_is_a_config_error(self, tmp_path, capsys, payload, field):
        config = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        assert main(["--config", config]) == 1
        assert f"config error: {field} is too large for a double" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_probability_past_the_double_range_is_a_config_error(self, tmp_path, capsys):
        chain = _two_state_chain_json()
        chain["entries"][0][2] = 10**400
        payload = {"command": "hitting", "chain": chain, "epsilon": 0.1, "out": str(tmp_path / "out")}
        assert main(["--config", _write_config(tmp_path, payload)]) == 1
        assert "too large for a double" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload, code, message", _WIRE_ERRORS, ids=_WIRE_ERROR_IDS)
    def test_malformed_wire_format_exit_code_and_field(
        self, tmp_path, capsys, payload, code, message
    ):
        # load_config's verdict alone cannot tell a config error (exit 1) from
        # a chain or matrix the run rejects (exit 3)
        config = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        assert main(["--config", config]) == code
        assert message in capsys.readouterr().err
        if code == 1:
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text", [b'{"epsilon": ' + b"9" * 5000 + b"}", b'{"command": "\xff"}'],
        ids=["5000-digit-integer", "not-utf-8"],
    )
    @pytest.mark.parametrize("target", ["config", "constants"])
    def test_unparsable_file_is_a_config_error(self, tmp_path, capsys, target, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        payload = {"command": "hitting", "chain": _two_state_chain_json(), "epsilon": 0.2}
        good = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
        argv = ["--config", str(bad)]
        if target == "constants":
            argv = ["--config", good, "--constants", str(bad)]
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"query_cost_constant": 2.0}, "unknown constants"),
            ({"gate_cost_constant": 2.0}, "unknown constants"),
            ([["mc_sample_constant", 8.0]], "must hold a JSON object"),
            ({"total_cost_constant": True}, "must be a positive finite number"),
            ({"total_cost_constant": 10**400}, "must be a positive finite number"),
        ],
    )
    def test_bad_constants_file_rejected(self, tmp_path, capsys, overrides, message):
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps(overrides))
        config = _write_config(
            tmp_path,
            {
                "command": "hitting",
                "chain": _two_state_chain_json(),
                "epsilon": 0.2,
                "out": str(tmp_path / "out"),
            },
        )
        assert main(["--config", config, "--constants", str(constants)]) == 1
        assert message in capsys.readouterr().err


_LEMMA2 = {"command": "lemma2-sweep", "deltas": [0.5], "epsilons": [0.2], "dim": 2, "samples": 1}
_TWO_STATE = {
    "n_states": 2, "entries": [[0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5], [1, 1, 0.5]], "marked": [1],
}
# One valid config per command (and per cost-sweep model), with every optional field set.
_VALID_CONFIGS = [
    {**_PAULI_GIBBS, "mode": "desk", "z_lower_bound": 0.5, "seed": 3, "out": "o", "constants": {}},
    {**_PAULI_GIBBS, "hamiltonian": {"matrix": {"dim": 1, "re": [1.0], "im": [0.0]}}},
    {
        "command": "hitting", "chain": _TWO_STATE, "epsilon": 0.1, "confidence": 0.8,
        "mode": "oracle-free", "delta_lower_bound": 0.5,
    },
    {"command": "appendix-verify", "chain": _TWO_STATE},
    {"command": "lemma1-sweep", "hamiltonian": {"pauli": "1.0 Z"}, "betas": [1.0, 0.0],
     "epsilons": [0.1], "jobs": 2},
    {**_LEMMA2, "jobs": 1},
    *(
        {"command": "cost-sweep", "model": model, "sweep_var": sweep_vars[-1], "values": [0.5],
         "fixed": dict(defaults), "jobs": 1}
        for model, (sweep_vars, defaults) in cli._COST_MODELS.items()
    ),
]
# What a mutation may put in a config: wrong types, numbers on and past every
# bound, non-finite and huge numbers, and values that belong to other fields.
_MUTANT_VALUES = [
    None, True, False, "x", "0.5", [], {}, [0.5], [1, 2], {"a": 1}, [0, 0, 0.5], [0, 0],
    0, 1, 2, -1, 64, 65, 2.0, 0.0, -0.0, 0.5, 1.0, 1.5, 1e-300, 1e308, 10**400, -(10**400),
    math.nan, math.inf, -math.inf, "desk", "oracle-free", "delta", "beta", "epsilon", "gibbs",
    "hitting-classical", "1.0 Z", {"pauli": "1.0 Z"}, {"dim": 1, "re": [1.0], "im": [0.0]},
    {"matrix": {"dim": 2, "re": [0.5], "im": [0]}}, _TWO_STATE,
]
# Every bound a field has, each side of it, and the numbers no bound excludes.
_BOUND_VALUES = [
    0, -0.0, 1e-300, 0.5, 1, 1.0, 1.5, 2, 2.0, 64, 65, -1, -1e-300, 1e308, 10**400, -(10**400),
    math.nan, math.inf, -math.inf, True,
]
_MUTANT_KEYS = ["typo", "delta", "n_sates", "stay", "norm", "d", "n_dim", "n_states", "beta",
                "pauli", "matrix", "seed", "jobs", "dim", "mode", "fixed", "marked"]


def _places(node, path=()):
    """(path, key) for each value inside a config, and (path, None) for each container."""
    yield path, None
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _at(config, path):
    for step in path:
        config = config[step]
    return config


def _reader_verdict(tmp_path, config, overrides=None) -> tuple[bool, str]:
    try:
        cli.load_config(_write_config(tmp_path, config), overrides)
    except ValidationError as exc:
        return False, str(exc)
    return True, ""


def _assert_schema_verdict(tmp_path, config, overrides=None):
    """The readers accept what the schema and the typing loop accept, except an
    integer past the double range in a number field, which only they refuse."""
    accepted, message = _reader_verdict(tmp_path, config, overrides)
    reference = schema_accepts(json.loads(json.dumps(config)), overrides)
    if reference and not accepted:
        assert "too large for a double" in message
    else:
        assert accepted == reference, message


class TestSchemaValidation:
    @pytest.mark.parametrize(
        "payload, overrides, field",
        [
            ({**_PAULI_GIBBS, "typo_field": 1}, {}, "typo_field"),
            ({k: v for k, v in _PAULI_GIBBS.items() if k != "beta"}, {}, "beta"),
            ({**_PAULI_GIBBS, "epsilon": "0.1"}, {}, "epsilon"),
            ({**_PAULI_GIBBS, "hamiltonian": {"pauli": "1.0 Z", "matrix": {}}}, {}, "hamiltonian"),
            (
                {
                    "command": "cost-sweep", "model": "gibbs", "sweep_var": "delta",
                    "values": [0.5], "fixed": {},
                },
                {},
                "sweep_var",
            ),
            (_LEMMA2, {"seed": -1}, "seed"),
            (_LEMMA2, {"jobs": 0}, "jobs"),
        ],
        ids=[
            "unknown-field", "missing-field", "wrong-type", "neither-hamiltonian",
            "cost-sweep-if-then", "seed-override", "jobs-override",
        ],
    )
    def test_config_errors_name_their_field(self, tmp_path, payload, overrides, field):
        with pytest.raises(ValidationError, match=field):
            cli.load_config(_write_config(tmp_path, payload), overrides)
        assert not schema_accepts(payload, overrides)

    @pytest.mark.parametrize("command", sorted(_SCHEMAS))
    def test_schema_is_valid(self, command):
        schema = _SCHEMAS[command]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_every_command_has_readers_for_its_schema_fields(self):
        for command, schema in _SCHEMAS.items():
            fields = cli._READERS[command]
            if callable(fields):
                fields = fields({"model": "gibbs"})
            assert list(fields) == list(schema["properties"]), command

    @pytest.mark.parametrize("config", _VALID_CONFIGS, ids=lambda c: c.get("model", c["command"]))
    def test_valid_configs_are_typed_with_defaults_filled(self, tmp_path, config):
        typed = cli.load_config(_write_config(tmp_path, config))
        fields = cli._READERS[config["command"]]
        assert list(typed) == list(fields if not callable(fields) else fields(config))
        assert schema_accepts(config)

    def test_each_number_on_each_bound_gets_the_schema_verdict(self, tmp_path):
        for base in _VALID_CONFIGS:
            for path, key in _places(base):
                if key is None or isinstance(_at(base, path)[key], (bool, str, list, dict)):
                    continue
                for value in _BOUND_VALUES:
                    config = copy.deepcopy(base)
                    _at(config, path)[key] = value
                    _assert_schema_verdict(tmp_path, config)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_readers_agree_with_the_schema(self, tmp_path, data):
        config = copy.deepcopy(data.draw(st.sampled_from(_VALID_CONFIGS)))
        for _ in range(data.draw(st.integers(0, 3))):
            path, key = data.draw(st.sampled_from(list(_places(config))))
            container = _at(config, path)
            value = copy.deepcopy(data.draw(st.sampled_from(_MUTANT_VALUES)))
            if key is None and isinstance(container, list):
                container.append(value)
            elif key is None:
                container[data.draw(st.sampled_from(_MUTANT_KEYS))] = value
            elif data.draw(st.booleans()):
                del container[key]
            else:
                container[key] = value
        overrides = data.draw(st.fixed_dictionaries({
            "seed": st.sampled_from([None, -1, 0, 7, 10**30]),
            "out": st.sampled_from([None, "elsewhere"]),
            "jobs": st.sampled_from([None, 0, 1, 2]),
        }))
        _assert_schema_verdict(tmp_path, config, overrides)

    @pytest.mark.parametrize(
        "config",
        [
            *({**_GIBBS_COST_SWEEP, "model": m, "sweep_var": v, "fixed": f}
              for m, v, f in _COST_SWEEP_ERRORS),
            *({"command": c, "chain": {**_TWO_STATE, "entries": [t, *_TWO_STATE["entries"][1:]]},
               **({"epsilon": 0.1} if c == "hitting" else {})}
              for c in ("hitting", "appendix-verify") for t in _BAD_TRIPLETS),
            *({**base, "hamiltonian": {"matrix": {"dim": 2, "re": [0.0, v, 0.0, 1.0], "im": [0] * 4}}}
              for base in (_PAULI_GIBBS, _PAULI_GIBBS_SWEEP) for v in _BAD_NUMBERS),
            {"command": "gibbs", "typo_field": 1, **_PAULI_GIBBS},
            {"command": "nonsense"},
            {},
            [],
        ],
    )
    def test_existing_invalid_configs_get_the_schema_verdict(self, tmp_path, config):
        _assert_schema_verdict(tmp_path, config)
        assert not _reader_verdict(tmp_path, config)[0]

    @pytest.mark.parametrize("field, value", [("seed", -1), ("jobs", 0)])
    def test_invalid_overrides_get_the_schema_verdict(self, tmp_path, field, value):
        _assert_schema_verdict(tmp_path, _LEMMA2, {field: value})
        _assert_schema_verdict(tmp_path, {**_LEMMA2, field: value})
        assert not _reader_verdict(tmp_path, _LEMMA2, {field: value})[0]

    @staticmethod
    @contextlib.contextmanager
    def _calls_of(function):
        """Count the runs of `function`'s code, however it is reached: through
        its module, an import of it or a reference held in a reader table."""
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is function.__code__:
                calls.append(None)

        sys.setprofile(profile)
        try:
            yield calls
        finally:
            sys.setprofile(None)

    def test_chain_entries_are_typed_once(self, tmp_path):
        chain = chain_to_json(lazy_cycle(8), [0])
        assert len(chain["entries"]) == 24
        payload = {"command": "hitting", "chain": chain, "epsilon": 0.1, "out": str(tmp_path / "out")}
        with self._calls_of(cli._is_entry) as calls:
            assert main(["--config", _write_config(tmp_path, payload)]) == 0
        assert len(calls) == 24

    @pytest.mark.parametrize("command", ["hitting", "appendix-verify"])
    def test_marked_set_is_read_once(self, tmp_path, command):
        payload = {"command": command, "chain": chain_to_json(lazy_cycle(8), [0, 3]),
                   "out": str(tmp_path / "out")}
        if command == "hitting":
            payload["epsilon"] = 0.1
        with self._calls_of(markov.read_marked) as calls:
            assert main(["--config", _write_config(tmp_path, payload)]) == 0
        assert len(calls) == 1

    def test_matrix_numbers_are_typed_once(self, tmp_path, one_qubit_matrix):
        # every list reader runs one code object; the matrix's re and im are
        # the only lists a matrix lemma1-sweep reads with it
        payload = {
            "command": "lemma1-sweep", "hamiltonian": {"matrix": one_qubit_matrix},
            "betas": [4.0, 6.0, 8.0], "epsilons": [0.05], "out": str(tmp_path / "out"),
        }
        with self._calls_of(cli._FLOATS) as calls:
            assert main(["--config", _write_config(tmp_path, payload)]) == 0
        assert len(calls) == 2


def _readme_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    return [b for b in blocks if "command" in b]


@pytest.mark.parametrize("payload", _readme_configs(), ids=lambda p: p["command"])
def test_readme_example_runs(tmp_path, payload):
    config = _write_config(tmp_path, {**payload, "out": str(tmp_path / "out")})
    assert main(["--config", config]) == 0
