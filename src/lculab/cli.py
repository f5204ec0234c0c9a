"""Command-line driver: schema-validated experiment configs, reproducible runs,
JSON summaries plus CSV tables and plot data.

One entry point reads a config JSON whose "command" field selects the
experiment; --seed, --out and --jobs override the matching config fields
before the schema check, and --constants overrides the constants. `gibbs` and
`lemma1-sweep` run one thermal point function. Outputs are byte-identical for
identical (config, seed) pairs: sweep points may run in a worker pool, but
results are merged in sorted order before anything is written. Exit codes:
0 success, 1 malformed config, 2 a stated precondition was violated during
the run, 3 domain validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np

from . import cost as cost_mod
from .constants import Constants
from .errors import LculabError, PreconditionWarning, ValidationError
from .gap_amplification import parse_pauli_lines, split_indices
from .gibbs import GibbsResult, GibbsTask, prepare_gibbs
from .inverse import HittingTimeTask, calibrate_inverse_grid, estimate_hitting_time
from .markov import (
    chain_from_json, discriminant_pair, expected_mc_cost, lazy_cycle, mark_states, parse_triplet,
)
from .operators import HermitianOperator, check_numbers, matrix_from_json
from .rand import random_hermitian_with_spectrum, random_state
from .sparse_chain import decomposition_manifest, sparse_oracle

logger = logging.getLogger("lculab.cli")

_MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "re": {"type": "array"},
        "im": {"type": "array"},
    },
    "required": ["dim", "re", "im"],
    "additionalProperties": False,
}

_HAMILTONIAN_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"pauli": {"type": "string"}},
            "required": ["pauli"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"matrix": _MATRIX_SCHEMA},
            "required": ["matrix"],
            "additionalProperties": False,
        },
    ]
}

_CHAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "n_states": {"type": "integer", "minimum": 2},
        "entries": {"type": "array"},
        "marked": {"type": "array", "items": {"type": "integer"}},
    },
    "required": ["n_states", "entries", "marked"],
    "additionalProperties": False,
}

_COMMON = {
    "command": {"type": "string"},
    "seed": {"type": "integer", "minimum": 0},
    "out": {"type": "string"},
    "constants": {"type": "object"},
}
_OPEN_UNIT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_JOBS = {"type": "integer", "minimum": 1}
_MODE = {"enum": ["desk", "oracle-free"]}


def _nonempty_array(items: dict) -> dict:
    return {"type": "array", "items": items, "minItems": 1}


def _command_schema(required: list[str], **properties: dict) -> dict:
    return {
        "type": "object",
        "properties": {**_COMMON, **properties},
        "required": ["command", *required],
        "additionalProperties": False,
    }


# Per cost-sweep model: the variables it can sweep, and the parameters
# `fixed` may set, with their defaults.
_COST_MODELS = {
    "hitting-quantum": (
        ["delta", "epsilon"], {"delta": 0.25, "epsilon": 0.1, "d": 3, "n_states": 32}
    ),
    "hitting-classical": (["delta", "epsilon"], {"n_states": 16, "stay": 0.75, "epsilon": 1.0}),
    "gibbs": (["beta", "epsilon"], {"beta": 4.0, "epsilon": 0.1, "n_dim": 8, "norm": 1.0}),
}
# The parameters that count states; a non-integer count is a config error.
_COUNTS = ("n_states", "n_dim")


def _cost_sweep_schema() -> dict:
    schema = _command_schema(
        ["model", "sweep_var", "values"],
        model={"enum": sorted(_COST_MODELS)},
        sweep_var={"enum": ["delta", "epsilon", "beta"]},
        values=_nonempty_array({"type": "number", "exclusiveMinimum": 0}),
        fixed={"type": "object"},
        jobs=_JOBS,
    )
    schema["allOf"] = [
        {
            "if": {"properties": {"model": {"const": model}}},
            "then": {
                "properties": {
                    "sweep_var": {"enum": sweep_vars},
                    "fixed": {
                        "properties": {
                            key: {"type": "integer" if key in _COUNTS else "number"}
                            for key in defaults
                        },
                        "additionalProperties": False,
                    },
                },
            },
        }
        for model, (sweep_vars, defaults) in _COST_MODELS.items()
    ]
    return schema


_SCHEMAS = {
    "gibbs": _command_schema(
        ["hamiltonian", "beta", "epsilon"],
        hamiltonian=_HAMILTONIAN_SCHEMA,
        beta={"type": "number", "minimum": 0},
        epsilon=_OPEN_UNIT,
        mode=_MODE,
        z_lower_bound={"type": "number", "exclusiveMinimum": 0},
    ),
    "hitting": _command_schema(
        ["chain", "epsilon"],
        chain=_CHAIN_SCHEMA,
        epsilon=_OPEN_UNIT,
        confidence=_OPEN_UNIT,
        mode=_MODE,
        delta_lower_bound={"type": "number", "exclusiveMinimum": 0},
    ),
    "appendix-verify": _command_schema(["chain"], chain=_CHAIN_SCHEMA),
    "lemma1-sweep": _command_schema(
        ["hamiltonian", "betas", "epsilons"],
        hamiltonian=_HAMILTONIAN_SCHEMA,
        betas=_nonempty_array({"type": "number", "minimum": 0}),
        epsilons=_nonempty_array(_OPEN_UNIT),
        jobs=_JOBS,
    ),
    "lemma2-sweep": _command_schema(
        ["deltas", "epsilons"],
        deltas=_nonempty_array({"type": "number", "exclusiveMinimum": 0, "maximum": 1}),
        epsilons=_nonempty_array(_OPEN_UNIT),
        dim={"type": "integer", "minimum": 1, "maximum": 64},
        samples={"type": "integer", "minimum": 1, "maximum": 64},
        jobs=_JOBS,
    ),
    "cost-sweep": _cost_sweep_schema(),
}
# Of the class `jsonschema.validate` picks; the meta-schema check of these constants is a test.
_VALIDATORS = {c: jsonschema.validators.validator_for(s)(s) for c, s in _SCHEMAS.items()}


def _configure_logging() -> None:
    level_name = os.environ.get("LCULAB_LOG", "normal").lower()
    level = {"quiet": logging.WARNING, "normal": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _hamiltonian_from_config(spec: dict) -> tuple[HermitianOperator, tuple[float, ...]]:
    if "pauli" in spec:
        # The pipeline works with the PSD presentation, whose spectrum sits
        # at the parsed operator's plus the discarded identity offset.
        matrix, weights, _ = parse_pauli_lines(spec["pauli"])
        return HermitianOperator(matrix), weights
    h = HermitianOperator(matrix_from_json(spec["matrix"]))
    energies = h.eigensystem[0]
    return h, tuple(map(float, energies[split_indices(energies)]))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_plot(path: Path, xs, ys) -> None:
    _write_csv(path, ["x", "y"], [[float(x), float(y)] for x, y in zip(xs, ys)])


def _thermal_point(
    spec: dict,
    beta: float,
    epsilon: float,
    constants: Constants,
    mode: str = "desk",
    z_lower_bound: float | None = None,
) -> tuple[GibbsResult, dict]:
    """Prepare the thermal state of a config's Hamiltonian at one (beta, eps),
    priced on the config's own presentation; returns the result and its row."""
    h, weights = _hamiltonian_from_config(spec)
    task = GibbsTask(hamiltonian=h, beta=beta, epsilon=epsilon, weights=weights)
    result = prepare_gibbs(task, constants=constants, mode=mode, z_lower_bound=z_lower_bound)
    row = {
        "beta": task.beta,
        "epsilon": task.epsilon,
        "eps_prime": result.epsilon_prime,
        "J": result.grid.j_max,
        "delta_y": result.grid.delta_y,
        "trace_dist": result.trace_dist,
        "success_amp": result.success_amplitude,
        "rounds": result.amplification_rounds,
        "total_gate_model": result.cost.total,
    }
    return result, row


def _run_gibbs(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    result, row = _thermal_point(
        config["hamiltonian"], float(config["beta"]), float(config["epsilon"]), constants,
        config.get("mode", "desk"), config.get("z_lower_bound"),
    )
    summary = {
        "command": "gibbs",
        "seed": seed,
        **row,
        "partition_function": result.partition_function,
        "cost": result.cost.to_json(),
        "precondition_warnings": list(result.precondition_warnings),
    }
    _write_json(out / "summary.json", summary)
    return summary


def _recording_warnings(args: tuple) -> tuple:
    worker, payload = args
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = worker(payload)
    return value, [(w.category, str(w.message)) for w in caught]


def _map_points(worker, payloads: list, jobs: int) -> list:
    """worker over the payloads in order: serially, or in a pool of min(jobs, points)
    processes whose warnings are raised again here, so both runs exit alike."""
    jobs = min(jobs, len(payloads))
    if jobs <= 1:
        return [worker(p) for p in payloads]
    # imported here, as only a pool needs them (about 16 ms of a cold start)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: numpy's BLAS threads are already running here
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        results = list(pool.map(_recording_warnings, [(worker, p) for p in payloads]))
    for _, caught in results:
        for category, message in caught:
            warnings.warn(message, category, stacklevel=2)
    return [value for value, _ in results]


def _sweep_points(xs, ys) -> list[tuple[float, float]]:
    return sorted((float(x), float(y)) for x in xs for y in ys)


def _write_sweep(
    out: Path, command: str, seed: int, table: str, header: list, rows: list[dict], plots: dict
) -> dict:
    """The sweep's CSV table, one (x, y) plot file per entry of plots, and summary.json."""
    _write_csv(out / table, header, [[row[k] for k in header] for row in rows])
    for name, (x, y) in plots.items():
        _write_plot(out / name, [r[x] for r in rows], [r[y] for r in rows])
    summary = {"command": command, "seed": seed, "points": len(rows), "rows": rows}
    _write_json(out / "summary.json", summary)
    return summary


def _lemma1_point(args: tuple) -> dict:
    spec, beta, epsilon, constants = args
    result, row = _thermal_point(spec, beta, epsilon, constants)
    return {**row, "warnings": len(result.precondition_warnings)}


def _run_lemma1_sweep(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    payloads = [
        (config["hamiltonian"], beta, eps, constants)
        for beta, eps in _sweep_points(config["betas"], config["epsilons"])
    ]
    rows = _map_points(_lemma1_point, payloads, int(config.get("jobs", 1)))
    header = [
        "beta", "epsilon", "eps_prime", "J", "delta_y",
        "trace_dist", "success_amp", "rounds", "total_gate_model",
    ]
    return _write_sweep(
        out, "lemma1-sweep", seed, "lemma1_sweep.csv", header, rows,
        {
            "plot_error_vs_beta.csv": ("beta", "trace_dist"),
            "plot_cost_vs_beta.csv": ("beta", "total_gate_model"),
        },
    )


def _run_hitting(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    chain, marked = chain_from_json(config["chain"])
    mp = mark_states(chain, marked)
    dp = discriminant_pair(mp)
    delta_lower = None
    if config.get("mode", "desk") == "oracle-free":
        if "delta_lower_bound" not in config:
            raise ValidationError("oracle-free mode needs delta_lower_bound")
        delta_lower = float(config["delta_lower_bound"])
    task = HittingTimeTask(
        partition=mp,
        pair=dp,
        epsilon=float(config["epsilon"]),
        confidence=float(config.get("confidence", 8 / math.pi**2)),
        delta_lower=delta_lower,
        constants=constants,
    )
    result = estimate_hitting_time(task, seed=seed)
    summary = {
        "command": "hitting",
        "seed": seed,
        "t_hat": result.estimate,
        "t_exact": result.exact_hitting_time,
        "error": abs(result.estimate - result.exact_hitting_time),
        "grover_queries": result.grover_queries,
        "exact_amplitude": result.exact_amplitude,
        "z_K": result.z_max,
        "cost_breakdown": {
            "C_W": result.cost.value("C_W"),
            "C_U": result.cost.value("C_U"),
            "C_sqrt_pi": result.cost.value("C_sqrt_pi"),
            "C_B": result.cost.value("C_B"),
            "total": result.cost.total,
        },
        "classical_comparison": {
            "samples": result.classical_cost_comparison[0],
            "expected_steps": result.classical_cost_comparison[1],
        },
    }
    _write_json(out / "result.json", summary)
    return summary


def _run_appendix_verify(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    chain, marked = chain_from_json(config["chain"])
    oracle = sparse_oracle(chain, marked)
    manifest = decomposition_manifest(oracle)
    summary = {"command": "appendix-verify", "seed": seed, **manifest}
    _write_json(out / "manifest.json", summary)
    return summary


def _lemma2_point(args: tuple) -> dict:
    delta, epsilon, dim, n_samples, seed = args
    grid = calibrate_inverse_grid(delta, epsilon)
    # Key the stream on the exact bits of both parameters, so distinct sweep
    # points never share random operators.
    rng = np.random.default_rng(
        [seed, *(int(np.float64(x).view(np.uint64)) for x in (delta, epsilon))]
    )
    h = HermitianOperator(random_hermitian_with_spectrum(rng, dim, delta, 1.0))
    eigs, vecs = h.eigensystem
    approx_inv = (vecs * grid.inverse_filter(eigs)) @ vecs.conj().T
    h_inv = np.linalg.inv(h.matrix)
    worst = 0.0
    for _ in range(n_samples):
        phi = random_state(rng, dim)
        worst = max(worst, float(np.linalg.norm(h_inv @ phi - approx_inv @ phi)))
    return {
        "delta": delta,
        "epsilon": epsilon,
        "z_K": grid.z_max,
        "K": grid.k_max,
        "J": grid.j_max,
        "delta_z": grid.delta_z,
        "delta_y": grid.delta_y,
        "gamma": grid.gamma,
        "gamma_gap": abs(grid.gamma - grid.z_max),
        "residual_max": worst,
    }


def _run_lemma2_sweep(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    dim = int(config.get("dim", 8))
    n_samples = int(config.get("samples", 10))
    points = _sweep_points(config["deltas"], config["epsilons"])
    payloads = [(d, e, dim, n_samples, seed) for d, e in points]
    rows = _map_points(_lemma2_point, payloads, int(config.get("jobs", 1)))
    header = [
        "delta", "epsilon", "z_K", "K", "J", "delta_z", "delta_y",
        "gamma", "gamma_gap", "residual_max",
    ]
    return _write_sweep(
        out, "lemma2-sweep", seed, "lemma2_sweep.csv", header, rows,
        {"plot_error_vs_delta.csv": ("delta", "residual_max")},
    )


def _cost_point(args: tuple) -> tuple[float, cost_mod.CostReport]:
    """One cost-sweep point: the reported x value and the model's ledger there."""
    model, sweep_var, value, fixed, constants = args
    params = {**_COST_MODELS[model][1], **fixed, sweep_var: value}
    epsilon = float(params["epsilon"])
    if model == "hitting-quantum":
        return value, cost_mod.theorem2_cost(
            float(params["delta"]), epsilon, float(params["d"]), float(params["n_states"]),
            constants,
        )
    if model == "hitting-classical":
        # lazy-cycle family: a delta sweep varies the laziness 1 - stay
        # and reports the chain's actual spectral gap as the x value
        if sweep_var == "delta":
            if not 0.0 < value <= 0.5:
                raise ValidationError("laziness sweep values must lie in (0, 0.5]")
            params["stay"] = 1.0 - value
        mp = mark_states(lazy_cycle(int(params["n_states"]), float(params["stay"])), [0])
        reported_value = discriminant_pair(mp).delta if sweep_var == "delta" else value
        samples, steps = expected_mc_cost(mp, epsilon, constants)
        return reported_value, cost_mod.CostReport.build(
            entries={
                "samples": cost_mod.CostEntry(samples, "ceil(c var / eps^2)"),
                "expected_steps": cost_mod.CostEntry(steps, "samples * t_h"),
            },
            total=steps,
            total_formula="samples * t_h",
        )
    # self-consistent thermal model: a linear spectrum on [0, norm]
    # supplies the partition function at each beta
    beta, n_dim, norm = float(params["beta"]), int(params["n_dim"]), float(params["norm"])
    z = float(np.sum(np.exp(-beta * np.linspace(0.0, norm, n_dim))))
    return value, cost_mod.theorem1_cost(
        n_dim, z, beta, epsilon, norm_bound=norm, constants=constants
    )


def _run_cost_sweep(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    model, sweep_var = config["model"], config["sweep_var"]
    fixed = dict(config.get("fixed", {}))
    payloads = [
        (model, sweep_var, value, fixed, constants)
        for value in sorted(float(v) for v in config["values"])
    ]
    points = _map_points(_cost_point, payloads, int(config.get("jobs", 1)))
    entry_names = sorted(points[0][1].entries)
    rows = [
        [sweep_var, reported_value]
        + [report.entries[name].value for name in entry_names]
        + [report.total]
        for reported_value, report in points
    ]
    _write_csv(out / "cost_sweep.csv", ["sweep_var", "value"] + entry_names + ["total"], rows)
    _write_plot(out / "plot_cost_vs_value.csv", [r[1] for r in rows], [r[-1] for r in rows])
    summary = {
        "command": "cost-sweep",
        "seed": seed,
        "model": model,
        "sweep_var": sweep_var,
        "points": len(rows),
    }
    _write_json(out / "summary.json", summary)
    return summary


_RUNNERS = {
    "gibbs": _run_gibbs,
    "hitting": _run_hitting,
    "appendix-verify": _run_appendix_verify,
    "lemma1-sweep": _run_lemma1_sweep,
    "lemma2-sweep": _run_lemma2_sweep,
    "cost-sweep": _run_cost_sweep,
}


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read a config, apply the non-None overrides its command's schema
    accepts (so --jobs reaches sweeps only), and validate the result."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, an over-long integer
        raise ValidationError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict) or "command" not in config:
        raise ValidationError("config must be an object with a 'command' field")
    command = config["command"]
    if command not in _SCHEMAS:
        raise ValidationError(
            f"unknown command {command!r}; expected one of {sorted(_SCHEMAS)}"
        )
    schema = _SCHEMAS[command]
    for key, value in (overrides or {}).items():
        if value is not None and key in schema["properties"]:
            config[key] = value
    error = jsonschema.exceptions.best_match(_VALIDATORS[command].iter_errors(config))
    if error is not None:
        raise error
    # The schema checks the config's shape; the readers type each chain entry
    # and matrix number (as schema keywords, 2.8 s on a 384 x 384 matrix).
    for item in config.get("chain", {}).get("entries", ()):
        parse_triplet(item)
    matrix = config.get("hamiltonian", {}).get("matrix", {})
    for key in ("re", "im") if matrix else ():
        check_numbers(matrix[key], key)
    return config


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="lculab",
        description="Run verification experiments for the LCU thermal-state and hitting-time pipelines.",
    )
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed override")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=None, help="worker pool size for sweeps")
    parser.add_argument("--constants", default=None, help="constants override JSON")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, {"seed": args.seed, "out": args.out, "jobs": args.jobs})
    except (ValidationError, jsonschema.ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    overrides = dict(config.get("constants", {}))
    try:
        if args.constants:
            with open(args.constants, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValidationError("constants file must hold a JSON object")
            overrides.update(loaded)
        constants = Constants.from_dict(overrides)
    except (OSError, ValueError) as exc:
        print(f"config error: cannot read constants: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    seed = int(config.get("seed", 0))
    out = Path(config.get("out", "lculab_out"))
    runner = _RUNNERS[config["command"]]

    precondition_messages: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PreconditionWarning)
            runner(config, constants, out, seed)
            precondition_messages = [
                str(w.message) for w in caught if issubclass(w.category, PreconditionWarning)
            ]
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except LculabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3

    logger.info("command %s finished; outputs in %s", config["command"], out)
    if precondition_messages:
        for message in precondition_messages:
            logger.warning("precondition violated: %s", message)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
