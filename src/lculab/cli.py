"""Command-line driver: typed experiment configs, reproducible runs, JSON
summaries plus CSV tables and plot data.

One entry point reads a config JSON whose "command" field selects the
experiment. Each command has a table of field readers, and one object reader
types every JSON object in a config with its table: the config itself, a
cost-sweep's `fixed`, and the matrix and chain wire formats. --seed, --out and
--jobs override the matching fields the command takes, unknown and missing
fields are config errors named by their path (e.g. `chain.entries[3]`), and
each field is typed once, with its default filled in, before a runner indexes
it. --constants overrides the constants.
`mode` is read here only: in oracle-free mode `gibbs` and `hitting` give their
task `z_lower_bound` or `delta_lower_bound`, and in desk mode no bound.
`gibbs` and `lemma1-sweep` run one thermal point function, on one decomposed
Hamiltonian per run. Outputs are byte-identical for identical (config, seed)
pairs under one BLAS build and thread count (from about dimension 224 up, 1
and 2 threads round the eigen-solves apart): each sweep runs its points in
sorted order, in this process, and `jobs` is checked but changes nothing. Exit
codes: 0 success, 1 malformed config, 2 a stated precondition was violated
during the run, 3 domain validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np

from . import cost as cost_mod
from .constants import Constants
from .errors import LculabError, PreconditionWarning, ValidationError
from .gap_amplification import parse_pauli_lines, split_indices
from .gibbs import GibbsResult, GibbsTask, prepare_gibbs
from .inverse import BASE_CONFIDENCE, HittingTimeTask, calibrate_inverse_grid, estimate_hitting_time
from .markov import chain_from_json, expected_mc_cost, lazy_cycle, mark_states
from .operators import DIMENSION_CAP, HermitianOperator, is_integer, is_number, matrix_from_json
from .rand import random_hermitian_with_spectrum, random_state
from .sparse_chain import decomposition_manifest

logger = logging.getLogger("lculab.cli")

# Per cost-sweep model: the variables it can sweep, and the parameters
# `fixed` may set, with their defaults. An int default marks a count of states,
# which a config gives as an integer; the models compute with it as a double, too.
_COST_MODELS = {
    "hitting-quantum": (
        ["delta", "epsilon"], {"delta": 0.25, "epsilon": 0.1, "d": 3.0, "n_states": 32}
    ),
    "hitting-classical": (["delta", "epsilon"], {"n_states": 16, "stay": 0.75, "epsilon": 1.0}),
    "gibbs": (["beta", "epsilon"], {"beta": 4.0, "epsilon": 0.1, "n_dim": 8, "norm": 1.0}),
}
_REQUIRED = object()  # the default of a required field


def _reader(test, what: str, convert=lambda value, name: value):
    """A field reader: a value failing `test` is a config error that names the
    field, and a passing one is typed by `convert(value, name)`."""
    def read(value, name):
        if not test(value):
            raise ValidationError(f"{name} must be {what}, got {value!r}")
        return convert(value, name)

    return read


def _double(value, name) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a double") from None


def _bounded(interval: str, kind: str = "a number", is_kind=is_number, convert=_double):
    """A reader of one number in `interval`, e.g. "(0, 1]". The ends compare as
    JSON Schema's bounds do: NaN passes them, and a closed end at inf admits inf."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return _reader(
        lambda v: is_kind(v) and not (v < low or v > high)
        and (v != low or interval[0] == "[") and (v != high or interval[-1] == "]"),
        f"{kind} in {interval}", convert,
    )


def _integer(interval: str):
    return _bounded(interval, "an integer", is_integer, lambda value, name: int(value))


def _enum(*choices: str):
    return _reader(lambda v: v in choices, f"one of {list(choices)}")


def _nonempty(item):
    return _reader(lambda v: isinstance(v, list) and v != [], "a nonempty list",
                   lambda v, name: [item(x, f"{name}[{i}]") for i, x in enumerate(v)])


_STRING = _reader(lambda v: isinstance(v, str), "a string")
_NUMBER = _bounded("[-inf, inf]")
_COUNT = _bounded("[-inf, inf]", "an integer", is_integer, lambda v, name: int(_double(v, name)))
_UNIT, _POSITIVE, _NONNEGATIVE = _bounded("(0, 1)"), _bounded("(0, inf]"), _bounded("[0, inf]")
# `jobs` is only checked, so that configs setting it stay valid: sweeps run in-process
_JOBS, _MODE = (_integer("[1, inf]"), 1), (_enum("desk", "oracle-free"), "desk")


def _object(specs: dict, label: str | None = None):
    """A reader of a JSON object: `specs` maps each key to (reader, default), or to
    a bare reader for a required key, read under its path (e.g. `chain.entries`).
    An unknown or missing required key is a config error naming the object by
    its path, or by `label` for a config, whose keys are their own names."""
    fields = {k: s if isinstance(s, tuple) else (s, _REQUIRED) for k, s in specs.items()}
    required = [k for k, (_, default) in fields.items() if default is _REQUIRED]

    def read(value, name):
        if not isinstance(value, dict):
            raise ValidationError(f"{name} must be an object, got {value!r}")
        owner, prefix = (label, "") if label else (name, f"{name}.")
        unknown = sorted(value.keys() - fields.keys())
        if unknown:
            raise ValidationError(f"unknown fields {unknown}; {owner} takes {list(fields)}")
        missing = [k for k in required if k not in value]
        if missing:
            raise ValidationError(f"missing fields {missing}; {owner} needs them")
        return {k: read_field(value[k], prefix + k) if k in value else default
                for k, (read_field, default) in fields.items()}

    return read


def _list_of(test, what: str, convert):
    """A reader of a list whose items pass `test`, checked in one pass (only an
    item that fails gets its name formatted), and typed by `convert`."""
    def read(value, name):
        if not isinstance(value, list):
            raise ValidationError(f"{name} must be a list, got {value!r}")
        if not all(map(test, value)):
            i = next(i for i, x in enumerate(value) if not test(x))
            raise ValidationError(f"{name}[{i}] must be {what}, got {value[i]!r}")
        try:
            return convert(value)
        except OverflowError:
            raise ValidationError(f"{name} holds a number too large for a double") from None

    return read


def _is_entry(item) -> bool:
    return (isinstance(item, list) and len(item) == 3
            and is_integer(item[0]) and is_integer(item[1]) and is_number(item[2]))


_FLOATS = _list_of(is_number, "a number", lambda v: np.asarray(v, dtype=float))
_MATRIX = _object({"dim": _integer("[1, inf]"), "re": _FLOATS, "im": _FLOATS})
_CHAIN = _object({
    "n_states": _integer("[2, inf]"),
    "entries": _list_of(_is_entry, "[integer, integer, number]",
                        lambda v: [(int(r), int(c), float(p)) for r, c, p in v]),
    "marked": _list_of(is_integer, "an integer", lambda v: [int(s) for s in v]),
})


def _hamiltonian(value, name) -> dict:
    """{"pauli": text}, or {"matrix": {dim, re, im}}."""
    if isinstance(value, dict) and value.keys() == {"pauli"}:
        return {"pauli": _STRING(value["pauli"], f"{name}.pauli")}
    if isinstance(value, dict) and value.keys() == {"matrix"}:
        return {"matrix": _MATRIX(value["matrix"], f"{name}.matrix")}
    raise ValidationError(f"{name} must hold one field, pauli or matrix, got {value!r}")


def _fields(**specs) -> dict:
    """A command's table for `_object`: the fields every command takes and `specs`."""
    return {
        "command": _STRING, "seed": (_integer("[0, inf]"), 0), "out": (_STRING, "lculab_out"),
        "constants": (_reader(lambda v: isinstance(v, dict), "an object"), {}), **specs,
    }


def _cost_sweep_fields(config: dict) -> dict:
    """cost-sweep's table, whose `sweep_var` and `fixed` follow the model (read first)."""
    model = config.get("model")
    sweep_vars, defaults = _COST_MODELS.get(model, ((), {})) if isinstance(model, str) else ((), {})
    fixed = _object({k: (_COUNT if type(d) is int else _NUMBER, d) for k, d in defaults.items()})
    return _fields(
        model=_enum(*_COST_MODELS), sweep_var=_enum(*sweep_vars), values=_nonempty(_POSITIVE),
        fixed=(fixed, defaults), jobs=_JOBS,
    )


_READERS = {
    "gibbs": _fields(hamiltonian=_hamiltonian, beta=_NONNEGATIVE, epsilon=_UNIT, mode=_MODE,
                     z_lower_bound=(_POSITIVE, None)),
    "hitting": _fields(chain=_CHAIN, epsilon=_UNIT, confidence=(_UNIT, BASE_CONFIDENCE),
                       mode=_MODE, delta_lower_bound=(_POSITIVE, None)),
    "appendix-verify": _fields(chain=_CHAIN),
    "lemma1-sweep": _fields(hamiltonian=_hamiltonian, betas=_nonempty(_NONNEGATIVE),
                            epsilons=_nonempty(_UNIT), jobs=_JOBS),
    "lemma2-sweep": _fields(deltas=_nonempty(_bounded("(0, 1]")), epsilons=_nonempty(_UNIT),
                            dim=(_integer("[1, 64]"), 8), samples=(_integer("[1, 64]"), 10),
                            jobs=_JOBS),
    "cost-sweep": _cost_sweep_fields,
}


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
    h: HermitianOperator, weights: tuple[float, ...], beta: float, epsilon: float,
    constants: Constants, z_lower_bound: float | None = None,
) -> tuple[GibbsResult, dict]:
    """Prepare the thermal state of H at one (beta, eps), priced on the
    presentation `weights` and with eps' set from Z or `z_lower_bound`; returns
    the result and its row. H's cached eigensystem serves every point of a run."""
    task = GibbsTask(hamiltonian=h, beta=beta, epsilon=epsilon, weights=weights,
                     z_lower_bound=z_lower_bound, constants=constants)
    result = prepare_gibbs(task)
    row = {
        "beta": task.beta,
        "epsilon": task.epsilon,
        "eps_prime": task.epsilon_prime,
        "J": result.grid.j_max,
        "delta_y": result.grid.delta_y,
        "trace_dist": result.trace_dist,
        "success_amp": result.success_amplitude,
        "rounds": result.amplification_rounds,
        "total_gate_model": result.cost.total,
    }
    return result, row


def _lower_bound(config: dict, name: str) -> float | None:
    """The task's bound on Z or Delta: None in desk mode, which ignores the field
    `name`; in oracle-free mode, the field, given and positive (not NaN)."""
    if config["mode"] == "desk":
        return None
    bound = config[name]
    if bound is None or not bound > 0:
        raise ValidationError(f"oracle-free mode needs a positive {name}")
    return bound


def _run_gibbs(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    result, row = _thermal_point(
        *_hamiltonian_from_config(config["hamiltonian"]), config["beta"], config["epsilon"],
        constants, _lower_bound(config, "z_lower_bound"),
    )
    summary = {
        "command": "gibbs",
        "seed": seed,
        **row,
        "partition_function": result.task.partition_function,
        "cost": result.cost.to_json(),
        "precondition_warnings": list(result.precondition_warnings),
    }
    _write_json(out / "summary.json", summary)
    return summary


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


def _run_lemma1_sweep(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    h, weights = _hamiltonian_from_config(config["hamiltonian"])
    rows = []
    for beta, eps in sorted(product(config["betas"], config["epsilons"])):
        result, row = _thermal_point(h, weights, beta, eps, constants)
        rows.append({**row, "warnings": len(result.precondition_warnings)})
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
    mp.delta  # builds and checks H_U before the bound is read
    task = HittingTimeTask(
        partition=mp, epsilon=config["epsilon"], confidence=config["confidence"],
        delta_lower=_lower_bound(config, "delta_lower_bound"), constants=constants,
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
    manifest = decomposition_manifest(mark_states(chain, marked))
    summary = {"command": "appendix-verify", "seed": seed, **manifest}
    _write_json(out / "manifest.json", summary)
    return summary


def _lemma2_point(delta: float, epsilon: float, dim: int, n_samples: int, seed: int) -> dict:
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
    rows = [
        _lemma2_point(delta, eps, config["dim"], config["samples"], seed)
        for delta, eps in sorted(product(config["deltas"], config["epsilons"]))
    ]
    header = [
        "delta", "epsilon", "z_K", "K", "J", "delta_z", "delta_y",
        "gamma", "gamma_gap", "residual_max",
    ]
    return _write_sweep(
        out, "lemma2-sweep", seed, "lemma2_sweep.csv", header, rows,
        {"plot_error_vs_delta.csv": ("delta", "residual_max")},
    )


def _cost_point(
    model: str, sweep_var: str, value: float, fixed: dict, constants: Constants
) -> tuple[float, cost_mod.CostReport]:
    """One cost-sweep point: the reported x value and the model's ledger there."""
    params = {**fixed, sweep_var: value}
    epsilon = params["epsilon"]
    if model == "hitting-quantum":
        return value, cost_mod.theorem2_cost(
            params["delta"], epsilon, params["d"], params["n_states"], constants
        )
    if model == "hitting-classical":
        # lazy-cycle family: a delta sweep varies the laziness 1 - stay
        # and reports the chain's actual spectral gap as the x value
        if sweep_var == "delta":
            if not 0.0 < value <= 0.5:
                raise ValidationError("laziness sweep values must lie in (0, 0.5]")
            params["stay"] = 1.0 - value
        mp = mark_states(lazy_cycle(params["n_states"], params["stay"]), [0])
        reported_value = mp.delta if sweep_var == "delta" else value
        return reported_value, cost_mod.classical_ledger(*expected_mc_cost(mp, epsilon, constants))
    # self-consistent thermal model: a linear spectrum on [0, norm]
    # supplies the partition function at each beta; a count below 1 gives an
    # empty spectrum, and theorem1_cost rejects the count itself
    beta, n_dim, norm = params["beta"], params["n_dim"], params["norm"]
    if n_dim > DIMENSION_CAP:
        raise ValidationError(f"dimension {n_dim} exceeds cap {DIMENSION_CAP}")
    z = float(np.sum(np.exp(-beta * np.linspace(0.0, norm, max(n_dim, 0)))))
    return value, cost_mod.theorem1_cost(
        n_dim, z, beta, epsilon, norm_bound=norm, constants=constants
    )


def _run_cost_sweep(config: dict, constants: Constants, out: Path, seed: int) -> dict:
    model, sweep_var = config["model"], config["sweep_var"]
    points = [
        _cost_point(model, sweep_var, value, config["fixed"], constants)
        for value in sorted(config["values"])
    ]
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
    """Read a config and type it with its command's table: apply the non-None
    overrides the command takes (so --jobs reaches sweeps only), reject unknown
    and missing fields, and read each field once. Every field of the command
    is in the result, typed or at its default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, an over-long integer
        raise ValidationError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict) or "command" not in config:
        raise ValidationError("config must be an object with a 'command' field")
    command = config["command"]
    if not (isinstance(command, str) and command in _READERS):
        raise ValidationError(f"unknown command {command!r}; expected one of {sorted(_READERS)}")
    fields = _READERS[command]
    if callable(fields):
        fields = fields(config)
    config.update((k, v) for k, v in (overrides or {}).items() if v is not None and k in fields)
    return _object(fields, command)(config, "")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="lculab",
        description="Run verification experiments for the LCU thermal-state and hitting-time pipelines.",
    )
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed override")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweeps take it and check it is at least 1; they run in-process regardless",
    )
    parser.add_argument("--constants", default=None, help="constants override JSON")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, {"seed": args.seed, "out": args.out, "jobs": args.jobs})
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    overrides = dict(config["constants"])
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

    seed, out = config["seed"], Path(config["out"])
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
