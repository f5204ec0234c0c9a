"""One benchmark operation per workload: run the program on a generated config,
then check what it wrote against exact oracles.

An operation is what `solve_s` times. It starts from a validated config on
disk and ends when the outputs are written and checked. The checks are pure
functions of the written outputs and the generator's reference data, so the
tests can feed them corrupted outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lculab import cli, markov
from lculab.operators import HermitianOperator, matrix_function

# sparse-verify: the enlarged operator must square back to the walk
# Hamiltonian to roundoff.
RESIDUAL_TOL = 1e-10
# mc-baseline: the program draws 16 var / eps^2 walks, so its estimate has
# variance eps^2 / 16 and, by Chebyshev's inequality, misses by more than
# 4 eps with probability at most 1/256.
MC_TOL_EPSILONS = 4.0
# Agreement between a value the program wrote and the harness's recomputation.
AGREE_TOL = 1e-9


@dataclass
class OpResult:
    exit_code: int
    failures: list[str]
    digest: str
    error_ratio: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.failures


def output_digest(out: Path) -> str:
    """sha256 over every file under `out`, in sorted relative-path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def exact_hitting_time(p: np.ndarray, marked) -> float:
    """t_h = pi_U <1| (1 - P_UU)^{-1} |pi_U / pi_U>, by the harness's own solve."""
    w, v = np.linalg.eig(p)
    pi = np.real(v[:, int(np.argmin(np.abs(w - 1.0)))])
    pi = pi / pi.sum()
    u = [s for s in range(p.shape[0]) if s not in set(marked)]
    pi_u = float(pi[u].sum())
    sol = np.linalg.solve(np.eye(len(u)) - p[np.ix_(u, u)], pi[u] / pi_u)
    return pi_u * float(sol.sum())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= AGREE_TOL * max(1.0, abs(b))


def check_hitting(result: dict, ref: dict) -> tuple[list[str], float]:
    """Deterministic error |z_K a - t_h| within epsilon; returns (failures, error_ratio)."""
    failures = []
    t_ref = exact_hitting_time(ref["matrix"], ref["marked"])
    eps = ref["epsilon"]
    if not _close(result["t_exact"], t_ref):
        failures.append(f"t_exact {result['t_exact']!r} != harness {t_ref!r}")
    deterministic = abs(result["z_K"] * result["exact_amplitude"] - t_ref)
    if not deterministic <= eps:
        failures.append(f"|z_K a - t_h| = {deterministic:.3e} exceeds epsilon {eps}")
    if not 0.0 <= result["t_hat"] <= result["z_K"] * (1 + AGREE_TOL):
        failures.append(f"t_hat {result['t_hat']!r} outside [0, z_K]")
    return failures, deterministic / eps


def exact_thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    op = HermitianOperator(h.astype(complex))
    e0 = float(op.eigensystem[0][0])
    unnormalized = matrix_function(op, lambda x: math.exp(-beta * (x - e0)))
    return unnormalized / np.trace(unnormalized).real


def check_gibbs(summary: dict, prepared: np.ndarray, ref: dict) -> tuple[list[str], float]:
    """Trace distance of the prepared state to the exact thermal state within epsilon."""
    failures = []
    exact = exact_thermal_state(ref["hamiltonian"], ref["beta"])
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(prepared - exact))))
    eps = ref["epsilon"]
    if not dist <= eps:
        failures.append(f"trace distance {dist:.3e} exceeds epsilon {eps}")
    if not _close(summary["trace_dist"], dist):
        failures.append(f"summary trace_dist {summary['trace_dist']!r} != harness {dist!r}")
    return failures, dist / eps


def check_sparse(manifest: dict, ref: dict) -> list[str]:
    """Roundoff-level reconstruction, at most 2d-1 colours, 4(K'+1) unitary terms."""
    failures = []
    if not manifest["reconstruction_residual"] <= RESIDUAL_TOL:
        failures.append(f"reconstruction residual {manifest['reconstruction_residual']!r}")
    d = int(np.count_nonzero(ref["matrix"], axis=0).max())
    if not 1 <= manifest["colors"] <= 2 * d - 1:
        failures.append(f"{manifest['colors']} colours outside [1, 2d-1] for d = {d}")
    if manifest["terms"] != 4 * (manifest["colors"] + 1) or len(manifest["alpha_list"]) != manifest["terms"]:
        failures.append(f"{manifest['terms']} unitary terms for {manifest['colors']} colours")
    return failures


def check_mc(result: dict, ref: dict) -> list[str]:
    """Estimate within 4 epsilon of the exact hitting time; walk totals consistent."""
    failures = []
    t_ref = exact_hitting_time(ref["matrix"], ref["marked"])
    if not _close(result["exact"], t_ref):
        failures.append(f"exact_hitting_time_resolvent {result['exact']!r} != harness {t_ref!r}")
    tol = MC_TOL_EPSILONS * ref["epsilon"]
    if not abs(result["estimate"] - t_ref) <= tol:
        failures.append(f"estimate {result['estimate']!r} misses {t_ref!r} by more than {tol}")
    if not (result["samples"] >= 1 and _close(result["estimate"] * result["samples"], result["steps"])):
        failures.append("estimate * samples != total steps")
    return failures


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_cli(config_path: Path, out: Path, seed: int) -> int:
    return cli.main(["--config", str(config_path), "--seed", str(seed), "--out", str(out)])


def _run_gibbs_capturing(config_path: Path, out: Path, seed: int) -> tuple[int, np.ndarray | None]:
    """cli.main with the prepared density kept, since summary.json carries only its distance."""
    captured = {}
    original = cli.prepare_gibbs

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        captured["rho"] = np.array(result.prepared_density.matrix)
        return result

    cli.prepare_gibbs = capture
    try:
        code = _run_cli(config_path, out, seed)
    finally:
        cli.prepare_gibbs = original
    return code, captured.get("rho")


def _run_mc(config_path: Path, out: Path, seed: int, epsilon: float) -> int:
    """validate_chain and mark_states, then the classical Monte-Carlo estimate."""
    config = cli.load_config(str(config_path))
    chain, marked = markov.chain_from_json(config["chain"])
    mp = markov.mark_states(chain, marked)
    estimate, samples, steps = markov.classical_mc_estimate(mp, epsilon, seed)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "estimate": estimate,
        "samples": samples,
        "steps": steps,
        "exact": markov.exact_hitting_time_resolvent(mp),
        "seed": seed,
        "epsilon": epsilon,
    }
    with open(out / "mc.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def run_operation(workload: str, config_path: Path, ref: dict, out: Path, seed: int, check_span=None) -> OpResult:
    """Run one operation into a fresh `out` and check it.

    `check_span`, when given, is a context manager factory that marks the
    checking phase in a trace.
    """
    if out.exists():
        shutil.rmtree(out)
    rho, crash = None, []
    try:
        if workload == "gibbs-tfim":
            code, rho = _run_gibbs_capturing(config_path, out, seed)
        elif workload == "mc-baseline":
            code = _run_mc(config_path, out, seed, ref["epsilon"])
        else:
            code = _run_cli(config_path, out, seed)
    except Exception as exc:  # the program crashed: a failed operation, not a failed benchmark
        code, crash = 1, [f"uncaught {exc!r}"]
    with check_span() if check_span else nullcontext():
        result = OpResult(exit_code=code, failures=crash, digest=output_digest(out))
        if crash:
            return result
        try:
            if workload == "hitting-cycle":
                result.failures, result.error_ratio = check_hitting(_read_json(out / "result.json"), ref)
            elif workload == "gibbs-tfim":
                if rho is None:
                    result.failures = ["prepare_gibbs returned no state"]
                else:
                    result.failures, result.error_ratio = check_gibbs(
                        _read_json(out / "summary.json"), rho, ref
                    )
            elif workload == "sparse-verify":
                manifest = _read_json(out / "manifest.json")
                result.failures = check_sparse(manifest, ref)
                result.extra["colors"] = manifest["colors"]
            else:
                mc = _read_json(out / "mc.json")
                result.failures = check_mc(mc, ref)
                result.extra.update(walks=mc["samples"], steps=mc["steps"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            result.failures.append(f"unreadable output: {exc!r}")
    return result

