"""lculab benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload hitting-cycle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: hitting-cycle, gibbs-tfim, sparse-verify, mc-baseline (see
bench/README.md). The inputs are generated from --seed. Operations run back
to back in this process (a closed loop with one caller) for --seconds
seconds, each checked against exact oracles. With --trace 0 the result
line carries the end-to-end metrics, each time scaled to a fixed host speed
by a reference probe timed next to it (bench/README.md says why); with
--trace 1, untraced and traced operations alternate and it carries the
per-layer metrics. --smoke shrinks
every input to a size that runs in seconds. The last line of standard output
is the JSON result; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("hitting-cycle", "gibbs-tfim", "sparse-verify", "mc-baseline")
# Cold starts per run for setup_s, after one untimed start that warms the
# file cache and byte-code cache. They are interleaved with the operations,
# one after each, so a passing burst of load on the host skews neither metric
# alone; whatever is missing when the time is up runs after the last one.
COLD_STARTS = {"full": 12, "smoke": 2}
# Workload share of traced solve time that the chosen layer must reach.
STRESS = {
    "hitting-cycle": (("inverse.calibrate_s", "lcu.filter_s"), 0.85),
    "gibbs-tfim": (("operators.eigh_s",), 0.70),
    "sparse-verify": (("gap_amplification.unitary_check_s",), 0.50),
    "mc-baseline": (("markov.mc_s",), 0.90),
}
# The reference probe's time, in seconds, at the host speed the scaled times
# refer to: about its median time on the 2-vCPU host of bench/README.md's
# baseline.
REF_PROBE_S = 0.025
_COLD_START = (
    "import sys, time\n"
    "from lculab.cli import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.monotonic()))\n"
)


def pin_threads() -> int:
    """Give BLAS one thread per available core; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["LCULAB_LOG"] = "quiet"
    return nproc


def host_facts(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    for dist in ("scipy", "jsonschema"):
        try:
            facts[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            facts[dist] = None
    return facts


def cold_start_seconds(config_path: Path) -> float:
    """A fresh interpreter up to lculab.cli imported and the config validated."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(config_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


_probe_inputs = None


def probe_seconds() -> float:
    """Time one fixed piece of reference work that does not touch lculab.

    It mixes the three kinds of work the workloads spend their time in: an
    interpreter loop, an element-wise numpy kernel and a BLAS product.
    """
    global _probe_inputs
    import numpy as np

    if _probe_inputs is None:
        _probe_inputs = (np.linspace(0.0, 50.0, 20_000),
                         np.random.default_rng(0).standard_normal((128, 128)))
    x, a = _probe_inputs
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    for _ in range(30):
        np.cos(x)
        a @ a
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own process, one after another; each prints its own result."""
    codes = []
    for workload in WORKLOADS:
        child = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child += ["--smoke"] if args.smoke else []
        codes.append(subprocess.run(child, timeout=900).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not (SRC / "lculab" / "cli.py").is_file():
        print(f"error: no lculab sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))

    import inputs  # imports numpy, so only after the BLAS threads are pinned

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config, ref = inputs.build(args.workload, args.seed, smoke=args.smoke)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if args.trace:
            metrics, attempted, failed, details = traced_run(args, config_path, ref, work)
        else:
            metrics, attempted, failed, details = timed_run(args, config_path, ref, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    details.update(workload=args.workload, seed=args.seed, smoke=args.smoke,
                   sizes=inputs.SIZES[args.workload]["smoke" if args.smoke else "full"],
                   host=host_facts(nproc))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _loop(seconds: float, step):
    """Call step() back to back until the next call would pass `seconds`; at least once."""
    durations = []
    start = time.perf_counter()
    while True:
        durations.append(step())
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return durations


def _tally(results) -> tuple[int, list[str]]:
    """(failed operations, failure lines). Every operation of a run uses the
    same config and seed, so all must write byte-identical outputs; if the
    digests differ, every operation counts as failed."""
    lines = [f"op {i}: exit {r.exit_code}; " + "; ".join(r.failures)
             for i, r in enumerate(results) if not r.ok]
    if len({r.digest for r in results}) > 1:
        return len(results), lines + ["outputs differ between operations"]
    return len(lines), lines


def timed_run(args, config_path, ref, work):
    import ops

    cold_starts = COLD_STARTS["smoke" if args.smoke else "full"]
    cold_start_seconds(config_path)
    for _ in range(3):
        probe_seconds()
    # The host's speed drifts by up to 2x over minutes, for every kind of work
    # at once. Each timed sample is scaled by REF_PROBE_S over the time of a
    # probe next to it: the probe right after an operation, and the probe
    # right before a cold start, since one right after would run while the
    # child process is torn down.
    setups, results, solve_probes, setup_probes = [], [], [], []

    def cold_start(probe):
        setup_probes.append(probe)
        setups.append(cold_start_seconds(config_path))

    def step():
        t0 = time.perf_counter()
        results.append(ops.run_operation(args.workload, config_path, ref, work / "out", args.seed))
        elapsed = time.perf_counter() - t0
        probe = probe_seconds()
        solve_probes.append(probe)
        if len(setups) < cold_starts:
            cold_start(probe)
        return elapsed

    durations = _loop(args.seconds, step)
    while len(setups) < cold_starts:
        cold_start(probe_seconds())
    failed, failures = _tally(results)
    ratios = [r.error_ratio for r in results if r.error_ratio is not None]
    solve_speeds = [REF_PROBE_S / p for p in solve_probes]
    solve = statistics.median(t * v for t, v in zip(durations, solve_speeds))
    setup = statistics.median(t * REF_PROBE_S / p for t, p in zip(setups, setup_probes))
    solve_median = statistics.median(durations)
    setup_median = statistics.median(setups)
    rss = peak_rss_mb()
    fail_frac = failed / len(results)
    print(f"solve_s      = {solve:.4f} s   (median of {len(durations)} operations; wall time {solve_median:.4f} s,"
          f" host speed {statistics.median(solve_speeds):.3f})")
    print(f"setup_s      = {setup:.4f} s   (median of {len(setups)} cold starts; wall time {setup_median:.4f} s)")
    print(f"peak_rss_mb  = {rss:.1f} MB")
    if ratios:
        print(f"error_ratio  = {max(ratios):.6g} 1")
    print(f"fail_frac    = {fail_frac:.4g} 1   ({failed} of {len(results)} operations)")
    details = {
        "solve_samples_s": durations,
        "solve_probe_s": solve_probes,
        "solve_median_wall_s": solve_median,
        "setup_samples_s": setups,
        "setup_probe_s": setup_probes,
        "setup_median_wall_s": setup_median,
        "error_ratio": max(ratios) if ratios else None,
        "fail_frac": fail_frac,
        "output_sha256": sorted({r.digest for r in results}),
        "failures": failures,
        "extra": results[0].extra,
    }
    metrics = {"solve_s": (solve, "s"), "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB")}
    return metrics, len(results), failed, details


def traced_run(args, config_path, ref, work):
    import ops
    import spans

    tracer = spans.Tracer()
    plain, traced, results = [], [], []
    missing: set[str] = set()

    def step():
        t0 = time.perf_counter()
        untraced_result = ops.run_operation(args.workload, config_path, ref, work / "out", args.seed)
        t1 = time.perf_counter()
        missing.update(tracer.install())
        try:
            t2 = time.perf_counter()
            with tracer.operation():
                traced_result = ops.run_operation(
                    args.workload, config_path, ref, work / "out", args.seed,
                    check_span=lambda: tracer.span(spans.CHECK_SPAN),
                )
            t3 = time.perf_counter()
        finally:
            tracer.uninstall()
        results.extend([untraced_result, traced_result])
        plain.append(t1 - t0)
        traced.append(t3 - t2)
        return (t1 - t0) + (t3 - t2)

    # One untimed operation first, so one-time costs of the process (BLAS
    # start-up, first allocations) do not land on the first untraced sample.
    results.append(ops.run_operation(args.workload, config_path, ref, work / "out", args.seed))
    _loop(args.seconds, step)
    rows = spans.per_op_metrics(tracer.spans)
    layer = spans.median_metrics(rows)
    layer["trace_overhead_frac"] = min(traced) / min(plain) - 1.0
    names, floor = STRESS[args.workload]
    layer["stress_frac"] = statistics.median(
        sum(row[n] for n in names) / row["traced_solve_s"] for row in rows
    )
    failed, failures = _tally(results)
    checks = {
        "stress_frac >= %.2f (%s)" % (floor, " + ".join(names)): layer["stress_frac"] >= floor,
        "trace_coverage_frac >= 0.90": layer["trace_coverage_frac"] >= 0.90,
    }
    for name in sorted(layer):
        print(f"{name:40s} = {layer[name]:.6g} {spans.unit_of(name)}")
    for text, passed in checks.items():
        print(f"{'PASS' if passed else 'MISS'}: {text}")
    for target in sorted(missing):
        print(f"NOTE: {target} not found, not traced")
    details = {
        "traced_ops": len(rows),
        "untraced_solve_samples_s": plain,
        "traced_solve_samples_s": traced,
        "layer_checks": checks,
        "untraced_targets": sorted(missing),
        "output_sha256": sorted({r.digest for r in results}),
        "failures": failures,
    }
    metrics = {name: (value, spans.unit_of(name)) for name, value in sorted(layer.items())}
    return metrics, len(results), failed, details


if __name__ == "__main__":
    sys.exit(main())
