"""Tests of the benchmark itself, on smoke-size inputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        printed = {line.split()[0] for line in proc.stdout.splitlines()[:-2]}
        expected = {"solve_s", "setup_s", "peak_rss_mb", "fail_frac"}
        if workload in ("hitting-cycle", "gibbs-tfim"):
            expected.add("error_ratio")
        assert printed == expected
        details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
        for name in ("solve", "setup"):
            scaled = [t * run.REF_PROBE_S / p
                      for t, p in zip(details[f"{name}_samples_s"], details[f"{name}_probe_s"], strict=True)]
            assert result["metrics"][f"{name}_s"]["value"] == pytest.approx(statistics.median(scaled))


def test_all_runs_every_workload():
    proc = _run("--workload", "all", "--seed", "4", "--seconds", "0.5", "--smoke")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == len(run.WORKLOADS) and all(r["correct"] for r in results)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "mc-baseline", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a, _ = inputs.build(workload, 7, smoke=True)
    b, _ = inputs.build(workload, 7, smoke=True)
    assert json.dumps(a) == json.dumps(b)


def test_seed_varies_the_random_inputs():
    for workload in ("gibbs-tfim", "sparse-verify"):
        assert inputs.build(workload, 1, smoke=True)[0] != inputs.build(workload, 2, smoke=True)[0]


def test_full_sparse_input_has_the_fixed_colour_count():
    config, ref = inputs.build("sparse-verify", 3)
    assert inputs.greedy_edge_colors(ref["matrix"], ref["marked"]) == 6
    assert len(config["chain"]["marked"]) == 3


def _outputs(workload, tmp_path):
    """A real smoke operation's written output and reference data."""
    config, ref = inputs.build(workload, 11, smoke=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = ops.run_operation(workload, path, ref, tmp_path / "out", 11)
    assert result.ok, result.failures
    name = {"hitting-cycle": "result.json", "gibbs-tfim": "summary.json",
            "sparse-verify": "manifest.json", "mc-baseline": "mc.json"}[workload]
    return json.loads((tmp_path / "out" / name).read_text()), ref


@pytest.mark.parametrize("field,value", [("exact_amplitude", 0.5), ("t_exact", 1.0), ("t_hat", -1.0)])
def test_hitting_check_catches_corruption(tmp_path, field, value):
    good, ref = _outputs("hitting-cycle", tmp_path)
    assert ops.check_hitting(good, ref)[0] == []
    bad = dict(good, **{field: value})
    assert ops.check_hitting(bad, ref)[0]


def test_gibbs_check_catches_corruption(tmp_path):
    config, ref = inputs.build("gibbs-tfim", 11, smoke=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, prepared = ops._run_gibbs_capturing(path, tmp_path / "out", 11)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert code == 0 and ops.check_gibbs(summary, prepared, ref)[0] == []
    dim = prepared.shape[0]
    failures, ratio = ops.check_gibbs(summary, np.eye(dim) / dim, ref)
    assert failures and ratio > 1
    # The right state with a wrong reported distance fails too.
    failures, _ = ops.check_gibbs(dict(summary, trace_dist=summary["trace_dist"] + 1e-3), prepared, ref)
    assert failures


@pytest.mark.parametrize(
    "field,value",
    [("reconstruction_residual", 1e-6), ("colors", 99), ("terms", 3), ("alpha_list", [])],
)
def test_sparse_check_catches_corruption(tmp_path, field, value):
    good, ref = _outputs("sparse-verify", tmp_path)
    assert ops.check_sparse(good, ref) == []
    bad = copy.deepcopy(good)
    bad[field] = value
    assert ops.check_sparse(bad, ref)


@pytest.mark.parametrize("field,value", [("estimate", 1e6), ("exact", 0.0), ("steps", 1)])
def test_mc_check_catches_corruption(tmp_path, field, value):
    good, ref = _outputs("mc-baseline", tmp_path)
    assert ops.check_mc(good, ref) == []
    assert ops.check_mc(dict(good, **{field: value}), ref)


def test_exact_hitting_time_of_two_state_chain():
    p = np.full((2, 2), 0.5)
    # From stationarity: t = 0 with prob 1/2, else geometric with mean 2.
    assert ops.exact_hitting_time(p, [1]) == pytest.approx(1.0)


def test_differing_digests_fail_every_operation():
    same = [ops.OpResult(0, [], "a"), ops.OpResult(0, [], "a")]
    assert run._tally(same) == (0, [])
    differ = same + [ops.OpResult(0, [], "b")]
    failed, lines = run._tally(differ)
    assert failed == 3 and lines
    assert run._tally([ops.OpResult(2, [], "a"), ops.OpResult(0, ["x"], "a")])[0] == 2


def test_program_crash_is_a_failed_operation(tmp_path, monkeypatch):
    config, ref = inputs.build("hitting-cycle", 3, smoke=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    def broken(*args, **kwargs):
        raise IndexError("boom")

    monkeypatch.setattr(ops.cli, "estimate_hitting_time", broken)
    result = ops.run_operation("hitting-cycle", path, ref, tmp_path / "out", 3)
    assert not result.ok and "IndexError" in result.failures[0]
