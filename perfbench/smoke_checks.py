"""Smoke checks of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/smoke_checks.py

The file name keeps these out of the repository's default test collection;
together they take a minute or two, most of it in CLI child processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def fewer_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _units(BENCH["end_to_end"]) == run.END_TO_END
    assert _units(BENCH["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric(workload, trace):
    res = run.measure(workload, 3, 0.5, trace, scale="toy")["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = _units(BENCH["per_layer"] if trace else BENCH["end_to_end"])
    assert {k: m["unit"] for k, m in res["metrics"].items()} == names
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_forced_check_failure_counts_as_failed_op():
    record = run.measure("chain_rates", 3, 0.5, False, scale="toy",
                         force_fail={"three_form_spread"})
    res = record["result"]
    # three chains per repetition, each with one three-form check
    assert res["failed"] == 3 * len(record["repetitions"])
    assert not res["correct"]


def _run_cli(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _digest(stdout: str) -> str:
    return next(line.split()[-1] for line in stdout.splitlines()
                if line.startswith("# digest"))


@pytest.mark.parametrize("workload", ["graph_local", "cli_pipeline"])
def test_digests_repeat_for_a_seed_and_differ_across_seeds(workload):
    args = ["--workload", workload, "--seconds", "0.1", "--trace", "0",
            "--scale", "toy", "--seed"]
    a, b, c = (_run_cli(*args, s) for s in ("5", "5", "6"))
    assert a.returncode == b.returncode == c.returncode == 0
    assert _digest(a.stdout) == _digest(b.stdout) != _digest(c.stdout)


def test_profile_counts_repeat_for_a_seed():
    args = ["--workload", "chain_rates", "--seed", "5", "--seconds", "0.1",
            "--trace", "1", "--scale", "toy"]
    results = [json.loads(_run_cli(*args).stdout.splitlines()[-1]) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["trees.canonical_tree_inits"] > 0


def test_refuses_a_directory_without_the_package():
    bare = ROOT / ".bench_build" / "perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run_cli("--workload", "gibbs_mc", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)
