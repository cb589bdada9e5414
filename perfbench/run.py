"""graphld benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload graph_local --seed 1 --seconds 20 --trace 0

Run it from the root of a graphld checkout; the package is imported from the
checkout's ``src/`` tree, and scratch files go to ``.bench_build/perfbench/``.
Without ``src/graphld`` it exits with status 2 and prints no result.

A run measures set-up (three fresh interpreters that import graphld and build
the workload's inputs), then repeats the workload's task list until the next
repetition would end after ``--seconds``.  Each repetition gets its own inputs
from (seed, repetition); its time is the sum of its calls into graphld, so the
benchmark's output checks are not counted.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  A
traced run profiles its first repetition with cProfile (and each CLI child of
it), times the later ones with spans only, and reports the difference as the
tracing overhead.  The full record, spans included, is written to
``.bench_build/perfbench/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import recorder  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# single-threaded BLAS and a fixed hash seed, for this process and its children
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120

WORKLOAD_NAMES = ("graph_local", "chain_rates", "gibbs_mc", "cli_pipeline")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metrics: op times come from the benchmark's spans around calls into
# the module, *.self_s and *_calls/_inits from a cProfile of one repetition,
# counts from the first repetition's inputs and outputs
SPAN_TIMES = (
    "samplers.sample_cm_s", "samplers.sample_fe_s", "samplers.sample_er_s",
    "samplers.assign_marks_s", "samplers.sample_ugwt_s",
    "empirical.neighborhood_measure_s", "empirical.component_measure_h1_s",
    "empirical.component_measure_h2_s", "empirical.mtp_check_graph_s",
    "measures.pair_measure_s", "measures.is_admissible_s", "measures.mtp_check_s",
    "rates.extension_chain_s", "rates.component_rate_s", "rates.intermediate_rate_s",
    "rates.combinatorial_rate_s", "rates.nbd_rate_s",
    "gibbs.solve_s", "gibbs.brute_force_opt_s", "gibbs.conditional_mc_fast_s",
    "gibbs.conditional_mc_generic_s",
    "cli.sample_s", "cli.empirical_s", "cli.rate_s", "cli.extend_s",
    "cli.extend_sampled_s", "cli.verify_s", "cli.gibbs_s",
)
COUNTS = {
    "samplers.edges": "count", "samplers.ugwt_draws": "count",
    "empirical.vertices": "count", "empirical.L_atoms": "count",
    "empirical.U2_atoms": "count", "empirical.non_tree_mass": "ratio",
    "rates.chain_atoms_h1": "count", "rates.chain_atoms_h2": "count",
    "rates.chain_atoms_h3": "count",
    "gibbs.mc_draws": "count", "gibbs.mc_accepted": "count",
    "cli.bytes_written": "bytes",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    **COUNTS,
    **{name: "count" for name in recorder.COUNTED},
    **{f"{m}.self_s": "s" for m in recorder.MODULES},
    "gibbs.acceptance_ratio": "ratio",
    "gibbs.draws_per_s": "1/s",
    "cli.import_s": "s",
    "trace.profiled_wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), 0, sys.argv[5], sys.argv[6])"
)
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import graphld.cli"


def _time_child(argv) -> float:
    """Wall time of one fresh interpreter, from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", force_fail=()) -> dict:
    """Run one workload and return the full record (result line included)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    run = workloads.WORKLOADS[workload][1]
    setup = [
        _time_child([sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), workload,
                     str(seed), scale, str(WORK / "setup")])
        for _ in range(SETUP_SAMPLES)
    ]

    rec = recorder.Recorder(f"{workload}-{seed}", force_fail)
    reps, profiled, summary = {}, None, None  # reps: the unprofiled repetitions
    t_start = time.perf_counter()
    it = 0
    while True:
        inputs = workloads.build(workload, seed, it, scale, WORK)
        gc.collect()  # start every repetition without the last one's garbage
        profile = trace and it == 0
        rec.profile_children = profile
        prof = cProfile.Profile() if profile else None
        rec.begin(it)
        if prof:
            prof.enable()
        try:
            run(inputs, rec)
        finally:
            if prof:
                prof.disable()
        timing = rec.end()
        if profile:
            profiled = timing
            summary = recorder.merge_summaries(
                [recorder.profile_summary(pstats.Stats(prof))] + rec.child_profiles)
        else:
            reps[it] = timing
        it += 1
        if trace and not reps:
            continue  # a traced run needs one repetition without the profiler
        expected = _median([r["wall_s"] for r in reps.values()]) if reps \
            else timing["wall_s"]
        if time.perf_counter() - t_start + expected > seconds:
            break

    ops = rec.ops
    failed = sum(1 for s in ops if s["failed"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "environment": environment(), "setup_samples_s": setup,
        "repetitions": reps, "profiled_repetition": profiled,
        "sizes": rec.sizes, "digests": rec.digests, "failures": rec.failures,
    }
    op_seconds = [r["ops_s"] for r in reps.values()]
    if not trace:
        # the CLI workload runs graphld in child processes: report the largest
        who = resource.RUSAGE_CHILDREN if workload == "cli_pipeline" \
            else resource.RUSAGE_SELF
        values = {
            "wall_s": _median(op_seconds),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        values = per_layer(rec, sorted(reps), summary)
        values["trace.profiled_wall_s"] = profiled["ops_s"]
        values["trace.overhead_s"] = profiled["ops_s"] - _median(op_seconds)
        units = PER_LAYER
        record["profile"] = summary
        record["spans"] = rec.spans
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return record


def per_layer(rec, plain: list, summary: dict) -> dict:
    """Per-layer values; ``plain`` lists the repetitions run without the profiler."""
    per_it = {i: rec.op_seconds(i) for i in plain}
    values = {name: _median([per_it[i].get(name, 0.0) for i in plain])
              for name in SPAN_TIMES}
    first = rec.sizes[0]
    for name in COUNTS:
        values[name] = first.get(name, 0)
    draws = first.get("gibbs.mc_draws", 0)
    values["gibbs.acceptance_ratio"] = first.get("gibbs.mc_accepted", 0) / draws \
        if draws else 0.0
    rates = []
    for i in plain:
        mc_s = per_it[i].get("gibbs.conditional_mc_fast_s", 0.0) \
            + per_it[i].get("gibbs.conditional_mc_generic_s", 0.0)
        if mc_s > 0:
            rates.append(rec.sizes[i].get("gibbs.mc_draws", 0) / mc_s)
    values["gibbs.draws_per_s"] = _median(rates)
    for m in recorder.MODULES:
        values[f"{m}.self_s"] = summary["modules"][m]["self_s"]
    values.update(summary["counters"])
    values["cli.import_s"] = _median([
        _time_child([sys.executable, "-c", IMPORT_CODE, str(SRC)])
        for _ in range(IMPORT_SAMPLES)
    ])
    return values


def report_lines(record: dict) -> list:
    """Human-readable summary printed above the result line."""
    res = record["result"]
    walls = [r["ops_s"] for r in record["repetitions"].values()]
    lines = [
        f"# perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']} scale={record['scale']}",
        "# environment " + json.dumps(record["environment"], sort_keys=True),
        "# sizes (first repetition) " + json.dumps(record["sizes"][0], sort_keys=True),
        f"# digest (first repetition) {record['digests'][0]}",
        f"# repetitions timed without profiler: {len(walls)}; wall_s min/median/max = "
        f"{min(walls):.4f} / {_median(walls):.4f} / {max(walls):.4f}",
        f"# setup_s samples: {', '.join(f'{s:.4f}' for s in record['setup_samples_s'])}",
        f"# error_rate = {res['failed']} / {res['attempted']} = "
        f"{res['failed'] / res['attempted']:.6f} ratio",
    ]
    for f in record["failures"][:20]:
        lines.append(f"# FAILED {f['op']} check={f['check']} iteration={f['iteration']}: "
                     f"{f['detail'][:300]}")
    if record.get("profile"):
        lines.append("# profile of the first repetition (graphld modules, CLI children "
                     "included): module self_s calls")
        for m, row in record["profile"]["modules"].items():
            lines.append(f"#   {m:<10} {row['self_s']:10.4f} {row['calls']:>12}")
    for name, m in res["metrics"].items():
        lines.append(f"# {name} = {m['value']!r} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: the same task lists at smoke-test sizes")
    args = ap.parse_args(argv)
    if not (SRC / "graphld" / "__init__.py").is_file():
        print(f"perfbench: no graphld package under {SRC}; run from the root of a "
              "graphld checkout", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str))
    print("\n".join(report_lines(record)))
    print(f"# record written to {out.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
