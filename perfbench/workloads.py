"""The four benchmark workloads.

Each workload is a closed loop in one process: an iteration runs a fixed task
list, every call into graphld is one timed op (``Recorder.call``) followed by
its output checks, and the next call starts when the previous one returned.
``build`` makes an iteration's inputs from (seed, iteration) alone; ``run``
executes the task list.  ``PARAMS["full"]`` is what the benchmark measures;
``PARAMS["toy"]`` is the same task list at sizes small enough for smoke tests.

Tolerances are the repository's own acceptance gates: three-form spread and
rate at the truth 1e-9 (C01/C02), measure and graph mass transport 1e-9 (C05),
KKT 1e-9 and brute-force gap 1e-6 (C06), joint TV strictly decreasing in n on
the conditional-MC fast path (C07).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import graphld as gl
from graphld.gibbs import GibbsProblem, brute_force_opt, conditional_mc, solve

TOL_FORMS = 1e-9
TOL_MTP = 1e-9
TOL_KKT = 1e-9
TOL_BRUTE_FORCE = 1e-6
TOL_MASS = 1e-9
MC_DRAW_CAP = 10**12
CHILD_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent

HALF = (0.5, 0.5)
UNIFORM_XI = ((0.25, 0.25), (0.25, 0.25))
SKEW_XI = ((0.4, 0.1), (0.1, 0.4))
TRIVIAL_XI = ((1.0,),)
FORMS = (gl.component_rate, gl.intermediate_rate, gl.combinatorial_rate)

# chain spec: (label, alpha, vertex marks, edge marks, depth, atoms per level)
PARAMS = {
    "full": {
        "graph_local": {"n": 4000},
        "chain_rates": {
            "chains": [
                ("d2", {1: 0.5, 2: 0.5}, 2, 2, 2, (88, 5400)),
                ("d3", {1: 0.5, 2: 0.5}, 3, 1, 3, (27, 270, 2457)),
            ],
            # nu = (0.3, 0.7) with SKEW_XI against the nu = (1/2, 1/2),
            # UNIFORM_XI reference; the value is the three forms' common rate
            "deviation": ({1: 0.5, 2: 0.5}, SKEW_XI, UNIFORM_XI, (88, 5400),
                          0.22684144627137),
            "ugwt_draws": 3,
        },
        "gibbs_mc": {"fast_ns": (20, 40, 60), "generic_ns": (20, 40),
                     "min_accepted": 30_000},
        "cli_pipeline": {"n": 10_000, "ugwt_samples": 5, "gibbs_n": 40,
                         "gibbs_samples": 10_000_000},
    },
    "toy": {
        "graph_local": {"n": 200},
        "chain_rates": {
            "chains": [
                ("d2", {1: 0.5, 2: 0.5}, 2, 1, 2, (10, 54)),
                ("d3", {1: 1.0}, 2, 1, 3, (4, 4, 4)),
            ],
            "deviation": ({1: 0.5, 2: 0.5}, TRIVIAL_XI, TRIVIAL_XI, (10, 54),
                          0.08228287850505167),
            "ugwt_draws": 1,
        },
        "gibbs_mc": {"fast_ns": (20, 40, 60), "generic_ns": (20,),
                     "min_accepted": 1_000},
        "cli_pipeline": {"n": 200, "ugwt_samples": 2, "gibbs_n": 20,
                         "gibbs_samples": 100_000},
    },
}


def _mass_defect(m) -> float:
    return abs(math.fsum(w for _, w in m.items()) + m.non_tree_mass - 1.0)


def _random_law(rng, k: int) -> Tuple[float, ...]:
    w = 0.5 + rng.random(k)
    return tuple(float(x) for x in w / w.sum())


def _random_xi(rng, k: int):
    if k == 1:
        return TRIVIAL_XI
    a = 0.5 + rng.random((k, k))
    a = (a + a.T) / a.sum() / 2.0
    return tuple(tuple(float(x) for x in row) for row in a)


# ---------------------------------------------------------------- graph_local


@dataclass
class GraphInputs:
    n: int
    nu: Tuple[float, ...]
    xi: tuple
    configs: Dict[str, gl.ModelConfig]
    cm_histogram: Dict[int, int]
    seed: int
    iteration: int


def build_graph_local(seed: int, iteration: int, p: dict) -> GraphInputs:
    n = p["n"]
    alpha = gl.DegreeLaw({1: 0.5, 3: 0.5})
    configs = {
        "CM": gl.ModelConfig(ensemble="CM", nu=HALF, xi=UNIFORM_XI, alpha=alpha),
        "FE": gl.ModelConfig(ensemble="FE", nu=HALF, xi=UNIFORM_XI, kappa=2.0, m_n=n),
        "ER": gl.ModelConfig(ensemble="ER", nu=HALF, xi=UNIFORM_XI, kappa=2.0),
    }
    counts = gl.integer_degree_counts(alpha, n)
    return GraphInputs(n, HALF, UNIFORM_XI, configs,
                       {d: c for d, c in counts.items() if c > 0}, seed, iteration)


def run_graph_local(inp: GraphInputs, rec) -> None:
    non_tree = []
    for k, ens in enumerate(("CM", "FE", "ER")):
        rng = gl.make_rng(inp.seed, 3 * inp.iteration + k)
        with rec.section():
            non_tree.append(_graph_ensemble(ens, inp, rng, rec))
    if non_tree:
        rec.add("empirical.non_tree_mass", math.fsum(non_tree) / len(non_tree))


def _graph_ensemble(ens: str, inp: GraphInputs, rng, rec) -> float:
    n, cfg = inp.n, inp.configs[ens]
    if ens == "CM":
        g = rec.call("samplers.sample_cm_s", gl.sample_cm, n, cfg, rng)
        rec.check("cm_degree_histogram", g.degree_histogram() == inp.cm_histogram)
    elif ens == "FE":
        g = rec.call("samplers.sample_fe_s", gl.sample_fe, n, n, rng)
        rec.check("fe_edge_count", g.n == n and len(g.edges) == n, len(g.edges))
    else:
        g = rec.call("samplers.sample_er_s", gl.sample_er, n, cfg.kappa, rng)
        m = len(g.edges)
        rec.check("er_edge_count", g.n == n and abs(m - n) <= 10 * math.sqrt(n), m)
    g = rec.call("samplers.assign_marks_s", gl.assign_marks, g, inp.nu, inp.xi, rng)
    rec.check("marks", g.is_marked and len(g.vmarks) == n
              and len(g.emarks) == 2 * len(g.edges))
    m = len(g.edges)

    L = rec.call("empirical.neighborhood_measure_s", gl.neighborhood_measure, g)
    rec.check("L_measure", _mass_defect(L) <= TOL_MASS and L.non_tree_mass == 0.0
              and abs(L.mean_degree() - 2.0 * m / n) <= TOL_MASS)
    U1 = rec.call("empirical.component_measure_h1_s", gl.component_measure, g, 1)
    rec.check("U1_measure", _mass_defect(U1) <= TOL_MASS)
    U2 = rec.call("empirical.component_measure_h2_s", gl.component_measure, g, 2)
    rec.check("U2_measure", _mass_defect(U2) <= TOL_MASS and U2.depth_bound <= 2)
    v = rec.call("empirical.mtp_check_graph_s", gl.mtp_check_graph, g, 2, rng=rng)
    rec.check("graph_mtp", v <= TOL_MTP, v)
    r = rec.call("rates.nbd_rate_s", gl.nbd_rate, ens, cfg, L)
    rec.check("nbd_rate_finite", math.isfinite(r) and r >= 0.0, r)

    rec.add("empirical.vertices", n)
    rec.add("samplers.edges", m)
    rec.add("empirical.L_atoms", len(L.items()))
    rec.add("empirical.U2_atoms", len(U2.items()))
    for label, value in (("edges", m), ("L", len(L.items())), ("U1", len(U1.items())),
                         ("U2", len(U2.items())), ("U2_non_tree", U2.non_tree_mass),
                         ("mtp", v), ("rate", r)):
        rec.digest(f"{ens}.{label}", value)
    return U2.non_tree_mass


# ---------------------------------------------------------------- chain_rates


@dataclass
class Chain:
    label: str
    eta1: gl.TreeMeasure
    law: gl.ReferenceLaw
    beta: float
    depth: int
    atoms: Tuple[int, ...]
    rng: object
    golden: Optional[float] = None


@dataclass
class ChainInputs:
    truth: List[Chain]
    deviation: Chain
    ugwt_draws: int


def build_chain_rates(seed: int, iteration: int, p: dict) -> ChainInputs:
    truth = []
    for k, (label, alpha, n_x, n_y, depth, atoms) in enumerate(p["chains"]):
        rng = gl.make_rng(seed, 4 * iteration + k)
        alpha = gl.DegreeLaw(alpha)
        law = gl.ReferenceLaw.fixed_alpha(alpha, _random_law(rng, n_x), _random_xi(rng, n_y))
        truth.append(Chain(label, law.materialize(), law, alpha.mean(), depth, atoms, rng))
    alpha, xi, ref_xi, atoms, golden = p["deviation"]
    alpha = gl.DegreeLaw(alpha)
    eta1 = gl.ReferenceLaw.fixed_alpha(alpha, (0.3, 0.7), xi).materialize()
    law = gl.ReferenceLaw.fixed_alpha(alpha, HALF, ref_xi)
    deviation = Chain("deviation", eta1, law, alpha.mean(), 2, atoms, None, golden)
    return ChainInputs(truth, deviation, p["ugwt_draws"])


def _chain_with_forms(c: Chain, rec):
    chain = rec.call("rates.extension_chain_s", gl.extension_chain, c.eta1, c.depth)
    atoms = tuple(len(chain.level(h).items()) for h in range(1, c.depth + 1))
    rec.check("chain_atoms", atoms == c.atoms, atoms)
    defect = chain.truncation_defect()
    rec.check("chain_consistency", defect <= TOL_FORMS, defect)
    for h, a in enumerate(atoms, start=1):
        rec.add(f"rates.chain_atoms_h{h}", a)
    vals = [rec.call(f"rates.{f.__name__}_s", f, chain, c.beta, c.law, ensemble="CM").value
            for f in FORMS]
    spread = max(vals) - min(vals)
    rec.check("three_form_spread", math.isfinite(spread) and spread <= TOL_FORMS, vals)
    rec.digest(f"{c.label}.atoms", atoms)
    rec.digest(f"{c.label}.rates", vals)
    return chain, vals


def run_chain_rates(inp: ChainInputs, rec) -> None:
    for c in inp.truth:
        with rec.section():
            chain, vals = _chain_with_forms(c, rec)
            rec.check("rate_at_truth", max(abs(v) for v in vals) <= TOL_FORMS, vals)
            deepest = chain.level(c.depth)
            pm = rec.call("measures.pair_measure_s", gl.pair_measure, deepest, c.depth)
            ok, defect = rec.call("measures.is_admissible_s", gl.is_admissible, pm)
            rec.check("admissible", ok and defect <= TOL_MTP, defect)
            v = rec.call("measures.mtp_check_s", gl.mtp_check, deepest, c.depth, rng=c.rng)
            rec.check("measure_mtp", v <= TOL_MTP, v)
            rec.digest(f"{c.label}.mtp", v)
            prior = chain.level(c.depth - 1)
            for _ in range(inp.ugwt_draws):
                t = rec.call("samplers.sample_ugwt_s", gl.sample_ugwt,
                             prior, c.depth - 1, c.depth, c.rng)
                tree = gl.canonicalize(t)
                rec.check("ugwt_in_support", deepest.get(tree) > 0.0)
                rec.add("samplers.ugwt_draws", 1)
                rec.digest(f"{c.label}.ugwt", tree.encoding.hex())
    with rec.section():
        c = inp.deviation
        _, vals = _chain_with_forms(c, rec)
        rec.check("deviation_rate", abs(vals[0] - c.golden) <= TOL_FORMS, vals)


# ---------------------------------------------------------------- gibbs_mc


@dataclass
class GibbsInputs:
    fast: GibbsProblem
    generic: GibbsProblem
    fast_ns: Tuple[int, ...]
    generic_ns: Tuple[int, ...]
    min_accepted: int
    seed: int
    iteration: int


def build_gibbs_mc(seed: int, iteration: int, p: dict) -> GibbsInputs:
    # single degree class, two marks: the binomial fast path (C07's problem)
    fast = GibbsProblem(gl.DegreeLaw({2: 1.0}), HALF, (0.0, 1.0), 1.5, 0.05)
    # two degree classes, three marks: the generic multinomial path
    generic = GibbsProblem(gl.DegreeLaw({1: 0.5, 3: 0.5}), (1 / 3, 1 / 3, 1 / 3),
                           (0.0, 1.0, 2.0), 2.6, 0.05)
    return GibbsInputs(fast, generic, tuple(p["fast_ns"]), tuple(p["generic_ns"]),
                       p["min_accepted"], seed, iteration)


def _solve_and_oracle(p: GibbsProblem, rec):
    s = rec.call("gibbs.solve_s", solve, p)
    r = s.residuals
    kkt = max(r["stationarity"], r["row_sums"], r["active_constraint"],
              r["complementary_slackness"])
    rec.check("kkt", kkt <= TOL_KKT, kkt)
    gamma_bf, v_bf = rec.call("gibbs.brute_force_opt_s", brute_force_opt, p)
    gap = max(abs(v_bf - s.value),
              max(abs(gamma_bf.get(c, 0.0) - w) for c, w in s.gamma.items()))
    rec.check("brute_force_gap", gap <= TOL_BRUTE_FORCE, gap)
    rec.digest("gibbs.lambda", s.lam)
    return s


def run_gibbs_mc(inp: GibbsInputs, rec) -> None:
    for k, (name, p, ns) in enumerate((("fast", inp.fast, inp.fast_ns),
                                       ("generic", inp.generic, inp.generic_ns))):
        with rec.section():
            s = _solve_and_oracle(p, rec)
            tvs = []
            for j, n in enumerate(ns):
                rng = gl.make_rng(inp.seed, 8 * inp.iteration + 4 * k + j)
                rep = rec.call(f"gibbs.conditional_mc_{name}_s", conditional_mc, p, n,
                               MC_DRAW_CAP, rng, min_accepted=inp.min_accepted,
                               solution=s)
                rec.check("mc_path", rep.fast_path == (name == "fast"), rep.fast_path)
                rec.check("mc_accepted", rep.accepted >= inp.min_accepted, rep.accepted)
                rec.check("mc_tv", rep.joint_tv < 0.1, rep.joint_tv)
                tvs.append(rep.joint_tv)
                rec.add("gibbs.mc_draws", rep.draws)
                rec.add("gibbs.mc_accepted", rep.accepted)
                rec.digest(f"{name}.{n}", (rep.draws, rep.accepted, rep.joint_tv))
            if name == "fast":
                rec.check("mc_tv_trend", all(b < a for a, b in zip(tvs, tvs[1:])), tvs)


# ---------------------------------------------------------------- cli_pipeline


@dataclass
class CliInputs:
    workdir: Path
    steps: List[Tuple[str, List[str]]]
    n: int
    alpha: Dict[int, float]
    env: Dict[str, str]


def build_cli_pipeline(seed: int, iteration: int, p: dict, workdir: Path) -> CliInputs:
    n, cli_seed = p["n"], seed * 1009 + iteration
    alpha = {1: 0.5, 3: 0.5}
    law = json.dumps({"degree": {"type": "fixed", "pmf": {"1": 0.5, "3": 0.5}},
                      "nu": [0.5, 0.5], "xi": [[1.0]]})
    steps = [
        ("cli.sample_s", ["sample", "--ensemble", "cm", "--n", str(n),
                          "--alpha", json.dumps(alpha), "--nu", "[0.5, 0.5]",
                          "--xi", "[[1.0]]", "--seed", str(cli_seed),
                          "--out", "graph.json"]),
        ("cli.empirical_s", ["empirical", "--graph", "graph.json", "--depth", "2",
                             "--out-prefix", "emp"]),
        ("cli.rate_s", ["rate", "--input", "emp_L.json", "--law", law,
                        "--ensemble", "cm", "--report", "rate_L.json"]),
        ("cli.extend_s", ["extend", "--input", "emp_L.json", "--depth", "2",
                          "--out", "chain.json"]),
        ("cli.rate_s", ["rate", "--input", "chain.json", "--law", law,
                        "--ensemble", "cm", "--form", "all",
                        "--report", "rate_chain.json"]),
        ("cli.verify_s", ["verify", "--input", "chain.json", "--law", law,
                          "--ensemble", "cm", "--report", "verify.json"]),
        ("cli.extend_sampled_s", ["extend", "--input", "emp_L.json", "--depth", "2",
                                  "--samples", str(p["ugwt_samples"]),
                                  "--seed", str(cli_seed), "--out", "sampled.json"]),
        ("cli.gibbs_s", ["gibbs", "--alpha", '{"2": 1.0}', "--nu", "[0.5, 0.5]",
                         "--hfun", "[0, 1]", "--c", "1.5", "--n", str(p["gibbs_n"]),
                         "--samples", str(p["gibbs_samples"]),
                         "--seed", str(cli_seed), "--out-prefix", "gibbs"]),
    ]
    src = str(Path(gl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return CliInputs(workdir, steps, n, alpha, env)


def _run_child(argv: List[str], inp: CliInputs) -> subprocess.CompletedProcess:
    """One CLI command as its own process; a timeout kills and reaps it."""
    try:
        return subprocess.run(argv, cwd=inp.workdir, env=inp.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return subprocess.CompletedProcess(argv, -9, e.stdout or "", "timeout")


def _load(inp: CliInputs, name: str):
    with open(inp.workdir / name) as f:
        return json.load(f)


def _cli_checks(args: List[str], out: str, inp: CliInputs, rec, state: dict) -> None:
    """Output checks of one CLI step, on the files it wrote."""
    if args[0] == "sample":
        g = _load(inp, "graph.json")["graph"]
        deg: Dict[int, int] = {}
        for u, v in g["edges"]:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        hist: Dict[int, int] = {}
        for d in deg.values():
            hist[d] = hist.get(d, 0) + 1
        want = {d: c for d, c in gl.integer_degree_counts(gl.DegreeLaw(inp.alpha),
                                                           inp.n).items() if c > 0}
        rec.check("cm_degree_histogram", hist == want, hist)
        rec.add("samplers.edges", len(g["edges"]))
        rec.add("cli.n", inp.n)
    elif args[0] == "empirical":
        for h in ("L", "U1", "U2"):
            m = _load(inp, f"emp_{h}.json")["measure"]
            mass = math.fsum(a["weight"] for a in m["atoms"]) + m["non_tree_mass"]
            rec.check(f"{h}_measure", abs(mass - 1.0) <= TOL_MASS, mass)
            rec.add(f"cli.{h}_atoms", len(m["atoms"]))
    elif args[0] == "rate":
        rep = _load(inp, args[args.index("--report") + 1])
        agree = rep["agreement"]
        vals = list(agree["values"].values())
        rec.check("three_form_spread", agree["max_spread"] <= TOL_FORMS, agree)
        rec.check("rate_finite", all(math.isfinite(v) and v >= -TOL_FORMS for v in vals))
        # the exact extension of L has the rate of L itself
        if "rate" in state:
            rec.check("extension_keeps_rate", abs(vals[0] - state["rate"]) <= TOL_FORMS,
                      (vals[0], state["rate"]))
        state["rate"] = vals[0]
    elif args[0] == "extend" and "--samples" not in args:
        levels = _load(inp, "chain.json")["levels"]
        rec.check("chain_levels", len(levels) == 2, len(levels))
    elif args[0] == "verify":
        rec.check("verify_all_pass", "ALL PASS" in out.splitlines(), out[-200:])
    elif args[0] == "extend":
        m = _load(inp, "sampled.json")["measure"]
        mass = math.fsum(a["weight"] for a in m["atoms"])
        rec.check("sampled_measure", abs(mass - 1.0) <= TOL_MASS, mass)
    elif args[0] == "gibbs":
        with open(inp.workdir / "gibbs_mc.csv") as f:
            rows = {r[0]: r[1] for r in csv.reader(f) if len(r) == 2}
        draws, accepted = int(rows["draws"]), int(rows["accepted"])
        tv = float(rows["joint_tv"])
        rec.check("mc_report", accepted > 0 and tv < 0.1, (accepted, tv))
        rec.add("gibbs.mc_draws", draws)
        rec.add("gibbs.mc_accepted", accepted)


def run_cli_pipeline(inp: CliInputs, rec) -> None:
    if inp.workdir.exists():
        shutil.rmtree(inp.workdir)
    inp.workdir.mkdir(parents=True)
    state: dict = {}
    try:
        with rec.section():
            for k, (metric, args) in enumerate(inp.steps):
                prof = f".profile{k}.json"
                if rec.profile_children:
                    argv = [sys.executable, str(HERE / "cli_child.py"), prof] + args
                else:
                    argv = [sys.executable, "-m", "graphld.cli"] + args
                proc = rec.call(metric, _run_child, argv, inp)
                if rec.profile_children and (inp.workdir / prof).exists():
                    rec.child_profiles.append(_load(inp, prof))
                if not rec.check("exit_status", proc.returncode == 0,
                                 f"{proc.returncode}: {proc.stdout[-200:]} {proc.stderr[-300:]}"):
                    return
                _cli_checks(args, proc.stdout, inp, rec, state)
        artifacts = sorted(p for p in inp.workdir.iterdir() if not p.name.startswith("."))
        for path in artifacts:
            data = path.read_bytes()
            rec.add("cli.bytes_written", len(data))
            rec.digest(path.name, hashlib.sha256(data).hexdigest())
    finally:
        shutil.rmtree(inp.workdir, ignore_errors=True)


# ---------------------------------------------------------------- registry

WORKLOADS = {
    "graph_local": (build_graph_local, run_graph_local),
    "chain_rates": (build_chain_rates, run_chain_rates),
    "gibbs_mc": (build_gibbs_mc, run_gibbs_mc),
    "cli_pipeline": (build_cli_pipeline, run_cli_pipeline),
}


def build(name: str, seed: int, iteration: int, scale: str, workdir: Path):
    """Inputs of one iteration; the same arguments give the same inputs."""
    make = WORKLOADS[name][0]
    p = PARAMS[scale][name]
    if name == "cli_pipeline":
        return make(seed, iteration, p, Path(workdir) / f"cli-{seed}-{iteration}")
    return make(seed, iteration, p)
