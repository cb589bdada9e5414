"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line (with the measured residual and
runtime) and then asserts, so the one-line verdicts survive output capture.
"""

import itertools
import math
import sys
import time

import numpy as np

from graphld.empirical import component_measure, neighborhood_measure
from graphld.gibbs import GibbsProblem, brute_force_opt, conditional_mc, solve
from graphld.measures import (
    DegreeLaw,
    DepthChain,
    TreeMeasure,
    mtp_check,
    pair_measure,
    size_bias,
    tv_distance,
)
from graphld.rates import (
    ReferenceLaw,
    combinatorial_rate,
    component_rate,
    cond_extension_law,
    edge_density_rate,
    extension_chain,
    intermediate_rate,
    leaf_cond_law,
    leaf_indep_law,
    nbd_rate,
    nbd_rate_generic,
    one_step_extension,
    vertex_only_rate,
)
from graphld.samplers import (
    MarkedGraph,
    ModelConfig,
    assign_marks,
    make_rng,
    sample_cm,
    sample_er,
    sample_fe,
)
from graphld.trees import CanonicalTree, split_at_child

from helpers import markov_product_measure, random_forest, star


VERDICTS = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[C{num:02d} {'PASS' if ok else 'FAIL'}] {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    print(line)


def _graph_from_forest(adj, vmarks, emarks) -> MarkedGraph:
    n = len(adj)
    edges = sorted((a, b) for a in adj for b in adj[a] if a < b)
    return MarkedGraph(n, edges, [vmarks[i] for i in range(n)], emarks)


def _forest_corpus(count, n=12, seed=900):
    # trivial edge marks: the reference laws below must be materialized, and
    # a Poisson reference with a 2x2 edge alphabet has far too many atoms
    out = []
    for i in range(count):
        rng = make_rng(seed, i)
        n_i = 6 + int(rng.integers(n - 5))
        comps = 2 + int(rng.integers(2))
        adj, vm, em = random_forest(rng, n_i, n_components=comps, n_y=1)
        out.append(_graph_from_forest(adj, vm, em))
    return out


def test_c01_rate_vanishes_at_truth():
    t0 = time.time()
    law = ReferenceLaw.fixed_alpha(
        {1: 0.5, 3: 0.5}, (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25))
    )
    # deeper marginals of the reference are its iterated maximal-entropy
    # extensions; the extension-exact chain carries them without enumeration
    chain = DepthChain([law.materialize()], extension_exact=True)
    beta = 2.0
    worst = 0.0
    for depth in (1, 2, 3):
        for form in (component_rate, intermediate_rate, combinatorial_rate):
            worst = max(
                worst,
                abs(form(chain, beta, law, ensemble="CM", depth=depth).value),
            )
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 1.0
    _report(1, ok, f"rate vanishes at truth: max |value| = {worst:.2e} over "
                   f"3 forms x depths 1-3 (tol 1e-10); {dt:.2f}s < 1s")
    assert ok


def test_c02_three_form_agreement_on_forests():
    t0 = time.time()
    worst_term = 0.0
    worst_comb = 0.0
    for i, g in enumerate(_forest_corpus(20, seed=910)):
        levels = [component_measure(g, h) for h in (1, 2, 3)]
        beta = levels[0].mean_degree()
        if beta <= 0:
            continue
        law = ReferenceLaw.poisson(beta, (0.5, 0.5), ((1.0,),))
        rc = component_rate(levels, beta, law)
        ri = intermediate_rate(levels, beta, law)
        for a, b in zip(rc.prefix_totals, ri.prefix_totals):
            worst_term = max(worst_term, abs(a - b))
        ca = [0.5 * (x + y) for x, y in rc.terms]
        cb = [x - y for x, y in ri.terms]
        for a, b in zip(ca, cb):
            worst_term = max(worst_term, abs(a - b))
        for depth in (1, 2, 3):
            rm = combinatorial_rate(levels, beta, law, depth=depth)
            worst_comb = max(
                worst_comb, abs(rm.value - ri.prefix_totals[depth - 1])
            )
    dt = time.time() - t0
    ok = worst_term <= 1e-9 and worst_comb <= 1e-9 and dt < 30.0
    _report(2, ok, f"three-form agreement on 20 forests: max per-depth gap = "
                   f"{worst_term:.2e}, max combinatorial gap = {worst_comb:.2e} "
                   f"(tol 1e-9); {dt:.2f}s < 30s")
    assert ok


def test_c03_normalization_and_marginal_preservation():
    t0 = time.time()
    worst_mass = 0.0
    worst_marg = 0.0
    for g in _forest_corpus(20, seed=910):
        levels = [component_measure(g, h) for h in (1, 2, 3)]
        beta = levels[0].mean_degree()
        if beta <= 0:
            continue
        law = ReferenceLaw.poisson(beta, (0.5, 0.5), ((1.0,),))
        def mass_defect(m):
            return abs(math.fsum(w for _, w in m.items()) + m.non_tree_mass - 1.0)

        def marginal_drift(ext, depth, base):
            back = ext.truncated(depth)
            keys = set(dict(back.items())) | set(dict(base.items()))
            return max(abs(back.get(t) - base.get(t)) for t in keys)

        for m in (leaf_indep_law(levels[0], law), leaf_cond_law(levels[0], law)):
            worst_mass = max(worst_mass, mass_defect(m))
        for h in (1, 2):
            ext = one_step_extension(levels[h - 1], h)
            worst_mass = max(worst_mass, mass_defect(ext))
            worst_marg = max(worst_marg, marginal_drift(ext, h, levels[h - 1]))
        for h in (2, 3):
            hat = cond_extension_law(levels[h - 1], h)
            worst_mass = max(worst_mass, mass_defect(hat))
            worst_marg = max(
                worst_marg, marginal_drift(hat, h - 1, levels[h - 2])
            )
    dt = time.time() - t0
    ok = worst_mass <= 1e-12 and worst_marg <= 1e-12 and dt < 10.0
    _report(3, ok, f"leaf/extension law normalization: max |mass-1| = "
                   f"{worst_mass:.2e}, max marginal drift = {worst_marg:.2e} "
                   f"(tol 1e-12); {dt:.2f}s < 10s")
    assert ok


def _random_depth2_measure(rng):
    """Rational-weight depth-2 measure over random small trees."""
    def rand_tree():
        d = int(rng.integers(0, 3))
        kids = []
        for _ in range(d):
            k = int(rng.integers(0, 3))
            sub = CanonicalTree(
                int(rng.integers(2)),
                tuple(
                    ((int(rng.integers(2)), int(rng.integers(2))),
                     CanonicalTree(int(rng.integers(2))))
                    for _ in range(k)
                ),
            )
            kids.append(((int(rng.integers(2)), int(rng.integers(2))), sub))
        return CanonicalTree(int(rng.integers(2)), tuple(kids))

    atoms = {}
    for _ in range(6):
        atoms[rand_tree()] = 0.0
    if all(t.root_degree == 0 for t in atoms):
        atoms[star(0, (1,))] = 0.0
    weights = [1 + int(rng.integers(8)) for _ in atoms]
    tot = sum(weights)
    return TreeMeasure(
        {t: w / tot for t, w in zip(atoms, weights)}, 0.0, 2
    )


def test_c04_pair_measure_is_size_biased_labeling():
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        rho = _random_depth2_measure(make_rng(930, i))
        pm = pair_measure(rho, 2)
        # independent construction: size-bias, cut a uniformly chosen child
        sb = size_bias(rho)
        recon = {}
        for t, w in sb.items():
            d = t.root_degree
            for j in range(d):
                branch, rest = split_at_child(t, j)
                key = (branch.truncated(1), rest.truncated(1))
                recon[key] = recon.get(key, 0.0) + w / d
        keys = set(recon) | {k for k, _ in pm.items()}
        for a, b in keys:
            worst = max(worst, abs(pm.get(a, b) - recon.get((a, b), 0.0)))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 10.0
    _report(4, ok, f"pair measure = size-biased labeling on 50 depth-2 "
                   f"measures: max atom gap = {worst:.2e} (tol 1e-12); "
                   f"{dt:.2f}s < 10s")
    assert ok


def test_c05_mass_transport_on_graphs_and_gw_failure():
    t0 = time.time()
    worst = 0.0
    for i in range(30):
        rng = make_rng(940, i)
        kind = i % 3
        if kind == 0:
            g = sample_er(8 + int(rng.integers(9)), 1.0 + 2.0 * rng.random(), rng)
        elif kind == 1:
            g = sample_fe(8 + int(rng.integers(9)), 6 + int(rng.integers(10)), rng)
        else:
            cfg = ModelConfig(
                ensemble="CM", nu=(0.5, 0.5),
                xi=((0.25, 0.25), (0.25, 0.25)),
                alpha=DegreeLaw({1: 0.5, 3: 0.5}),
            )
            g = sample_cm(8 + 4 * int(rng.integers(3)), cfg, rng)
        g = assign_marks(g, (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25)), rng)
        worst = max(worst, mtp_check(g, 2))
    # wrong-offspring construction: the deeper generation keeps the root
    # degree law instead of its size-biased shift, so transport must fail
    leaf = CanonicalTree(0)
    c1 = CanonicalTree(0, (((0, 0), leaf),))
    c2 = CanonicalTree(0, (((0, 0), leaf), ((0, 0), leaf)))
    def root(kids):
        return CanonicalTree(0, tuple(((0, 0), k) for k in kids))
    bad = TreeMeasure({
        root([c1]): 0.25, root([c2]): 0.25,
        root([c1, c1]): 0.125, root([c1, c2]): 0.25, root([c2, c2]): 0.125,
    }, 0.0, 2)
    bad_violation = mtp_check(bad, 2)
    dt = time.time() - t0
    ok = worst <= 1e-9 and bad_violation >= 0.01 and dt < 30.0
    _report(5, ok, f"mass transport: max violation over 30 graphs = "
                   f"{worst:.2e} (tol 1e-9); wrong-offspring violation = "
                   f"{bad_violation:.3f} >= 0.01; {dt:.2f}s < 30s")
    assert ok


def test_c06_gibbs_closed_form_vs_brute_force():
    t0 = time.time()
    p = GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (0.0, 1.0), 1.5, 0.05)
    s = solve(p)
    v_star = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    gamma_bf, v_bf = brute_force_opt(p)
    lam_err = abs(s.lam - math.log(3.0) / 2.0)
    gamma_err = abs(s.gamma[(2, 1)] - 0.75)
    bf_err = max(abs(v_bf - s.value),
                 max(abs(gamma_bf.get(c, 0.0) - w) for c, w in s.gamma.items()))
    kkt = max(s.residuals["stationarity"], s.residuals["row_sums"],
              s.residuals["active_constraint"],
              s.residuals["complementary_slackness"])
    cfg = ModelConfig(ensemble="CM", nu=(0.5, 0.5), xi=((1.0,),),
                      alpha=DegreeLaw({2: 1.0}))
    rate_err = abs(nbd_rate("CM", cfg, s.mu_star) - s.value)
    dt = time.time() - t0
    ok = (lam_err <= 1e-10 and gamma_err <= 1e-10
          and abs(s.value - v_star) <= 1e-12 and bf_err <= 1e-6
          and kkt <= 1e-9 and rate_err <= 1e-8 and dt < 5.0)
    _report(6, ok, f"gibbs closed form: |lam - ln3/2| = {lam_err:.1e}, "
                   f"brute-force gap = {bf_err:.1e} (tol 1e-6), KKT = "
                   f"{kkt:.1e} (tol 1e-9), rate gap = {rate_err:.1e} "
                   f"(tol 1e-8); {dt:.2f}s < 5s")
    assert ok


def test_c07_gibbs_conditional_mc_trend():
    t0 = time.time()
    p = GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (0.0, 1.0), 1.5, 0.05)
    s = solve(p)
    tvs = []
    counts = []
    for i, n in enumerate((20, 40, 80)):
        rep = conditional_mc(
            p, n, 20_000_000_000, make_rng(950, i),
            min_accepted=100_000, solution=s,
        )
        tvs.append(rep.joint_tv)
        counts.append(rep.accepted)
    dt = time.time() - t0
    decreasing = all(b < a for a, b in zip(tvs, tvs[1:]))
    ok = (decreasing and tvs[-1] < 0.1 and min(counts) >= 100_000
          and dt < 300.0)
    _report(7, ok, f"conditional MC trend: TV = "
                   f"{', '.join(f'{v:.5f}' for v in tvs)} at n = 20, 40, 80 "
                   f"(strictly decreasing, last < 0.1), accepted >= "
                   f"{min(counts)}; {dt:.1f}s < 300s")
    assert ok


def test_c08_neighborhood_measure_converges():
    t0 = time.time()
    alpha = {1: 0.5, 3: 0.5}
    eta1 = ReferenceLaw.fixed_alpha(alpha, (0.5, 0.5), ((1.0,),)).materialize()
    cfg = ModelConfig(ensemble="CM", nu=(0.5, 0.5), xi=((1.0,),),
                      alpha=DegreeLaw(alpha))
    avgs = []
    for n in (100, 1000, 10_000):
        tvs = []
        for seed in range(20):
            rng = make_rng(960, n * 100 + seed)
            g = sample_cm(n, cfg, rng)
            g = assign_marks(g, (0.5, 0.5), ((1.0,),), rng)
            tvs.append(tv_distance(neighborhood_measure(g), eta1))
        avgs.append(sum(tvs) / len(tvs))
    dt = time.time() - t0
    ok = (all(b < a for a, b in zip(avgs, avgs[1:])) and avgs[-1] < 0.05
          and dt < 120.0)
    _report(8, ok, f"local convergence: avg TV(L_n, eta1) = "
                   f"{', '.join(f'{v:.4f}' for v in avgs)} at n = 1e2, 1e3, "
                   f"1e4 over 20 seeds (decreasing, last < 0.05); "
                   f"{dt:.1f}s < 120s")
    assert ok


def test_c09_vertex_only_rate_matches_generic():
    t0 = time.time()
    law = ReferenceLaw.poisson(2.0, (0.35, 0.65), ((1.0,),))
    worst = 0.0
    for i in range(50):
        rng = make_rng(970, i)
        support = sorted(
            set(int(d) for d in rng.integers(0, 5, size=3)) or {1}
        )
        w = rng.random(len(support)) + 0.1
        deg_law = {d: float(x) / float(w.sum()) for d, x in zip(support, w)}
        m = np.asarray(rng.random((2, 2))) + 0.2
        m = (m + m.T) / 2.0
        m = m / m.sum()
        mu = markov_product_measure(deg_law, m)
        beta = mu.mean_degree()
        if beta <= 0:
            continue
        worst = max(
            worst,
            abs(vertex_only_rate(beta, law, mu)
                - nbd_rate_generic(beta, law, mu)),
        )
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _report(9, ok, f"marks-on-vertices rate = generic rate on 50 admissible "
                   f"measures: max gap = {worst:.2e} (tol 1e-10); "
                   f"{dt:.2f}s < 5s")
    assert ok


def test_c10_edge_density_rate_properties():
    t0 = time.time()
    zero_err = max(abs(edge_density_rate(k, k)) for k in (0.5, 1.0, 2.0, 3.7))
    at_zero = abs(edge_density_rate(2.0, 0.0) - 1.0)
    min_second = math.inf
    for kappa in (0.5, 2.0, 3.0):
        grid = [edge_density_rate(kappa, 0.05 * j) for j in range(0, 161)]
        for a, b, c in zip(grid, grid[1:], grid[2:]):
            min_second = min(min_second, a - 2 * b + c)
    dt = time.time() - t0
    ok = (zero_err == 0.0 and at_zero <= 1e-15 and min_second >= -1e-12
          and dt < 1.0)
    _report(10, ok, f"edge density rate: value at own mean = {zero_err:.1e}, "
                    f"|l_2(0) - 1| = {at_zero:.1e}, min second difference = "
                    f"{min_second:.1e} >= -1e-12; {dt:.2f}s < 1s")
    assert ok
