"""Rate functions, reference laws, and the depth-extension machinery."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphld
from graphld import measures, rates
from graphld.empirical import component_measure, neighborhood_measure
from graphld.measures import (
    DegreeLaw,
    DepthChain,
    PairMeasure,
    TreeMeasure,
    entropy,
    is_admissible,
    pair_marginals,
    pair_measure,
    relative_entropy,
    transport_violation,
)
from graphld.rates import (
    RateReport,
    ReferenceLaw,
    combinatorial_rate,
    component_rate,
    cond_extension_law,
    edge_density_rate,
    edge_mark_intensity,
    ensemble_reference,
    extension_chain,
    extension_kernel,
    intermediate_rate,
    leaf_cond_law,
    leaf_indep_law,
    matching_entropy,
    matching_entropy_sum,
    nbd_rate,
    nbd_rate_generic,
    one_step_extension,
    vertex_only_rate,
)
from graphld.samplers import MarkedGraph, ModelConfig, assign_marks, make_rng, sample_cm
from graphld.trees import CanonicalTree, HalfEdgeTree, split_at_child, truncate

from helpers import (
    assert_close_laws,
    atomwise_pair_weights,
    canon_raw,
    counter_log_factorial_sum,
    eta1_exact,
    half_edge_view,
    markov_product_measure,
    oracle_depth1_bases,
    oracle_depth1_component_bases,
    oracle_leaf_ratios,
    oracle_truncated,
    ordered_product_extension,
    random_forest,
    run_python,
    star,
)

LEAF = CanonicalTree(0)
END1 = star(0, [0])
MID = star(0, [0, 0])
THREE_PATH = TreeMeasure({END1: 2 / 3, MID: 1 / 3}, 0.0, 1)


def graph_from_forest(adj, vmarks, emarks) -> MarkedGraph:
    n = len(adj)
    edges = [(v, w) for v in adj for w in adj[v] if v < w]
    return MarkedGraph(n, edges, [vmarks[v] for v in range(n)], dict(emarks))


def forest_chain(seed, depth=3, n=10, **kw):
    adj, vmarks, emarks = random_forest(make_rng(301, seed), n, **kw)
    g = graph_from_forest(adj, vmarks, emarks)
    levels = [component_measure(g, h) for h in range(1, depth + 1)]
    return g, (adj, vmarks, emarks), DepthChain(levels)


def uniform_poisson_law(beta, n_x=2, n_y=2):
    nu = tuple(1.0 / n_x for _ in range(n_x))
    xi = tuple(tuple(1.0 / n_y**2 for _ in range(n_y)) for _ in range(n_y))
    return ReferenceLaw.poisson(beta, nu, xi)


# --------------------------------------------------------- scalar functions


def test_edge_density_rate_values_and_convexity():
    assert edge_density_rate(1.7, 1.7) == 0.0
    assert edge_density_rate(2.0, 0.0) == 1.0
    assert edge_density_rate(1.0, 2.0) == pytest.approx((2 * math.log(2) - 1) / 2, rel=1e-12)
    grid = np.linspace(0.0, 6.0, 61)
    vals = [edge_density_rate(2.0, b) for b in grid]
    second = np.diff(vals, 2)
    assert second.min() >= -1e-12
    assert min(vals) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        edge_density_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        edge_density_rate(1.0, -0.5)


def test_matching_entropy_values():
    assert matching_entropy(0.0) == 0.0
    assert matching_entropy(1.0) == 0.5
    # kappa = 2: the per-vertex pairing entropy net of labeling is -1
    assert -matching_entropy(2.0) - math.log(2) == pytest.approx(-1.0, rel=1e-14)
    assert matching_entropy_sum({(0, 0): 1.0, (0, 1): 0.0}) == 0.5
    with pytest.raises(ValueError):
        matching_entropy(-1.0)


# ------------------------------------------------------------ reference law


def test_reference_star_density_matches_ordered_enumeration():
    alpha = DegreeLaw({0: 0.2, 1: 0.3, 2: 0.5})
    nu = (0.4, 0.6)
    xi = ((0.15, 0.25), (0.05, 0.55))
    law = ReferenceLaw.fixed_alpha(alpha, nu, xi)
    xibar = {
        (y, yp): (xi[y][yp] + xi[yp][y]) / 2 for y in range(2) for yp in range(2)
    }
    oracle = eta1_exact(dict(alpha.items()), {0: 0.4, 1: 0.6}, xibar)
    mat = law.materialize()
    assert set(mat.atoms) == set(oracle.atoms)
    for t, w in oracle.items():
        assert mat.get(t) == pytest.approx(w, rel=1e-12)
        assert law.star_density(t) == pytest.approx(w, rel=1e-12)


def test_reference_star_density_examples():
    nu = (0.3, 0.7)
    law0 = ReferenceLaw.fixed_alpha(DegreeLaw({0: 1.0}), nu, ((1.0,),))
    assert law0.star_density(CanonicalTree(0)) == pytest.approx(0.3, rel=1e-14)
    assert law0.star_density(CanonicalTree(1)) == pytest.approx(0.7, rel=1e-14)
    law1 = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), nu, ((1.0,),))
    assert law1.star_density(star(0, [1])) == pytest.approx(0.3 * 0.7, rel=1e-14)
    beta = 1.2
    lawp = ReferenceLaw.poisson(beta, nu, ((1.0,),))
    assert lawp.star_density(CanonicalTree(1)) == pytest.approx(
        math.exp(-beta) * 0.7, rel=1e-13
    )
    # degree-2 stars, distinct and repeated leaf marks (multiplicity factor)
    assert lawp.star_density(star(0, [0, 1])) == pytest.approx(
        math.exp(-beta) * (beta * 0.3) * (beta * 0.7) * 0.3, rel=1e-13
    )
    assert lawp.star_density(star(0, [1, 1])) == pytest.approx(
        math.exp(-beta) * (beta * 0.7) ** 2 / 2 * 0.3, rel=1e-13
    )


def test_reference_star_density_guards():
    law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), (1.0,), ((1.0,),))
    deep = canon_raw((0, [((0, 0), (0, [((0, 0), (0, []))]))]))
    with pytest.raises(ValueError):
        law.star_density(deep)
    assert law.star_density(CanonicalTree(0)) == 0.0  # degree off alpha support
    assert law.star_density(star(1, [0])) == 0.0  # root mark outside X
    assert law.star_density(star(0, [0], pair=(1, 0))) == 0.0  # edge mark outside Y


def test_reference_poisson_tail_and_materialize():
    law = ReferenceLaw.poisson(2.3, (0.5, 0.5), ((1.0,),))
    assert 0 <= law.neglected_tail < 1e-12
    assert math.fsum(law.degree_pmf.values()) == pytest.approx(1.0, abs=1e-12)
    mat = law.materialize()
    assert abs(math.fsum(w for _, w in mat.items()) - 1.0) < 1e-11
    # 1.09e15 projected atoms, far over STAR_ATOM_LIMIT: raises before building
    huge = ReferenceLaw.poisson(20.0, (0.3, 0.3, 0.4), ((0.25, 0.25), (0.25, 0.25)))
    with pytest.raises(ValueError, match="atoms"):
        huge.materialize()


def _poisson_degree_entropy(degree_law, b):
    """H(degree law | Poisson(b)), from the closed form of the Poisson pmf."""
    return math.fsum(w * (math.log(w) + b - d * math.log(b) + math.lgamma(d + 1))
                     for d, w in degree_law.items())


@pytest.mark.parametrize("hub", [32, 33, 60])
def test_poisson_reference_densities_past_the_table_are_the_pmf(hub):
    # stars of degree 1 and ``hub`` against Poisson(mean degree): the table of
    # mean 2.55 stops at degree 32, and past it the star density used to be 0,
    # so every form read +inf; the rate is H(degree law | Poisson(beta))
    m = TreeMeasure({star(0, [0]): 0.95, star(0, [0] * hub): 0.05}, 0.0, 1)
    beta = m.mean_degree()
    law = ReferenceLaw.poisson(beta, (1.0,), ((1.0,),))
    assert (hub in law.degree_pmf) == (hub == 32)
    want = _poisson_degree_entropy({1: 0.95, hub: 0.05}, beta)
    for form in (component_rate, intermediate_rate, combinatorial_rate):
        assert abs(form([m], beta, law).value - want) <= 1e-12, form.__name__
    if hub == 33:
        assert abs(want - 4.169878350461869) <= 1e-12
    # inside the table the density is the table's entry, bit for bit
    assert all(law.degree_density(d) == p for d, p in law.degree_pmf.items())


def test_reference_roundtrip_and_validation():
    alpha = DegreeLaw({1: 0.5, 3: 0.5})
    law = ReferenceLaw.fixed_alpha(alpha, (0.4, 0.6), ((0.1, 0.2), (0.3, 0.4)))
    law2 = ReferenceLaw.from_obj(law.to_obj())
    assert law2.alpha is not None and dict(law2.alpha.items()) == dict(alpha.items())
    assert law2.nu == law.nu and law2.xi == law.xi
    lawp = ReferenceLaw.poisson(1.5, (1.0,), ((1.0,),))
    assert ReferenceLaw.from_obj(lawp.to_obj()).poisson_mean == 1.5
    with pytest.raises(ValueError):
        ReferenceLaw.fixed_alpha(alpha, (0.5, 0.6), ((1.0,),))
    with pytest.raises(ValueError):
        ReferenceLaw.poisson(-1.0, (1.0,), ((1.0,),))


def test_reference_law_checks_an_alpha_given_as_a_mapping():
    # a dict used to be stored as is: mean_degree raised AttributeError, and
    # a negative degree got as far as math.comb in materialize
    law = ReferenceLaw.fixed_alpha({1: 0.5, 2: 0.5}, (0.4, 0.6), ((1.0,),))
    assert law.alpha == DegreeLaw({1: 0.5, 2: 0.5})
    assert law.mean_degree() == 1.5
    with pytest.raises(ValueError, match="^bad degree -1$"):
        ReferenceLaw.fixed_alpha({-1: 0.5, 2: 0.5}, (0.4, 0.6), ((1.0,),))


def test_rate_report_to_obj_has_each_field_once_in_field_order():
    alpha = DegreeLaw({1: 0.5, 2: 0.5})
    law = ReferenceLaw.fixed_alpha(alpha, (0.4, 0.6), ((1.0,),))
    report = component_rate(extension_chain(law.materialize(), 2), alpha.mean(), law,
                            ensemble="CM", depth=3)
    obj = report.to_obj()
    assert list(obj) == [f.name for f in dataclasses.fields(RateReport)]
    assert len(obj["terms"]) == 3
    assert obj["terms"] == [list(t) for t in report.terms]
    assert all(type(t) is list for t in obj["terms"])
    assert obj["flags"] == report.flags and obj["flags"] is not report.flags
    assert obj["prefix_totals"] == report.prefix_totals


GOOD_LAW = {"degree": {"type": "fixed", "pmf": {"1": 0.5, "3": 0.5}},
            "nu": [0.5, 0.5], "xi": [[0.25, 0.25], [0.25, 0.25]]}


@pytest.mark.parametrize("edit, path", [
    (lambda o: o["nu"].__setitem__(0, True), "nu[0]"),
    (lambda o: o["xi"][1].__setitem__(0, True), "xi[1][0]"),
    (lambda o: o["degree"]["pmf"].__setitem__("1", True), 'degree.pmf["1"]'),
    (lambda o: o["nu"].__setitem__(1, "0.5"), "nu[1]"),
    (lambda o: o["degree"].__setitem__("pmf", 3), "degree.pmf"),
    (lambda o: o["degree"].__setitem__("pmf", None), "degree.pmf"),
    (lambda o: o.__setitem__("nu", {"0": 1.0}), "nu"),
    (lambda o: o["xi"].__setitem__(0, 0.5), "xi[0]"),
    (lambda o: o.__setitem__("degree", [1]), "degree"),
    (lambda o: o.__setitem__("degree", {"type": "poisson", "mean": True}), "degree.mean"),
], ids=["nu-true", "xi-true", "pmf-true", "nu-string", "pmf-number", "pmf-null", "nu-dict",
        "xi-row-number", "degree-list", "mean-true"])
def test_reference_from_obj_names_the_mistyped_path(edit, path):
    # JSON `true` used to be read as a weight of 1.0, and a pmf that is not
    # a map raised AttributeError
    obj = json.loads(json.dumps(GOOD_LAW))
    edit(obj)
    with pytest.raises(ValueError, match=f"^{re.escape(path)} must be a "):
        ReferenceLaw.from_obj(obj)
    ReferenceLaw.from_obj(GOOD_LAW)


@pytest.mark.parametrize("mean", [500.0, 1000.0])
def test_reference_poisson_large_mean_terminates(mean):
    # the tail stalls at a rounding floor above 1e-13 for these means; run in
    # a child process so that a regression fails on the timeout instead of
    # hanging the suite
    src = os.path.dirname(os.path.dirname(graphld.__file__))
    code = ("from graphld.rates import ReferenceLaw\n"
            f"law = ReferenceLaw.poisson({mean!r}, (1.0,), ((1.0,),))\n"
            "print(len(law.degree_pmf), law.neglected_tail)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    size, tail = out.stdout.split()
    assert int(size) == 2 * int(mean) + 1
    assert 0 < float(tail) < 1e-12


@pytest.mark.parametrize("mean", [math.nan, math.inf])
def test_reference_poisson_rejects_non_finite_mean(mean):
    with pytest.raises(ValueError):
        ReferenceLaw.poisson(mean, (1.0,), ((1.0,),))


# ------------------------------------------------- depth-1 reference pair


def test_leaf_laws_fixed_point_at_reference():
    alpha = DegreeLaw({1: 2 / 3, 2: 1 / 3})
    law = ReferenceLaw.fixed_alpha(alpha, (0.5, 0.5), ((0.2, 0.3), (0.1, 0.4)))
    eta = law.materialize()
    for fn in (leaf_indep_law, leaf_cond_law):
        out = fn(eta, law)
        assert set(out.atoms) == set(eta.atoms)
        for t, w in eta.items():
            assert out.get(t) == pytest.approx(w, abs=1e-13)


def test_leaf_laws_mass_one_on_graph_empiricals():
    for seed in range(6):
        adj, vmarks, emarks = random_forest(make_rng(88, seed), 10)
        mu = neighborhood_measure(graph_from_forest(adj, vmarks, emarks))
        law = ReferenceLaw.fixed_alpha(
            mu.degree_law(), (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25))
        )
        for fn in (leaf_indep_law, leaf_cond_law):
            out = fn(mu, law)
            assert abs(math.fsum(w for _, w in out.items()) - 1.0) <= 1e-12
            # the input is dominated by both reweightings
            for t, _ in mu.items():
                assert out.get(t) > 0.0


def test_leaf_laws_alternating_cycle_closed_forms():
    # 6-cycle with alternating vertex marks: every root sees two opposite-mark
    # leaves; size-biased child marginal is uniform, conditional is a swap
    edges = [(i, (i + 1) % 6) for i in range(6)]
    g = MarkedGraph(6, edges, [i % 2 for i in range(6)],
                    {k: 0 for e in edges for k in (e, e[::-1])})
    mu = neighborhood_measure(g)
    nu = (0.4, 0.6)
    law = ReferenceLaw.fixed_alpha(DegreeLaw({2: 1.0}), nu, ((1.0,),))
    indep = leaf_indep_law(mu, law)
    for x0 in (0, 1):
        assert indep.get(star(x0, [0, 0])) == pytest.approx(nu[x0] * 0.25, rel=1e-12)
        assert indep.get(star(x0, [0, 1])) == pytest.approx(nu[x0] * 0.5, rel=1e-12)
        assert indep.get(star(x0, [1, 1])) == pytest.approx(nu[x0] * 0.25, rel=1e-12)
    cond = leaf_cond_law(mu, law)
    assert cond.get(star(0, [1, 1])) == pytest.approx(nu[0], rel=1e-12)
    assert cond.get(star(1, [0, 0])) == pytest.approx(nu[1], rel=1e-12)
    assert len(cond.atoms) == 2


def test_leaf_laws_fallback_keeps_mass():
    # all roots carry mark 0, so conditioning on root mark 1 never occurs in
    # the input; those reference cells fall back to the unweighted reference
    mu = TreeMeasure({star(0, [0]): 0.5, star(0, [1]): 0.5}, 0.0, 1)
    law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), (0.5, 0.5), ((1.0,),))
    out = leaf_cond_law(mu, law)
    assert abs(math.fsum(w for _, w in out.items()) - 1.0) <= 1e-12
    assert out.get(star(1, [0])) == pytest.approx(0.25, rel=1e-12)
    assert out.get(star(0, [0])) == pytest.approx(0.25, rel=1e-12)


def test_leaf_laws_domination_errors():
    law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), (1.0, 0.0), ((1.0,),))
    bad = TreeMeasure({star(0, [1]): 1.0}, 0.0, 1)  # leaf mark has nu-mass 0
    for fn in (leaf_indep_law, leaf_cond_law):
        with pytest.raises(ValueError):
            fn(bad, law)
    flat = TreeMeasure({CanonicalTree(0): 1.0}, 0.0, 1)
    with pytest.raises(ValueError):
        leaf_indep_law(flat, law)  # zero mean degree


# --------------------------------------------------------- neighborhood rate


def test_nbd_rate_generic_zero_at_truth():
    alpha = DegreeLaw({1: 0.5, 2: 0.5})
    law = ReferenceLaw.fixed_alpha(alpha, (0.3, 0.7), ((0.2, 0.2), (0.3, 0.3)))
    assert abs(nbd_rate_generic(alpha.mean(), law, law.materialize())) <= 1e-10
    lawp = ReferenceLaw.poisson(0.9, (0.5, 0.5), ((1.0,),))
    assert abs(nbd_rate_generic(0.9, lawp, lawp.materialize())) <= 1e-10


def test_nbd_rate_generic_theta_product_regular():
    # 2-regular stars with all marks i.i.d. theta: the rate is the root-mark
    # divergence alone
    theta = (0.3, 0.7)
    mu = markov_product_measure(
        {2: 1.0}, [[theta[a] * theta[b] for b in range(2)] for a in range(2)]
    )
    nu = (0.5, 0.5)
    law = ReferenceLaw.fixed_alpha(DegreeLaw({2: 1.0}), nu, ((1.0,),))
    want = math.fsum(t * math.log(t / n) for t, n in zip(theta, nu))
    assert nbd_rate_generic(2.0, law, mu) == pytest.approx(want, rel=1e-10)


def test_nbd_rate_generic_gates():
    nu = (0.5, 0.5)
    law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), nu, ((1.0,),))
    asym = TreeMeasure({star(0, [1]): 1.0}, 0.0, 1)
    assert nbd_rate_generic(1.0, law, asym) == math.inf
    sym = TreeMeasure({star(0, [1]): 0.5, star(1, [0]): 0.5}, 0.0, 1)
    assert nbd_rate_generic(1.0, law, sym) < math.inf
    assert nbd_rate_generic(1.5, law, sym) == math.inf  # mean mismatch
    ntm = TreeMeasure({star(0, [1]): 0.25, star(1, [0]): 0.25}, 0.5, 1)
    assert nbd_rate_generic(1.0, law, ntm) == math.inf
    # mean-0 branch: root-mark divergence, and +inf against positive mean
    iso = TreeMeasure({CanonicalTree(0): 0.25, CanonicalTree(1): 0.75}, 0.0, 1)
    want = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert nbd_rate_generic(0.0, law, iso) == pytest.approx(want, rel=1e-12)
    assert nbd_rate_generic(0.0, law, sym) == math.inf
    # atom outside the reference support
    law0 = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), (1.0, 0.0), ((1.0,),))
    bad = TreeMeasure({star(1, [1]): 1.0}, 0.0, 1)
    assert nbd_rate_generic(1.0, law0, bad) == math.inf
    with pytest.raises(ValueError):
        nbd_rate_generic(1.0, law, one_step_extension(THREE_PATH, 1))


def test_nbd_rate_ensembles():
    alpha = DegreeLaw({1: 0.5, 2: 0.5})
    nu = (0.5, 0.5)
    xi = ((0.25, 0.25), (0.25, 0.25))
    xi1 = ((1.0,),)
    cfg_cm = ModelConfig("CM", nu, xi, alpha=alpha)
    law = ReferenceLaw.fixed_alpha(alpha, nu, xi)
    eta = law.materialize()
    assert abs(nbd_rate("CM", cfg_cm, eta)) <= 1e-10
    wrong_deg = markov_product_measure({1: 1.0}, [[1.0, 1.0], [1.0, 1.0]])
    assert nbd_rate("CM", cfg_cm, wrong_deg) == math.inf
    cfg_fe = ModelConfig("FE", nu, xi1, kappa=1.5)
    lawp = ReferenceLaw.poisson(1.5, nu, xi1)
    etap = lawp.materialize()
    assert nbd_rate("FE", cfg_fe, etap) == pytest.approx(
        nbd_rate_generic(1.5, lawp, etap), abs=1e-12
    )
    # ER at an isolated-root law with root marks nu: only the edge cost remains
    cfg_er = ModelConfig("ER", nu, xi1, kappa=2.0)
    iso = TreeMeasure({CanonicalTree(0): 0.5, CanonicalTree(1): 0.5}, 0.0, 1)
    assert nbd_rate("ER", cfg_er, iso) == pytest.approx(1.0, rel=1e-12)
    # ER re-centers the reference at the measured mean degree
    assert nbd_rate("ER", cfg_er, etap) == pytest.approx(
        edge_density_rate(2.0, 1.5) + nbd_rate_generic(1.5, lawp, etap), abs=1e-9
    )
    with pytest.raises(ValueError):
        nbd_rate("XX", cfg_cm, eta)


def _normalized(weights):
    return tuple(w / sum(weights) for w in weights)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 10).map(lambda k: 8 * k),
       graph_nu=st.lists(st.integers(1, 5), min_size=2, max_size=2),
       nu=st.lists(st.integers(1, 5), min_size=2, max_size=2), extra=st.integers(0, 3),
       xi=st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
       scale=st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_depth1_tables_equal_the_per_call_leaf_ratios(seed, n, graph_nu, nu, extra, xi, scale):
    # a CM graph of root degrees 1..3, so the leaf laws stay small; it never
    # uses vertex mark 2, which the reference gives mass ``extra`` (0: a zero
    # nu entry; else a root entry with no size-biased mass, the ratio-1.0
    # path of the conditional leaves), and the reference xi is zero exactly
    # where the graph's is
    rng = make_rng(seed)
    graph_xi = _normalized(xi)
    cfg = ModelConfig("CM", (1.0,), ((1.0,),), alpha=DegreeLaw({1: 0.5, 2: 0.25, 3: 0.25}))
    g = assign_marks(sample_cm(n, cfg, rng), _normalized(graph_nu + [0]),
                     (graph_xi[:2], graph_xi[2:]), rng)
    mu = neighborhood_measure(g)
    ref = _normalized([w * c for w, c in zip(xi, scale)])
    ref_nu, ref_xi = _normalized(nu + [extra]), (ref[:2], ref[2:])
    alpha = mu.degree_law()
    law = ReferenceLaw.fixed_alpha(alpha, ref_nu, ref_xi)
    beta = mu.mean_degree()
    configs = [ModelConfig("CM", ref_nu, ref_xi, alpha=alpha),
               ModelConfig("FE", ref_nu, ref_xi, kappa=beta),
               ModelConfig("ER", ref_nu, ref_xi, kappa=2.0)]

    def values():
        out = [nbd_rate(cfg.ensemble, cfg, mu) for cfg in configs]
        out += [form([mu], beta, law, ensemble="CM").value
                for form in (component_rate, intermediate_rate, combinatorial_rate)]
        return out

    got = values()
    assert math.isfinite(got[0])
    with mock.patch.object(rates._ChainAnalysis, "bases", oracle_depth1_bases), \
            mock.patch.object(rates._ChainAnalysis, "component_bases",
                              oracle_depth1_component_bases):
        assert values() == got
    ratios = oracle_leaf_ratios(law, pair_measure(mu, 1))
    for leaf_law, ratio in zip((leaf_indep_law, leaf_cond_law), ratios):
        assert leaf_law(mu, law).to_obj() == rates._reweighted(law, ratio).to_obj()


def test_ensemble_reference_tuples():
    alpha = DegreeLaw({2: 1.0})
    nu, xi = (1.0,), ((1.0,),)
    beta, law, kap = ensemble_reference("CM", ModelConfig("CM", nu, xi, alpha=alpha))
    assert beta == 2.0 and law.alpha is not None and kap is None
    beta, law, kap = ensemble_reference("FE", ModelConfig("FE", nu, xi, kappa=1.2))
    assert beta == 1.2 and law.poisson_mean == 1.2
    beta, law, kap = ensemble_reference(
        "ER", ModelConfig("ER", nu, xi, kappa=2.0), THREE_PATH
    )
    assert beta == pytest.approx(4 / 3) and law.poisson_mean == beta and kap == 2.0


# ------------------------------------------------------- vertex-only rate


def random_vertex_only_measure(rng):
    n_x = 2
    mat = [[0.0] * n_x for _ in range(n_x)]
    for a in range(n_x):
        for b in range(a, n_x):
            mat[a][b] = mat[b][a] = float(rng.integers(1, 5))
    degs = sorted({1 + int(d) for d in rng.integers(0, 3, size=2)})
    weights = rng.dirichlet(np.ones(len(degs)))
    deg_law = {d: float(w) for d, w in zip(degs, weights)}
    return markov_product_measure(deg_law, mat)


def test_vertex_only_matches_generic_on_random_corpus():
    # a Poisson reference dominates every sampled degree law
    law = ReferenceLaw.poisson(2.0, (0.35, 0.65), ((1.0,),))
    checked = 0
    for seed in range(50):
        mu = random_vertex_only_measure(make_rng(500, seed))
        ok, _ = is_admissible(pair_measure(mu, 1))
        assert ok
        beta = mu.mean_degree()
        a = nbd_rate_generic(beta, law, mu)
        b = vertex_only_rate(beta, law, mu)
        assert math.isfinite(a)
        assert a == pytest.approx(b, abs=1e-10)
        checked += 1
    assert checked == 50


def test_vertex_only_requires_trivial_edge_marks():
    law = uniform_poisson_law(1.0)
    with pytest.raises(ValueError):
        vertex_only_rate(1.0, law, THREE_PATH)


def test_vertex_only_product_minimizes_constrained_rate():
    # over laws with a fixed root-mark law theta, the rate is minimized by
    # the i.i.d.-leaves product and equals the root divergence (grid search
    # over symmetric couplings interpolating product -> diagonal)
    theta = (0.3, 0.7)
    nu = (0.5, 0.5)
    law = ReferenceLaw.fixed_alpha(DegreeLaw({2: 1.0}), nu, ((1.0,),))
    want = math.fsum(t * math.log(t / n) for t, n in zip(theta, nu))
    vals = []
    for t in np.linspace(0.0, 0.5, 11):
        mat = [
            [
                (1 - t) * theta[a] * theta[b] + (t * theta[a] if a == b else 0.0)
                for b in range(2)
            ]
            for a in range(2)
        ]
        mu = markov_product_measure({2: 1.0}, mat)
        assert mu.root_mark_law()[0] == pytest.approx(theta[0], abs=1e-12)
        vals.append(vertex_only_rate(2.0, law, mu))
    assert min(vals) == pytest.approx(want, abs=1e-6)
    assert vals[0] == min(vals)
    assert all(v >= want - 1e-12 for v in vals)


# ----------------------------------------------------------- extension kernel


def test_extension_kernel_point_mass_cell():
    rho = TreeMeasure({MID: 1.0}, 0.0, 1)
    kern = extension_kernel(rho, 1)
    leaf_view = HalfEdgeTree(LEAF, 0)
    law = kern.law(leaf_view, leaf_view)
    assert law == {HalfEdgeTree(END1, 0): 1.0}
    assert kern.cells() == [(leaf_view, leaf_view)]


def test_extension_kernel_cell_laws_normalized():
    for seed in range(4):
        _, _, chain = forest_chain(seed)
        for h in (1, 2):
            kern = extension_kernel(chain.level(h), h)
            for cell in kern.cells():
                total = math.fsum(kern.law(*cell).values())
                assert abs(total - 1.0) <= 1e-12


def test_extension_kernel_matches_directed_edge_conditionals():
    # on a forest, the kernel cell laws are exactly the empirical conditional
    # laws of the deeper half-edge view over uniformly chosen directed edges
    for seed in range(5):
        g, (adj, vmarks, emarks), chain = forest_chain(seed, depth=2)
        h = 2
        kern = extension_kernel(chain.level(h), h)
        buckets = {}
        for u in adj:
            for v in adj[u]:
                prior = HalfEdgeTree(
                    canon_raw(half_edge_view(adj, vmarks, emarks, u, v, h - 1)),
                    emarks[(u, v)],
                )
                opp = HalfEdgeTree(
                    canon_raw(half_edge_view(adj, vmarks, emarks, v, u, h - 1)),
                    emarks[(v, u)],
                )
                deeper = HalfEdgeTree(
                    canon_raw(half_edge_view(adj, vmarks, emarks, u, v, h)),
                    emarks[(u, v)],
                )
                buckets.setdefault((prior, opp), Counter())[deeper] += 1
        assert set(buckets) == set(kern.cells())
        for cell, counts in buckets.items():
            total = sum(counts.values())
            law = kern.law(*cell)
            assert set(law) == set(counts)
            for cand, c in counts.items():
                assert law[cand] == pytest.approx(c / total, abs=1e-12)


def test_extension_kernel_guards():
    asym = TreeMeasure({star(0, [1]): 1.0}, 0.0, 1)
    with pytest.raises(ValueError):
        extension_kernel(asym, 1)
    with pytest.raises(ValueError):
        extension_kernel(TreeMeasure({LEAF: 1.0}, 0.0, 1), 1)  # mean degree 0
    kern = extension_kernel(THREE_PATH, 1)
    with pytest.raises(ValueError):
        kern.law(HalfEdgeTree(CanonicalTree(9), 0), HalfEdgeTree(LEAF, 0))


def test_extension_kernel_checks_admissibility_on_the_memoized_pair_law(monkeypatch):
    # the kernel tests the pair law that pair_measure keeps, not a copy
    fresh = TreeMeasure(dict(THREE_PATH.atoms), 0.0, 1)
    pi = pair_measure(fresh, 1)
    tested = []
    monkeypatch.setattr(rates, "is_admissible", lambda p: tested.append(p) or is_admissible(p))
    extension_kernel(fresh, 1)
    assert len(tested) == 1 and tested[0] is pi
    with pytest.raises(ValueError, match=r"^input law is inadmissible \(asymmetry "):
        extension_kernel(TreeMeasure({star(0, [1]): 1.0}, 0.0, 1), 1)


# -------------------------------------------------------- one-step extension


def test_one_step_extension_three_path_hand_values():
    got = one_step_extension(THREE_PATH, 1)
    chain2 = canon_raw((0, [((0, 0), (0, [((0, 0), (0, []))]))]))
    tau_b = canon_raw((0, [((0, 0), (0, [])), ((0, 0), (0, [((0, 0), (0, []))]))]))
    tau_c = canon_raw(
        (0, [((0, 0), (0, [((0, 0), (0, []))])), ((0, 0), (0, [((0, 0), (0, []))]))])
    )
    want = {END1: 1 / 3, chain2: 1 / 3, MID: 1 / 12, tau_b: 1 / 6, tau_c: 1 / 12}
    assert set(got.atoms) == set(want)
    for t, w in want.items():
        assert got.get(t) == pytest.approx(w, abs=1e-13)
    assert got.depth_bound == 2


def test_one_step_extension_marginal_and_mass():
    for seed in range(4):
        _, _, chain = forest_chain(seed)
        for h in (1, 2):
            ext = one_step_extension(chain.level(h), h)
            assert ext.depth_bound == h + 1
            assert abs(math.fsum(w for _, w in ext.items()) - 1.0) <= 1e-12
            back = ext.truncated(h)
            lv = chain.level(h)
            assert set(back.atoms) == set(lv.atoms)
            for t, w in lv.items():
                assert back.get(t) == pytest.approx(w, abs=1e-12)


def test_one_step_extension_single_edge_fixed_point():
    one_edge = TreeMeasure({END1: 1.0}, 0.0, 1)
    ext = one_step_extension(one_edge, 1)
    assert ext.atoms == {END1: 1.0}
    assert ext.depth_bound == 2


def test_one_step_extension_degree_zero_passthrough():
    mixed = TreeMeasure({LEAF: 0.4, END1: 0.6}, 0.0, 1)
    ext = one_step_extension(mixed, 1)
    assert ext.get(LEAF) == pytest.approx(0.4, abs=1e-15)
    assert ext.get(END1) == pytest.approx(0.6, abs=1e-13)
    flat = TreeMeasure({LEAF: 1.0}, 0.0, 1)
    ext0 = one_step_extension(flat, 1)
    assert ext0.atoms == {LEAF: 1.0} and ext0.depth_bound == 2


@pytest.mark.parametrize("alpha, nu, xi, sizes", [
    ({1: 0.5, 3: 0.5}, (0.5, 0.5), ((1.0,),), (12, 256, 140748)),  # the README chain
    ({1: 0.5, 2: 0.5}, (0.4, 0.6), ((0.1, 0.2), (0.3, 0.4)), (88, 5400)),
    ({1: 0.5, 2: 0.5}, (0.2, 0.3, 0.5), ((1.0,),), (27, 270, 2457)),
], ids=["readme", "d2", "d3"])
def test_extension_atom_projection_is_the_built_count(alpha, nu, xi, sizes):
    law = ReferenceLaw.fixed_alpha(DegreeLaw(alpha), nu, xi)
    chain = extension_chain(law.materialize(), len(sizes))
    assert tuple(len(chain.level(h)) for h in range(1, len(sizes) + 1)) == sizes
    for h in range(1, len(sizes)):
        # one atom short of the built count, the routine refuses and names it
        with mock.patch.object(rates, "EXTENSION_ATOM_LIMIT", sizes[h] - 1), pytest.raises(
                ValueError, match=rf"^one-step extension would need {sizes[h]} atoms \(limit"):
            rates._extend(chain.level(h), h)
    assert max(sizes) <= rates.EXTENSION_ATOM_LIMIT


@pytest.mark.parametrize("alpha, nu, xi, depth", [
    ({1: 0.5, 3: 0.5}, (0.5, 0.5), ((1.0,),), 2),  # level 3 is CI's "Exact chain rates"
    ({1: 0.5, 2: 0.5}, (0.4, 0.6), ((0.1, 0.2), (0.3, 0.4)), 2),
    ({1: 0.5, 2: 0.5}, (0.2, 0.3, 0.5), ((1.0,),), 3),
], ids=["readme", "d2", "d3"])
def test_extension_matches_the_ordered_product_on_the_projection_chains(alpha, nu, xi, depth):
    law = ReferenceLaw.fixed_alpha(DegreeLaw(alpha), nu, xi)
    chain = extension_chain(law.materialize(), depth)
    for h in range(1, depth):
        assert_close_laws(one_step_extension(chain.level(h), h),
                          ordered_product_extension(chain.level(h), h))


def _normalized(ws):
    return tuple(w / sum(ws) for w in ws)


@st.composite
def small_reference_laws(draw):
    """Reference laws of degrees at most 3, one or two vertex marks and a 1x1
    or 2x2 edge mark matrix."""
    weights = lambda n: _normalized(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    degrees = sorted(draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)))
    k = draw(st.sampled_from([1, 2]))
    xi = weights(k * k)
    return ReferenceLaw.fixed_alpha(DegreeLaw(dict(zip(degrees, weights(len(degrees))))),
                                    weights(draw(st.integers(1, 2))),
                                    tuple(xi[i * k:(i + 1) * k] for i in range(k)))


def _small_extension(law, depth):
    """(rho, its one-step extension) for the depth-``depth`` level rho of the
    law's extension chain: an admissible depth-1 law, or a depth-2 law as its
    extension; the limit keeps the oracles' orderings few."""
    with mock.patch.object(rates, "EXTENSION_ATOM_LIMIT", 4000):
        try:
            rho = extension_chain(law.materialize(), depth).level(depth)
            return rho, one_step_extension(rho, depth)
        except ValueError as e:
            assert str(e).startswith("one-step extension would need"), e
            assume(False)


@given(small_reference_laws(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_extension_matches_the_ordered_product(law, depth):
    rho, ext = _small_extension(law, depth)
    assert_close_laws(ext, ordered_product_extension(rho, depth))


@given(small_reference_laws(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_extension_pair_weights_and_truncation_are_the_atomwise_ones(law, depth):
    # the extension carries both laws from its build, so mtp_check and
    # is_admissible read them; its atoms, cut one by one, must give them too
    _, ext = _small_extension(law, depth)
    derived, want = measures._pair_weights(ext, depth + 1), atomwise_pair_weights(ext, depth + 1)
    assert set(derived) == set(want)
    for key, w in want.items():
        assert derived[key] == pytest.approx(w, rel=1e-13, abs=0)
    assert ext.truncated(depth).to_obj() == oracle_truncated(ext, depth).to_obj()
    beta = ext.mean_degree()
    if beta > 0:
        assert transport_violation(want) <= 1e-9
        assert PairMeasure({k: w / beta for k, w in want.items()}).symmetry_defect() <= 1e-9


def test_extension_over_the_atom_limit_raises_before_building():
    # 9.5e10 projected depth-2 atoms: this used to run for minutes and take
    # gigabytes; a child process turns a missing limit into a timeout
    res = run_python(
        "import time\nfrom graphld import DegreeLaw, ReferenceLaw, extension_chain\n"
        "law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 0.3, 2: 0.3, 4: 0.4}), (0.5, 0.5),"
        " ((0.25, 0.25), (0.25, 0.25)))\n"
        "eta1 = law.materialize()\nstart = time.perf_counter()\n"
        "try:\n    extension_chain(eta1, 2)\n"
        "except ValueError as e:\n    print(time.perf_counter() - start, e)\n",
        timeout=30)
    assert res.returncode == 0, res.stderr
    seconds, message = res.stdout.split(" ", 1)
    assert message.strip() == "one-step extension would need 95074607340 atoms (limit 1000000)"
    assert float(seconds) < 1.0


ROOT_ENTRIES = st.lists(st.tuples(st.sampled_from([(0, 0), (0, 1), (1, 1)]),
                                  st.integers(0, 2), st.integers(0, 2)), max_size=12)


@given(ROOT_ENTRIES)
@settings(max_examples=80, deadline=None)
def test_log_factorial_sum_is_the_counter_sum_bit_for_bit(entries):
    # children (pair, root of mark x with k leaves): truncation to depth 1
    # merges children that differ only in their leaves into longer runs
    t = CanonicalTree(0, tuple((pair, CanonicalTree(x, (((0, 0), LEAF),) * k))
                               for pair, x, k in entries))
    for h in range(t.depth + 1):
        cut = truncate(t, h)
        assert rates._log_factorial_sum(cut).hex() == counter_log_factorial_sum(cut).hex()


def _mc_extension(rho, h, n_draws, rng):
    """Independent sampler of the extension: size-biased tree with a uniform
    child, conditioned on the two truncated views, deepens each branch."""
    atoms = sorted(rho.atoms)
    weights = np.array([rho.get(t) for t in atoms])
    sb = weights * np.array([t.root_degree for t in atoms], dtype=float)
    sb = sb / sb.sum()
    weights = weights / weights.sum()

    def draw_deeper(prior, opposite):
        while True:
            s = atoms[int(rng.choice(len(atoms), p=sb))]
            i = int(rng.integers(s.root_degree))
            branch, rest = split_at_child(s, i)
            if rest.truncated(h - 1) == prior and branch == opposite:
                return rest

    counts = Counter()
    for _ in range(n_draws):
        s = atoms[int(rng.choice(len(atoms), p=weights))]
        kids = []
        for i in range(s.root_degree):
            branch, rest = split_at_child(s, i)
            deeper = draw_deeper(branch, rest.truncated(h - 1))
            kids.append(((deeper.pendant_mark, rest.pendant_mark), deeper.tree))
        counts[CanonicalTree(s.mark, tuple(kids))] += 1
    return counts


def test_one_step_extension_monte_carlo():
    cases = [THREE_PATH]
    # marked path a-b-a exercises the conditioning rejection across cells
    g = MarkedGraph(3, [(0, 1), (1, 2)], [0, 1, 0],
                    {(0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0})
    cases.append(neighborhood_measure(g))
    for idx, rho in enumerate(cases):
        exact = one_step_extension(rho, 1)
        n_draws = 15000
        counts = _mc_extension(rho, 1, n_draws, make_rng(606, idx))
        assert sum(counts.values()) == n_draws
        for t, p in exact.items():
            phat = counts.get(t, 0) / n_draws
            assert abs(phat - p) <= 3 * math.sqrt(p * (1 - p) / n_draws) + 1e-9
        for t in counts:
            assert exact.get(t) > 0


# ------------------------------------------------- conditional extension law


def test_cond_extension_mass_marginals_domination():
    for seed in range(4):
        _, _, chain = forest_chain(seed)
        for h in (2, 3):
            rho = chain.level(h)
            rhat = cond_extension_law(rho, h)
            assert abs(math.fsum(w for _, w in rhat.items()) - 1.0) <= 1e-12
            for t, _ in rho.items():
                assert rhat.get(t) > 0.0
            rstar = one_step_extension(chain.level(h - 1), h - 1)
            first, _, _ = pair_marginals(pair_measure(rho, h))
            first_star, _, _ = pair_marginals(pair_measure(rstar, h))
            assert set(first) == set(first_star)
            for k, w in first.items():
                assert first_star[k] == pytest.approx(w, abs=1e-12)


def test_cond_extension_depth1_delegates():
    adj, vmarks, emarks = random_forest(make_rng(17), 8)
    mu = neighborhood_measure(graph_from_forest(adj, vmarks, emarks))
    law = ReferenceLaw.fixed_alpha(
        mu.degree_law(), (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25))
    )
    assert cond_extension_law(mu, 1, law) == leaf_cond_law(mu, law)
    with pytest.raises(ValueError):
        cond_extension_law(mu, 1)


def test_cond_extension_fixed_point_on_extensions():
    r2 = one_step_extension(THREE_PATH, 1)
    r3 = one_step_extension(r2, 2)
    for rho, h in ((r2, 2), (r3, 3)):
        rhat = cond_extension_law(rho, h)
        assert set(rhat.atoms) == set(rho.atoms)
        for t, w in rho.items():
            assert rhat.get(t) == pytest.approx(w, abs=1e-13)


# ----------------------------------------------------- the three rate forms


def test_component_intermediate_termwise_agreement():
    for seed in range(12):
        _, _, chain = forest_chain(seed, n=12)
        beta = chain.level(1).mean_degree()
        law = uniform_poisson_law(beta)
        comp = component_rate(chain, beta, law)
        intm = intermediate_rate(chain, beta, law)
        assert comp.value < math.inf
        for h in range(3):
            a, b = comp.terms[h]
            c, d = intm.terms[h]
            assert 0.5 * (a + b) == pytest.approx(c - d, abs=1e-9)
        assert comp.value == pytest.approx(intm.value, abs=1e-9)


def test_combinatorial_total_matches_other_forms():
    for seed in range(6):
        _, _, chain = forest_chain(seed, n=12)
        beta = chain.level(1).mean_degree()
        law = uniform_poisson_law(beta)
        intm = intermediate_rate(chain, beta, law)
        for depth in (1, 2, 3):
            comb = combinatorial_rate(chain, beta, law, depth=depth)
            want = intm.boundary + intm.prefix_totals[depth - 1]
            assert comb.value == pytest.approx(want, abs=1e-9)


def test_recursion_links_microstate_terms():
    for seed in range(6):
        _, _, chain = forest_chain(seed, n=12)
        beta = chain.level(1).mean_degree()
        law = uniform_poisson_law(beta)
        intm = intermediate_rate(chain, beta, law)
        comb = combinatorial_rate(chain, beta, law)
        for h in (2, 3):
            drop = comb.j_values[h - 2] - comb.j_values[h - 1]
            a, b = intm.terms[h - 1]
            assert drop == pytest.approx(a - b, abs=1e-9)
        assert comb.flags["j_direction"] in {
            "non-increasing",
            "non-decreasing",
            "constant",
            "mixed",
        }


def test_microstate_identity_against_component_total():
    for seed in range(4):
        _, _, chain = forest_chain(seed, n=12)
        beta = chain.level(1).mean_degree()
        law = uniform_poisson_law(beta)
        comp = component_rate(chain, beta, law)
        comb = combinatorial_rate(chain, beta, law)
        level1 = chain.level(1)
        intensity = edge_mark_intensity(level1)
        base = (
            entropy(level1.root_mark_law())
            + relative_entropy(level1.root_mark_law(), {0: 0.5, 1: 0.5})
            + 0.5 * beta * relative_entropy(
                {k: v / beta for k, v in intensity.items()}, law.xibar_dict()
            )
            + matching_entropy_sum(intensity)
        )
        assert comb.j_values[-1] == pytest.approx(base - comp.value, abs=1e-9)


def test_three_forms_zero_at_truth_chain():
    alpha = DegreeLaw({1: 0.5, 2: 0.5})
    nu = (0.3, 0.7)
    xi = ((0.1, 0.2), (0.3, 0.4))
    law = ReferenceLaw.fixed_alpha(alpha, nu, xi)
    chain = extension_chain(law.materialize(), 2)
    kappa = alpha.mean()
    for fn in (component_rate, intermediate_rate, combinatorial_rate):
        rep = fn(chain, kappa, law, "CM")
        assert abs(rep.value) <= 1e-10
        assert rep.flags["admissible"] and rep.flags["tree_supported"]
        assert rep.flags["degree_law_match"]
    # Poisson reference: high-degree atoms rule out materializing the
    # extension, so evaluate the declared extension with padded depths
    lawp = ReferenceLaw.poisson(0.8, nu, ((1.0,),))
    chain_p = DepthChain([lawp.materialize()], extension_exact=True)
    for fn in (component_rate, intermediate_rate, combinatorial_rate):
        rep = fn(chain_p, 0.8, lawp, "FE", depth=2)
        assert abs(rep.value) <= 1e-10
        assert rep.flags["padded_depths"] == 1


def test_extension_chain_levels_and_padding():
    chain = extension_chain(THREE_PATH, 3)
    assert len(chain) == 3 and chain.extension_exact
    assert chain.truncation_defect() <= 1e-15
    beta = 4 / 3
    law = uniform_poisson_law(beta, n_x=1, n_y=1)
    rep = component_rate(DepthChain([THREE_PATH], extension_exact=True),
                         beta, law, depth=4)
    assert rep.depth == 4 and rep.flags["padded_depths"] == 3
    assert rep.terms[1:] == [(0.0, 0.0)] * 3
    full = component_rate(chain, beta, law)
    assert rep.value == pytest.approx(full.value, abs=1e-12)
    with pytest.raises(ValueError):
        component_rate(DepthChain([THREE_PATH]), beta, law, depth=2)


def test_rate_chain_gates_and_reports():
    beta = 4 / 3
    law = uniform_poisson_law(beta, n_x=1, n_y=1)
    # non-tree mass anywhere in the chain gates to +inf
    ntm_level = TreeMeasure({END1: 0.5}, 0.5, 1)
    rep = component_rate([ntm_level], beta, law)
    assert rep.value == math.inf and not rep.flags["tree_supported"]
    # CM requires the degree law of the input to match alpha
    alpha = DegreeLaw({2: 1.0})
    law_cm = ReferenceLaw.fixed_alpha(alpha, (1.0,), ((1.0,),))
    rep = component_rate([THREE_PATH], 2.0, law_cm, "CM")
    assert rep.value == math.inf and rep.flags["degree_law_match"] is False
    # ER needs kappa and a reference centered at the measured mean
    with pytest.raises(ValueError):
        component_rate([THREE_PATH], beta, law, "ER")
    rep = component_rate([THREE_PATH], beta, law, "ER", kappa=2.0)
    assert rep.boundary == pytest.approx(edge_density_rate(2.0, beta), rel=1e-12)
    generic = component_rate([THREE_PATH], beta, law)
    assert rep.value == pytest.approx(rep.boundary + generic.value, abs=1e-12)
    with pytest.raises(ValueError):
        component_rate([THREE_PATH], beta, uniform_poisson_law(2.0, 1, 1), "ER", kappa=2.0)
    # FE takes beta from its Poisson law, whatever beta is passed: at the
    # measured mean it is the generic value, elsewhere the mean gate gives +inf
    chain = extension_chain(THREE_PATH, 2)
    for fn in (component_rate, intermediate_rate, combinatorial_rate):
        assert fn(chain, 0.5, law, "FE").value == fn(chain, beta, law).value
        rep = fn(chain, beta, uniform_poisson_law(1.5, 1, 1), "FE")
        assert rep.value == math.inf and rep.flags["mean_degree"] == pytest.approx(beta)
        with pytest.raises(ValueError, match="FE evaluation needs a Poisson"):
            fn(chain, 2.0, law_cm, "FE")
    # inconsistent chains are caller errors, not gates
    with pytest.raises(ValueError):
        component_rate([THREE_PATH, extension_chain(TreeMeasure({END1: 1.0}, 0.0, 1), 2).level(2)],
                       beta, law)
    # mean-degree-0 branch
    iso = TreeMeasure({LEAF: 1.0}, 0.0, 1)
    rep = component_rate([iso], 0.0, law)
    assert rep.value == pytest.approx(0.0, abs=1e-15)
    law_zero = ReferenceLaw.poisson(0.0, (1.0,), ((1.0,),))
    rep = combinatorial_rate([iso], 0.0, law_zero, "ER", kappa=2.0)
    assert rep.value == pytest.approx(1.0, rel=1e-12)


def test_rate_report_prefix_sums_and_serialization():
    _, _, chain = forest_chain(0, n=12)
    beta = chain.level(1).mean_degree()
    law = uniform_poisson_law(beta)
    comp = component_rate(chain, beta, law)
    running = 0.0
    for (a, b), tot in zip(comp.terms, comp.prefix_totals):
        running += 0.5 * (a + b)
        assert tot == pytest.approx(running, abs=1e-13)
        assert a >= -1e-12 and b >= -1e-12
    assert comp.value == pytest.approx(comp.boundary + comp.prefix_totals[-1], abs=1e-13)
    obj = comp.to_obj()
    assert obj["form"] == "component" and len(obj["terms"]) == comp.depth
    comb = combinatorial_rate(chain, beta, law)
    assert len(comb.j_values) == len(comb.prefix_totals) == comb.depth


def test_edge_mark_intensity_sums_and_truth_value():
    for seed in range(3):
        _, _, chain = forest_chain(seed)
        level1 = chain.level(1)
        intensity = edge_mark_intensity(level1)
        assert math.fsum(intensity.values()) == pytest.approx(
            level1.mean_degree(), abs=1e-12
        )
    # at the reference the intensity is kappa * xibar, and the matching
    # entropy sum splits into scalar matching entropy plus mark entropy
    alpha = DegreeLaw({1: 0.5, 3: 0.5})
    nu = (0.4, 0.6)
    xi = ((0.1, 0.2), (0.3, 0.4))
    law = ReferenceLaw.fixed_alpha(alpha, nu, xi)
    eta = law.materialize()
    kappa = alpha.mean()
    intensity = edge_mark_intensity(eta)
    for (y, yp), v in intensity.items():
        assert v == pytest.approx(kappa * law.xibar[y][yp], abs=1e-12)
    split = matching_entropy(kappa) + 0.5 * kappa * entropy(law.xibar_dict())
    assert matching_entropy_sum(intensity) == pytest.approx(split, abs=1e-12)


# -------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(1, 4), b=st.integers(1, 4), c=st.integers(1, 4),
    d1=st.integers(1, 3),
)
def test_markov_measures_admissible_and_forms_agree(a, b, c, d1):
    mu = markov_product_measure({d1: 1.0}, [[a, b], [b, c]])
    ok, _ = is_admissible(pair_measure(mu, 1))
    assert ok
    law = ReferenceLaw.fixed_alpha(DegreeLaw({d1: 1.0}), (0.5, 0.5), ((1.0,),))
    beta = mu.mean_degree()
    val = nbd_rate_generic(beta, law, mu)
    assert val >= -1e-12
    assert vertex_only_rate(beta, law, mu) == pytest.approx(val, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    degs=st.dictionaries(st.integers(0, 4), st.integers(1, 5), min_size=1, max_size=5).filter(
        lambda degs: any(degs.keys())),
    data=st.data(),
)
def test_depth1_rates_equal_their_closed_form(degs, data):
    # mu has root mark q and leaves i.i.d. from p(. | root) for p = A / sum A:
    # every depth-1 form equals H(q | nu) + (beta/2) H(p | q x q), here summed
    # by hand from p, q and nu
    k = data.draw(st.integers(1, 3))
    upper = data.draw(st.lists(st.integers(1, 9), min_size=k * k, max_size=k * k))
    a_mat = [[upper[min(x, y) * k + max(x, y)] for y in range(k)] for x in range(k)]
    nu_w = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    alpha = DegreeLaw({d: c / sum(degs.values()) for d, c in degs.items()})
    nu = [w / sum(nu_w) for w in nu_w]
    law = ReferenceLaw.fixed_alpha(alpha, nu, ((1.0,),))
    mu = markov_product_measure(alpha, a_mat)
    beta = math.fsum(d * w for d, w in alpha.items())
    want = _markov_closed_form(a_mat, nu, beta)
    for form in (component_rate, intermediate_rate, combinatorial_rate):
        assert form([mu], beta, law, ensemble="CM").value == pytest.approx(want, abs=1e-12)
    assert vertex_only_rate(beta, law, mu) == pytest.approx(want, abs=1e-12)


def _markov_closed_form(a_mat, nu, beta):
    """H(q | nu) + (beta/2) H(p | q x q) for p = A / sum A and q its marginal,
    summed by hand."""
    k = len(a_mat)
    total = sum(map(sum, a_mat))
    p = {(x, y): a_mat[x][y] / total for x in range(k) for y in range(k)}
    q = [math.fsum(p[x, y] for x in range(k)) for y in range(k)]
    return (math.fsum(q[x] * math.log(q[x] / nu[x]) for x in range(k))
            + 0.5 * beta * math.fsum(w * math.log(w / (q[x] * q[y])) for (x, y), w in p.items()))


@settings(max_examples=40, deadline=None)
@given(
    ref=st.dictionaries(st.integers(0, 4), st.integers(1, 5), min_size=1, max_size=5).filter(
        lambda ref: any(ref.keys())),
    scale=st.one_of(st.floats(0.25, 0.8), st.floats(1.25, 3.0)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_fixed_degree_law_without_ensemble_forms_equal_their_closed_form(ref, scale, seed, data):
    # without the CM gate, the degree law of level 1 may differ from the
    # reference's degree law: each form is then the depth-1 closed form plus
    # H(degree law | reference degree law), the combinatorial one included,
    # whose degree-law term used to be added only for ensemble "CM" and then
    # only for a fixed alpha; the reference is alpha or a Poisson law whose
    # mean is scale times the data's
    degs = data.draw(st.dictionaries(st.sampled_from(sorted(ref)), st.integers(1, 5),
                                     min_size=1).filter(lambda degs: any(degs.keys())))
    k = data.draw(st.integers(1, 3))
    upper = data.draw(st.lists(st.integers(1, 9), min_size=k * k, max_size=k * k))
    a_mat = [[upper[min(x, y) * k + max(x, y)] for y in range(k)] for x in range(k)]
    nu_w = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    nu = [w / sum(nu_w) for w in nu_w]
    alpha = DegreeLaw({d: c / sum(ref.values()) for d, c in ref.items()})
    deg = {d: c / sum(degs.values()) for d, c in degs.items()}
    mu = markov_product_measure(deg, a_mat)
    beta = mu.mean_degree()
    b = scale * beta
    references = (
        (ReferenceLaw.fixed_alpha(alpha, nu, ((1.0,),)), alpha.pmf),
        (ReferenceLaw.poisson(b, nu, ((1.0,),)),
         lambda d: math.exp(-b) * b**d / math.factorial(d)),
    )
    for law, pmf in references:
        want = (math.fsum(w * math.log(w / pmf(d)) for d, w in deg.items())
                + _markov_closed_form(a_mat, nu, beta))
        for form in (component_rate, intermediate_rate, combinatorial_rate):
            assert form([mu], beta, law).value == pytest.approx(want, abs=1e-12)
    # against Poisson(b) each form is the same form against Poisson(beta)
    # plus 2 edge_density_rate(b, beta), at depth 1 and along the depth-2
    # chain of a forest, whose depth-2 summands do not vanish
    forest = forest_chain(seed, depth=2)[2]
    for levels, poisson in ((DepthChain([mu]), lambda m: ReferenceLaw.poisson(m, nu, ((1.0,),))),
                            (forest, uniform_poisson_law)):
        beta = levels.level(1).mean_degree()
        b = scale * beta
        for form in (component_rate, intermediate_rate, combinatorial_rate):
            assert form(levels, beta, poisson(b)).value == pytest.approx(
                form(levels, beta, poisson(beta)).value + 2.0 * edge_density_rate(b, beta),
                abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    degs=st.dictionaries(st.integers(0, 3), st.integers(1, 5), min_size=1, max_size=3),
    n0=st.integers(1, 4),
)
def test_reference_materialization_is_probability(degs, n0):
    total = sum(degs.values())
    alpha = DegreeLaw({d: c / total for d, c in degs.items()})
    nu = (n0 / (n0 + 2), 2 / (n0 + 2))
    law = ReferenceLaw.fixed_alpha(alpha, nu, ((0.2, 0.3), (0.1, 0.4)))
    mat = law.materialize()
    assert abs(math.fsum(w for _, w in mat.items()) - 1.0) <= 1e-12
    for t, w in mat.items():
        assert law.star_density(t) == pytest.approx(w, rel=1e-11)


# ------------------------------------- annealed Ising with ±J edge couplings


def pm_j_ising_measure(d, beta):
    """mu_beta on d-regular stars: the root spin s uniform, and each leaf's
    coupling J and spin s' i.i.d. with weight e^{beta J s s'} / (4 cosh beta).
    Spins are vertex marks and J an edge mark that both sides see alike
    (mark 0 is +1, mark 1 is -1)."""
    sign = (1, -1)
    leaf = [(((j, j), (x, [])), math.exp(beta * sign[j] * sign[x0] * sign[x]) / (4 * math.cosh(beta)))
            for x0 in (0, 1) for j in (0, 1) for x in (0, 1)]
    acc = {}
    for x0 in (0, 1):
        for combo in itertools.product(leaf[4 * x0:4 * x0 + 4], repeat=d):
            t = canon_raw((x0, [kid for kid, _ in combo]))
            acc[t] = acc.get(t, 0.0) + 0.5 * math.prod(w for _, w in combo)
    return TreeMeasure(acc, 0.0, 1)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 4), beta=st.floats(0.06, 3.0))
def test_pm_j_ising_rate_gives_the_annealed_pressure(d, beta):
    """Ising spins on the d-regular CM with ±J couplings carried as edge marks
    (nu uniform, xi = diag(1/2, 1/2), so both ends see the same J): summing
    over J first, E Z_n = 2^n cosh(beta)^{dn/2} exactly, and by Varadhan's
    lemma (PAPER.md's annealed-pressure application) the supremum of
    (d/2) beta E[J s s'] - I(mu) is attained at mu_beta with
    I(mu_beta) = (d/2)(beta tanh beta - log cosh beta), so that E - I is the
    annealed value (d/2) log cosh beta (Dembo-Montanari, "Ising models on
    locally tree-like graphs", Ann. Appl. Probab. 2010).  Every form gives
    that I with and without the CM ensemble, and moving to beta' = beta +- eps
    does not raise (d/2) beta tanh beta' - I(mu_beta')."""
    law = ReferenceLaw.fixed_alpha({d: 1.0}, (0.5, 0.5), ((0.5, 0.0), (0.0, 0.5)))
    want = 0.5 * d * (beta * math.tanh(beta) - math.log(math.cosh(beta)))
    mu = pm_j_ising_measure(d, beta)
    for ensemble in ("CM", None):
        for form in (component_rate, intermediate_rate, combinatorial_rate):
            assert form([mu], float(d), law, ensemble=ensemble).value == pytest.approx(want, abs=1e-12)
    annealed = 0.5 * d * math.log(math.cosh(beta))
    for moved in (beta - 0.05, beta + 0.05):
        rate = component_rate([pm_j_ising_measure(d, moved)], float(d), law, ensemble="CM").value
        assert 0.5 * d * beta * math.tanh(moved) - rate <= annealed + 1e-12


# ------------------------------- Ising in a field at the Bethe cavity point


def _cavity_field(d, beta, b):
    """The largest fixed point h* of h = B + (d-1) atanh(tanh(beta) tanh h),
    iterated down from above to its floating-point fixed point."""
    h, t = b + d, math.tanh(beta)
    for _ in range(100_000):
        h, last = b + (d - 1) * math.atanh(t * math.tanh(h)), h
        if h == last:
            return h
    raise AssertionError(f"no fixed point at d = {d}, beta = {beta}, B = {b}")


def _ising_value(d, beta, b, pp, q, rate):
    """log 2 + E - I at mu_{q,p}: spins are vertex marks (mark 0 is +1), q is
    the root law's P(+), and p the symmetric size-biased pair law with
    p(+,+) = pp and marginal q."""
    pm = q - pp
    mu = markov_product_measure({d: 1.0}, [[pp, pm], [pm, 1 - q - pm]])
    energy = b * (2 * q - 1) + 0.5 * d * beta * (1 - 4 * pm)
    return math.log(2) + energy - rate(mu)


@pytest.mark.parametrize("d", [3, 4])
def test_ising_in_a_field_at_the_cavity_point_gives_the_bethe_pressure(d):
    """Ising spins on the d-regular CM in a field B, nu uniform on {+1, -1}
    and no edge marks.  By Varadhan's lemma (PAPER.md's annealed-pressure
    application), phi(beta, B) = log 2 + sup_{q,p} [B(2q - 1)
    + (d/2) beta E_p[s s'] - I(mu_{q,p})], where mu_{q,p} draws the root spin
    from q and its d leaves i.i.d. from p(.|root), and
    I(mu_{q,p}) = H(q | nu) + (d/2) H(p | q x q).  The supremum is attained
    at the cavity point, p proportional to exp(beta s s' + h*(s + s')) with
    q its marginal and h* the largest fixed point of
    h = B + (d-1) atanh(t tanh h), t = tanh beta, where it equals the Bethe
    free energy (Dembo-Montanari, "Ising models on locally tree-like graphs",
    Ann. Appl. Probab. 2010)
    phi = (d/2) log cosh beta - (d/2) log(1 + t u^2)
          + log(e^B (1 + t u)^d + e^{-B} (1 - t u)^d),  u = tanh h*.
    Each rate form and ``vertex_only_rate`` give that value to 1e-10 on both
    sides of beta_c = atanh(1/(d-1)), with and without a field, and moving q
    or p(+,+) by +-eps with the other held does not raise it."""
    law = ReferenceLaw.fixed_alpha({d: 1.0}, (0.5, 0.5), ((1.0,),))
    rates_of = [lambda mu, form=form: form([mu], float(d), law, ensemble="CM").value
                for form in (component_rate, intermediate_rate, combinatorial_rate)]
    rates_of.append(lambda mu: vertex_only_rate(float(d), law, mu))
    beta_c = math.atanh(1 / (d - 1))
    for beta in (0.5 * beta_c, 0.8 * beta_c, 1.25 * beta_c, 2 * beta_c):
        for b in (0.0, 0.1):
            h = _cavity_field(d, beta, b)
            t, u = math.tanh(beta), math.tanh(h)
            phi = (0.5 * d * math.log(math.cosh(beta)) - 0.5 * d * math.log1p(t * u * u)
                   + math.log(math.exp(b) * (1 + t * u) ** d + math.exp(-b) * (1 - t * u) ** d))
            cell = {(x, y): math.exp(beta * x * y + h * (x + y)) for x in (1, -1) for y in (1, -1)}
            pp, pm = cell[1, 1] / sum(cell.values()), cell[1, -1] / sum(cell.values())
            q = pp + pm
            for rate in rates_of:
                assert _ising_value(d, beta, b, pp, q, rate) == pytest.approx(phi, abs=1e-10)
            best = _ising_value(d, beta, b, pp, q, rates_of[0])
            eps = min(1e-3, pm / 2, (1 - q - pm) / 2)
            for moved_pp, moved_q in ((pp, q + eps), (pp, q - eps), (pp + eps, q), (pp - eps, q)):
                assert _ising_value(d, beta, b, moved_pp, moved_q, rates_of[0]) <= best + 1e-12
