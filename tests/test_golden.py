"""Bit-for-bit guard on the serialized output of the rate machinery.

Each case hashes ``json.dumps(obj, sort_keys=True)`` of a report, a measure or
a list of values and compares it with a SHA-256 digest recorded from the
implementation before the rate forms, gates and pair views were merged into
shared routines (``graph_views``: before the graph views were computed by
message passing; ``deviating_chain``, ``er``, ``leaf_and_extension_laws`` and
``truth_chain``: after one-step extensions weighed each multiset of deepened
children by a multinomial instead of summing its orderings, which moved values
at the ulp level; ``leaf_and_extension_laws`` and ``truth_chain`` again after
an extension's pair weights became one pair weight of the law it extends times
one kernel probability, which moved the pair laws of extensions, and what is
derived from them, at the ulp level).  Any change to a single output bit fails
the case; a change that is meant to alter outputs must say so and record new
digests.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from graphld.empirical import (
    component_measure, component_view, mtp_check_graph, neighborhood_measure,
)
from graphld.measures import DegreeLaw, TreeMeasure, pair_measure
from graphld.rates import (
    ReferenceLaw,
    combinatorial_rate,
    component_rate,
    cond_extension_law,
    ensemble_reference,
    extension_chain,
    intermediate_rate,
    leaf_cond_law,
    leaf_indep_law,
    nbd_rate,
    nbd_rate_generic,
    vertex_only_rate,
)
from graphld.samplers import (
    MarkedGraph, ModelConfig, assign_marks, make_rng, sample_cm, sample_er, sample_fe,
)
from graphld.trees import CanonicalTree

from helpers import random_forest, star

FORMS = (component_rate, intermediate_rate, combinatorial_rate)
ALPHA = DegreeLaw({1: 0.5, 2: 0.5})
HALF = (0.5, 0.5)
UNIFORM_XI = ((0.25, 0.25), (0.25, 0.25))
SKEW_XI = ((0.4, 0.1), (0.1, 0.4))
TRIVIAL_XI = ((1.0,),)

GOLDEN = {
    "deviating_chain": "e27816a6296d14e55c6a5bf3ccc2bbc736f0de1a3c5ebb0dccffde30cb14e3ea",
    "er": "7c43a8553721f5a8b77782a11f9aa3713edc5ad358661e4236d500bdd8ece8c5",
    "forest_chain": "57d82b94efa95fbefc2d746776b00ae5a4228be190f31d86bf7619fd622dcba6",
    "gated": "8b89cc4afd795485026a594ef1ed0e73fc458761af04e215386d5fb5ec0b4de9",
    "graph_views": "4dea390051335583092e2bf42658884badf354b8a68151fa18d79e57b84dfb71",
    "leaf_and_extension_laws": "a5e1c451f769c1a39e3366dfdc24e5588ad1e1d7c265d3797a47ce8e003defa5",
    "nbd_rates": "35bbf1bcb755c728db2c1f41f2e38dc093425da322cf069ee552d087b8cce9fb",
    "neighborhood_forms": "a2fefefc62d31edd561ec2ae89546131d8c41352f16bcea6c9c15e7324e71b9f",
    "truth_chain": "455fcf6be5bebcc085c86f1bb17b2d8419ba8c5c41ced6ea77d3b17f6f18a909",
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def reports(levels, beta, law, ensemble=None, kappa=None, depth=None):
    return [fn(levels, beta, law, ensemble=ensemble, kappa=kappa, depth=depth).to_obj()
            for fn in FORMS]


def pair_obj(p):
    return [[a.tree.encoding.hex(), a.pendant_mark, b.tree.encoding.hex(), b.pendant_mark, w]
            for (a, b), w in p.items()]


@functools.lru_cache(maxsize=None)
def deviating_chain():
    eta1 = ReferenceLaw.fixed_alpha(ALPHA, (0.3, 0.7), SKEW_XI).materialize()
    return ReferenceLaw.fixed_alpha(ALPHA, HALF, UNIFORM_XI), extension_chain(eta1, 2)


def case_truth_chain():
    # edge marks only at depth 2, vertex marks only at depth 3: small supports
    law2 = ReferenceLaw.fixed_alpha(ALPHA, (1.0,), ((0.1, 0.2), (0.3, 0.4)))
    chain2 = extension_chain(law2.materialize(), 2)
    law3 = ReferenceLaw.fixed_alpha(ALPHA, (0.3, 0.7), TRIVIAL_XI)
    chain3 = extension_chain(law3.materialize(), 3)
    return [reports(chain2, ALPHA.mean(), law2, "CM"),
            reports(chain2, ALPHA.mean(), law2, "CM", depth=1),
            reports(chain2, ALPHA.mean(), law2, "CM", depth=4),
            reports(chain3, ALPHA.mean(), law3, "CM")]


def case_deviating_chain():
    law, chain = deviating_chain()
    out = reports(chain, ALPHA.mean(), law, "CM")
    assert out[0]["value"] == pytest.approx(0.22684144627137, abs=1e-9)
    return out


def case_forest_chain():
    # empirical levels of a forest: every depth has nonzero summands
    adj, vmarks, emarks = random_forest(make_rng(301, 0), 14)
    edges = [(v, w) for v in adj for w in adj[v] if v < w]
    g = MarkedGraph(14, edges, [vmarks[v] for v in range(14)], dict(emarks))
    levels = [component_measure(g, h) for h in range(1, 4)]
    beta = levels[0].mean_degree()
    law = ReferenceLaw.poisson(beta, HALF, UNIFORM_XI)
    return [reports(levels, beta, law), reports(levels, beta, law, depth=2)]


def case_er():
    mu = TreeMeasure({star(0, [1]): 0.25, star(1, [0]): 0.25,
                      star(0, [0, 0]): 0.2, star(0, [0]): 0.3}, 0.0, 1)
    cfg = ModelConfig("ER", HALF, TRIVIAL_XI, kappa=2.0)
    bprime, law, kappa = ensemble_reference("ER", cfg, mu)
    chain = extension_chain(mu, 2)
    return [reports([mu], bprime, law, "ER", kappa=kappa),
            reports(chain, bprime, law, "ER", kappa=kappa)]


def case_gated():
    law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), HALF, TRIVIAL_XI)
    asym = TreeMeasure({star(0, [1]): 1.0}, 0.0, 1)
    ntm = TreeMeasure({star(0, [1]): 0.25, star(1, [0]): 0.25}, 0.5, 1)
    iso = TreeMeasure({CanonicalTree(0): 0.25, CanonicalTree(1): 0.75}, 0.0, 1)
    law_er = ReferenceLaw.poisson(0.0, HALF, TRIVIAL_XI)
    law_deg2 = ReferenceLaw.fixed_alpha(DegreeLaw({2: 1.0}), HALF, TRIVIAL_XI)
    return [reports([asym], 1.0, law, "CM"),
            reports([asym], 2.0, law_deg2, "CM"),
            reports([asym], 1.0, law),
            reports([ntm], 1.0, law),
            reports([ntm], 1.0, law, "ER", kappa=2.0),
            reports([iso], 0.0, law),
            reports([iso], 0.0, law_er, "ER", kappa=2.0)]


def case_nbd_rates():
    values = []
    alpha = DegreeLaw({1: 0.5, 3: 0.5})
    for k, (ens, cfg) in enumerate((
        ("CM", ModelConfig("CM", HALF, UNIFORM_XI, alpha=alpha)),
        ("FE", ModelConfig("FE", HALF, UNIFORM_XI, kappa=2.0, m_n=300)),
        ("ER", ModelConfig("ER", HALF, UNIFORM_XI, kappa=2.0)),
    )):
        rng = make_rng(11, k)
        if ens == "CM":
            g = sample_cm(300, cfg, rng)
        elif ens == "FE":
            g = sample_fe(300, 300, rng)
        else:
            g = sample_er(300, 2.0, rng)
        L = neighborhood_measure(assign_marks(g, HALF, UNIFORM_XI, rng))
        values.append(nbd_rate(ens, cfg, L))
    return values


def case_graph_views():
    # marked CM, FE and ER graphs plus one unmarked ER graph; all have cycles,
    # so non_tree_mass > 0 and the MTP sees cycle-signature keys
    cfg = ModelConfig("CM", HALF, SKEW_XI, alpha=DegreeLaw({1: 0.5, 3: 0.5}))
    graphs = [
        assign_marks(sample_cm(300, cfg, make_rng(23, 0)), HALF, SKEW_XI, make_rng(23, 1)),
        assign_marks(sample_fe(300, 330, make_rng(23, 2)), HALF, SKEW_XI, make_rng(23, 3)),
        assign_marks(sample_er(300, 2.5, make_rng(23, 4)), HALF, SKEW_XI, make_rng(23, 5)),
        sample_er(300, 3.0, make_rng(23, 6)),
    ]
    out = []
    for g in graphs:
        levels = [component_measure(g, h) for h in range(4)]
        assert levels[3].non_tree_mass > 0
        views = [component_view(g, r, h) for r in (0, 1, 17, 150, 299) for h in range(4)]
        out.append([
            neighborhood_measure(g).to_obj(),
            [lv.to_obj() for lv in levels],
            [[[list(l) for l in v.layers], v.cycle_detected] for v in views],
            [mtp_check_graph(g, h, rng=make_rng(29, h)) for h in (1, 2, 3)],
        ])
    return out


def case_neighborhood_forms():
    law = ReferenceLaw.fixed_alpha(DegreeLaw({1: 1.0}), HALF, TRIVIAL_XI)
    sym = TreeMeasure({star(0, [1]): 0.3, star(1, [0]): 0.3, star(0, [0]): 0.4}, 0.0, 1)
    asym = TreeMeasure({star(0, [1]): 1.0}, 0.0, 1)
    iso = TreeMeasure({CanonicalTree(0): 0.25, CanonicalTree(1): 0.75}, 0.0, 1)
    lawp = ReferenceLaw.poisson(1.0, HALF, TRIVIAL_XI)
    return [[nbd_rate_generic(b, lw, m), vertex_only_rate(b, lw, m)]
            for b, lw, m in ((1.0, law, sym), (1.0, lawp, sym), (1.0, law, asym),
                             (0.0, law, iso), (0.0, law, sym), (1.5, law, sym))]


def case_leaf_and_extension_laws():
    law, chain = deviating_chain()
    eta1 = chain.level(1)
    return [law.materialize().to_obj(),
            leaf_indep_law(eta1, law).to_obj(),
            leaf_cond_law(eta1, law).to_obj(),
            cond_extension_law(chain.level(2), 2).to_obj(),
            chain.level(2).to_obj(),
            pair_obj(pair_measure(chain.level(2), 2))]


CASES = {
    "truth_chain": case_truth_chain,
    "deviating_chain": case_deviating_chain,
    "forest_chain": case_forest_chain,
    "er": case_er,
    "gated": case_gated,
    "nbd_rates": case_nbd_rates,
    "graph_views": case_graph_views,
    "neighborhood_forms": case_neighborhood_forms,
    "leaf_and_extension_laws": case_leaf_and_extension_laws,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_digest(name):
    assert digest(CASES[name]()) == GOLDEN[name]
