"""Measure core tests.

Oracles: scipy.stats.entropy for entropy/KL values; an ordered-product
construction of the i.i.d.-marks reference star law; the size-biased uniform
labeling law for pair measures; direct two-sided evaluation of the mass
transport sums on a distinguishing test function.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from graphld.measures import (
    DegreeLaw,
    DepthChain,
    PairMeasure,
    TreeMeasure,
    _fsum_by,
    entropy,
    is_admissible,
    mtp_check,
    pair_marginals,
    pair_measure,
    relative_entropy,
    size_bias,
    transport_violation,
    tv_distance,
)
from graphld.gibbs import GibbsProblem
from graphld.rates import ExtensionKernel, ReferenceLaw
from graphld.samplers import ModelConfig
from graphld.trees import CanonicalTree, HalfEdgeTree, random_labeling, split_at_child

from helpers import (
    _pair_payload, canon_raw, component_law, eta1_exact, forest_component,
    oracle_transport_violation, random_forest, run_python, star,
)

# ---------------------------------------------------------------- fixtures

LEAF0 = star(0, [])
LEAF1 = star(1, [])
S1 = star(0, [1])
S2 = star(0, [1, 1])
S3 = star(0, [1, 1, 1])
PATH2 = canon_raw((0, [((0, 0), (1, [((0, 0), (2, []))]))]))

POOL = [LEAF0, LEAF1, S1, S2, S3, PATH2]


def measure(weights):
    return TreeMeasure(dict(weights))


# ---------------------------------------------------------------- TreeMeasure


def test_tree_measure_validation():
    with pytest.raises(ValueError):
        TreeMeasure({LEAF0: -0.1, LEAF1: 1.1})
    with pytest.raises(ValueError):
        TreeMeasure({LEAF0: 0.6, LEAF1: 0.6})
    with pytest.raises(ValueError):
        TreeMeasure({PATH2: 1.0}, depth_bound=1)
    m = TreeMeasure({LEAF0: 1.0, LEAF1: 0.0})
    assert len(m) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tree_measure_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError):
        TreeMeasure({LEAF0: 1.0, LEAF1: bad})
    # a NaN non-tree mass would pass every non_tree_mass > MASS_TOL gate
    with pytest.raises(ValueError):
        TreeMeasure({LEAF0: 1.0}, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pair_measure_rejects_non_finite_weights(bad):
    a, b = split_at_child(S1, 0)
    with pytest.raises(ValueError):
        PairMeasure({(a, b): 1.0, (b, a): bad})


@pytest.mark.parametrize("probs", [{1: 1.0, 2: math.nan}, {1: 1.0, 2: math.inf},
                                   {1: 1e308, 2: 1e308}])
def test_degree_law_rejects_out_of_range_weights(probs):
    with pytest.raises(ValueError):
        DegreeLaw(probs)


def test_from_counts_and_non_tree_mass():
    m = TreeMeasure.from_counts({LEAF0: 3, S2: 1}, non_tree_count=4)
    assert m.get(LEAF0) == 0.375 and m.get(S2) == 0.125
    assert m.non_tree_mass == 0.5
    with pytest.raises(ValueError):
        m.mean_degree()


def test_truncated_pushforward():
    m = TreeMeasure({PATH2: 0.5, S1: 0.25, LEAF0: 0.25})
    t1 = m.truncated(1)
    assert t1.get(S1) == 0.75 and t1.get(LEAF0) == 0.25
    assert t1.depth_bound == 1
    assert m.truncated(5) is m


def test_degree_law_examples():
    kappa_star = TreeMeasure({star(0, [0] * 4): 1.0})
    assert kappa_star.degree_law() == DegreeLaw({4: 1.0})
    assert kappa_star.mean_degree() == 4.0

    # uniform-root law of a path on 3 vertices
    adj = {0: {1}, 1: {0, 2}, 2: {1}}
    vm = {v: 0 for v in adj}
    em = {(a, b): 0 for a in adj for b in adj[a]}
    u = component_law(adj, vm, em)
    law = u.degree_law()
    np.testing.assert_allclose([law.pmf(1), law.pmf(2)], [2 / 3, 1 / 3])
    np.testing.assert_allclose(u.mean_degree(), 4 / 3)


def test_degree_law_obj_round_trip():
    law = DegreeLaw({10: 0.5, 0: 0.25, 2: 0.25})
    assert law.to_obj() == {"0": 0.25, "2": 0.25, "10": 0.5}
    assert list(law.to_obj()) == ["0", "2", "10"]
    assert DegreeLaw.from_obj(law.to_obj(), "alpha") == law


@pytest.mark.parametrize("key", ["0_2", " 2", "2 ", "+2", "02", "00", "-1", "two", "", "\uff12"])
def test_degree_law_reads_only_canonical_degree_keys(key):
    # int() accepts all but "two" and "", so "0_2", " 2" and "\uff12" were read as 2
    with pytest.raises(ValueError, match=f"^alpha key {re.escape(repr(key))} is not a degree"):
        DegreeLaw.from_obj({key: 1.0}, "alpha")


@pytest.mark.parametrize("obj, message", [
    ([1.0], "alpha must be a dict, not [1.0]"),
    ({"1": True}, 'alpha["1"] must be a number, not True'),
])
def test_degree_law_from_obj_names_the_mistyped_path(obj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DegreeLaw.from_obj(obj, "alpha")


@pytest.mark.parametrize("key", ["1", True, None, 1.5, -1, math.nan, math.inf])
def test_degree_law_checks_the_type_of_each_key(key):
    # "1" raised TypeError from `<`, True was read as degree 1, and NaN and
    # inf raised from int()
    message = f"^bad degree {re.escape(repr(key))}$"
    with pytest.raises(ValueError, match=message):
        DegreeLaw({key: 1.0})
    with pytest.raises(ValueError, match=message):
        ReferenceLaw.fixed_alpha({key: 1.0}, (1.0,), ((1.0,),))


def test_degree_law_reads_integral_keys_of_any_number_type():
    law = DegreeLaw({2.0: 0.5, np.int64(3): 0.5})
    assert law.probs == {2: 0.5, 3: 0.5}
    assert all(type(k) is int for k in law.probs)


def _frozen_instances():
    law = ReferenceLaw.fixed_alpha({1: 0.5, 2: 0.5}, (0.4, 0.6), ((0.1, 0.2), (0.3, 0.4)))
    rho = law.materialize()
    return [DegreeLaw({1: 0.5, 2: 0.5}), pair_measure(rho, 1), DepthChain([rho]), law,
            ExtensionKernel(rho, 1)]


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_immutable_classes_copy_and_pickle(copier):
    # each raised "... is immutable": the slot state was restored by setattr
    for obj in _frozen_instances():
        twin = copier(obj)
        assert type(twin) is type(obj)
        slots = type(obj).__slots__
        assert all(getattr(twin, name) == getattr(obj, name) for name in slots)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(twin, slots[0], None)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.floats(-1e300, 1e300)), max_size=40),
       data=st.data())
def test_fsum_by_gives_the_per_key_fsum_in_every_order(pairs, data):
    got = _fsum_by(pairs)
    assert list(got) == list(dict.fromkeys(key for key, _ in pairs))
    for key, total in got.items():
        assert total.hex() == math.fsum(w for k, w in pairs if k == key).hex()
    shuffled = data.draw(st.permutations(pairs))
    again = _fsum_by(shuffled)
    assert list(again) == list(dict.fromkeys(key for key, _ in shuffled))
    assert {k: v.hex() for k, v in again.items()} == {k: v.hex() for k, v in got.items()}


def test_root_mark_law():
    m = TreeMeasure({LEAF0: 0.25, LEAF1: 0.25, S2: 0.5})
    assert m.root_mark_law() == {0: 0.75, 1: 0.25}


def test_json_round_trip():
    m = TreeMeasure({PATH2: 0.5, S3: 0.25, LEAF1: 0.25})
    assert TreeMeasure.from_obj(m.to_obj()) == m


def test_pickle_round_trip(tmp_path):
    # unpickling used to fail: the trees had no constructor arguments, and a
    # measure refused its own attributes
    eta1 = ReferenceLaw.fixed_alpha(DegreeLaw({1: 0.5, 2: 0.5}), (0.4, 0.6),
                                    ((0.1, 0.2), (0.3, 0.4))).materialize()
    pair_measure(eta1, 1)
    m = TreeMeasure({PATH2: 0.5, S3: 0.25, LEAF1: 0.25}, depth_bound=3)
    for src in (m, eta1):
        back = pickle.loads(pickle.dumps(src))
        assert back == src and back.depth_bound == src.depth_bound
        assert all(a is b for a, b in zip(back.atoms, src.atoms))
        assert back._memo == {}
    # a fresh interpreter re-interns the trees it loads
    (tmp_path / "m.pickle").write_bytes(pickle.dumps(eta1))
    res = run_python("import json, pickle\n"
                     "m = pickle.load(open('m.pickle', 'rb'))\n"
                     "print(json.dumps(m.to_obj(), sort_keys=True))", tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == json.loads(json.dumps(eta1.to_obj()))


# ---------------------------------------------------------------- entropies


def test_entropy_examples():
    assert entropy({0: 0.5, 1: 0.5}) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy({0: 1.0}) == 0.0
    got = entropy({0: 0.25, 1: 0.75})
    assert got == pytest.approx(stats.entropy([0.25, 0.75]), abs=1e-12)
    assert got == pytest.approx(0.5623, abs=1e-4)
    assert entropy(measure({LEAF0: 0.25, S1: 0.75})) == pytest.approx(got, abs=1e-12)


def test_relative_entropy_examples():
    m = {0: 0.75, 1: 0.25}
    base = {0: 0.5, 1: 0.5}
    assert relative_entropy(m, m) == 0.0
    assert relative_entropy({0: 0.5, 2: 0.5}, base) == math.inf
    got = relative_entropy(m, base)
    assert got == pytest.approx(stats.entropy([0.75, 0.25], [0.5, 0.5]), abs=1e-12)
    assert got == pytest.approx(0.1308, abs=1e-4)


def test_relative_entropy_tree_measures_and_non_tree_mass():
    m = TreeMeasure({LEAF0: 0.5, S1: 0.5})
    base = TreeMeasure({LEAF0: 0.25, S1: 0.5, S2: 0.25})
    assert relative_entropy(m, base) == pytest.approx(
        stats.entropy([0.5, 0.5, 0.0], [0.25, 0.5, 0.25]), abs=1e-12
    )
    cyc = TreeMeasure({LEAF0: 0.5}, non_tree_mass=0.5)
    assert relative_entropy(cyc, base) == math.inf
    with pytest.raises(ValueError):
        relative_entropy(cyc, cyc)


@given(
    st.lists(st.integers(1, 20), min_size=2, max_size=5),
    st.lists(st.integers(1, 20), min_size=2, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_relative_entropy_nonnegative(cm, cb):
    k = min(len(cm), len(cb))
    m = {i: c / sum(cm[:k]) for i, c in enumerate(cm[:k])}
    b = {i: c / sum(cb[:k]) for i, c in enumerate(cb[:k])}
    d = relative_entropy(m, b)
    assert d >= -1e-12
    if all(abs(m[i] - b[i]) < 1e-15 for i in m):
        assert abs(d) < 1e-12


_HETS = [HalfEdgeTree(t, y) for t in (LEAF0, LEAF1, S1) for y in (0, 1)]
_KINDS = {
    "dict": (dict, list(range(6))),
    "tree": (TreeMeasure, POOL),
    "pair": (PairMeasure, [(a, b) for a in _HETS[:3] for b in _HETS[:2]]),
}


@given(kind=st.sampled_from(sorted(_KINDS)),
       m_counts=st.lists(st.integers(0, 9), min_size=6, max_size=6).filter(any),
       base_counts=st.lists(st.integers(0, 9), min_size=6, max_size=6).filter(any))
@settings(max_examples=150, deadline=None)
def test_relative_entropy_against_a_density_equals_it_against_the_weights(
        kind, m_counts, base_counts):
    make, keys = _KINDS[kind]
    # a dict keeps its zero weights; the measures drop them
    m = make({k: c / sum(m_counts) for k, c in zip(keys, m_counts)})
    base = make({k: c / sum(base_counts) for k, c in zip(keys, base_counts)})
    weights = getattr(base, "atoms", base)
    got = relative_entropy(m, base)
    assert got.hex() == relative_entropy(m, lambda k: weights.get(k, 0.0)).hex()
    assert (got == math.inf) == any(a and not b for a, b in zip(m_counts, base_counts))
    own = getattr(m, "atoms", m)
    assert relative_entropy(m, m) == relative_entropy(m, lambda k: own.get(k, 0.0)) == 0.0


def test_relative_entropy_chain_rule():
    rng = np.random.default_rng(21)
    hets = [HalfEdgeTree(t, y) for t in (LEAF0, LEAF1, S1) for y in (0, 1)]
    for _ in range(10):
        keys = [(a, b) for a in hets[:4] for b in hets[:4]]
        wp = rng.dirichlet(np.ones(len(keys)))
        wq = rng.dirichlet(np.ones(len(keys)))
        p = PairMeasure(dict(zip(keys, wp)))
        q = PairMeasure(dict(zip(keys, wq)))
        _, p2, pc = pair_marginals(p)
        _, q2, qc = pair_marginals(q)
        lhs = relative_entropy(p, q)
        rhs = relative_entropy(p2, q2) + math.fsum(
            p2[b] * relative_entropy(pc[b], qc[b]) for b in p2
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_tv_distance():
    assert tv_distance({0: 1.0}, {0: 1.0}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0
    assert tv_distance({0: 0.75, 1: 0.25}, {0: 0.5, 1: 0.5}) == pytest.approx(0.25)
    a = TreeMeasure({LEAF0: 0.5}, non_tree_mass=0.5)
    b = TreeMeasure({LEAF0: 1.0})
    assert tv_distance(a, b) == pytest.approx(0.5)
    assert tv_distance(DegreeLaw({1: 1.0}), {1: 0.5, 2: 0.5}) == 0.5


def test_entropies_of_an_all_non_tree_measure():
    # all mass non-tree leaves an empty atom map, which is still the weights
    cyc = TreeMeasure({}, non_tree_mass=1.0, depth_bound=1)
    tree = TreeMeasure({LEAF0: 0.5, S1: 0.5})
    assert len(cyc) == 0
    assert tv_distance(cyc, tree) == tv_distance(tree, cyc) == 1.0
    assert relative_entropy(cyc, tree) == relative_entropy(tree, cyc) == math.inf
    with pytest.raises(ValueError):
        entropy(cyc)
    with pytest.raises(ValueError):
        relative_entropy(cyc, cyc)


@pytest.mark.parametrize("base", [{LEAF0: 1.0}, lambda t: 1.0, TreeMeasure({LEAF0: 1.0})],
                         ids=["dict", "density", "tree_measure"])
def test_non_tree_mass_counts_against_every_base(base):
    # a dict, a density and the equal TreeMeasure are one base: the non-tree
    # half of cyc is mass the base does not carry
    cyc = TreeMeasure({LEAF0: 0.5}, non_tree_mass=0.5)
    assert relative_entropy(cyc, base) == math.inf
    if not callable(base):
        assert tv_distance(cyc, base) == tv_distance(base, cyc) == 0.5


# ---------------------------------------------------------------- size-biasing


def test_size_bias_examples():
    kappa_star = TreeMeasure({star(0, [0] * 3): 1.0})
    assert size_bias(kappa_star) == kappa_star

    m = TreeMeasure({S1: 0.5, S3: 0.5})
    sb = size_bias(m)
    assert sb.get(S1) == pytest.approx(0.25) and sb.get(S3) == pytest.approx(0.75)

    with_isolated = TreeMeasure({LEAF0: 0.5, S2: 0.5})
    assert size_bias(with_isolated).get(LEAF0) == 0.0

    with pytest.raises(ValueError):
        size_bias(TreeMeasure({LEAF0: 1.0}))


def test_size_bias_expectation_identity():
    rng = np.random.default_rng(22)
    for _ in range(10):
        w = rng.dirichlet(np.ones(len(POOL)))
        m = TreeMeasure(dict(zip(POOL, w)))
        beta = m.mean_degree()
        if beta == 0:
            continue
        f = {t: float(rng.uniform(-1, 1)) for t in POOL}
        lhs = math.fsum(size_bias(m).get(t) * f[t] for t in POOL)
        rhs = math.fsum(m.get(t) * t.root_degree * f[t] for t in POOL) / beta
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------- pair measure


def test_pair_measure_point_star():
    kappa = 3
    m = TreeMeasure({star(0, [0] * kappa): 1.0})
    p = pair_measure(m, 1)
    # both depth-0 views collapse to a bare root of mark 0
    a = HalfEdgeTree(LEAF0, 0)
    assert p.get(a, a) == pytest.approx(1.0)
    assert len(p) == 1
    # at h = 2 the remainder view keeps the other kappa-1 children
    m2 = TreeMeasure({star(0, [0] * kappa): 1.0}, depth_bound=2)
    p2 = pair_measure(m2, 2)
    b = HalfEdgeTree(star(0, [0] * (kappa - 1)), 0)
    assert p2.get(a, b) == pytest.approx(1.0)
    assert len(p2) == 1


def test_pair_measure_product_form_for_iid_marks():
    nu = {0: 0.3, 1: 0.7}
    xibar = {(0, 0): 0.2, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.3}
    alpha = {1: 0.5, 3: 0.5}
    eta = eta1_exact(alpha, nu, xibar)
    p = pair_measure(eta, 1)
    for x in nu:
        for x0 in nu:
            for yc, yr in xibar:
                a = HalfEdgeTree(canon_raw((x, [])), yc)
                b = HalfEdgeTree(canon_raw((x0, [])), yr)
                assert p.get(a, b) == pytest.approx(
                    nu[x] * nu[x0] * xibar[(yc, yr)], abs=1e-12
                )
    ok, defect = is_admissible(p)
    assert ok and defect <= 1e-12
    first, _, _ = pair_marginals(p)
    xim = {y: sum(xibar[(y, yp)] for yp in (0, 1)) for y in (0, 1)}
    for x in nu:
        for y in (0, 1):
            a = HalfEdgeTree(canon_raw((x, [])), y)
            assert first[a] == pytest.approx(nu[x] * xim[y], abs=1e-12)


def test_pair_measure_matches_size_biased_child_law():
    # oracle: draw from size_bias, pick a uniformly random root child, read views
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = rng.dirichlet(np.ones(len(POOL) - 2))
        m = TreeMeasure(dict(zip(POOL[2:], w)))  # degree >= 1 atoms only
        h = m.depth_bound
        want = {}
        sb = size_bias(m)
        for t, wt in sb.items():
            for i in range(t.root_degree):
                branch, rest = split_at_child(t, i)
                key = (branch.truncated(h - 1), rest.truncated(h - 1))
                want[key] = want.get(key, 0.0) + wt / t.root_degree
        p = pair_measure(m, h)
        assert set(want) == set(p.atoms)
        for key, val in want.items():
            assert p.atoms[key] == pytest.approx(val, abs=1e-12)


def test_pair_measure_matches_labeling_monte_carlo():
    m = TreeMeasure({PATH2: 0.5, S2: 0.5})
    p = pair_measure(m, 2)
    chain_view = HalfEdgeTree(canon_raw((1, [((0, 0), (2, []))])), 0)
    cell = p.get(chain_view, HalfEdgeTree(LEAF0, 0))
    assert cell == pytest.approx(1 / 3)
    rng = np.random.default_rng(24)
    sb = size_bias(m)
    atoms, weights = zip(*sb.items())
    n = 4000
    hits = 0
    for i in rng.choice(len(atoms), size=n, p=weights):
        lt = random_labeling(atoms[i], rng)
        hits += (1, 1) in lt.vmarks  # branch below child 1 is nonempty
    phat = hits / n
    sigma = math.sqrt(cell * (1 - cell) / n)
    assert abs(phat - cell) < 3 * sigma


def test_pair_measure_preconditions():
    m = TreeMeasure({PATH2: 1.0})
    with pytest.raises(ValueError):
        pair_measure(m, 1)
    with pytest.raises(ValueError):
        pair_measure(TreeMeasure({LEAF0: 1.0}), 1)


# ---------------------------------------------------------------- admissibility


def test_admissible_forest_component_laws():
    rng = np.random.default_rng(25)
    for _ in range(5):
        adj, vm, em = random_forest(rng, 9)
        u = component_law(adj, vm, em)
        ok, defect = is_admissible(pair_measure(u, u.depth_bound))
        assert ok and defect <= 1e-12


def test_inadmissible_hand_built():
    a = HalfEdgeTree(LEAF0, 0)
    b = HalfEdgeTree(LEAF1, 0)
    p = PairMeasure({(a, b): 0.7, (b, a): 0.3})
    ok, defect = is_admissible(p)
    assert not ok and defect == pytest.approx(0.4)


def test_pair_marginals_product_and_disintegration():
    a = HalfEdgeTree(LEAF0, 0)
    b = HalfEdgeTree(LEAF1, 0)
    q = {a: 0.25, b: 0.75}
    p = PairMeasure({(s, t): q[s] * q[t] for s in q for t in q})
    first, second, cond = pair_marginals(p)
    for t in q:
        assert second[t] == pytest.approx(q[t])
        for s in q:
            assert cond[t][s] == pytest.approx(q[s])
    rng = np.random.default_rng(26)
    keys = [(s, t) for s in (a, b) for t in (a, b)]
    for _ in range(5):
        p = PairMeasure(dict(zip(keys, rng.dirichlet(np.ones(4)))))
        first, second, cond = pair_marginals(p)
        for (s, t), w in p.atoms.items():
            assert second[t] * cond[t][s] == pytest.approx(w, rel=1e-14)


# ---------------------------------------------------------------- mass transport


def test_mtp_check_on_forest_component_laws():
    rng = np.random.default_rng(27)
    for _ in range(4):
        adj, vm, em = random_forest(rng, 8)
        u = component_law(adj, vm, em)
        assert mtp_check(u) <= 1e-9


def plain_gw_depth2():
    """Depth-2 law of a branching process with offspring {1: .5, 3: .5} at
    every vertex including the root; not unimodular."""
    alpha = {1: 0.5, 3: 0.5}
    acc = {}
    for d0, w0 in alpha.items():
        for counts in itertools.product(alpha.items(), repeat=d0):
            w = w0
            kids = []
            for c, wc in counts:
                w *= wc
                kids.append(((0, 0), (0, [((0, 0), (0, []))] * c)))
            t = canon_raw((0, kids))
            acc[t] = acc.get(t, 0.0) + w
    return TreeMeasure(acc, 0.0, 2)


def test_mtp_check_flags_plain_gw():
    gw = plain_gw_depth2()
    # oracle: direct two-sided evaluation of f(a, b) = 1{b has root degree 0}
    lhs_terms, rhs_terms = [], []
    for t, w in gw.items():
        for i in range(t.root_degree):
            branch, rest = split_at_child(t, i)
            bb, rr = branch.truncated(1), rest.truncated(1)
            lhs_terms.append(w * (rr.tree.root_degree == 0))
            rhs_terms.append(w * (bb.tree.root_degree == 0))
    direct = abs(math.fsum(lhs_terms) - math.fsum(rhs_terms))
    assert direct == pytest.approx(0.5, abs=1e-12)
    assert mtp_check(gw) >= direct - 1e-12
    assert mtp_check(gw) >= 0.01


def test_hash_guard_payloads_keep_whole_marks():
    # marks 1 and 257 agree in their low byte; the payloads that the oracle's
    # hash test functions read must still differ
    t = star(0, (1,))
    other = HalfEdgeTree(star(1, ()), 0)
    low, high = HalfEdgeTree(t, 1), HalfEdgeTree(t, 257)
    assert _pair_payload((low, other)) != _pair_payload((high, other))
    assert _pair_payload((other, low)) != _pair_payload((other, high))


HALF_EDGES = [HalfEdgeTree(t, m) for t in POOL for m in (0, 1)]
# (kind, i, j, weight): a symmetric pair, a pair one ulp apart, a one-sided
# key, or a self-swap key (a, a)
_TRANSPORT_ENTRY = st.tuples(
    st.sampled_from(["symmetric", "ulp", "one_sided", "self"]),
    st.integers(0, len(HALF_EDGES) - 1),
    st.integers(0, len(HALF_EDGES) - 1),
    st.one_of(st.floats(0.0, 1.0), st.integers(0, 50).map(lambda c: c / 7)),
)


def _transport_weights(entries):
    weights = {}
    for kind, i, j, w in entries:
        a, b = HALF_EDGES[i], HALF_EDGES[j]
        if kind == "self":
            weights[(a, a)] = w
        elif kind == "one_sided":
            weights[(a, b)] = w
        else:
            weights[(a, b)] = w
            weights[(b, a)] = w if kind == "symmetric" else math.nextafter(w, math.inf)
    return weights


def _fsum_values(fn, *args):
    """``fn(*args)`` and every ``math.fsum`` value it took, in order."""
    fsum, seen = math.fsum, []

    def recording(terms):
        seen.append(fsum(terms))
        return seen[-1]

    with mock.patch("math.fsum", recording):
        return fn(*args), seen


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(_TRANSPORT_ENTRY, max_size=12), seed=st.integers(0, 2**32),
       rnd=st.randoms(use_true_random=False))
def test_transport_violation_is_the_greedy_maximum(entries, seed, rnd):
    # the value is the oracle's greedy term, bit for bit, and no hash trial of
    # the oracle and no other indicator g of the key exceeds it: every such sum
    # is correctly rounded and at most the greedy one before rounding
    weights = _transport_weights(entries)
    got = transport_violation(weights)
    want, want_sums = _fsum_values(oracle_transport_violation, weights, 20,
                                   np.random.default_rng(seed))
    assert got == want_sums[0] == want
    greedy = {key for key, w in weights.items() if w > weights.get(key[::-1], 0.0)}
    indicators = [greedy] + [{key for key in weights if rnd.random() < 0.5} for _ in range(8)]
    sums = [abs(math.fsum(t for key in g for t in (weights[key], -weights.get(key[::-1], 0.0))))
            for g in indicators]
    assert sums[0] == got
    assert all(s <= got for s in sums)


def test_transport_violation_rounds_the_exact_maximum_once():
    # the greedy maximum is 1 + 2^-53, which rounds to 1.0; rounding the
    # excess 1 - 2^-54 first (to 1.0) and then summing would give 1 + 2^-52
    a, b, c, d = HALF_EDGES[:4]
    tiny = 2.0**-54
    assert transport_violation({(a, b): 1.0, (b, a): tiny, (c, d): 3 * tiny}) == 1.0
    assert math.fsum([1.0 - tiny, 3 * tiny]) == 1.0 + 2.0**-52


def test_mtp_check_accepts_and_ignores_rng():
    # the check is deterministic: an rng changes neither the value nor its state
    gw = plain_gw_depth2()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert mtp_check(gw, rng=rng) == mtp_check(gw) > 0
    assert rng.bit_generator.state == state


def test_mtp_check_rejects_non_tree_mass():
    u = TreeMeasure({LEAF0: 0.5}, non_tree_mass=0.5)
    with pytest.raises(ValueError):
        mtp_check(u)


# ---------------------------------------------------------------- mark laws

MARK_LAW_USERS = {
    "ModelConfig": lambda nu, xi: ModelConfig("FE", nu, xi, kappa=1.0),
    "GibbsProblem": lambda nu, xi: GibbsProblem(DegreeLaw({1: 1.0}), nu, (0.0,) * len(nu), 0.5),
    "ReferenceLaw": lambda nu, xi: ReferenceLaw.poisson(1.0, nu, xi),
}


@pytest.mark.parametrize("user", sorted(MARK_LAW_USERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mark_laws_reject_non_finite_entries(user, bad):
    make = MARK_LAW_USERS[user]
    make((0.5, 0.5), ((0.25, 0.25), (0.25, 0.25)))
    for nu in ((bad,), (1.0, bad), (bad, 0.5, 0.5)):
        with pytest.raises(ValueError, match="nu is not a probability vector"):
            make(nu, ((1.0,),))
    if user == "GibbsProblem":
        return  # vertex marks only
    for xi in (((bad,),), ((1.0, 0.0), (0.0, bad))):
        with pytest.raises(ValueError, match="xi is not a probability matrix"):
            make((1.0,), xi)


# ---------------------------------------------------------------- depth chains


def test_depth_chain():
    eta = eta1_exact({2: 1.0}, {0: 1.0}, {(0, 0): 1.0})
    chain = DepthChain([eta], extension_exact=True)
    assert len(chain) == 1 and chain.level(1) is eta
    with pytest.raises(IndexError):
        chain.level(2)
    with pytest.raises(ValueError):
        DepthChain([TreeMeasure({PATH2: 1.0})])

    two = TreeMeasure({PATH2: 0.5, S1: 0.5})
    good = DepthChain([two.truncated(1), two])
    assert good.truncation_defect() <= 1e-12
    bad = DepthChain([TreeMeasure({LEAF0: 1.0}), TreeMeasure({PATH2: 1.0})])
    assert bad.truncation_defect() == pytest.approx(1.0)
