"""Interned trees and memoized derived laws.

Every memoized or interned path is compared with the uncached oracle in
``helpers`` by exact ``to_obj`` equality, on the first call and on repeated
calls at shuffled depths (a memo that ignores the depth fails here).  The
sharing tests count how often each derived law is built.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphld
from graphld import cli, measures, rates, trees
from graphld.measures import (
    DegreeLaw, PairMeasure, TreeMeasure, mtp_check, pair_measure, relative_entropy,
)
from graphld.rates import (
    ExtensionKernel, ReferenceLaw, combinatorial_rate, component_rate,
    extension_chain, extension_kernel, intermediate_rate, one_step_extension,
)
from graphld.samplers import make_rng, sample_ugwt
from graphld.trees import (
    CanonicalTree, branch_views, canonicalize, random_labeling, tree_from_obj,
    tree_to_obj, truncate,
)

from helpers import (
    assert_close_laws, canon_raw, component_law, oracle_branch_views, oracle_mtp_check,
    oracle_one_step_extension, oracle_pair_measure, oracle_pair_weights,
    oracle_truncate, oracle_truncated, random_forest, star,
)

raw_trees = st.recursive(
    st.tuples(st.integers(0, 1), st.just([])),
    lambda sub: st.tuples(
        st.integers(0, 1),
        st.lists(st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)), sub),
                 max_size=3),
    ),
    max_leaves=7,
)
# small measures: a few random trees with integer weights
raw_measures = st.lists(st.tuples(raw_trees, st.integers(1, 5)), min_size=1, max_size=4)
depth_orders = st.permutations([0, 1, 2, 3, 4])


def measure_of(raw_atoms):
    counts = {}
    for raw, c in raw_atoms:
        t = canon_raw(raw)
        counts[t] = counts.get(t, 0) + c
    return TreeMeasure.from_counts(counts)


def half_obj(v):
    return tree_to_obj(v.tree), v.pendant_mark


def view_obj(views):
    return [[half_obj(v) for v in pair] for pair in views]


def pair_obj(p):
    return sorted((json.dumps(view_obj([k])), w) for k, w in p.atoms.items())


def kernel_obj(k):
    return k.h, [(view_obj([c]), [(half_obj(v), p) for v, p in k.law(*c).items()])
                 for c in k.cells()]


def outcome(fn, *args, obj=lambda r: r.to_obj()):
    """``obj`` of the result, or the exception type it raised."""
    try:
        return obj(fn(*args))
    except ValueError:
        return ValueError


# ------------------------------------------------------------ trees


@given(raw_trees, depth_orders)
@settings(max_examples=80, deadline=None)
def test_truncate_and_branch_views_match_oracle(raw, order):
    t = canon_raw(raw)
    for h in order + order:
        cut = truncate(t, h)
        assert tree_to_obj(cut) == tree_to_obj(oracle_truncate(t, h))
        assert cut is oracle_truncate(t, h)
        views = branch_views(t, h)
        assert isinstance(views, tuple)
        assert view_obj(views) == view_obj(oracle_branch_views(t, h))


@given(raw_trees, st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_log_factorial_sum_counts_equal_child_entries(raw, extra):
    # at any h >= depth, two root children have equal depth-(h-1) cut views
    # exactly when their entries are equal
    t = canon_raw(raw)
    h = max(t.depth, 1) + extra
    counts = Counter(oracle_branch_views(t, h - 1)).values()
    assert rates._log_factorial_sum(t) == math.fsum(math.lgamma(c + 1) for c in counts)


@given(raw_trees)
@settings(max_examples=40, deadline=None)
def test_equal_encodings_are_one_object(raw):
    t = canon_raw(raw)
    assert tree_from_obj(tree_to_obj(t)) is t
    assert canonicalize(random_labeling(t, np.random.default_rng(0))) is t
    assert CanonicalTree(t.mark, tuple(reversed(t.children))) is t


def test_intern_table_does_not_keep_trees_alive():
    t = CanonicalTree(4321, (((0, 0), CanonicalTree(4322)),))
    enc, ref = t.encoding, weakref.ref(t)
    truncate(t, 0)
    del t
    gc.collect()
    assert ref() is None
    assert enc not in trees._INTERN


def test_trees_and_measures_stay_immutable():
    t = star(0, [1, 1])
    truncate(t, 0)
    m = TreeMeasure({t: 1.0})
    pair_measure(m, 1)
    for obj, name in ((t, "mark"), (t, "children"), (t, "_up"), (t, "other"),
                      (m, "atoms"), (m, "_memo"), (m, "depth_bound")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


# ------------------------------------------------------------ measures


@given(raw_measures, depth_orders)
@settings(max_examples=80, deadline=None)
def test_measure_laws_match_oracle(raw_atoms, order):
    m = measure_of(raw_atoms)
    d = m.depth_bound
    for h in order + order:
        assert m.truncated(h).to_obj() == oracle_truncated(m, h).to_obj()
        if h >= 1:
            want = oracle_mtp_check(m, h)
            assert mtp_check(m, h) == want
            assert measures._pair_weights(m, h) == oracle_pair_weights(m, h)
        if m.mean_degree() > 0 and h + d >= 1:
            assert pair_obj(pair_measure(m, h + d)) == pair_obj(oracle_pair_measure(m, h + d))


@given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.permutations([0, 1, 2]))
@settings(max_examples=40, deadline=None)
def test_one_step_extension_matches_oracle(seed, n, order):
    adj, vm, em = random_forest(np.random.default_rng(seed), n, n_x=2, n_y=2)
    u = component_law(adj, vm, em)
    levels = [u.truncated(h) for h in (1, 2)] + [u]
    for h in order + order:
        for rho in levels:
            hh = max(rho.depth_bound, 1) + h
            got, want = (outcome(f, rho, hh, obj=lambda m: m)
                         for f in (one_step_extension, oracle_one_step_extension))
            if ValueError in (got, want):
                assert got is want
            else:
                # the multiset weights and the oracle's fsum over orderings
                # differ in rounding only
                assert_close_laws(got, want)
            got = outcome(extension_kernel, rho, hh, obj=kernel_obj)
            assert got == outcome(ExtensionKernel, rho, hh, obj=kernel_obj)


def bits(m):
    return {k: w.hex() for k, w in m.atoms.items()}


def labeled(t):
    return t.vmarks, t.emarks


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
       st.tuples(st.integers(1, 9), st.integers(1, 9)),
       st.one_of(st.just((1,)), st.tuples(*[st.integers(1, 9)] * 4)),
       st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_exact_chain_short_cuts_match_the_generic_path(alpha_w, nu_w, xi_w, seed):
    # on an exact chain, level h is the memoized extension of level h-1, so the
    # conditional reweighting and the self relative entropies are skipped;
    # the generic path over copies must give the same bits
    norm = lambda ws: tuple(w / sum(ws) for w in ws)
    xi = (norm(xi_w),) if len(xi_w) == 1 else (norm(xi_w)[:2], norm(xi_w)[2:])
    law = ReferenceLaw.fixed_alpha(DegreeLaw(dict(enumerate(norm(alpha_w)))), norm(nu_w), xi)
    eta1 = law.materialize()
    depth = 3 if len(xi) == 1 else 2
    chain = extension_chain(eta1, depth)
    for h in range(2, depth + 1):
        rstar = chain.level(h)
        pi = pair_measure(rstar, h)
        fast = rates._cond_from_extension(rstar, pi, pi, h)
        slow = rates._cond_from_extension(rstar, pi, PairMeasure(dict(pi.atoms)), h)
        assert fast is rstar
        assert bits(fast) == bits(slow)
        assert (fast.non_tree_mass, fast.depth_bound) == (slow.non_tree_mass, slow.depth_bound)
        copies = (TreeMeasure(dict(rstar.atoms), rstar.non_tree_mass, h), PairMeasure(dict(pi.atoms)))
        for m, copy in zip((rstar, pi), copies):
            assert relative_entropy(m, m) == relative_entropy(m, copy) == 0.0
    # draws from the memoized table equal draws that each build a fresh one
    rng = make_rng(seed)
    shared = [labeled(sample_ugwt(eta1, 1, depth, rng)) for _ in range(3)]
    rng = make_rng(seed)
    fresh = [labeled(sample_ugwt(TreeMeasure(dict(eta1.atoms), 0.0, 1), 1, depth, rng))
             for _ in range(3)]
    assert shared == fresh


def test_self_relative_entropy_keeps_the_non_tree_gate():
    m = TreeMeasure({star(0, [1]): 0.5}, 0.5, 1)
    with pytest.raises(ValueError, match="unresolved non-tree masses"):
        relative_entropy(m, m)


# ------------------------------------------------------------ sharing


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def small_truth():
    law = ReferenceLaw.fixed_alpha(graphld.DegreeLaw({1: 0.5, 2: 0.5}), (0.4, 0.6), ((1.0,),))
    return law, law.materialize()


def test_ugwt_draws_build_the_kernel_once(monkeypatch):
    _, eta1 = small_truth()
    kernels = count_calls(monkeypatch, ExtensionKernel, "__init__")
    extensions = count_calls(monkeypatch, rates, "_extend")
    rng = make_rng(3)
    deeper = one_step_extension(eta1, 1)
    draws = [canonicalize(sample_ugwt(eta1, 1, 2, rng)) for _ in range(5)]
    assert len(kernels) == 1 and len(extensions) == 1
    assert all(deeper.get(t) > 0 for t in draws)


def test_three_forms_build_each_pair_law_once(monkeypatch):
    law, eta1 = small_truth()
    builds = []
    original = TreeMeasure._memoized

    def recorded(self, kind, h, build):
        def counted():
            builds.append((id(self), kind, h))
            return build()
        return original(self, kind, h, counted)

    monkeypatch.setattr(TreeMeasure, "_memoized", recorded)
    # the extension kernels build the pair laws of levels 1 and 2, which the
    # forms then read
    chain = extension_chain(eta1, 3)
    for form in (component_rate, intermediate_rate, combinatorial_rate):
        assert abs(form(chain, 1.5, law, ensemble="CM").value) < 1e-9
    assert len(builds) == len(set(builds))
    for h in (1, 2, 3):
        assert builds.count((id(chain.level(h)), "pair_measure", h)) == 1


def test_combinatorial_rate_reads_each_level_entropy_once(monkeypatch):
    # H(level h) and H(pi_h) are functions of level h alone: a second call
    # on the same chain computes neither again and gives the same bits
    law, eta1 = small_truth()
    chain = extension_chain(eta1, 3)
    calls = count_calls(monkeypatch, rates, "entropy")
    first = combinatorial_rate(chain, 1.5, law, ensemble="CM").to_obj()
    on_levels = lambda: [m for m, in calls if isinstance(m, (TreeMeasure, PairMeasure))]
    assert len(on_levels()) == 6
    calls.clear()
    assert repr(combinatorial_rate(chain, 1.5, law, ensemble="CM").to_obj()) == repr(first)
    assert on_levels() == []


def test_truncation_keeps_one_cut_per_tree():
    # each tree keeps only its cut one level shallower; deeper cuts are
    # walks along those, and a depth-1 tree's cut drops its children
    t = canon_raw((0, [((0, 1), (1, [((1, 0), (0, [((0, 0), (1, []))]))])), ((1, 1), (0, []))]))
    assert t.depth == 3
    assert truncate(t, 1) is truncate(truncate(t, 2), 1)
    assert t._up is truncate(t, 2) and t._up._up is truncate(t, 1)
    assert truncate(t, 0) is CanonicalTree(0) and truncate(t, 1)._up is truncate(t, 0)
    for h in range(4):
        assert truncate(t, h) is oracle_truncate(t, h)
    assert not hasattr(truncate(t, 0), "_up")


FORMS = (component_rate, intermediate_rate, combinatorial_rate)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_forms_on_one_chain_equal_forms_on_fresh_chains(order):
    # the gates and laws each form reads are kept on the chain, its levels and
    # their pair laws; each report still gets its own flags, so no form's
    # report depends on which forms ran before it
    law, _ = small_truth()
    deviating = ReferenceLaw.fixed_alpha(DegreeLaw({1: 0.5, 2: 0.5}), (0.3, 0.7), ((1.0,),))
    cases = ((law, "CM", None), (deviating, "CM", None), (deviating, None, 5))
    for truth, ensemble, depth in cases:
        def run(form, chain):
            return repr(form(chain, 1.5, law, ensemble=ensemble, depth=depth).to_obj())

        want = {form: run(form, extension_chain(truth.materialize(), 3)) for form in FORMS}
        chain = extension_chain(truth.materialize(), 3)
        for i in order + order:
            assert run(FORMS[i], chain) == want[FORMS[i]]
        for form in FORMS:
            flags = form(chain, 1.5, law, ensemble=ensemble).flags
            assert ("j_direction" in flags) == (form is combinatorial_rate)


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.integers(0, 3)),
       st.tuples(st.integers(1, 9), st.integers(1, 9)),
       st.one_of(st.just((1,)), st.tuples(*[st.integers(1, 9)] * 4)))
@example((1, 2, 1, 0), (1, 2), (1,))
@settings(max_examples=20, deadline=None)
def test_carried_log_factorials_are_the_atomwise_sum(alpha_w, nu_w, xi_w):
    # an extension carries E[sum log m!] from the repeats of its multisets;
    # the correctly rounded sums give the bits of the atom-wise oracle
    norm = lambda ws: tuple(w / sum(ws) for w in ws)
    xi = (norm(xi_w),) if len(xi_w) == 1 else (norm(xi_w)[:2], norm(xi_w)[2:])
    # degree 3 only with one edge mark, and 2 -> 3 only with degrees up to 2
    # as well, so that every level stays small
    if len(xi) > 1:
        alpha_w = alpha_w[:3]
    steps = (1, 2) if len(xi) == 1 and alpha_w[3] == 0 else (1,)
    law = ReferenceLaw.fixed_alpha(DegreeLaw(dict(enumerate(norm(alpha_w)))), norm(nu_w), xi)
    rho = law.materialize()
    for h in steps:
        ext = one_step_extension(rho, h)
        want = math.fsum(w * rates._log_factorial_sum(t) for t, w in ext.atoms.items())
        assert any(len(set(t.children)) < len(t.children) for t in ext.atoms)
        assert ext._memoized("log_factorials", h + 1, None).hex() == want.hex()
        rho = ext


def test_pair_from_size_bias_does_not_read_the_pair_memo(monkeypatch):
    _, eta1 = small_truth()
    level = one_step_extension(eta1, 1)
    want = oracle_pair_measure(level, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the size-bias cross-check read a memoized law")

    monkeypatch.setattr(TreeMeasure, "_memoized", forbidden)
    monkeypatch.setattr(measures, "pair_measure", forbidden)
    recon = cli._pair_from_size_bias(level, 2)
    assert set(recon) == set(want.atoms)
    assert max(abs(recon[k] - w) for k, w in want.atoms.items()) < 1e-15


# ------------------------------------------------------------ Poisson table


def run_child(code, timeout=30):
    src = os.path.dirname(os.path.dirname(graphld.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": src})


def test_poisson_table_is_bounded_before_it_is_built():
    # in a child process, so that a regression fails on the timeout or a
    # MemoryError instead of exhausting the suite's memory
    out = run_child(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from graphld.rates import POISSON_TABLE_LIMIT, ReferenceLaw\n"
        "try:\n"
        "    ReferenceLaw.poisson(1e8, (1.0,), ((1.0,),))\n"
        "except ValueError as e:\n"
        "    print(str(POISSON_TABLE_LIMIT) in str(e))\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True"]


def test_cli_rate_with_huge_poisson_mean_is_bad_input(tmp_path):
    law = {"degree": {"type": "poisson", "mean": 1e8}, "nu": [1.0], "xi": [[1.0]]}
    level = TreeMeasure({star(0, [0]): 1.0})
    (tmp_path / "m.json").write_text(json.dumps({"measure": level.to_obj()}))
    out = run_child(
        "import sys\n"
        "from graphld.cli import main\n"
        f"sys.exit(main(['rate', '--input', {str(tmp_path / 'm.json')!r},"
        f" '--law', {json.dumps(law)!r}, '--report', {str(tmp_path / 'r.json')!r}]))\n")
    assert out.returncode == 2, out.stderr
    err = json.loads(out.stdout)["error"]
    assert err["type"] == "bad_input" and "limit" in err["message"]
