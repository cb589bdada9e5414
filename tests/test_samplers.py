"""Sampler tests.

Oracles: itertools enumeration for pair unranking and perfect matchings;
binomial/multinomial moment bands for the statistical checks.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from graphld import samplers
from graphld.measures import DegreeLaw, TreeMeasure, tv_distance
from graphld.samplers import (
    MarkedGraph,
    ModelConfig,
    _is_graphical,
    _unrank_pair,
    assign_marks,
    integer_degree_counts,
    make_rng,
    sample_cm,
    sample_er,
    sample_fe,
    sample_sized_biased_gw,
    sample_ugwt,
)
from graphld.trees import canonicalize, truncate

from helpers import (DictMarkedGraph, assert_same_graph_arrays, canon_raw, eta1_exact, record_form,
                     row_form, scalar_assign_marks, scalar_sample_er, scalar_sample_fe,
                     scalar_unrank_pair, star)

UNIF2 = (0.5, 0.5)
XI_SYM = ((0.25, 0.25), (0.25, 0.25))


def cm_cfg(alpha):
    return ModelConfig("CM", UNIF2, XI_SYM, alpha=DegreeLaw(alpha))


# ---------------------------------------------------------------- rng


def test_make_rng_reproducible_and_streams():
    a = make_rng(42).integers(0, 2**63, size=5)
    b = make_rng(42).integers(0, 2**63, size=5)
    c = make_rng(42, stream=1).integers(0, 2**63, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("key_a, key_b", [
    ((-1,), (0,)),
    ((7, -1), (7, 0)),
    ((2**63,), (2**63 + 5,)),
], ids=["seed_-1_vs_0", "stream_-1_vs_0", "seed_2**63_vs_2**63+5"])
def test_make_rng_key_words_above_2_63_keep_their_own_streams(key_a, key_b):
    # a key word >= 2**63 (every negative seed mod 2**64 among them) must not
    # pass through float64, where it collides with another seed and warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = make_rng(*key_a).integers(0, 2**63, size=5)
        b = make_rng(*key_b).integers(0, 2**63, size=5)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------- graph type


def test_marked_graph_validation():
    with pytest.raises(ValueError):
        MarkedGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        MarkedGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        MarkedGraph(2, [(0, 2)])
    g = MarkedGraph(3, [(2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.adjacency() == [[1], [0, 2], [1]]
    assert g.degree_histogram() == {1: 2, 2: 1}


def test_marked_graph_json_round_trip():
    g = MarkedGraph(
        3,
        [(0, 1), (1, 2)],
        vmarks=[1, 0, 1],
        emarks={(0, 1): 1, (1, 0): 0, (1, 2): 0, (2, 1): 1},
    )
    g2 = MarkedGraph.from_obj(g.to_obj())
    assert g2.edges == g.edges and g2.vmarks == g.vmarks and g2.emarks == g.emarks


PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]], "vmarks": [1, 0, 1],
         "emarks": [{"u": 0, "v": 1, "yu": 1, "yv": 0}, {"u": 1, "v": 2, "yu": 0, "yv": 1}]}
# the same graph as ``to_obj`` writes it: emarks[i] holds the marks at the ends of edges[i]
PATH3_ROWS = {**PATH3, "emarks": [[1, 0], [0, 1]]}


NOT_INTEGERS = [
    (lambda o: o.update(vmarks=[1.5, True, 0]), "vmarks[0]"),
    (lambda o: o.update(vmarks=[1, True, 0]), "vmarks[1]"),
    (lambda o: o["emarks"][0].update(yu=0.9), "emarks[(0, 1)]"),
    (lambda o: o["emarks"][1].update(yv=False), "emarks[(2, 1)]"),
    (lambda o: o["emarks"][1].update(u=1.0), "emarks[(1.0, 2)]"),
    (lambda o: o["edges"][1].__setitem__(0, True), "edges[1]"),
    (lambda o: o.update(n=3.0), "n"),
]


@pytest.mark.parametrize("edit, field", NOT_INTEGERS, ids=[f for _, f in NOT_INTEGERS])
def test_marked_graph_rejects_marks_and_endpoints_that_are_not_integers(edit, field):
    # these used to be truncated: vmarks [1.5, true] became (1, 1), yu 0.9 became 0
    obj = {**PATH3, "edges": [list(e) for e in PATH3["edges"]],
           "emarks": [dict(r) for r in PATH3["emarks"]]}
    edit(obj)
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer, not "):
        MarkedGraph.from_obj(obj)


def test_marked_graph_rejects_a_negative_vertex_count():
    # n = -3 used to be kept, written by to_obj and only fail in numpy later
    with pytest.raises(ValueError, match="^n must be nonnegative, not -3$"):
        MarkedGraph(-3, [])


def test_marked_graph_takes_numpy_integers():
    g = MarkedGraph(np.int64(3), np.array([[0, 1], [1, 2]]), np.array([1, 0, 1]),
                    {(np.int32(0), 1): np.uint8(1), (1, 0): 0, (1, 2): 0, (2, 1): np.int16(1)})
    assert g.to_obj() == PATH3_ROWS and record_form(g) == PATH3
    assert {type(x) for x in (g.n, *g.vmarks, *g.emarks.values(), *g.edges[0])} == {int}
    assert {type(x) for row in g.to_obj()["emarks"] for x in row} == {int}
    # the rows and the record form of earlier versions decode to the same arrays
    for obj in (PATH3_ROWS, PATH3):
        assert_same_graph_arrays(MarkedGraph.from_obj(obj), g)


# an entry that the old per-entry checks reject (bool, non-integer) or keep
# (numpy integers, Python ints beyond int64)
ODD_ENTRIES = st.sampled_from([True, False, 1.5, 2.0, "1", None, np.int64(1), np.uint8(2),
                               np.uint64(2**64 - 1), 2**70, -(2**70)])


@st.composite
def graph_inputs(draw):
    """Constructor arguments of a small graph, a few of them corrupted:
    endpoints out of range, self-loops, repeated edges, entries of the wrong
    type, marks that miss or exceed the edges, an n that is not an index."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                          max_size=12))
    if draw(st.integers(0, 3)):
        # mostly valid: distinct pairs without loops
        edges = list({tuple(sorted(e)): e for e in edges if e[0] != e[1]}.values())
    edges = [list(e) for e in edges]
    marked = draw(st.booleans())
    vmarks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) if marked else None
    emarks = None
    if marked:
        emarks = {}
        for u, v in edges:
            emarks[(u, v)] = draw(st.integers(0, 3))
            emarks[(v, u)] = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["n", "edge", "range", "vmark", "vlen", "key", "mark",
                                     "drop", "extra", "unmarked"]))
        if kind == "n":
            n = draw(st.sampled_from([-1, 3.0, True, np.int64(n), n + 1]))
        elif kind == "edge" and edges:
            edges[draw(st.integers(0, len(edges) - 1))][draw(st.integers(0, 1))] = draw(ODD_ENTRIES)
        elif kind == "range" and edges:
            edges[draw(st.integers(0, len(edges) - 1))][draw(st.integers(0, 1))] = draw(
                st.sampled_from([-1, n, n + 5]))
        elif kind == "vmark" and vmarks:
            vmarks[draw(st.integers(0, len(vmarks) - 1))] = draw(ODD_ENTRIES)
        elif kind == "vlen" and vmarks is not None:
            vmarks = vmarks + [0]
        elif kind in ("key", "mark", "drop") and emarks:
            key = draw(st.sampled_from(sorted(emarks, key=repr)))
            y = emarks.pop(key)
            if kind == "key":
                key = (key[0], draw(ODD_ENTRIES))
            if kind != "drop":
                emarks[key] = draw(ODD_ENTRIES) if kind == "mark" else y
        elif kind == "extra" and emarks is not None:
            emarks[(0, n + 1)] = 0
        elif kind == "unmarked" and vmarks is not None:
            emarks = None
    if draw(st.booleans()) and all(type(x) is int and abs(x) < 2**62 for e in edges for x in e):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    else:
        edges = [tuple(e) for e in edges]
    return n, edges, vmarks, emarks


def _built(cls, args):
    try:
        return cls(*args)
    except ValueError as e:
        return e


def _same_graph(got, want):
    # the same contents, as the same Python types, the same bytes and order
    assert got.n == want.n and got.is_marked == want.is_marked
    assert got.edges == want.edges and got.vmarks == want.vmarks and got.emarks == want.emarks
    assert {type(x) for x in (*itertools.chain(*got.edges), *(got.vmarks or ()),
                              *(got.emarks or {}).values())} <= {int}
    assert json.dumps(got.to_obj(), sort_keys=True) == json.dumps(row_form(want), sort_keys=True)
    # the rows written by ``to_obj`` and the records written by the oracle,
    # the file form of earlier versions, decode to the arrays of ``got``
    for obj in (got.to_obj(), want.to_obj()):
        assert_same_graph_arrays(MarkedGraph.from_obj(json.loads(json.dumps(obj))), got)
    assert list(got.degree_histogram().items()) == list(want.degree_histogram().items())
    assert got.adjacency() == want.adjacency()


@settings(max_examples=400, deadline=None)
@given(graph_inputs())
@example((3, [(0, 1), (1, 2)], [1, 0, 1], {(0, 1): 1, (1, 0): 0, (1, 2): 0, (2, 1): 1}))
@example((3, [(0, 1), (5, 5)], None, None))        # a self-loop out of range is a self-loop
@example((3, [(0, 1), (1, 0.5), (2, 2)], None, None))  # the first faulty edge counts
@example((3, [(2**70, 2**71)], None, None))
@example((3, [(2, 1), (1, 2)], None, None))
@example((2, [(0, 1)], [0, 2**70], {(0, 1): -(2**70), (1, 0): 1}))
@example((2, np.array([[1, 0]], dtype=np.uint64), np.array([2**64 - 1, 0], dtype=np.uint64),
          {(np.uint64(0), 1): np.uint8(3), (1, 0): 4}))
@example((2, [(0, 1)], [0, 0], {(0, 1): 0, (1, 0): 0, (1, 1): 0}))
@example((2, [(0, 1)], [0, 0], {(0, 1): 0, (True, 0): 0}))
@example((2, [(0, 1)], [0, 0], {(0, 1): 0.5, (1, 0): True}))
@example((2, [(0, 1)], [0, 0], {(0, 1): 0.5, (True, 0): 0}))  # a mark before a key
@example((2, [(0, 1)], [0, 0], {(0, True): 0, (1, 0): 0.5}))  # a key before a mark
@example((2, [(0, 1)], [0, 0], {(0, 1): 0, (True, 0): 0.5}))  # a mark, then its key
@example((0, [], [], {}))                         # no vertices
@example((3, [], [1, 0, 1], {}))                  # no edges
@example((3, [(2, 1), (1, 0)], None, None))       # unmarked, edges listed as (v, u)
@example((3, [(2, 1), (1, 0)], [1, 0, 1], {(0, 1): 1, (1, 0): 0, (1, 2): 0, (2, 1): 1}))
def test_array_graph_is_the_dict_graph(args):
    want = _built(DictMarkedGraph, args)
    got = _built(MarkedGraph, args)
    if isinstance(want, ValueError):
        assert type(got) is ValueError and str(got) == str(want)
        return
    _same_graph(got, want)
    for twin in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
        assert type(twin) is MarkedGraph and twin._views is None
        _same_graph(twin, want)
    # the same graph from its own edges and marks, from both file forms and
    # from arrays of its edges and per-edge marks
    _same_graph(MarkedGraph(got.n, got.edges, got.vmarks, got.emarks), want)
    _same_graph(MarkedGraph.from_obj(json.loads(json.dumps(got.to_obj()))), want)
    _same_graph(MarkedGraph.from_obj(json.loads(json.dumps(want.to_obj()))), want)
    # both file forms with every edge listed as (v, u), the last edge first
    back = [(v, u) for u, v in reversed(want.edges)]
    flipped = [{**want.to_obj(), "edges": [list(e) for e in back]}]
    if want.is_marked:
        flipped = [{**flipped[0], "emarks": [[want.emarks[e], want.emarks[e[::-1]]] for e in back]},
                   {**flipped[0], "emarks": [{"u": u, "v": v, "yu": want.emarks[(u, v)],
                                              "yv": want.emarks[(v, u)]} for u, v in back]}]
    for obj in flipped:
        _same_graph(MarkedGraph.from_obj(obj), want)
    if got.is_marked and got.edges and max(map(abs, (*got.vmarks, *got.emarks.values()))) < 2**62:
        ends = np.array(got.edges)[::-1, ::-1]
        marks = np.array([[got.emarks[(u, v)], got.emarks[(v, u)]] for u, v in ends.tolist()])
        _same_graph(MarkedGraph(got.n, ends, np.array(got.vmarks), marks), want)


def test_graph_views_of_the_arrays_are_kept_and_read_only():
    g = MarkedGraph(3, [(2, 1), (0, 1)], [1, 0, 1], {(0, 1): 1, (1, 0): 0, (1, 2): 0, (2, 1): 1})
    assert g.edges is g.edges and g.vmarks is g.vmarks and g.emarks is g.emarks
    for array in (g._ends, g._vm, g._em):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert g.emarks == {(0, 1): 1, (1, 0): 0, (1, 2): 0, (2, 1): 1}


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig("XX", UNIF2, XI_SYM)
    with pytest.raises(ValueError):
        ModelConfig("ER", (0.5, 0.4), XI_SYM, kappa=1.0)
    with pytest.raises(ValueError):
        ModelConfig("CM", UNIF2, XI_SYM)
    with pytest.raises(ValueError):
        ModelConfig("ER", UNIF2, XI_SYM)
    cfg = ModelConfig("FE", UNIF2, XI_SYM, kappa=2.0)
    assert cfg.edge_count(10) == 10
    rt = ModelConfig.from_obj(cm_cfg({1: 0.5, 3: 0.5}).to_obj())
    assert rt.alpha == DegreeLaw({1: 0.5, 3: 0.5})


@pytest.mark.parametrize("alpha, message", [
    ({"1": 0.5, "03": 0.5}, "alpha key '03' is not a degree in canonical decimal form"),
    ({"1": 0.5, "3": "0.5"}, "alpha[\"3\"] must be a number, not '0.5'"),
], ids=["padded-key", "string-weight"])
def test_model_config_from_obj_checks_the_degree_law(alpha, message):
    # the keys went through int() and the weights through float() unchecked
    obj = cm_cfg({1: 0.5, 3: 0.5}).to_obj()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelConfig.from_obj(dict(obj, alpha=alpha))


# ---------------------------------------------------------------- pair indexing


def test_unrank_pair_bijection():
    for n in range(2, 13):
        want = list(itertools.combinations(range(n), 2))
        got = [scalar_unrank_pair(t, n) for t in range(n * (n - 1) // 2)]
        assert got == want
        assert list(map(tuple, _unrank_pair(range(len(want)), n).tolist())) == want


def test_unrank_pair_is_the_scalar_loop_on_every_rank():
    for n in range(2, 31):
        got = _unrank_pair(np.arange(n * (n - 1) // 2), n)
        assert got.dtype == np.int64
        assert list(map(tuple, got.tolist())) == [scalar_unrank_pair(t, n) for t in range(len(got))]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 10**6) | st.integers(2, 3 * 10**9), data=st.data())
@example(n=10**6, data=None)
@example(n=3 * 10**9, data=None)
def test_unrank_pair_is_the_scalar_loop_on_random_ranks(n, data):
    # above n = 10**8 the float square root is off and the first row moves
    total = n * (n - 1) // 2
    ranks = [0, total - 1, n - 2, n - 1] if data is None else data.draw(
        st.lists(st.integers(0, total - 1), min_size=1, max_size=50))
    got = _unrank_pair(np.array(ranks), n).tolist()
    assert got == [list(scalar_unrank_pair(t, n)) for t in ranks]


# ---------------------------------------------------------------- CM


def test_cm_triangle_unique():
    rng = make_rng(1)
    for _ in range(5):
        g = sample_cm(3, cm_cfg({2: 1.0}), rng)
        assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_cm_degree_histogram_exact_every_draw():
    cfg = cm_cfg({1: 0.5, 3: 0.5})
    rng = make_rng(2)
    for _ in range(10):
        g = sample_cm(20, cfg, rng)
        assert g.degree_histogram() == {1: 10, 3: 10}


def test_cm_uniform_over_matchings():
    # n=4, all degrees 1: the 3 perfect matchings should be equally likely
    cfg = cm_cfg({1: 1.0})
    rng = make_rng(3)
    counts = {}
    n_draws = 3000
    for _ in range(n_draws):
        g = sample_cm(4, cfg, rng)
        counts[g.edges] = counts.get(g.edges, 0) + 1
    assert len(counts) == 3
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-4


def test_cm_infeasible_inputs():
    with pytest.raises(ValueError):
        sample_cm(3, cm_cfg({1: 1.0}), make_rng(0))  # odd total degree
    with pytest.raises(ValueError):
        sample_cm(2, cm_cfg({3: 0.5, 1: 0.5}), make_rng(0))  # not graphical
    with pytest.raises(ValueError):
        sample_cm(3, cm_cfg({1: 0.5, 3: 0.5}), make_rng(0))  # n*alpha not integral


# short sequences around n: empty, all zeros, odd sums and degrees >= n
DEGREE_SEQUENCES = st.lists(st.integers(-1, 12), max_size=10) | st.lists(
    st.integers(0, 4), max_size=10)


@settings(max_examples=500, deadline=None)
@given(DEGREE_SEQUENCES)
@example([])
@example([0, 0, 0])
@example([1, 1, 1])
@example([2, 2])
@example([3, 3, 3, 3])
@example([-1, 1])
def test_is_graphical_matches_networkx(degrees):
    nx = pytest.importorskip("networkx")
    assert _is_graphical(Counter(degrees)) == nx.is_graphical(degrees)


def test_is_graphical_cost_follows_distinct_degrees():
    # one run of 10**7 vertices is one inequality, not a loop over n
    assert _is_graphical({3: 10**7 - 1, 1: 1})
    assert not _is_graphical({10**7: 1, 0: 10**7 - 1})


def test_cm_empty_degrees():
    g = sample_cm(5, cm_cfg({0: 1.0}), make_rng(4))
    assert g.edges == ()


# ---------------------------------------------------------------- FE


def test_fe_edges():
    rng = make_rng(5)
    assert sample_fe(6, 0, rng).edges == ()
    assert sample_fe(3, 3, rng).edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        sample_fe(4, 7, rng)
    for _ in range(10):
        g = sample_fe(9, 5, rng)
        assert len(g.edges) == 5 and len(set(g.edges)) == 5


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 60), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
@example(n=0, frac=0.0, seed=0)
@example(n=5, frac=0.0, seed=1)
@example(n=5, frac=1.0, seed=2)
@example(n=4000, frac=0.0005, seed=3)
def test_fe_one_draw_is_the_scalar_loop(n, frac, seed):
    # one array draw gives the m scalar draws bit for bit and leaves the
    # generator where the scalar loop leaves it; frac 1.0 takes every pair
    m = round(frac * (n * (n - 1) // 2))
    a, b = make_rng(seed), make_rng(seed)
    assert sample_fe(n, m, a).edges == scalar_sample_fe(n, m, b).edges
    assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
    assert a.integers(2**63) == b.integers(2**63)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), kappa=st.floats(0.0, 5.0), seed=st.integers(0, 2**64 - 1))
@example(n=5, kappa=5.0, seed=1)
@example(n=40, kappa=1e-300, seed=2)  # gaps near 2**63 must not wrap around
@example(n=4000, kappa=2.0, seed=3)
def test_er_batch_sums_are_the_scalar_walk(n, kappa, seed):
    # the same pairs from the same draws, and the generator left where the
    # scalar walk leaves it
    kappa = min(kappa, n)
    a, b = make_rng(seed), make_rng(seed)
    assert sample_er(n, kappa, a).edges == scalar_sample_er(n, kappa, b).edges
    assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


def test_fe_uniform_over_pairs():
    rng = make_rng(6)
    counts = {e: 0 for e in itertools.combinations(range(4), 2)}
    n_draws = 6000
    for _ in range(n_draws):
        g = sample_fe(4, 1, rng)
        counts[g.edges[0]] += 1
    _, p = stats.chisquare(list(counts.values()))
    assert p > 1e-4


# ---------------------------------------------------------------- ER


def test_er_degenerate_cases():
    rng = make_rng(7)
    assert sample_er(5, 0.0, rng).edges == ()
    assert len(sample_er(5, 5, rng).edges) == 10
    with pytest.raises(ValueError):
        sample_er(5, 6.0, rng)


def test_er_without_vertices_is_the_empty_graph():
    # as sample_cm and sample_fe return it; kappa / n used to divide by zero
    for sample in (lambda rng: sample_er(0, 0.0, rng),
                   lambda rng: sample_cm(0, ModelConfig("CM", (1.0,), ((1.0,),),
                                                        alpha=DegreeLaw({1: 1.0})), rng),
                   lambda rng: sample_fe(0, 0, rng)):
        g = sample(make_rng(7))
        assert (g.n, g.edges) == (0, ())


def test_er_mean_edge_count():
    rng = make_rng(8)
    n, kappa, draws = 50, 2.0, 3000
    total_pairs = n * (n - 1) // 2
    p = kappa / n
    counts = [len(sample_er(n, kappa, rng).edges) for _ in range(draws)]
    want = total_pairs * p
    sigma = math.sqrt(total_pairs * p * (1 - p) / draws)
    assert abs(np.mean(counts) - want) < 3 * sigma


# ---------------------------------------------------------------- marks


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 60), frac=st.floats(0.0, 0.5), k=st.integers(1, 3),
       seed=st.integers(0, 2**64 - 1))
def test_array_marks_are_the_per_edge_loop(n, frac, k, seed):
    # the same vertex and edge marks from the same draws
    g = sample_fe(n, round(frac * (n * (n - 1) // 2)), make_rng(seed, 1))
    nu = tuple([1 / k] * k)
    # the pairs in proportion 1, 2, ..., k * k, so no two have the same weight
    total = k * k * (k * k + 1) / 2
    xi = tuple(tuple((i * k + j + 1) / total for j in range(k)) for i in range(k))
    a, b = make_rng(seed), make_rng(seed)
    got, want = assign_marks(g, nu, xi, a), scalar_assign_marks(g, nu, xi, b)
    assert got.to_obj() == row_form(want) and got.emarks == want.emarks
    assert_same_graph_arrays(MarkedGraph.from_obj(want.to_obj()), got)
    assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


def test_assign_marks_point_masses():
    g = sample_fe(30, 40, make_rng(9))
    marked = assign_marks(g, (0.0, 1.0), ((0.0, 1.0), (0.0, 0.0)), make_rng(10))
    assert all(x == 1 for x in marked.vmarks)
    # xi = point mass on (0, 1): each orientation should appear about half the time
    n_or = sum(1 for (u, v) in marked.edges if marked.emarks[(u, v)] == 0)
    assert stats.binomtest(n_or, len(marked.edges), 0.5).pvalue > 1e-4
    with pytest.raises(ValueError):
        assign_marks(marked, UNIF2, XI_SYM, make_rng(0))


def test_assign_marks_validates_mark_laws():
    g = sample_fe(10, 5, make_rng(9))
    with pytest.raises(ValueError, match="xi must be square"):
        assign_marks(g, (1.0,), ((0.5, 0.5),), make_rng(0))
    with pytest.raises(ValueError, match="nu is not a probability vector"):
        assign_marks(g, (0.5, 0.4), XI_SYM, make_rng(0))
    with pytest.raises(ValueError, match="xi is not a probability matrix"):
        assign_marks(g, UNIF2, ((0.5, math.nan), (0.25, 0.25)), make_rng(0))


def test_assign_marks_symmetric_xi_frequencies():
    xi = ((0.1, 0.3), (0.3, 0.3))
    g = sample_fe(2000, 5000, make_rng(11))
    marked = assign_marks(g, UNIF2, xi, make_rng(12))
    m = len(marked.edges)
    freq = {}
    for u, v in marked.edges:
        key = (marked.emarks[(u, v)], marked.emarks[(v, u)])
        freq[key] = freq.get(key, 0) + 1
    for key, want in {(0, 0): 0.1, (0, 1): 0.3, (1, 0): 0.3, (1, 1): 0.3}.items():
        sigma = math.sqrt(want * (1 - want) / m)
        assert abs(freq.get(key, 0) / m - want) < 4 * sigma


def test_vertex_mark_frequencies():
    g = sample_er(4000, 1.0, make_rng(13))
    marked = assign_marks(g, (0.2, 0.8), XI_SYM, make_rng(14))
    phat = sum(1 for x in marked.vmarks if x == 0) / marked.n
    assert abs(phat - 0.2) < 3 * math.sqrt(0.2 * 0.8 / marked.n)


# ---------------------------------------------------------------- degree counts


def test_integer_degree_counts():
    alpha = DegreeLaw({1: 0.5, 3: 0.5})
    assert integer_degree_counts(alpha, 20) == {1: 10, 3: 10}
    c = integer_degree_counts(DegreeLaw({1: 1 / 3, 2: 2 / 3}), 10)
    assert sum(c.values()) == 10
    assert sum(k * v for k, v in c.items()) % 2 == 0
    # apportionment is within 1 of n*alpha, plus at most 1 more from the parity fix
    assert all(abs(c.get(k, 0) - 10 * w) <= 2 for k, w in DegreeLaw({1: 1 / 3, 2: 2 / 3}).items())
    # parity fix: all mass on odd degree, odd n
    c = integer_degree_counts(DegreeLaw({1: 1.0}), 7)
    assert c == {0: 1, 1: 6}
    assert sum(k * v for k, v in c.items()) % 2 == 0


# ---------------------------------------------------------------- GW trees


def test_gw_constant_degree_structure():
    lt = sample_sized_biased_gw(DegreeLaw({3: 1.0}), UNIF2, XI_SYM, 3, make_rng(15))
    assert len(lt.children(())) == 3
    for v in lt.vertices():
        if v != () and len(v) < 3:
            assert len(lt.children(v)) == 2  # shifted law is a point mass at 2
    assert all(len(v) <= 3 for v in lt.vertices())


def test_gw_depth_zero_and_errors():
    lt = sample_sized_biased_gw(DegreeLaw({2: 1.0}), (1.0,), ((1.0,),), 0, make_rng(16))
    assert list(lt.vertices()) == [()]
    with pytest.raises(ValueError):
        sample_sized_biased_gw(DegreeLaw({0: 1.0}), UNIF2, XI_SYM, 2, make_rng(0))


def test_gw_poisson_offspring_mean():
    rng = make_rng(17)
    beta = 2.5
    counts = [
        len(sample_sized_biased_gw(beta, (1.0,), ((1.0,),), 1, rng).children(()))
        for _ in range(2000)
    ]
    assert abs(np.mean(counts) - beta) < 3 * math.sqrt(beta / len(counts))


def test_gw_root_degree_law_vs_deeper():
    # root offspring ~ {1: .5, 3: .5}; size-biased shift gives {0: .25, 2: .75}
    rng = make_rng(18)
    root_counts = {k: 0 for k in (1, 3)}
    deep_counts = {0: 0, 2: 0}
    for _ in range(2000):
        lt = sample_sized_biased_gw(DegreeLaw({1: 0.5, 3: 0.5}), (1.0,), ((1.0,),), 2, rng)
        root_counts[len(lt.children(()))] += 1
        deep_counts[len(lt.children((1,)))] += 1
    assert stats.binomtest(root_counts[1], 2000, 0.5).pvalue > 1e-4
    assert stats.binomtest(deep_counts[0], 2000, 0.25).pvalue > 1e-4


# ---------------------------------------------------------------- UGWT sampler


def test_ugwt_fixed_point_depth1_marginal():
    nu = {0: 0.5, 1: 0.5}
    xibar = {(0, 0): 1.0}
    eta = eta1_exact({2: 1.0}, nu, xibar)
    rng = make_rng(19)
    n = 1500
    counts = {}
    for _ in range(n):
        t = truncate(canonicalize(sample_ugwt(eta, 1, 2, rng)), 1)
        counts[t] = counts.get(t, 0) + 1
    emp = TreeMeasure.from_counts(counts)
    # multinomial band per atom
    for t, w in eta.items():
        sigma = math.sqrt(w * (1 - w) / n)
        assert abs(emp.get(t) - w) < 4 * sigma


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from((1.0, 3.0, 1e-20, 1e-300)), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_ugwt_draws_the_atom_and_state_of_rng_choice(weights, seed):
    # single-vertex atoms, so the labeling draws nothing; weights 1e-20 next to
    # 1.0 leave CDF steps of zero width, as a zero cell would
    total = math.fsum(weights)
    law = TreeMeasure({star(mark, []): w / total for mark, w in enumerate(weights)})
    atoms, p, _ = samplers._extension_table(law, 0, 0)
    searched, chosen = make_rng(seed), make_rng(seed)
    for _ in range(20):
        want = atoms[int(chosen.choice(len(atoms), p=p))].mark
        assert sample_ugwt(law, 0, 0, searched).vmarks == {(): want}
    assert repr(searched.bit_generator.state) == repr(chosen.bit_generator.state)


def test_ugwt_degree_zero_root_stops():
    law = TreeMeasure({star(0, []): 1.0})
    lt = sample_ugwt(law, 1, 3, make_rng(20))
    assert list(lt.vertices()) == [()]


def test_ugwt_rejects_inadmissible():
    # branch marks distinguishable: mass only on (child-mark 0 toward root, root-mark 1)
    t = canon_raw((0, [((0, 1), (0, []))]))
    law = TreeMeasure({t: 1.0})
    with pytest.raises(ValueError):
        sample_ugwt(law, 1, 2, make_rng(21))
