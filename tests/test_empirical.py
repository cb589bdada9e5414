"""Neighborhood and component empirical measures of finite marked graphs."""

from __future__ import annotations

import copy
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphld import empirical
from graphld.empirical import (
    ComponentView,
    component_measure,
    component_view,
    empirical_functional,
    mtp_check_graph,
    neighborhood_measure,
)
from graphld.measures import DegreeLaw, mtp_check, transport_violation, tv_distance
from graphld.samplers import (
    MarkedGraph, ModelConfig, assign_marks, make_rng, sample_cm, sample_er, sample_fe,
)
from graphld.trees import CanonicalTree, HalfEdgeTree, _interned, branch_views

from helpers import (
    bfs_ball_flags, canon_raw, component_law, mp_root_views, oracle_component_measure,
    oracle_mtp_weights, oracle_neighborhood_measure, oracle_refined_views, oracle_view,
    random_forest, star,
)


def graph_from_forest(adj, vmarks, emarks) -> MarkedGraph:
    n = len(adj)
    edges = [(v, w) for v in adj for w in adj[v] if v < w]
    return MarkedGraph(n, edges, [vmarks[v] for v in range(n)], dict(emarks))


def unmarked(n, edges) -> MarkedGraph:
    vmarks = [0] * n
    emarks = {}
    for u, v in edges:
        emarks[(u, v)] = 0
        emarks[(v, u)] = 0
    return MarkedGraph(n, edges, vmarks, emarks)


# ---------------------------------------------------------------- views


def test_component_view_layers_distance_correct():
    g = unmarked(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    view = component_view(g, 0, 2)
    assert view.root == 0
    assert view.layers == ((0,), (1, 4), (2,))
    assert not view.cycle_detected


def test_component_view_cycle_flag():
    # the depth-h view is the induced subgraph on the radius-h ball, so the
    # triangle is already cyclic at depth 1; a 5-cycle only at depth >= 2
    tri = unmarked(3, [(0, 1), (1, 2), (0, 2)])
    assert component_view(tri, 0, 0).cycle_detected is False
    assert component_view(tri, 0, 1).cycle_detected
    c5 = unmarked(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not component_view(c5, 0, 1).cycle_detected
    assert component_view(c5, 0, 2).cycle_detected


def test_component_view_negative_depth():
    with pytest.raises(ValueError):
        component_view(unmarked(1, []), 0, -1)


def test_component_view_root_out_of_range():
    g = unmarked(3, [(0, 1), (1, 2)])
    for root in (-1, 3):
        with pytest.raises(IndexError):
            component_view(g, root, 1)


# ---------------------------------------------------- neighborhood measure


def test_neighborhood_empty_graph_point_mass():
    g = MarkedGraph(4, [], [1, 1, 1, 1], {})
    m = neighborhood_measure(g)
    assert m.depth_bound == 1
    assert m.non_tree_mass == 0.0
    assert m.atoms == {CanonicalTree(1): 1.0}


def test_neighborhood_triangle_point_mass():
    tri = unmarked(3, [(0, 1), (1, 2), (0, 2)])
    m = neighborhood_measure(tri)
    assert m.atoms == {star(0, [0, 0]): 1.0}


def test_neighborhood_three_path_marks():
    # path a - b - a with vertex marks a=0, b=1 and trivial edge marks
    g = MarkedGraph(3, [(0, 1), (1, 2)], [0, 1, 0],
                    {(0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0})
    m = neighborhood_measure(g)
    assert m.get(star(0, [1])) == pytest.approx(2 / 3, rel=1e-15)
    assert m.get(star(1, [0, 0])) == pytest.approx(1 / 3, rel=1e-15)
    assert len(m.atoms) == 2


def test_neighborhood_matches_per_vertex_enumeration():
    rng = make_rng(41)
    for trial in range(10):
        g = sample_er(12, 2.5, make_rng(41, trial))
        g = assign_marks(g, (0.5, 0.3, 0.2), ((0.25, 0.25), (0.25, 0.25)), rng)
        adj = g.adjacency()
        acc = {}
        for v in range(g.n):
            entries = [((g.emarks[(w, v)], g.emarks[(v, w)]), (g.vmarks[w], []))
                       for w in adj[v]]
            t = canon_raw((g.vmarks[v], entries))
            acc[t] = acc.get(t, 0) + 1
        expected = {t: c / g.n for t, c in acc.items()}
        got = neighborhood_measure(g)
        assert set(got.atoms) == set(expected)
        for t, w in expected.items():
            assert got.get(t) == pytest.approx(w, rel=1e-14)


# ------------------------------------------------------ component measure


def test_component_two_disjoint_edges_deep_truncation():
    g = unmarked(4, [(0, 1), (2, 3)])
    m = component_measure(g, 5)
    assert m.atoms == {star(0, [0]): 1.0}
    assert m.non_tree_mass == 0.0
    assert m.depth_bound == 5


def test_component_triangle_all_non_tree_at_depth_2():
    tri = unmarked(3, [(0, 1), (1, 2), (0, 2)])
    m2 = component_measure(tri, 2)
    assert m2.non_tree_mass == 1.0
    assert m2.atoms == {}
    # the induced depth-1 view of a triangle vertex already holds the cycle,
    # unlike its always-a-tree neighborhood star
    m1 = component_measure(tri, 1)
    assert m1.non_tree_mass == 1.0
    assert neighborhood_measure(tri).atoms == {star(0, [0, 0]): 1.0}
    m0 = component_measure(tri, 0)
    assert m0.atoms == {CanonicalTree(0): 1.0}


def test_component_forest_matches_dfs_oracle():
    for seed in range(8):
        rng = make_rng(7, seed)
        adj, vmarks, emarks = random_forest(rng, 10)
        g = graph_from_forest(adj, vmarks, emarks)
        full = component_law(adj, vmarks, emarks)
        for h in (1, 2, 3):
            got = component_measure(g, h)
            want = full.truncated(h)
            assert got.non_tree_mass == 0.0
            assert set(got.atoms) == set(want.atoms)
            for t, w in want.items():
                assert got.get(t) == pytest.approx(w, rel=1e-13)


def test_component_depth1_marginal_is_neighborhood_on_forests():
    rng = make_rng(11)
    adj, vmarks, emarks = random_forest(rng, 12, n_components=3)
    g = graph_from_forest(adj, vmarks, emarks)
    L = neighborhood_measure(g)
    for h in (1, 2, 4):
        assert component_measure(g, h).truncated(1) == L


def test_component_star_collapse_accounts_for_cycles():
    # triangle with a pendant: vertex 3 attached to 0
    g = unmarked(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    L = neighborhood_measure(g)
    u2 = component_measure(g, 2)
    # every vertex sees the cycle within depth 2 except the pendant's view
    # still contains it; tree atoms' depth-1 truncations stay below L
    trunc = u2.truncated(1)
    gap = []
    for t, w in L.items():
        assert trunc.get(t) <= w + 1e-12
        gap.append(w - trunc.get(t))
    assert math.fsum(gap) == pytest.approx(u2.non_tree_mass, abs=1e-12)


# ----------------------------------------------------------- functionals


def test_functional_empty_graph_zero():
    g = MarkedGraph(3, [], [0, 1, 0], {})
    assert empirical_functional(neighborhood_measure(g), lambda x: 10.0 + x) == 0.0


def test_functional_regular_graph():
    # 2-regular all-mark-1 graph: <L, f> = 2 * hfun(1)
    cyc = [(i, (i + 1) % 5) for i in range(5)]
    g = MarkedGraph(5, cyc, [1] * 5, {k: 0 for e in cyc for k in (e, e[::-1])})
    val = empirical_functional(neighborhood_measure(g), lambda x: 3.5 if x == 1 else 0.0)
    assert val == pytest.approx(2 * 3.5, rel=1e-14)


def test_functional_three_path_example():
    g = MarkedGraph(3, [(0, 1), (1, 2)], [1, 0, 1],
                    {(0, 1): 0, (1, 0): 0, (1, 2): 0, (2, 1): 0})
    # root 0 (mark 1): neighbor mark 0; root 1: neighbors 1,1; root 2: neighbor 0
    val = empirical_functional(neighborhood_measure(g), lambda x: float(x))
    assert val == pytest.approx(2 / 3, rel=1e-14)


def test_functional_needs_depth_one():
    g = unmarked(2, [(0, 1)])
    with pytest.raises(ValueError):
        empirical_functional(component_measure(g, 0), lambda x: 1.0)


# --------------------------------------------------------- mass transport


def test_mtp_graph_zero_on_cyclic_graphs():
    shapes = [
        unmarked(3, [(0, 1), (1, 2), (0, 2)]),
        unmarked(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
        unmarked(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 2)]),
    ]
    rng = make_rng(5)
    for i in range(6):
        g = sample_er(14, 2.8, make_rng(5, i))
        shapes.append(assign_marks(g, (0.6, 0.4), ((0.5, 0.1), (0.2, 0.2)), rng))
    for g in shapes:
        assert mtp_check_graph(g, h=2, rng=make_rng(99)) <= 1e-9


def test_mtp_graph_and_measure_agree_on_forests():
    for seed in range(5):
        rng = make_rng(23, seed)
        adj, vmarks, emarks = random_forest(rng, 11)
        g = graph_from_forest(adj, vmarks, emarks)
        assert mtp_check_graph(g, h=2, rng=make_rng(1)) <= 1e-9
        u2 = component_measure(g, 2)
        assert mtp_check(u2, rng=make_rng(2)) <= 1e-9
        # polymorphic entry point dispatches on the graph as well
        assert mtp_check(g, h=2, rng=make_rng(3)) <= 1e-9


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 25), kappa=st.floats(0.0, 4.0), seed=st.integers(0, 2**32),
       marked=st.booleans(), h=st.integers(0, 5))
def test_views_match_ball_tree_oracle(n, kappa, seed, marked, h):
    # ER graphs this dense have triangles and short cycles, so the cycle
    # flags are exercised and the MTP keys come from views that unfold cycles.
    g = sample_er(n, min(kappa, n), make_rng(seed, 0))
    if marked:
        g = assign_marks(g, (0.5, 0.3, 0.2), ((0.4, 0.1), (0.2, 0.3)), make_rng(seed, 1))
    assert neighborhood_measure(g).to_obj() == oracle_neighborhood_measure(g).to_obj()
    assert component_measure(g, h).to_obj() == oracle_component_measure(g, h).to_obj()
    adj = g.adjacency()
    for root in range(n):
        view = component_view(g, root, h)
        assert (view.layers, view.cycle_detected) == oracle_view(adj, root, h)
    if h == 0:
        return
    seen = []

    def capture(weights):
        seen.append(weights)
        return transport_violation(weights)

    with mock.patch.object(empirical, "transport_violation", capture):
        got = mtp_check_graph(g, h)
    want = oracle_mtp_weights(g, h)
    assert seen == [want]
    assert got == transport_violation(want) == 0.0


@st.composite
def random_graphs(draw):
    """A CM, FE or ER graph of up to 40 vertices, dense enough for short
    cycles, with or without marks."""
    ensemble = draw(st.sampled_from(["CM", "FE", "ER"]))
    n = draw(st.integers(1, 40))
    rng = make_rng(draw(st.integers(0, 2**32)))
    if ensemble == "CM":
        degrees = draw(st.dictionaries(st.integers(0, 5), st.integers(1, 3), min_size=1))
        total = sum(degrees.values())
        cfg = ModelConfig(ensemble="CM", nu=(1.0,), xi=((1.0,),),
                          alpha=DegreeLaw({d: c / total for d, c in degrees.items()}))
        try:
            g = sample_cm(n, cfg, rng)
        except (ValueError, RuntimeError):
            # no simple graph with this degree histogram, or none found
            g = MarkedGraph(n, [])
    elif ensemble == "FE":
        g = sample_fe(n, draw(st.integers(0, n * (n - 1) // 2)) // 4, rng)
    else:
        g = sample_er(n, min(draw(st.floats(0.0, 4.0)), n), rng)
    if draw(st.booleans()):
        g = assign_marks(g, (0.5, 0.3, 0.2), ((0.4, 0.1), (0.2, 0.3)), rng)
    return g


def cycle(n):
    return MarkedGraph(n, [(i, (i + 1) % n) for i in range(n)])


# a degree-40 hub in a triangle (0, 1, 2) and a 7-cycle through 39 and 40
HUB = MarkedGraph(45, [(0, i) for i in range(1, 41)]
                  + [(1, 2), (40, 41), (41, 42), (42, 43), (43, 44), (39, 44)])


@settings(max_examples=150, deadline=None)
@given(g=random_graphs())
@example(g=MarkedGraph(6, []))
@example(g=cycle(3))
@example(g=cycle(4))
@example(g=cycle(5))  # at h = 2 the edge (2, 3) joins two layer-2 vertices of 0
@example(g=HUB)
def test_ball_flags_match_the_bfs_oracle(g):
    views = empirical._views(g)
    for h in range(4):
        assert views.ball_flags(h) == bfs_ball_flags(g, h)


@settings(max_examples=100, deadline=None)
@given(g=random_graphs())
@example(g=MarkedGraph(6, []))
@example(g=HUB)
def test_array_refinement_matches_the_per_slot_oracle(g):
    # every slot's edge view and every vertex's root view is the very tree
    # the per-slot keys give
    views = empirical._views(g)
    for k in range(4):
        ids, trees = views.edge_round(k)
        want = oracle_refined_views(views, k, False)
        assert len(ids) == len(want) and all(trees[i] is t for i, t in zip(ids.tolist(), want))
        want = oracle_refined_views(views, k, True)
        got = views.root_views(k)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


# vertex marks whose leaf encodings (little-endian) order 256 before 1 before 2
CANON_MARKS = (1, 256, 2)
XI3 = ((0.05, 0.1, 0.15), (0.1, 0.05, 0.1), (0.15, 0.2, 0.1))


@settings(max_examples=100, deadline=None)
@given(g=random_graphs(), seed=st.integers(0, 2**32))
@example(g=HUB, seed=0)
@example(g=cycle(5), seed=1)
def test_refinement_rows_are_in_canonical_order(g, seed):
    # each round numbers its trees in encoding order, so the rows of the next
    # round list the children in canonical order and are interned unsorted:
    # every tree of every round is the tree that sorting its children gives
    g = assign_marks(MarkedGraph(g.n, g.edges), (0.3, 0.3, 0.4), XI3, make_rng(seed))
    g = MarkedGraph(g.n, g.edges, [CANON_MARKS[x] for x in g.vmarks], g.emarks)
    views = empirical._views(g)
    for k in range(4):
        ids, trees = views.edge_round(k)
        assert [t.encoding for t in trees] == sorted(t.encoding for t in trees)
        for t in (*trees, *views.root_views(k)):
            assert CanonicalTree(t.mark, t.children) is t
        want = oracle_refined_views(views, k, False)
        assert all(trees[i] is t for i, t in zip(ids.tolist(), want))


def _cyclic_er_graph():
    g = sample_er(40, 3.0, make_rng(31, 0))
    g = assign_marks(g, (0.5, 0.5), ((0.4, 0.1), (0.2, 0.3)), make_rng(31, 1))
    assert any(component_view(g, v, 2).cycle_detected for v in range(g.n))
    return g


_refine = empirical._refine


def _backtracking_refine(views, ids, trees, roots):
    """``empirical._refine`` that leaves no neighbor out of an edge's view:
    every slot of u gets u's root view id."""
    vertex_ids, new_trees = _refine(views, ids, trees, True)
    return (vertex_ids if roots else vertex_ids[views.owner]), new_trees


def test_mtp_check_graph_fails_on_broken_views():
    # the swap of each key comes from the other endpoint's view, so a view
    # routine that disagrees with the others shows as a violation; the graph
    # is built inside each patch, since a graph keeps the views it computed
    assert mtp_check_graph(_cyclic_er_graph(), 2) == 0.0

    with mock.patch.object(empirical, "_refine", _backtracking_refine):
        assert mtp_check_graph(_cyclic_er_graph(), 2) >= 0.5

    def wrong_pendant(t, h):
        return tuple((b, HalfEdgeTree(r.tree, b.pendant_mark)) for b, r in branch_views(t, h))

    with mock.patch.object(empirical, "branch_views", wrong_pendant):
        assert mtp_check_graph(_cyclic_er_graph(), 2) > 0


# ------------------------------------------------------------ shared views


def test_marked_graph_is_immutable():
    g = _cyclic_er_graph()
    for name, value in (("n", 3), ("edges", ()), ("vmarks", None), ("emarks", {}),
                        ("_views", None), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    L = neighborhood_measure(g)
    with pytest.raises(AttributeError):
        g._views = None
    assert g._views is not None
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin.to_obj() == g.to_obj() and twin._views is None
        assert neighborhood_measure(twin) == L


def test_views_are_refined_once_per_graph():
    # L, U_1, U_2 and the depth-2 MTP share one refinement: edge round 1 and
    # the root rounds at depths 1 and 2 run once each, repeated calls run
    # none, and one tree is built per distinct id of a round
    g = _cyclic_er_graph()
    rounds, built = [], []
    ids_per_round = []

    def counting_refine(views, ids, trees, roots):
        out = _refine(views, ids, trees, roots)
        rounds.append(roots)
        ids_per_round.append(len(out[1]))
        return out

    def counting_tree(*args):
        t = _interned(*args)
        built.append(t)
        return t

    with mock.patch.object(empirical, "_refine", counting_refine), \
            mock.patch.object(empirical, "_interned", counting_tree):
        for _ in range(2):
            L = neighborhood_measure(g)
            u1 = component_measure(g, 1)
            u2 = component_measure(g, 2)
            assert mtp_check_graph(g, 2) == 0.0
    assert rounds == [True, False, True]
    assert len(g._views.rounds) == 2
    # one tree per distinct row; the leaves came with the views, which
    # ``_cyclic_er_graph`` built for its cycle check
    assert len(built) == sum(ids_per_round)
    assert L.to_obj() == oracle_neighborhood_measure(g).to_obj()
    assert u1.to_obj() == oracle_component_measure(g, 1).to_obj()
    assert u2.to_obj() == oracle_component_measure(g, 2).to_obj()


CALLS = st.one_of(
    st.tuples(st.just("L"), st.just(1)),
    st.tuples(st.just("U"), st.integers(0, 5)),
    st.tuples(st.just("MTP"), st.integers(1, 5)),
    st.tuples(st.just("view"), st.integers(0, 5)),
)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30), kappa=st.floats(0.0, 4.0), seed=st.integers(0, 2**32),
       marked=st.booleans(), calls=st.lists(CALLS, min_size=1, max_size=8))
def test_shared_views_match_message_passing_oracle(n, kappa, seed, marked, calls):
    # the calls run in a random order on one graph, whose views warm up as
    # they go, and each also on a fresh copy of it, whose views are cold
    g = sample_er(n, min(kappa, n), make_rng(seed, 0))
    if marked:
        g = assign_marks(g, (0.5, 0.3, 0.2), ((0.4, 0.1), (0.2, 0.3)), make_rng(seed, 1))
    adj = g.adjacency()
    for kind, h in calls:
        views = mp_root_views(g, h)
        for graph in (g, MarkedGraph.from_obj(g.to_obj())):
            if kind == "L":
                got = neighborhood_measure(graph)
                assert got.to_obj() == oracle_neighborhood_measure(g).to_obj()
            elif kind == "U":
                got = component_measure(graph, h)
                assert got.to_obj() == oracle_component_measure(g, h).to_obj()
            elif kind == "MTP":
                seen = []

                def capture(weights):
                    seen.append(weights)
                    return transport_violation(weights)

                with mock.patch.object(empirical, "transport_violation", capture):
                    assert mtp_check_graph(graph, h) == 0.0
                assert seen == [oracle_mtp_weights(g, h)]
            else:
                for root in range(n):
                    view = component_view(graph, root, h)
                    assert (view.layers, view.cycle_detected) == oracle_view(adj, root, h)
                continue
            memo = graph._views.root_views(h)
            assert all(a is b for a, b in zip(memo, views)) and len(memo) == n


def test_local_convergence_toward_reference_stars():
    # TV(neighborhood law of ER(n, kappa), Poisson-star reference) shrinks in n
    from graphld.rates import ReferenceLaw

    law = ReferenceLaw.poisson(1.5, (1.0,), ((1.0,),))
    eta = law.materialize()
    tvs = []
    for n in (100, 2000):
        vals = []
        for s in range(3):
            g = sample_er(n, 1.5, make_rng(77, 10 * n + s))
            g = assign_marks(g, (1.0,), ((1.0,),), make_rng(78, 10 * n + s))
            vals.append(tv_distance(neighborhood_measure(g), eta))
        tvs.append(np.mean(vals))
    assert tvs[1] < tvs[0]
    assert tvs[1] < 0.05
