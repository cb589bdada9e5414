"""Shared builders for tests: raw trees, exact reference laws, small forests, the
per-vertex ball trees and message-passing views that graph views are checked
against, the per-vertex BFS and per-slot refinement that the array ball flags
and refinement are checked against, the scalar-draw FE sampler, the scalar ER
walk, mark loop and pair unranking and the dict-based graph that the array
samplers and graph are checked against, the record form of graph files that
the row form is checked against, the per-call depth-1 leaf ratios that
the rate tables are checked against, the uncached derived laws that the
memoized ones are checked against, the ordered-product extension that the
multiset one is checked against and the weight-by-weight check of two laws,
the per-draw sampled extension that the one multinomial draw of the sampled
``extend`` is checked against, the sort-and-cut branch views and the Counter
log-factorial sum that the run-based ones are checked against, the rejection
sampler that conditional Monte Carlo is checked against, the scipy log-gamma
weights that its exact tables are checked against, the per-value draws that
its batched class-sum and composition draws are checked against, the per-leaf
product that the Gibbs optimizer is checked against, the 200-step bisection
that its lambda is checked against, the SLSQP minimizer that the Newton
brute-force oracle is checked against, the per-call tilt that its tilt table is
checked against, the key-sorted constructor that the tree constructor's own
sort is checked against, and a runner for code that must start in a fresh
interpreter."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter, deque

import numpy as np
import pytest
from scipy import optimize, special, stats

import graphld
from graphld.cli import _write_json
from graphld.gibbs import (
    TIE_TOL, _binomial_below, _binomial_tail, _finish_report, _rejection_counts, g_of_lambda,
    solve,
)
from graphld.measures import PairMeasure, TreeMeasure, _fsum_by, is_admissible
from graphld.rates import extension_kernel
from graphld.samplers import (MarkedGraph, _pair_count, _pair_start, integer_degree_counts,
                              make_rng, sample_ugwt)
from graphld.trees import (CanonicalTree, HalfEdgeTree, _Frozen, _as_index, _interned,
                           _of_type, branch_views, canonicalize, split_at_child, truncate)


def run_python(code, cwd=None, timeout=120, **env):
    """Run ``code`` in a fresh interpreter that imports this checkout's graphld."""
    src = os.path.dirname(os.path.dirname(graphld.__file__))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=timeout)


def canon_raw(raw):
    """Canonical tree from a raw nested ``(mark, [((yc, yr), sub), ...])``."""
    mark, kids = raw
    return CanonicalTree(mark, tuple((pair, canon_raw(sub)) for pair, sub in kids))


def star(root_mark, leaf_marks, pair=(0, 0)):
    return canon_raw((root_mark, [(pair, (m, [])) for m in leaf_marks]))


def eta1_exact(alpha, nu, xibar):
    """Depth-1 star law with root mark ~ nu, degree ~ alpha, i.i.d. child
    attributes (x, yc, yr) ~ nu x xibar; built by ordered products + collapse."""
    child_opts = [
        ((x, yc, yr), nu[x] * xibar[(yc, yr)]) for x in nu for (yc, yr) in xibar
    ]
    acc = {}
    for x0, w0 in nu.items():
        for d, ad in alpha.items():
            for combo in itertools.product(child_opts, repeat=d):
                w = w0 * ad
                kids = []
                for (x, yc, yr), cw in combo:
                    w *= cw
                    kids.append(((yc, yr), (x, [])))
                t = canon_raw((x0, kids))
                acc[t] = acc.get(t, 0.0) + w
    return TreeMeasure(acc, 0.0, 1)


def forest_component(adj, vmarks, emarks, root):
    """Component of `root` as a raw rooted tree (DFS; adj must be a forest)."""

    def build(v, parent):
        kids = []
        for w in sorted(adj[v]):
            if w != parent:
                kids.append(((emarks[(w, v)], emarks[(v, w)]), build(w, v)))
        return (vmarks[v], kids)

    return build(root, None)


def random_forest(rng, n, n_components=2, n_x=2, n_y=2):
    """Random marked forest as (adj, vmarks, emarks)."""
    adj = {v: set() for v in range(n)}
    roots = list(range(n_components))
    for v in range(n_components, n):
        p = int(rng.integers(v)) if v > n_components else roots[int(rng.integers(len(roots)))]
        adj[v].add(p)
        adj[p].add(v)
    vmarks = {v: int(rng.integers(n_x)) for v in range(n)}
    emarks = {}
    for v in adj:
        for w in adj[v]:
            if v < w:
                emarks[(v, w)] = int(rng.integers(n_y))
                emarks[(w, v)] = int(rng.integers(n_y))
    return adj, vmarks, emarks


def component_law(adj, vmarks, emarks):
    """Uniform-root component law of a marked forest, by direct enumeration."""
    counts = {}
    for v in adj:
        t = canon_raw(forest_component(adj, vmarks, emarks, v))
        counts[t] = counts.get(t, 0) + 1
    return TreeMeasure.from_counts(counts)


def half_edge_view(adj, vmarks, emarks, u, v, depth):
    """Raw tree rooted at ``u`` looking away from ``v``, truncated at ``depth``."""

    def build(w, parent, d):
        kids = []
        if d < depth:
            for z in sorted(adj[w]):
                if z != parent:
                    kids.append(((emarks[(z, w)], emarks[(w, z)]), build(z, w, d + 1)))
        return (vmarks[w], kids)

    return build(u, v, 0)


def _vm(g, v):
    return g.vmarks[v] if g.is_marked else 0


def _em(g, a, b):
    return g.emarks[(a, b)] if g.is_marked else 0


def ball_dist(adj, root, h):
    """Distances from ``root`` up to ``h``, and whether the subgraph induced
    on that ball is a tree."""
    dist = {root: 0}
    q = deque([root])
    while q:
        v = q.popleft()
        if dist[v] == h:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    inside = sum(1 for v in dist for w in adj[v] if w in dist)
    return dist, inside // 2 == len(dist) - 1


def ball_tree(g, adj, root, h):
    """The depth-h ball of ``root`` as a canonical tree, or None if it holds
    a cycle: the per-vertex construction that the message-passing views are
    checked against."""
    dist, is_tree = ball_dist(adj, root, h)
    if not is_tree:
        return None

    def build(v, parent):
        kids = [((_em(g, w, v), _em(g, v, w)), build(w, v)) for w in adj[v]
                if w in dist and w != parent]
        return (_vm(g, v), kids)

    return canon_raw(build(root, None))


def mp_view(g, adj, u, away, views):
    """u's mark with, per neighbor w other than ``away``, the edge marks
    (y(w,u), y(u,w)) and w's view away from u taken from ``views``."""
    return CanonicalTree(_vm(g, u), tuple(
        ((_em(g, w, u), _em(g, u, w)), views[(w, u)]) for w in adj[u] if w != away))


def mp_edge_views(g, adj, k):
    """The depth-k view of u away from v for every directed edge (u, v), by
    k rounds of message passing that build one tree per directed edge: the
    view routine that integer colour refinement replaced."""
    views = {(u, v): CanonicalTree(_vm(g, u)) for u in range(g.n) for v in adj[u]}
    for _ in range(k):
        views = {(u, v): mp_view(g, adj, u, v, views) for u, v in views}
    return views


def mp_root_views(g, h):
    """The depth-h view of every vertex, unfolded by message passing."""
    adj = g.adjacency()
    if h == 0:
        return [CanonicalTree(_vm(g, v)) for v in range(g.n)]
    views = mp_edge_views(g, adj, h - 1)
    return [mp_view(g, adj, v, None, views) for v in range(g.n)]


def oracle_view(adj, root, h):
    """(layers, cycle flag) of the depth-h ball of ``root``."""
    dist, is_tree = ball_dist(adj, root, h)
    return (tuple(tuple(sorted(w for w in dist if dist[w] == d))
                  for d in range(max(dist.values()) + 1)), not is_tree)


def oracle_neighborhood_measure(g):
    adj = g.adjacency()
    stars = [canon_raw((_vm(g, v), [((_em(g, w, v), _em(g, v, w)), (_vm(g, w), []))
                                    for w in adj[v]])) for v in range(g.n)]
    return TreeMeasure.from_counts(Counter(stars), 0, depth_bound=1)


def oracle_component_measure(g, h):
    adj = g.adjacency()
    trees = [ball_tree(g, adj, v, h) for v in range(g.n)]
    return TreeMeasure.from_counts(Counter(t for t in trees if t is not None),
                                   trees.count(None), depth_bound=h)


def oracle_mtp_weights(g, h):
    """The key weights ``mtp_check_graph`` transports: per directed edge
    (v, w), the depth-(h-1) non-backtracking unfoldings of w away from v and
    of v away from w, each unfolded recursively on its own."""
    adj = g.adjacency()
    memo = {}

    def unfold(u, away, depth):
        if (u, away, depth) not in memo:
            kids = [((_em(g, w, u), _em(g, u, w)), unfold(w, u, depth - 1))
                    for w in adj[u] if w != away] if depth else []
            memo[(u, away, depth)] = CanonicalTree(_vm(g, u), tuple(kids))
        return memo[(u, away, depth)]

    counts = Counter((HalfEdgeTree(unfold(w, v, h - 1), _em(g, w, v)),
                      HalfEdgeTree(unfold(v, w, h - 1), _em(g, v, w)))
                     for v in range(g.n) for w in adj[v])
    return {k: c / g.n for k, c in counts.items()}


def _bfs_ball_is_tree(adj, root, h):
    parent = {root: root}
    layer = [root]
    for d in range(h + 1):
        nxt = []
        for v in layer:
            for w in adj[v]:
                if w not in parent:
                    if d < h:
                        parent[w] = v
                        nxt.append(w)
                elif w != parent[v]:
                    # w was reached before, along another path
                    return False
        layer = nxt
    return True


def bfs_ball_flags(g, h):
    """Per vertex, whether its radius-h ball is a tree, by one BFS per vertex
    that stops at the first edge closing a cycle: the search that the walk
    pass of ``_GraphViews.ball_flags`` replaced."""
    adj = g.adjacency()
    return [_bfs_ball_is_tree(adj, v, h) for v in range(g.n)]


def oracle_refine(views, ids, trees, roots):
    """``empirical._refine`` with one Python key per slot, on the views' arrays
    read as lists: the round that the array refinement replaced."""
    marks = [views.leaf_marks[i] for i in views.mark_ids.tolist()]
    indptr, rev, codes = views.indptr.tolist(), views.rev.tolist(), views.codes.tolist()
    pairs = views.pairs
    base = len(trees)
    table = {}
    new_trees = []
    out = []
    for u, mark in enumerate(marks):
        seen = [codes[t] * base + ids[rev[t]] for t in range(indptr[u], indptr[u + 1])]
        full = sorted(seen)
        if roots:
            keys = [(mark, *full)]
        else:
            keys = [(mark, *full[:i], *full[i + 1:]) for i in map(full.index, seen)]
        for key in keys:
            i = table.get(key)
            if i is None:
                i = table[key] = len(new_trees)
                new_trees.append(CanonicalTree(mark, tuple(
                    (pairs[c // base], trees[c % base]) for c in key[1:])))
            out.append(i)
    return out, new_trees


def oracle_refined_views(views, k, roots):
    """The view of every slot (with ``roots``, every vertex) after k rounds
    of ``oracle_refine``, the last one a root round."""
    ids = (views.mark_ids if roots and k == 0 else views.mark_ids[views.owner]).tolist()
    trees = [CanonicalTree(x) for x in views.leaf_marks]
    for i in range(k):
        ids, trees = oracle_refine(views, ids, trees, roots and i == k - 1)
    return [trees[i] for i in ids]


def scalar_sample_fe(n, m_n, rng):
    """``sample_fe`` with one scalar draw per Fisher-Yates step and a swap
    dict: the loop that its array draw and chain resolution replaced."""
    total = _pair_count(n)
    swap = {}
    picks = []
    for i in range(m_n):
        j = i + int(rng.integers(total - i))
        picks.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    return MarkedGraph(n, [scalar_unrank_pair(t, n) for t in picks])


def scalar_sample_er(n, kappa, rng):
    """``sample_er`` walking each batch of geometric gaps one gap at a time:
    the loop that the cumulative sum of a batch replaced."""
    p = kappa / n
    total = _pair_count(n)
    if p <= 0 or total == 0:
        return MarkedGraph(n, [])
    if p >= 1:
        return MarkedGraph(n, [scalar_unrank_pair(t, n) for t in range(total)])
    picks = []
    cur = -1
    batch = max(64, int(total * p * 1.2))
    while True:
        for g in rng.geometric(p, size=batch):
            cur += int(g)
            if cur >= total:
                return MarkedGraph(n, [scalar_unrank_pair(t, n) for t in picks])
            picks.append(cur)


def scalar_assign_marks(g, nu, xi, rng):
    """``assign_marks`` filling the edge-mark dict one edge at a time, as a
    ``DictMarkedGraph``: the loop that the array marks replaced."""
    xi = np.asarray(xi, dtype=float)
    vmarks = rng.choice(len(nu), size=g.n, p=np.asarray(nu, dtype=float))
    m = len(g.edges)
    emarks = {}
    if m:
        flat = rng.choice(xi.size, size=m, p=xi.ravel())
        ys, yps = np.unravel_index(flat, xi.shape)
        coins = rng.integers(2, size=m)
        for (u, v), y, yp, c in zip(g.edges, ys.tolist(), yps.tolist(), coins.tolist()):
            yu, yv = (y, yp) if c else (yp, y)
            emarks[(u, v)] = yu
            emarks[(v, u)] = yv
    return DictMarkedGraph(g.n, g.edges, vmarks.tolist(), emarks)


def scalar_unrank_pair(t, n):
    """The t-th pair (u, v), u < v, in lexicographic order, one rank at a
    time: the loop that the array ``samplers._unrank_pair`` replaced."""
    u = min(int(n - 1 - (1 + math.isqrt(1 + 8 * (_pair_count(n) - 1 - t))) // 2), n - 2)
    while _pair_start(u + 1, n) <= t:
        u += 1
    while _pair_start(u, n) > t:
        u -= 1
    return u, u + 1 + (t - _pair_start(u, n))


class DictMarkedGraph(_Frozen):
    """``MarkedGraph`` as it was before it stored arrays: edges as a sorted
    tuple of pairs, vertex marks as a tuple and edge marks as a dict, each
    entry checked by a Python loop.  The oracle of the array graph's
    contents, methods and error messages."""

    __slots__ = ("n", "edges", "vmarks", "emarks")

    def __init__(self, n, edges, vmarks=None, emarks=None):
        n = _as_index(n, "n")
        if n < 0:
            raise ValueError(f"n must be nonnegative, not {n}")
        norm = []
        seen = set()
        for i, (u, v) in enumerate(edges):
            u, v = _as_index(u, "edges[{}]", i), _as_index(v, "edges[{}]", i)
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        if (vmarks is None) != (emarks is None):
            raise ValueError("vertex and edge marks must be supplied together")
        if vmarks is not None:
            if len(vmarks) != n:
                raise ValueError("vmarks length mismatch")
            vmarks = tuple(_as_index(x, "vmarks[{}]", i) for i, x in enumerate(vmarks))
            marks = {}
            for key, y in emarks.items():
                a, b = key
                at = "emarks[{}]"
                marks[_as_index(a, at, key), _as_index(b, at, key)] = _as_index(y, at, key)
            emarks = marks
            for u, v in norm:
                if (u, v) not in emarks or (v, u) not in emarks:
                    raise ValueError(f"missing directed mark on edge ({u}, {v})")
            if len(emarks) != 2 * len(norm):
                raise ValueError("edge mark entries do not match the edge set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "vmarks", vmarks)
        object.__setattr__(self, "emarks", emarks)

    def __reduce__(self):
        return type(self), (self.n, self.edges, self.vmarks, self.emarks)

    @property
    def is_marked(self):
        return self.vmarks is not None

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degree_histogram(self):
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        hist = {}
        for d in deg:
            hist[d] = hist.get(d, 0) + 1
        return hist

    def to_obj(self):
        obj = {"n": self.n, "edges": [[u, v] for u, v in self.edges]}
        if self.is_marked:
            obj["vmarks"] = list(self.vmarks)
            obj["emarks"] = [
                {"u": u, "v": v, "yu": self.emarks[(u, v)], "yv": self.emarks[(v, u)]}
                for u, v in self.edges
            ]
        return obj

    @classmethod
    def from_obj(cls, obj):
        vmarks = _of_type(obj, dict, "graph").get("vmarks")
        emarks = None
        if vmarks is not None:
            emarks = {}
            for i, rec in enumerate(_of_type(obj["emarks"], list, "emarks")):
                _of_type(rec, dict, f"emarks[{i}]")
                emarks[(rec["u"], rec["v"])] = rec["yu"]
                emarks[(rec["v"], rec["u"])] = rec["yv"]
        return cls(obj["n"], [tuple(e) for e in obj["edges"]], vmarks, emarks)


def record_form(g):
    """The graph file object of ``g`` in the record form that earlier versions
    wrote: ``emarks`` one {"u", "v", "yu", "yv"} dict per edge, by the
    dict-based oracle."""
    return DictMarkedGraph(g.n, g.edges, g.vmarks, g.emarks).to_obj()


def row_form(g):
    """The graph file object of a ``DictMarkedGraph`` in the row form:
    ``emarks[i]`` the marks at the first and the second end of ``edges[i]``,
    read from its dict."""
    obj = g.to_obj()
    if g.is_marked:
        obj["emarks"] = [[g.emarks[(u, v)], g.emarks[(v, u)]] for u, v in g.edges]
    return obj


def oracle_graph_file(path, g, config):
    """The graph file of ``g`` as `sample` wrote it before it streamed rows:
    the whole graph as lists (``to_obj``), dumped in one piece."""
    _write_json(path, {"graph": g.to_obj(), "n": g.n}, config)


def assert_same_graph_arrays(got, want):
    """Two ``MarkedGraph``s store the same arrays: the same dtypes, shapes and
    entries of their edges, vertex marks and per-edge marks."""
    assert got.n == want.n
    for a, b in ((got._ends, want._ends), (got._vm, want._vm), (got._em, want._em)):
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist())


# ----------------------------------------------- per-call depth-1 leaf ratios


def oracle_leaf_ratios(law, pi):
    """``rates._leaf_ratios`` with every ratio computed anew on each call."""
    first, _, cond = graphld.pair_marginals(pi)

    def indep(x_o, x, yc, yr):
        base = law.nu_pmf(x) * law.xibar_marginal(yc)
        if base == 0.0:
            return 0.0
        return first.get(HalfEdgeTree(CanonicalTree(x), yc), 0.0) / base

    def conditional(x_o, x, yc, yr):
        row = cond.get(HalfEdgeTree(CanonicalTree(x_o), yr))
        if row is None:
            return 1.0
        base = law.nu_pmf(x) * law.xibar_pmf(yc, yr)
        if base == 0.0:
            return 0.0
        return row.get(HalfEdgeTree(CanonicalTree(x), yc), 0.0) * law.xibar_marginal(yr) / base

    return indep, conditional


def oracle_leaf_density(law, ratio, t):
    """The reference star density of ``t``, computed on this call, with each
    leaf entry reweighted by ``ratio``."""
    dens = law.star_density(t)
    for (yc, yr), sub in t.children:
        if dens == 0.0:
            return 0.0
        dens *= ratio(t.mark, sub.mark, yc, yr)
    return dens


def oracle_depth1_bases(an, h):
    """``rates._ChainAnalysis.bases`` at depth 1, the star density a function
    evaluated per atom."""
    assert h == 1
    return an.law.star_density, an.law.pair_density


def oracle_depth1_component_bases(an, h):
    """``rates._ChainAnalysis.component_bases`` at depth 1 through the
    per-call leaf ratios and star densities."""
    assert h == 1
    return tuple(functools.partial(oracle_leaf_density, an.law, ratio)
                 for ratio in oracle_leaf_ratios(an.law, an.pi(1)))


# ------------------------------------------- uncached derived laws (oracles)


def entry_key(entry):
    """The canonical order of root entries: (edge mark pair, subtree encoding)."""
    return (entry[0], entry[1].encoding)


def key_sorted_tree(mark, entries):
    """The tree of root mark ``mark`` and ``entries``, sorted by ``entry_key``
    and interned as they are: the oracle of ``CanonicalTree``'s own sort."""
    return _interned(mark, tuple(sorted(entries, key=entry_key)))


def oracle_truncate(t, h):
    """Depth-h truncation rebuilt from scratch on every call."""
    if t.depth <= h:
        return t
    if h == 0:
        return CanonicalTree(t.mark)
    return CanonicalTree(t.mark, tuple((pair, oracle_truncate(sub, h - 1))
                                       for pair, sub in t.children))


def oracle_branch_views(t, h):
    """Per root child, ``split_at_child`` truncated at depth h."""
    views = []
    for i in range(t.root_degree):
        branch, rest = split_at_child(t, i)
        views.append((HalfEdgeTree(oracle_truncate(branch.tree, h), branch.pendant_mark),
                      HalfEdgeTree(oracle_truncate(rest.tree, h), rest.pendant_mark)))
    return views


def sort_and_cut_branch_views(t, h):
    """``branch_views`` as it was before remainders were kept on the truncation:
    the truncated root entries are sorted once per call (truncation can
    reverse the order of two children), and each remainder is that sorted
    tuple less one entry, interned anew."""
    cut = [(pair, truncate(sub, h - 1)) for pair, sub in t.children] if h > 0 else []
    order = sorted(range(len(cut)), key=lambda i: entry_key(cut[i]))
    ranked = tuple(cut[i] for i in order)
    rank = [0] * t.root_degree
    for r, i in enumerate(order):
        rank[i] = r
    views = []
    for ((yc, yr), sub), r in zip(t.children, rank):
        rest = _interned(t.mark, ranked[:r] + ranked[r + 1:])
        views.append((HalfEdgeTree(truncate(sub, h), yc), HalfEdgeTree(rest, yr)))
    return tuple(views)


def counter_log_factorial_sum(t):
    """``rates._log_factorial_sum`` by hashing the root entries into a Counter."""
    return math.fsum(math.lgamma(c + 1) for c in Counter(t.children).values())


def oracle_truncated(m, h):
    """The depth-h truncation of ``m`` atom by atom, each tree cut anew: the
    oracle of ``TreeMeasure.truncated`` and of the truncation that a one-step
    extension carries from its build."""
    if h >= m.depth_bound:
        return m
    acc = {}
    for t, w in m.atoms.items():
        acc.setdefault(oracle_truncate(t, h), []).append(w)
    return TreeMeasure({t: math.fsum(ws) for t, ws in acc.items()}, m.non_tree_mass, h)


def oracle_pair_weights(u, h):
    acc = {}
    for t, w in u.atoms.items():
        for key in oracle_branch_views(t, h - 1):
            acc.setdefault(key, []).append(w)
    return {k: math.fsum(ws) for k, ws in acc.items()}


def atomwise_pair_weights(u, h):
    """``measures._pair_weights`` cut atom by atom through ``branch_views``:
    the oracle of the pair weights that a one-step extension carries from its
    build, one pair weight of the law it extends times one kernel probability."""
    return _fsum_by((key, w) for t, w in u.atoms.items() for key in branch_views(t, h - 1))


def oracle_pair_measure(rho, h=None):
    h = rho.depth_bound if h is None else h
    beta = rho.mean_degree()
    return PairMeasure({k: w / beta for k, w in oracle_pair_weights(rho, h).items()})


def _hash_bit(seed, payload):
    return hashlib.blake2b(seed.to_bytes(8, "little") + payload, digest_size=1).digest()[0] & 1


def _pair_payload(key):
    """The bytes of a pair key ``(a, b)`` that a hash test function reads."""
    a, b = key
    return (
        a.tree.encoding
        + a.pendant_mark.to_bytes(2, "big")
        + b.tree.encoding
        + b.pendant_mark.to_bytes(2, "big")
    )


def oracle_transport_violation(weights, trial_count=20, rng=None):
    """The greedy sum of positive excesses, and ``trial_count`` seeded hash
    test functions of every key and its swap as an independent check; the
    largest of their absolute values."""
    # the greedy indicator 1{w(a, b) > w(b, a)}, each excess as an exact pair
    pairs = ((w, weights.get((b, a), 0.0)) for (a, b), w in weights.items())
    violations = [math.fsum(t for w, swap in pairs if w > swap for t in (w, -swap))]
    if trial_count > 0:
        rng = np.random.default_rng(0) if rng is None else rng
        seeds = [int(s) for s in rng.integers(0, 2**62, size=trial_count)]
        terms = [(w, _pair_payload((a, b)), _pair_payload((b, a)))
                 for (a, b), w in weights.items()]
        violations += [
            abs(math.fsum(w * (_hash_bit(seed, key) - _hash_bit(seed, swapped))
                          for w, key, swapped in terms))
            for seed in seeds
        ]
    return max(violations)


def oracle_mtp_check(u, h=None, trial_count=20, rng=None):
    h = max(u.depth_bound, 1) if h is None else h
    return oracle_transport_violation(oracle_pair_weights(u, h), trial_count, rng)


def oracle_one_step_extension(rho, h):
    """The one-step extension with its kernel rebuilt from oracle views."""
    beta = rho.mean_degree()
    if beta == 0:
        return TreeMeasure(rho.atoms, 0.0, h + 1)
    acc = {}
    for s, w in rho.items():
        for branch, rest in oracle_branch_views(s, h):
            prior = HalfEdgeTree(oracle_truncate(rest.tree, h - 1), rest.pendant_mark)
            acc.setdefault((prior, branch), {}).setdefault(rest, []).append(w)
    pi = PairMeasure({(branch, prior): math.fsum(w for ws in cand.values() for w in ws) / beta
                      for (prior, branch), cand in acc.items()})
    if not is_admissible(pi)[0]:
        raise ValueError("input law is inadmissible")
    laws = {}
    for key, cand in acc.items():
        sums = {c: math.fsum(ws) for c, ws in cand.items()}
        total = math.fsum(sums.values())
        laws[key] = {c: v / total for c, v in sorted(sums.items(), key=lambda kv: kv[0].sort_key)}
    out = {}
    for s, w in rho.items():
        if s.root_degree == 0:
            out.setdefault(s, []).append(w)
            continue
        views = oracle_branch_views(s, h)
        options = [list(laws[(b, HalfEdgeTree(oracle_truncate(r.tree, h - 1), r.pendant_mark))].items())
                   for b, r in views]
        for combo in itertools.product(*options):
            wt = w
            kids = []
            for (deeper, p), (_, r) in zip(combo, views):
                wt *= p
                kids.append(((deeper.pendant_mark, r.pendant_mark), deeper.tree))
            out.setdefault(CanonicalTree(s.mark, tuple(kids)), []).append(wt)
    return TreeMeasure({t: math.fsum(ws) for t, ws in out.items()}, 0.0, h + 1)


def assert_close_laws(got, want, rel=1e-14):
    """``got`` has the depth bound and support of ``want`` and every weight
    within ``rel`` relative of it."""
    assert got.depth_bound == want.depth_bound
    assert set(got.atoms) == set(want.atoms)
    for t, w in want.atoms.items():
        assert got.atoms[t] == pytest.approx(w, rel=rel, abs=0)


def ordered_product_extension(rho, h):
    """The one-step extension built from the library's kernel and views, one
    tree per ordering of the deepened root children, the orderings merged
    with ``fsum``."""
    if rho.mean_degree() == 0:
        return TreeMeasure(rho.atoms, 0.0, h + 1)
    kernel = extension_kernel(rho, h)
    out = {}
    for s, w in rho.items():
        options = [[(((deeper.pendant_mark, rest.pendant_mark), deeper.tree), p)
                    for deeper, p in kernel.law(branch, rest).items()]
                   for branch, rest in branch_views(s, h - 1)]
        for combo in itertools.product(*options):
            t = CanonicalTree(s.mark, tuple(entry for entry, _ in combo))
            out.setdefault(t, []).append(math.prod((p for _, p in combo), start=w))
    return TreeMeasure({t: math.fsum(ws) for t, ws in out.items()}, 0.0, h + 1)


def markov_product_measure(deg_law, pair_matrix):
    """Admissible vertex-only depth-1 law from a symmetric nonnegative matrix.

    Normalizing the matrix gives the size-biased (child, root) mark pair law;
    the root mark follows its marginal and leaves are i.i.d. from the
    conditional given the root mark, independently of the degree, which makes
    the pair law symmetric by construction.
    """
    total = sum(sum(row) for row in pair_matrix)
    n_x = len(pair_matrix)
    pi = [[pair_matrix[a][b] / total for b in range(n_x)] for a in range(n_x)]
    q = [sum(pi[a][b] for a in range(n_x)) for b in range(n_x)]
    acc = {}
    for x0 in range(n_x):
        if q[x0] == 0:
            continue
        cond = [pi[a][x0] / q[x0] for a in range(n_x)]
        for d, pd in deg_law.items():
            for combo in itertools.product(range(n_x), repeat=d):
                w = pd * q[x0]
                for x in combo:
                    w *= cond[x]
                if w > 0:
                    t = star(x0, list(combo))
                    acc[t] = acc.get(t, 0.0) + w
    return TreeMeasure(acc, 0.0, 1)


def per_draw_sampled_extension(rho, h, depth, samples, seed):
    """The sampled ``extend`` of earlier versions: ``samples`` draws of
    ``sample_ugwt`` from one generator, each labeled at random and
    canonicalized back to the atom it was drawn as."""
    rng = make_rng(seed)
    return TreeMeasure.from_counts(
        Counter(canonicalize(sample_ugwt(rho, h, depth, rng)) for _ in range(samples)),
        depth_bound=depth)


def per_call_g_of_lambda(problem, lam):
    """``g_of_lambda`` reading nu, h and alpha on every call, every mark
    included (a weight of 0.0 where nu(x) = 0): the bits its tilt table must
    keep."""
    total = []
    for n, an in problem.alpha.items():
        if n == 0:
            continue
        raw, z = per_call_tilted(problem, lam, n)
        num = math.fsum(v * r for w, v, r in zip(problem.nu, problem.hfun, raw) if w > 0)
        total.append(n * an * num / z)
    return math.fsum(total)


def per_call_tilted(problem, lam, n):
    """The mark weights nu(x) * exp(lambda * n * h(x)) at degree n over all
    marks, scaled so that the largest is 1.0, and their fsum."""
    logs = [math.log(w) + lam * n * v if w > 0 else -math.inf
            for w, v in zip(problem.nu, problem.hfun)]
    m = max(logs)
    raw = [math.exp(lw - m) for lw in logs]
    return raw, math.fsum(raw)


def bisection_lambda(problem):
    """``solve``'s lambda by all 200 bisection steps, with no early exit."""
    hi = 1.0
    while g_of_lambda(problem, hi) <= problem.c:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g_of_lambda(problem, mid) <= problem.c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slsqp_brute_force(problem):
    """The brute-force minimum of H(gamma || alpha x nu) by scipy's SLSQP: the
    flattened gamma with per-degree row-sum equalities and the threshold as an
    inequality, from a feasible mix of the product law and the top-h corner.
    The oracle that ``brute_force_opt``'s Newton iteration is checked against;
    it needs nu > 0 and a threshold strictly below the supremum."""
    support = [(n, an) for n, an in problem.alpha.items() if an > 0]
    n_x = len(problem.nu)
    cells = [(n, x) for n, _ in support for x in range(n_x)]
    base = np.array([problem.alpha.pmf(n) * problem.nu[x] for n, x in cells])
    nh = np.array([n * problem.hfun[x] for n, x in cells])

    def objective(g):
        g = np.clip(g, 1e-300, None)
        return float(np.sum(g * np.log(g / base)))

    def grad(g):
        g = np.clip(g, 1e-300, None)
        return np.log(g / base) + 1.0

    constraints = [
        {
            "type": "eq",
            "fun": (lambda g, rows=np.array([1.0 if n == nn else 0.0 for n, _ in cells]), a=an:
                    float(rows @ g - a)),
            "jac": (lambda g, rows=np.array([1.0 if n == nn else 0.0 for n, _ in cells]):
                    rows),
        }
        for nn, an in support
    ]
    constraints.append(
        {"type": "ineq", "fun": lambda g: float(nh @ g - problem.c), "jac": lambda g: nh}
    )
    corner = np.zeros(len(cells))
    for nn, an in support:
        idx = [i for i, (n, _) in enumerate(cells) if n == nn]
        corner[max(idx, key=lambda i: nh[i])] = an
    t_need = float(nh @ base)
    t_corner = float(nh @ corner)
    if t_corner > t_need:
        t = min(0.9, max(0.0, (problem.c - t_need) / (t_corner - t_need) + 0.05))
    else:
        t = 0.0
    res = optimize.minimize(
        objective,
        (1 - t) * base + t * corner,
        jac=grad,
        method="SLSQP",
        bounds=[(0.0, None)] * len(cells),
        constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    if not res.success:
        raise RuntimeError(f"brute force optimizer failed: {res.message}")
    return {cell: float(w) for cell, w in zip(cells, res.x) if w > 1e-15}, float(res.fun)


def _assemble_mu_star(gamma, psi):
    """Depth-1 law with root entry from gamma and leaves i.i.d. psi, one leaf
    factor at a time: the oracle of ``solve``'s ``mu_star``."""
    marks = sorted(psi)
    atoms = {}
    for (n, x), w in gamma.items():
        if w <= 0:
            continue
        if n == 0:
            t = CanonicalTree(x)
            atoms[t] = atoms.get(t, 0.0) + w
            continue
        for combo in itertools.combinations_with_replacement(marks, n):
            wt = w * math.exp(
                math.lgamma(n + 1)
                - math.fsum(
                    math.lgamma(c + 1)
                    for c in (combo.count(a) for a in set(combo))
                )
            )
            for a in combo:
                wt *= psi[a]
            if wt > 0:
                t = CanonicalTree(x, tuple(((0, 0), CanonicalTree(a)) for a in combo))
                atoms[t] = atoms.get(t, 0.0) + wt
    return TreeMeasure(atoms, 0.0, 1)


def gammaln_count_weights(law, nu):
    """Per class of a ``gibbs._CountLaw``, the multinomial probabilities of
    its mark-count vectors from ``scipy.special.gammaln``: the weights of the
    exact tables before they read log-factorials from a ``math.lgamma`` table."""
    logp = np.log(np.array([nu[x] for x in law.marks]))
    return [np.exp(special.gammaln(c + 1) - special.gammaln(kc + 1).sum(axis=1) + kc @ logp)
            for (_, c), kc in zip(law.classes, law.comps)]


def per_value_sample_exact(law, rng, samples, min_accepted, n_x):
    """``gibbs._sample_exact`` with one multinomial call per accepted value of
    T, then one per lattice sum with several compositions: the draws that
    the batched ones must equal, with the same generator state after."""
    mass = law.mass
    if min_accepted is None:
        draws, accepted = samples, int(rng.binomial(samples, mass))
    else:
        y = rng.gamma(min_accepted, (1.0 - mass) / mass)
        draws = min_accepted + (int(rng.poisson(y)) if y < 2.0 * samples + 1e6 else samples)
        accepted = min_accepted
        if draws > samples:
            draws = samples
            accepted = _binomial_below(rng, samples, mass, min_accepted)
    t_law = law.prefix[-1]
    counts = np.zeros(len(t_law), dtype=np.int64)
    if accepted:
        tail = t_law[law.t_min:]
        counts[law.t_min:] = rng.multinomial(accepted, tail / tail.sum())
    s_counts = [None] * len(law.classes)
    for i in range(len(law.classes) - 1, -1, -1):
        d = law.classes[i][0]
        below = law.prefix[i - 1] if i else np.ones(1)
        s = np.arange(len(law.laws[i]))
        got_s = np.zeros(len(s), dtype=np.int64)
        nxt = np.zeros(len(below), dtype=np.int64)
        for t in np.flatnonzero(counts):
            u = t - d * s
            ok = (u >= 0) & (u < len(below))
            w = law.laws[i][ok] * below[u[ok]]
            got = rng.multinomial(counts[t], w / w.sum())
            got_s[ok] += got
            np.add.at(nxt, u[ok], got)
        s_counts[i] = got_s
        counts = nxt
    cell_sums, cell_sqsums = {}, {}
    for i, (d, _) in enumerate(law.classes):
        comps, w, sv = law.comps[i], law.weights[i], law.sums[i]
        starts = np.searchsorted(sv, np.arange(len(law.laws[i]) + 1))
        comp_counts = np.zeros(len(comps), dtype=np.int64)
        for sval in np.flatnonzero(s_counts[i]):
            a, b = starts[sval], starts[sval + 1]
            ws = w[a:b]
            comp_counts[a:b] = rng.multinomial(s_counts[i][sval], ws / ws.sum())
        tot = comp_counts @ comps
        sq = comp_counts @ (comps * comps)
        for x in range(n_x):
            cell_sums[(d, x)] = cell_sqsums[(d, x)] = 0.0
        for x, a, b in zip(law.marks, tot, sq):
            cell_sums[(d, x)] = float(a)
            cell_sqsums[(d, x)] = float(b)
    return draws, accepted, cell_sums, cell_sqsums


def lex_compositions(c, k):
    """The k-part compositions of c in lexicographic order, one tuple each."""
    return [p for p in itertools.product(range(c + 1), repeat=k) if sum(p) == c]


def rejection_conditional_mc(problem, n, samples, rng, delta=None,
                             min_accepted=None, solution=None, chunk=1 << 22):
    """Conditional Monte Carlo by rejection: the reference sampler.

    One degree class with two marks and a tail-set acceptance event draws
    the mark-1 count by inversion of its binomial CDF in chunks of uniforms;
    every other problem draws whole per-class count vectors in batches of
    ``REJECTION_BATCH``.  The batches stop at the draw that brings the
    accepted count to ``min_accepted``; the chunks stop after the chunk in
    which that count was reached.
    """
    if solution is None:
        solution = solve(problem)
    delta = problem.delta if delta is None else float(delta)
    threshold = problem.c - delta
    counts = integer_degree_counts(problem.alpha, n)
    classes = sorted((d, c) for d, c in counts.items() if c > 0)
    if not _binomial_tail(problem, classes, n, threshold):
        result = _rejection_counts(problem, classes, n, threshold, samples, rng,
                                   min_accepted)
        return _finish_report(problem, solution, n, delta, threshold, classes,
                              *result, False)
    (d0, c0), = classes
    b_min = next(b for b in range(c0 + 1)
                 if (d0 * (b * problem.hfun[1] + (c0 - b) * problem.hfun[0])) / n
                 > threshold + TIE_TOL)
    cdf = np.cumsum(stats.binom.pmf(np.arange(c0 + 1), c0, problem.nu[1]))
    cdf[-1] = 1.0
    u_min = 0.0 if b_min == 0 else float(cdf[b_min - 1])
    drawn = accepted = 0
    sum_b = sum_b2 = 0.0
    while drawn < samples and (min_accepted is None or accepted < min_accepted):
        size = min(chunk, samples - drawn)
        u = rng.random(size)
        drawn += size
        sel = u[u >= u_min]
        if sel.size:
            b = np.searchsorted(cdf, sel, side="right")
            accepted += int(b.size)
            sum_b += float(b.sum())
            sum_b2 += float((b.astype(np.float64) ** 2).sum())
    cell_sums = {(d0, 1): sum_b, (d0, 0): accepted * c0 - sum_b}
    cell_sqsums = {(d0, 1): sum_b2,
                   (d0, 0): accepted * c0 * c0 - 2 * c0 * sum_b + sum_b2}
    return _finish_report(problem, solution, n, delta, threshold, classes,
                          drawn, accepted, cell_sums, cell_sqsums, True)
