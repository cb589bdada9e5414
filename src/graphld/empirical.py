"""Neighborhood and depth-h component empirical measures of finite marked graphs."""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .measures import TreeMeasure, _pair_payload, transport_violation
from .samplers import MarkedGraph
from .trees import CanonicalTree, HalfEdgeTree


def _vmark(g: MarkedGraph, v: int) -> int:
    return g.vmarks[v] if g.is_marked else 0


def _emark(g: MarkedGraph, a: int, b: int) -> int:
    return g.emarks[(a, b)] if g.is_marked else 0


# ---------------------------------------------------------------- views


@dataclass(frozen=True)
class ComponentView:
    """BFS layers of the depth-h rooted neighborhood of one vertex."""

    root: int
    layers: Tuple[Tuple[int, ...], ...]
    cycle_detected: bool


def component_view(g: MarkedGraph, root: int, h: int, adj: Optional[List[List[int]]] = None) -> ComponentView:
    """Layers within distance ``h`` of ``root``; cycle_detected is true iff the
    subgraph induced on the ball is not a tree."""
    if h < 0:
        raise ValueError("depth must be nonnegative")
    if adj is None:
        adj = g.adjacency()
    dist = {root: 0}
    layers: List[List[int]] = [[root]]
    inside_edges = 0
    for d in range(1, h + 1):
        nxt: List[int] = []
        for v in layers[d - 1]:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        if not nxt:
            break
        layers.append(nxt)
    for v in dist:
        for w in adj[v]:
            if w in dist:
                inside_edges += 1
    inside_edges //= 2
    return ComponentView(
        root, tuple(tuple(sorted(l)) for l in layers), inside_edges != len(dist) - 1
    )


def _tree_from_ball(g: MarkedGraph, adj, root: int, h: int, banned: Optional[int] = None):
    """The depth-h ball as a raw rooted tree, or None if it contains a cycle.

    ``banned`` removes the edge (root, banned) before exploring, which yields
    the root-side half-edge view across that edge.
    """
    dist = {root: 0}
    parent = {root: None}
    order = [root]
    q = deque([root])
    inside_edges = 0
    while q:
        v = q.popleft()
        if dist[v] == h:
            continue
        for w in adj[v]:
            if v == root and w == banned:
                continue
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                order.append(w)
                q.append(w)
    for v in dist:
        for w in adj[v]:
            if w in dist and not (
                banned is not None and {v, w} == {root, banned}
            ):
                inside_edges += 1
    if inside_edges // 2 != len(dist) - 1:
        return None
    kids: Dict[int, List[int]] = {v: [] for v in dist}
    for v in order[1:]:
        kids[parent[v]].append(v)

    def build(v):
        return (
            _vmark(g, v),
            [((_emark(g, w, v), _emark(g, v, w)), build(w)) for w in sorted(kids[v])],
        )

    return build(root)


def _raw_to_canonical(raw) -> CanonicalTree:
    mark, children = raw
    return CanonicalTree(mark, tuple((pair, _raw_to_canonical(sub)) for pair, sub in children))


# ---------------------------------------------------------------- measures


def neighborhood_measure(g: MarkedGraph) -> TreeMeasure:
    """Uniform-over-vertices law of the depth-1 marked star (always a tree)."""
    adj = g.adjacency()
    key_counts: Counter = Counter()
    for v in range(g.n):
        key = (
            _vmark(g, v),
            tuple(sorted((_emark(g, w, v), _emark(g, v, w), _vmark(g, w)) for w in adj[v])),
        )
        key_counts[key] += 1
    atoms = {}
    for (x, kids), c in key_counts.items():
        t = CanonicalTree(x, tuple(((yc, yr), CanonicalTree(xw)) for yc, yr, xw in kids))
        atoms[t] = c
    return TreeMeasure.from_counts(atoms, 0, depth_bound=1)


def component_measure(g: MarkedGraph, h: int) -> TreeMeasure:
    """Uniform-over-vertices law of the depth-h rooted component truncation.

    Vertices whose depth-h neighborhood contains a cycle contribute to
    non_tree_mass instead of a tree atom.
    """
    if h < 0:
        raise ValueError("depth must be nonnegative")
    adj = g.adjacency()
    counts: Counter = Counter()
    non_tree = 0
    for v in range(g.n):
        raw = _tree_from_ball(g, adj, v, h)
        if raw is None:
            non_tree += 1
        else:
            counts[_raw_to_canonical(raw)] += 1
    return TreeMeasure.from_counts(counts, non_tree, depth_bound=h)


def empirical_functional(L: TreeMeasure, hfun) -> float:
    """<L, f> for f(tree) = sum of hfun over the marks of the root's neighbors."""
    if L.depth_bound < 1:
        raise ValueError("need depth_bound >= 1 to see root neighbors")
    L._require_tree_support("empirical_functional")
    return math.fsum(
        w * math.fsum(hfun(sub.mark) for _, sub in t.children) for t, w in L.items()
    )


# ---------------------------------------------------------------- mass transport


def _cyc_signature(g: MarkedGraph, adj, u: int, v: int, d: int):
    """Isomorphism-invariant signature of the doubly rooted (u, v) view when a
    half-edge view is not a tree: directed edge marks plus the multiset of
    (dist-from-u, dist-from-v, mark) over the union of the two depth-d balls."""

    def dists(src):
        dist = {src: 0}
        q = deque([src])
        while q:
            a = q.popleft()
            if dist[a] == d:
                continue
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    q.append(b)
        return dist

    du, dv = dists(u), dists(v)
    profile = tuple(
        sorted(
            (du.get(w, d + 1), dv.get(w, d + 1), _vmark(g, w))
            for w in set(du) | set(dv)
        )
    )
    return (_emark(g, u, v), _emark(g, v, u), profile)


def _swap_key(key):
    tag = key[0]
    if tag == "tree":
        return ("tree", key[2], key[1])
    yu, yv, profile = key[1]
    swapped = (yv, yu, tuple(sorted((b, a, m) for a, b, m in profile)))
    return ("cyc", swapped)


def _key_payload(key) -> bytes:
    if key[0] == "tree":
        return b"T" + _pair_payload(key[1:])
    return b"C" + repr(key[1]).encode()


def mtp_check_graph(g: MarkedGraph, h: Optional[int] = None, trial_count: int = 20, rng=None) -> float:
    """Mass-transport violation of the uniform-root law of ``g``.

    For every ordered adjacent pair (u, v) the doubly rooted view is reduced
    to an invariant key: the ordered pair of depth-(h-1) half-edge views when
    both sides are trees, else a distance-profile signature.  Exchanging the
    two roots must leave the key-weighted sums unchanged for any finite graph;
    a nonzero value flags an inconsistency in the view machinery.
    """
    if h is None:
        h = 2
    if h < 1:
        raise ValueError("h must be at least 1")
    adj = g.adjacency()
    counts: Counter = Counter()
    for u, v in g.edges:
        raw_u = _tree_from_ball(g, adj, u, h - 1, banned=v)
        raw_v = _tree_from_ball(g, adj, v, h - 1, banned=u)
        if raw_u is None or raw_v is None:
            key_uv = ("cyc", _cyc_signature(g, adj, u, v, h - 1))
            key_vu = _swap_key(key_uv)
        else:
            side_u = HalfEdgeTree(_raw_to_canonical(raw_u), _emark(g, u, v))
            side_v = HalfEdgeTree(_raw_to_canonical(raw_v), _emark(g, v, u))
            key_uv = ("tree", side_v, side_u)
            key_vu = ("tree", side_u, side_v)
        counts[key_uv] += 1
        counts[key_vu] += 1
    weights = {k: c / g.n for k, c in counts.items()}
    return transport_violation(weights, _swap_key, _key_payload, trial_count, rng)
