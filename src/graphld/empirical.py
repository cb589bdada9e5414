"""Neighborhood and depth-h component empirical measures of finite marked graphs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

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


def _ball(adj, root: int, h: int, banned: Optional[int] = None):
    """BFS layers of the radius-h ball around ``root`` in the graph without
    the edge {root, banned}, and whether the subgraph induced on the ball
    (still without that edge) is a tree."""
    seen = {root}
    layers: List[List[int]] = [[root]]
    for _ in range(h):
        nxt: List[int] = []
        for v in layers[-1]:
            for w in adj[v]:
                if w not in seen and (v != root or w != banned):
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        layers.append(nxt)
    inside = sum(w in seen for v in seen for w in adj[v])
    if banned in seen:
        inside -= 2
    return layers, inside == 2 * (len(seen) - 1)


def _view(g: MarkedGraph, adj, u: int, away: Optional[int], views) -> CanonicalTree:
    """u's mark with, per neighbor w other than ``away``, the edge marks
    (y(w,u), y(u,w)) and w's view away from u taken from ``views``."""
    return CanonicalTree(_vmark(g, u), tuple(
        ((_emark(g, w, u), _emark(g, u, w)), views[(w, u)]) for w in adj[u] if w != away
    ))


def _edge_views(g: MarkedGraph, adj, k: int) -> Dict[Tuple[int, int], CanonicalTree]:
    """The depth-k view of u away from v for every directed edge (u, v).

    Built in k rounds of message passing over directed edges, as in
    Weisfeiler-Leman refinement: round j builds every depth-j view from the
    depth-(j-1) views.  Views unfold the graph along non-backtracking walks.
    One more round with no neighbor left out gives a vertex's view, which
    equals its ball tree wherever ``_ball`` finds that ball to be a tree.  A
    half-edge view equals the ball tree of the graph without the edge up to
    k = 2; deeper, a short cycle through the removed edge unfolds in it.
    """
    leaves = {x: CanonicalTree(x) for x in (set(g.vmarks) if g.is_marked else {0})}
    views = {(u, v): leaves[_vmark(g, u)] for u in range(g.n) for v in adj[u]}
    for _ in range(k):
        # trees are interned, so the 2m messages hold only the distinct views
        views = {(u, v): _view(g, adj, u, v, views) for u, v in views}
    return views


def _root_views(g: MarkedGraph, adj, h: int, roots) -> Iterator[CanonicalTree]:
    """The depth-h view of each vertex in ``roots``."""
    if h == 0:
        return (CanonicalTree(_vmark(g, v)) for v in roots)
    views = _edge_views(g, adj, h - 1)
    return (_view(g, adj, v, None, views) for v in roots)


def component_view(g: MarkedGraph, root: int, h: int, adj: Optional[List[List[int]]] = None) -> ComponentView:
    """Layers within distance ``h`` of ``root``; cycle_detected is true iff the
    subgraph induced on the ball is not a tree."""
    if h < 0:
        raise ValueError("depth must be nonnegative")
    if adj is None:
        adj = g.adjacency()
    layers, is_tree = _ball(adj, root, h)
    return ComponentView(root, tuple(tuple(sorted(l)) for l in layers), not is_tree)


# ---------------------------------------------------------------- measures


def neighborhood_measure(g: MarkedGraph) -> TreeMeasure:
    """Uniform-over-vertices law of the depth-1 marked star (always a tree)."""
    stars = _root_views(g, g.adjacency(), 1, range(g.n))
    return TreeMeasure.from_counts(Counter(stars), 0, depth_bound=1)


def component_measure(g: MarkedGraph, h: int) -> TreeMeasure:
    """Uniform-over-vertices law of the depth-h rooted component truncation.

    Vertices whose depth-h neighborhood contains a cycle contribute to
    non_tree_mass instead of a tree atom.
    """
    if h < 0:
        raise ValueError("depth must be nonnegative")
    adj = g.adjacency()
    roots = [v for v in range(g.n) if _ball(adj, v, h)[1]]
    counts = Counter(_root_views(g, adj, h, roots))
    return TreeMeasure.from_counts(counts, g.n - len(roots), depth_bound=h)


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
    du, dv = ({w: i for i, layer in enumerate(_ball(adj, s, d)[0]) for w in layer} for s in (u, v))
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
    both sides are trees, else a distance-profile signature.  Every edge adds
    its key and the key's swap together, so the key weights are
    swap-symmetric by construction and the result is 0.0 for any graph and
    any views: the check guards ``_swap_key`` (a swap that is not an
    involution on the keys would show), not the views themselves.
    """
    if h is None:
        h = 2
    if h < 1:
        raise ValueError("h must be at least 1")
    adj = g.adjacency()
    views = _edge_views(g, adj, h - 1)
    counts: Counter = Counter()
    for u, v in g.edges:
        if _ball(adj, u, h - 1, v)[1] and _ball(adj, v, h - 1, u)[1]:
            side_u = HalfEdgeTree(views[(u, v)], _emark(g, u, v))
            side_v = HalfEdgeTree(views[(v, u)], _emark(g, v, u))
            key_uv = ("tree", side_v, side_u)
            key_vu = ("tree", side_u, side_v)
        else:
            key_uv = ("cyc", _cyc_signature(g, adj, u, v, h - 1))
            key_vu = _swap_key(key_uv)
        counts[key_uv] += 1
        counts[key_vu] += 1
    weights = {k: c / g.n for k, c in counts.items()}
    return transport_violation(weights, _swap_key, _key_payload, trial_count, rng)
