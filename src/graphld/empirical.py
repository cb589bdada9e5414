"""Neighborhood and depth-h component empirical measures of finite marked graphs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .measures import TreeMeasure, transport_violation
from .samplers import MarkedGraph
from .trees import CanonicalTree, branch_views


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


def _ball(adj, root: int, h: int):
    """BFS layers of the radius-h ball around ``root``, and whether the
    subgraph induced on the ball is a tree."""
    seen = {root}
    layers: List[List[int]] = [[root]]
    for _ in range(h):
        nxt: List[int] = []
        for v in layers[-1]:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        layers.append(nxt)
    inside = sum(w in seen for v in seen for w in adj[v])
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
    depth-(j-1) views.  Views unfold the graph along non-backtracking walks,
    so they are trees on any graph.  One more round with no neighbor left out
    gives a vertex's view, which equals its ball tree wherever ``_ball`` finds
    that ball to be a tree; ``mtp_check_graph`` checks the views against
    ``truncate`` and ``branch_views``.
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


def component_view(g: MarkedGraph, root: int, h: int) -> ComponentView:
    """Layers within distance ``h`` of ``root``; cycle_detected is true iff the
    subgraph induced on the ball is not a tree."""
    if h < 0:
        raise ValueError("depth must be nonnegative")
    layers, is_tree = _ball(g.adjacency(), root, h)
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


def mtp_check_graph(g: MarkedGraph, h: Optional[int] = None, rng=None) -> float:
    """Mass-transport violation of the uniform-root law of ``g``.

    The key of a directed edge (v, w) is the one ``mtp_check`` gives a root
    edge: the pair that ``branch_views`` cuts from v's depth-h view (unfolded
    along non-backtracking walks, so a tree on any graph) at its child w.
    Each vertex adds one count to the key of each of its edges, and the swap
    of that key comes from w's view.  When ``_edge_views``, ``truncate`` and
    ``branch_views`` agree, the counts are exactly swap-symmetric and the
    result is exactly 0.0; a nonzero value means they disagree.
    """
    h = 2 if h is None else h
    if h < 1:
        raise ValueError("h must be at least 1")
    counts: Counter = Counter()
    for t, c in Counter(_root_views(g, g.adjacency(), h, range(g.n))).items():
        for key in branch_views(t, h - 1):
            counts[key] += c
    return transport_violation({k: c / g.n for k, c in counts.items()}, rng)
