"""Neighborhood and depth-h component empirical measures of finite marked graphs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .measures import TreeMeasure, transport_violation
from .samplers import MarkedGraph
from .trees import CanonicalTree, branch_views


# ---------------------------------------------------------------- views


@dataclass(frozen=True)
class ComponentView:
    """BFS layers of the depth-h rooted neighborhood of one vertex."""

    root: int
    layers: Tuple[Tuple[int, ...], ...]
    cycle_detected: bool


def _refine(views: "_GraphViews", ids: List[int], trees: List[CanonicalTree], roots: bool):
    """One round of colour refinement (Weisfeiler-Leman): the views of one
    more level, given the previous round's edge ids ``ids`` and their trees.

    Slot s of vertex u stands for the directed edge from u to its neighbor w
    at s, and ``ids[s]`` is the id of u's view away from w.  The new id of
    slot s interns the key of u's mark and the sorted codes, one per other
    slot t of u, of t's edge mark pair and the id of the view toward u from
    t's neighbor.  With ``roots`` no slot is left out and there is one id per
    vertex.  One ``CanonicalTree`` is built per new id, from the first key
    that gets it.  Returns the new ids, in slot (or vertex) order, and their
    trees.
    """
    marks, indptr, rev, codes, pairs = views.marks, views.indptr, views.rev, views.codes, views.pairs
    base = len(trees)
    table: Dict[tuple, int] = {}
    new_trees: List[CanonicalTree] = []
    out: List[int] = []
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


class _GraphViews:
    """The views of one graph, computed once and kept in ``MarkedGraph._views``.

    Half-edges are stored in CSR order (compressed sparse rows): the slots of
    vertex u are ``indptr[u]:indptr[u + 1]``, one per neighbor ``nbr[s]`` in
    increasing order, with the slot ``rev[s]`` of the reverse half-edge and
    the code in ``pairs`` of its edge marks (y(w, u), y(u, w)).  Edge ids are
    kept for the deepest refinement round built so far; root views and
    ball-tree flags are kept per depth.
    """

    __slots__ = ("marks", "indptr", "nbr", "rev", "codes", "pairs",
                 "depth", "ids", "trees", "roots", "flags")

    def __init__(self, g: MarkedGraph) -> None:
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        self.marks = g.vmarks if g.is_marked else (0,) * g.n
        self.indptr = indptr = [0, *accumulate(deg)]
        fill = indptr[:-1]
        self.nbr = nbr = [0] * indptr[-1]
        self.rev = rev = [0] * indptr[-1]
        self.codes = codes = [0] * indptr[-1]
        pair_code: Dict[Tuple[int, int], int] = {(0, 0): 0}
        # edges are sorted, so each vertex's neighbors arrive in increasing order
        for u, v in g.edges:
            a, b = fill[u], fill[v]
            fill[u], fill[v] = a + 1, b + 1
            nbr[a], nbr[b] = v, u
            rev[a], rev[b] = b, a
            if g.is_marked:
                yu, yv = g.emarks[(u, v)], g.emarks[(v, u)]
                codes[a] = pair_code.setdefault((yv, yu), len(pair_code))
                codes[b] = pair_code.setdefault((yu, yv), len(pair_code))
        self.pairs = list(pair_code)
        self.depth = 0
        self.ids, self.trees = self._leaves(False)
        self.roots: Dict[int, List[CanonicalTree]] = {}
        self.flags: Dict[int, List[bool]] = {}

    def _leaves(self, roots: bool):
        """Round 0, as ``_refine`` returns it: every slot's (with ``roots``,
        every vertex's) mark id, and the leaf of each mark."""
        table: Dict[int, int] = {}
        indptr = self.indptr
        ids = [table.setdefault(x, len(table)) for u, x in enumerate(self.marks)
               for _ in range(1 if roots else indptr[u + 1] - indptr[u])]
        return ids, [CanonicalTree(x) for x in table]

    def edge_round(self, k: int):
        """Edge ids and their trees after k rounds; deeper rounds continue
        from the kept one and replace it, shallower ones start over."""
        depth, ids, trees = self.depth, self.ids, self.trees
        if k < depth:
            depth = 0
            ids, trees = self._leaves(False)
        while depth < k:
            ids, trees = _refine(self, ids, trees, False)
            depth += 1
            if depth > self.depth:
                self.depth, self.ids, self.trees = depth, ids, trees
        return ids, trees

    def root_views(self, h: int) -> List[CanonicalTree]:
        """The depth-h view of every vertex."""
        views = self.roots.get(h)
        if views is None:
            if h == 0:
                ids, trees = self._leaves(True)
            else:
                ids, trees = _refine(self, *self.edge_round(h - 1), True)
            views = self.roots[h] = [trees[i] for i in ids]
        return views

    def ball(self, root: int, h: int, whole: bool = True):
        """BFS layers of the radius-h ball around ``root``, and whether the
        subgraph induced on the ball is a tree; without ``whole`` the search
        stops at the first edge that closes a cycle."""
        nbr, indptr = self.nbr, self.indptr
        parent = {root: root}
        layers: List[List[int]] = [[root]]
        is_tree = True
        for d in range(h + 1):
            nxt: List[int] = []
            for v in layers[-1]:
                for w in nbr[indptr[v]:indptr[v + 1]]:
                    if w not in parent:
                        if d < h:
                            parent[w] = v
                            nxt.append(w)
                    elif w != parent[v]:
                        # w was reached before, along another path
                        is_tree = False
                        if not whole:
                            return layers, False
            if not nxt:
                break
            layers.append(nxt)
        return layers, is_tree

    def ball_flags(self, h: int) -> List[bool]:
        """Per vertex, whether its radius-h ball is a tree."""
        flags = self.flags.get(h)
        if flags is None:
            flags = self.flags[h] = [self.ball(v, h, False)[1] for v in range(len(self.marks))]
        return flags


def _views(g: MarkedGraph) -> _GraphViews:
    views = g._views
    if views is None:
        views = _GraphViews(g)
        object.__setattr__(g, "_views", views)
    return views


def component_view(g: MarkedGraph, root: int, h: int) -> ComponentView:
    """Layers within distance ``h`` of ``root``; cycle_detected is true iff the
    subgraph induced on the ball is not a tree."""
    if h < 0:
        raise ValueError("depth must be nonnegative")
    if not 0 <= root < g.n:
        raise IndexError(f"root {root} out of range")
    layers, is_tree = _views(g).ball(root, h)
    return ComponentView(root, tuple(tuple(sorted(l)) for l in layers), not is_tree)


# ---------------------------------------------------------------- measures


def neighborhood_measure(g: MarkedGraph) -> TreeMeasure:
    """Uniform-over-vertices law of the depth-1 marked star (always a tree)."""
    return TreeMeasure.from_counts(Counter(_views(g).root_views(1)), 0, depth_bound=1)


def component_measure(g: MarkedGraph, h: int) -> TreeMeasure:
    """Uniform-over-vertices law of the depth-h rooted component truncation.

    Vertices whose depth-h neighborhood contains a cycle contribute to
    non_tree_mass instead of a tree atom.
    """
    if h < 0:
        raise ValueError("depth must be nonnegative")
    views = _views(g)
    trees = [t for t, is_tree in zip(views.root_views(h), views.ball_flags(h)) if is_tree]
    return TreeMeasure.from_counts(Counter(trees), g.n - len(trees), depth_bound=h)


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
    of that key comes from w's view.  When ``_refine``, ``truncate`` and
    ``branch_views`` agree, the counts are exactly swap-symmetric and the
    result is exactly 0.0; a nonzero value means they disagree.  The value is
    the exact max over 0/1 test functions of the key (``transport_violation``);
    ``rng`` is accepted and ignored, as the check is deterministic.
    """
    h = 2 if h is None else h
    if h < 1:
        raise ValueError("h must be at least 1")
    counts: Counter = Counter()
    for t, c in Counter(_views(g).root_views(h)).items():
        for key in branch_views(t, h - 1):
            counts[key] += c
    return transport_violation({k: c / g.n for k, c in counts.items()})
