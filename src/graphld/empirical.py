"""Neighborhood and depth-h component empirical measures of finite marked graphs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .measures import TreeMeasure, transport_violation
from .samplers import MarkedGraph
from .trees import CanonicalTree, _interned, branch_views


# ---------------------------------------------------------------- views


@dataclass(frozen=True)
class ComponentView:
    """BFS layers of the depth-h rooted neighborhood of one vertex."""

    root: int
    layers: Tuple[Tuple[int, ...], ...]
    cycle_detected: bool


def _refine(views: "_GraphViews", ids, trees: List[CanonicalTree], roots: bool):
    """One round of colour refinement (Weisfeiler-Leman): the views of one
    more level, given the previous round's edge ids ``ids`` and their trees.

    Slot s of vertex u stands for the directed edge from u to its neighbor w
    at s, and ``ids[s]`` is the id of u's view away from w.  The code of slot
    t is ``codes[t] * base + ids[rev[t]]``: t's edge mark pair and the id of
    the view toward u from t's neighbor.  The key of slot s is u's mark and
    the sorted codes of u's other slots; with ``roots`` no slot is left out
    and there is one key per vertex.  Keys are rows of one array per root
    degree, and one tree is interned per distinct row.  Pair codes follow
    the order of the pairs and ids the encoding order of ``trees``, so the
    codes of a row are the children in canonical order and the row is
    interned with no sort.  A vertex whose sorted codes repeat a value has
    one leave-one-out row per distinct value, as leaving out either copy
    gives the same key.  Returns the new ids, in slot (or vertex) order,
    and their trees, numbered in encoding order.
    """
    base = len(trees)
    # int32 codes while they fit: the key arrays are the round's largest
    wide = np.int32 if len(views.pairs) * base < 2**31 else np.int64
    code = views.codes.astype(wide) * base + ids[views.rev]
    # each vertex's slots, their codes in increasing order
    order = np.lexsort((code, views.owner))
    code = code[order]
    pairs, marks, indptr = views.pairs, views.leaf_marks, views.indptr
    # the child entry of each code that occurs
    entry = {c: (pairs[c // base], trees[c % base]) for c in dict.fromkeys(code.tolist())}
    deg = np.diff(indptr)
    out = np.empty(len(deg) if roots else len(code), dtype=indptr.dtype)
    new_trees: List[CanonicalTree] = []
    for d in np.unique(deg).tolist():
        us = np.flatnonzero(deg == d)
        cols = indptr[us, None] + np.arange(d)
        full = code[cols]
        if roots:
            at, rows = us, np.column_stack((views.mark_ids[us], full))
        elif d == 0:
            continue
        else:
            first = np.ones(full.shape, dtype=bool)
            first[:, 1:] = full[:, 1:] != full[:, :-1]
            r, j = np.nonzero(first)
            # row r of ``full`` less its column j
            rest = np.arange(d - 1) + (np.arange(d - 1) >= j[:, None])
            rows = np.column_stack((views.mark_ids[us[r]], full[r[:, None], rest]))
            # a repeated code's slot takes the row of its first copy
            at, pick = order[cols.ravel()], np.cumsum(first.ravel()) - 1
        keys, inverse = _unique_rows(rows)
        inverse += len(new_trees)
        for key in keys.tolist():
            new_trees.append(_interned(marks[key[0]], tuple(map(entry.__getitem__, key[1:]))))
        out[at] = inverse if roots else inverse[pick]
    return _in_encoding_order(out, new_trees)


def _unique_rows(rows):
    """The distinct rows of a 2-d array in increasing order, and the index of
    each row among them (``np.unique(rows, axis=0, return_inverse=True)``)."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return rows[new], inverse


def _in_encoding_order(ids, trees: List[CanonicalTree]):
    """``ids`` and their distinct ``trees`` renumbered in encoding order."""
    order = sorted(range(len(trees)), key=lambda i: trees[i].encoding)
    rank = np.empty(len(trees), dtype=ids.dtype)
    rank[order] = np.arange(len(trees))
    return rank[ids], [trees[i] for i in order]


# roots per block of the ball-flag walk pass, which bounds its temporaries
_BALL_BLOCK = 1 << 10


class _GraphViews:
    """The views of one graph, computed once and kept in ``MarkedGraph._views``.

    Half-edges are stored in CSR order (compressed sparse rows), as numpy
    arrays of int32 (int64 from 2**31 slots on): the slots of vertex u are
    ``indptr[u]:indptr[u + 1]``, one per neighbor ``nbr[s]`` in increasing
    order, with ``owner[s] = u``, the slot ``rev[s]`` of the reverse
    half-edge and the index ``codes[s]`` in ``pairs`` of its edge marks
    (y(w, u), y(u, w)), the pairs in increasing order.  Vertex marks are
    kept as indices ``mark_ids`` into ``leaf_marks``, in the encoding order
    of their leaves.  ``rounds[k]`` holds the edge ids and trees of
    refinement round k, the trees in encoding order; root views and
    ball-tree flags are kept per depth.
    """

    __slots__ = ("n", "leaf_marks", "mark_ids", "indptr", "nbr", "owner", "rev", "codes",
                 "pairs", "rounds", "roots", "flags")

    def __init__(self, g: MarkedGraph) -> None:
        n, ends = g.n, g._ends
        m = len(ends)
        self.n = n
        index = np.int32 if max(n, 2 * m) < 2**31 else np.int64
        # vertex marks, numbered in the encoding order of their leaves
        vm = g._vm if g.is_marked else np.zeros(n, dtype=np.int64)
        values, inverse = np.unique(vm, return_inverse=True)
        leaves = [_interned(x, ()) for x in values.tolist()]
        self.mark_ids, leaves = _in_encoding_order(inverse.astype(index), leaves)
        self.leaf_marks = [t.mark for t in leaves]
        # half-edge 2e runs from the first end of edge e to the second, 2e + 1 back
        ends = ends.astype(index)
        tail, head = ends.ravel(), ends[:, ::-1].ravel()
        order = np.lexsort((head, tail))
        slot = np.empty(2 * m, dtype=index)
        slot[order] = np.arange(2 * m)
        self.owner, self.nbr, self.rev = tail[order], head[order], slot[order ^ 1]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(tail, minlength=n)))).astype(index)
        # half-edge 2e carries (y(v, u), y(u, v)) for edge e = (u, v), 2e + 1 the
        # reverse; the pairs are numbered in increasing order
        y = g._em if g.is_marked else np.zeros((m, 2), dtype=np.int64)
        pairs, codes = _unique_rows(np.stack((y[:, ::-1], y), axis=1).reshape(2 * m, 2))
        self.pairs = list(map(tuple, pairs.tolist()))
        self.codes = codes.astype(index)[order]
        # round 0: every slot's mark id, and the leaf of each mark
        self.rounds = [(self.mark_ids[self.owner], leaves)]
        self.roots: Dict[int, List[CanonicalTree]] = {}
        self.flags: Dict[int, List[bool]] = {}

    def edge_round(self, k: int):
        """Edge ids and their trees after k rounds, each round built once."""
        while len(self.rounds) <= k:
            self.rounds.append(_refine(self, *self.rounds[-1], False))
        return self.rounds[k]

    def root_views(self, h: int) -> List[CanonicalTree]:
        """The depth-h view of every vertex."""
        views = self.roots.get(h)
        if views is None:
            if h == 0:
                ids, trees = self.mark_ids, self.rounds[0][1]
            else:
                ids, trees = _refine(self, *self.edge_round(h - 1), True)
            views = self.roots[h] = [trees[i] for i in ids.tolist()]
        return views

    def ball(self, root: int, h: int) -> List[List[int]]:
        """BFS layers of the radius-h ball around ``root``."""
        nbr, indptr = self.nbr, self.indptr
        seen, layers = {root}, [[root]]
        for _ in range(h):
            nxt: List[int] = []
            for v in layers[-1]:
                for w in nbr[indptr[v]:indptr[v + 1]].tolist():
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                break
            layers.append(nxt)
        return layers

    def ball_flags(self, h: int) -> List[bool]:
        """Per vertex, whether its radius-h ball is a tree."""
        flags = self.flags.get(h)
        if flags is None:
            n = self.n
            flags = self.flags[h] = [ok for lo in range(0, n, _BALL_BLOCK) for ok in
                                     self._tree_balls(lo, min(lo + _BALL_BLOCK, n), h).tolist()]
        return flags

    def _tree_balls(self, lo: int, hi: int, h: int):
        """Whether the radius-h ball of each root in ``lo:hi`` is a tree.

        One pass over non-backtracking walks, each kept as (root, last slot)
        and extended by every slot of its end except the reverse of its last
        one.  A ball is a tree iff the keys ``root * n + end`` of its walks of
        length 0..h are pairwise distinct (in a tree, one walk reaches each
        vertex of the ball) and no walk of length h + 1 ends on one of them
        (the step that would close a cycle through two vertices at distance
        h).  A root drops its walks as soon as one of its keys repeats, so no
        walk count grows beyond the ball and its boundary.
        """
        n, indptr, nbr, rev = self.n, self.indptr, self.nbr, self.rev
        index, n64 = indptr.dtype, np.int64(n)
        roots = np.arange(lo, hi, dtype=index)
        tree = np.ones(hi - lo, dtype=bool)
        seen = roots * n64 + roots  # sorted, as every ``seen`` below
        # the walks of length 1: every slot of a root
        walk_root = np.repeat(roots, np.diff(indptr[lo:hi + 1]))
        last = np.arange(indptr[lo], indptr[hi], dtype=index)
        for k in range(1, h + 2):
            end = nbr[last]
            keys = walk_root * n64 + end
            if k > h:
                hit = seen[np.searchsorted(seen, keys).clip(max=len(seen) - 1)] == keys
                tree[walk_root[hit] - lo] = False
                break
            seen = np.sort(np.concatenate((seen, keys)))
            tree[seen[1:][seen[1:] == seen[:-1]] // n - lo] = False
            alive = tree[walk_root - lo]
            walk_root, last, end = walk_root[alive], last[alive], end[alive]
            # every slot of the end but the one back along the walk
            deg = indptr[end + 1] - indptr[end]
            step = (np.repeat(indptr[end] - np.cumsum(deg, dtype=index) + deg, deg)
                    + np.arange(deg.sum(), dtype=index))
            keep = step != np.repeat(rev[last], deg)
            walk_root, last = np.repeat(walk_root, deg)[keep], step[keep]
        return tree


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
    views = _views(g)
    layers = views.ball(root, h)
    return ComponentView(root, tuple(tuple(sorted(l)) for l in layers),
                         not views._tree_balls(root, root + 1, h)[0])


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
