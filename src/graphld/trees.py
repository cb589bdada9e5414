"""Canonical rooted marked trees and the combinatorial operations on them.

Vertices carry a mark from a finite alphabet X and every directed edge side
carries a mark from a finite alphabet Y; marks are stored as integer indices.
A rooted marked tree is represented up to isomorphism by a ``CanonicalTree``,
whose children are kept sorted under a fixed total order, so two labeled trees
are isomorphic iff their canonical encodings are equal (marked AHU form).
Trees are hash-consed: while a tree is alive, constructing an equal one
returns that same object, so trees compare and hash by identity, and the
cuts of a tree, one level at a time, and the remainders left by removing one
of its root children, are computed once.  The intern table is a plain dict
from encoding to a weak reference, so lookup and insert run in C; a tree's
death removes its own entry, and only that entry.
"""

from __future__ import annotations

import numbers
import operator
import struct
import weakref
from typing import Dict, Iterator, List, NamedTuple, Tuple

_HDR = struct.Struct("<HH")
# the largest mark the 16-bit header of an encoding holds
MAX_MARK = 0xFFFF

# a weak reference to the live tree of each encoding; an entry lives as long
# as its tree
_INTERN: "Dict[bytes, _Entry]" = {}


class _Entry(weakref.ref):
    """An intern table reference that keeps its tree's encoding, ``key``."""

    __slots__ = ("key",)


def _forget(entry: _Entry, _remove=weakref._remove_dead_weakref, _table=_INTERN) -> None:
    # a dead tree's callback: drop its entry unless a live tree has taken the
    # key; the defaults outlive the module's globals at interpreter shutdown
    _remove(_table, entry.key)


__all__ = [
    "CanonicalTree",
    "HalfEdgeTree",
    "LabeledTree",
    "canonicalize",
    "truncate",
    "split_at_child",
    "attach",
    "branch_views",
    "count_branch_pairs",
    "random_labeling",
    "tree_to_obj",
    "tree_from_obj",
]


class _Frozen:
    """Base of the immutable classes: their constructors set each attribute
    once with ``object.__setattr__``, and assigning one afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle restore the slots here, past the raising __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class CanonicalTree(_Frozen):
    """Isomorphism-class representative of a rooted marked tree.

    ``children`` is a tuple of ``((y_child_side, y_root_side), subtree)``
    entries sorted lexicographically on (edge mark pair, subtree encoding).
    The mark pair stores the child-to-root side first, root-to-child second.
    Instances are immutable and interned: constructing a tree whose encoding
    equals that of a live tree returns the live tree, so equal trees are the
    same object, and equality and hashing are those of the object.  The
    compact byte encoding orders trees and keys the intern table; the tree
    cut one level shallower is kept in ``_up``, so every truncation is a
    walk along ``_up``, and ``branch_views`` keeps the tree less each of its
    root entries, as a remainder view, in ``_rests``.  Copying or unpickling
    re-interns, so it returns the live tree and carries no memo.
    """

    __slots__ = ("mark", "children", "depth", "encoding", "_up", "_rests", "__weakref__")

    def __new__(cls, mark: int, children: Tuple = ()) -> "CanonicalTree":
        # natural tuple order compares the pairs, then, on a tie, the subtrees
        # by ``__lt__``: equal trees are one object, so this is the order on
        # (pair, subtree encoding)
        return _interned(mark, tuple(sorted(children)))

    def __init__(self, mark: int, children: Tuple = ()) -> None:
        """Nothing to do: ``__new__`` returns a complete, possibly shared, tree."""

    def __reduce__(self):
        return (CanonicalTree, (self.mark, self.children))

    @property
    def root_degree(self) -> int:
        return len(self.children)

    def __lt__(self, other: "CanonicalTree") -> bool:
        return self.encoding < other.encoding

    def __repr__(self) -> str:
        return f"CanonicalTree(mark={self.mark}, deg={self.root_degree}, depth={self.depth})"


def _interned(mark: int, kids: Tuple) -> CanonicalTree:
    """The tree with root mark ``mark`` and the children ``kids``, already in
    canonical order; marks and the root degree must fit the 16-bit header."""
    if len(kids) > 0xFFFF:
        raise ValueError(f"root degree {len(kids)} exceeds 65535")
    try:
        parts = [_HDR.pack(mark, len(kids))]
        depth = 0
        for (yc, yr), sub in kids:
            parts.append(_HDR.pack(yc, yr))
            parts.append(sub.encoding)
            if sub.depth >= depth:
                depth = sub.depth + 1
    except struct.error:
        raise ValueError("mark index out of range") from None
    enc = b"".join(parts)
    entry = _INTERN.get(enc)
    if entry is not None:
        self = entry()
        if self is not None:
            return self
    self = object.__new__(CanonicalTree)
    object.__setattr__(self, "mark", int(mark))
    object.__setattr__(self, "children", kids)
    object.__setattr__(self, "depth", depth)
    object.__setattr__(self, "encoding", enc)
    entry = _INTERN[enc] = _Entry(self, _forget)
    entry.key = enc
    return self


class HalfEdgeTree(NamedTuple):
    """A canonical tree plus the pendant mark carried toward a removed neighbor."""

    tree: CanonicalTree
    pendant_mark: int

    def truncated(self, h: int) -> "HalfEdgeTree":
        return HalfEdgeTree(truncate(self.tree, h), self.pendant_mark)

    @property
    def sort_key(self):
        return (self.tree.encoding, self.pendant_mark)


class LabeledTree:
    """A rooted marked tree with Ulam-Harris-Neveu labels.

    The root is the empty tuple; the children of a vertex with l children
    carry its label extended by a suffix in 1..l.  ``vmarks`` maps labels to
    vertex marks, ``emarks`` maps ordered label pairs (both directions of
    every edge) to edge marks.
    """

    __slots__ = ("vmarks", "emarks", "_children")

    def __init__(self, vmarks: Dict[tuple, int], emarks: Dict[Tuple[tuple, tuple], int]) -> None:
        if () not in vmarks:
            raise ValueError("missing root label ()")
        children: Dict[tuple, List[tuple]] = {v: [] for v in vmarks}
        for v in vmarks:
            if v == ():
                continue
            parent = v[:-1]
            if parent not in vmarks:
                raise ValueError(f"label set not prefix closed at {v}")
            children[parent].append(v)
        for v, kids in children.items():
            kids.sort()
            if [k[-1] for k in kids] != list(range(1, len(kids) + 1)):
                raise ValueError(f"child suffixes of {v} are not 1..l")
            for k in kids:
                if (v, k) not in emarks or (k, v) not in emarks:
                    raise ValueError(f"missing edge mark on ({v}, {k})")
        self.vmarks = dict(vmarks)
        self.emarks = dict(emarks)
        self._children = children

    def children(self, v: tuple) -> List[tuple]:
        return self._children[v]

    def __len__(self) -> int:
        return len(self.vmarks)

    def vertices(self) -> Iterator[tuple]:
        return iter(self.vmarks)


def canonicalize(t: LabeledTree) -> CanonicalTree:
    """Canonical representative of `t`; invariant under relabeling."""

    def build(v: tuple) -> CanonicalTree:
        kids = []
        for c in t.children(v):
            pair = (t.emarks[(c, v)], t.emarks[(v, c)])
            kids.append((pair, build(c)))
        return CanonicalTree(t.vmarks[v], tuple(kids))

    return build(())


def truncate(t: CanonicalTree, h: int) -> CanonicalTree:
    """Subtree of vertices within distance `h` of the root: `t` cut one level
    at a time, each cut computed once and kept as long as the deeper tree
    lives."""
    if h < 0:
        raise ValueError("truncation depth must be nonnegative")
    while t.depth > h:
        cut = getattr(t, "_up", None)
        if cut is None:
            # a depth-1 tree's cut drops its children; deeper children lose
            # their deepest level.  A leaf's encoding keeps the first two
            # bytes, the mark, of its subtree's encoding, so cuts to depth
            # <= 1 keep the children's order
            top = t.depth - 1
            kids = tuple((pair, truncate(sub, top - 1) if sub.depth == top else sub)
                         for pair, sub in t.children) if top else ()
            cut = _interned(t.mark, kids) if top <= 1 else CanonicalTree(t.mark, kids)
            object.__setattr__(t, "_up", cut)
        t = cut
    return t


def split_at_child(t: CanonicalTree, child_index: int) -> Tuple[HalfEdgeTree, HalfEdgeTree]:
    """Cut the edge to one root child.

    Returns (branch, remainder): the child subtree keeping the child-side
    mark as its pendant, and the tree with that branch removed keeping the
    root-side mark as its pendant.
    """
    if not 0 <= child_index < t.root_degree:
        raise IndexError("child index out of range")
    (yc, yr), sub = t.children[child_index]
    rest = t.children[:child_index] + t.children[child_index + 1 :]
    return HalfEdgeTree(sub, yc), HalfEdgeTree(CanonicalTree(t.mark, rest), yr)


def attach(a: HalfEdgeTree, b: HalfEdgeTree) -> CanonicalTree:
    """Attach `b` as a new root child of `a`, consuming both pendant marks.

    The new edge carries ``b.pendant_mark`` on the child side and
    ``a.pendant_mark`` on the root side; the root degree grows by one.
    """
    entry = ((b.pendant_mark, a.pendant_mark), b.tree)
    return CanonicalTree(a.tree.mark, a.tree.children + (entry,))


def branch_views(t: CanonicalTree, h: int) -> Tuple[Tuple[HalfEdgeTree, HalfEdgeTree], ...]:
    """Per root child, the pair (branch, remainder) of ``split_at_child``
    truncated at depth `h`, as a tuple.

    For h >= 1 the remainder at child (pair, sub) is s = ``truncate(t, h)``
    less its entry (pair, ``truncate(sub, h-1)``), so it is never built from
    the untruncated remainder.  A tree keeps its remainders beside its
    truncations: s maps each of its entries to s less that entry once, and
    every deeper atom that truncates to s reads the same views.  A child of
    depth below h is its own truncation, so its entry is looked up as is.
    """
    if h == 0:
        leaf = _interned(t.mark, ())
        return tuple((HalfEdgeTree(truncate(sub, 0), yc), HalfEdgeTree(leaf, yr))
                     for (yc, yr), sub in t.children)
    rests = _remainders(truncate(t, h))
    views = []
    for entry in t.children:
        pair, sub = entry
        if sub.depth >= h:
            entry = (pair, truncate(sub, h - 1))
            sub = truncate(sub, h)
        views.append((HalfEdgeTree(sub, pair[0]), rests[entry]))
    return tuple(views)


def _remainders(s: CanonicalTree) -> Dict[tuple, HalfEdgeTree]:
    """Each entry ((yc, yr), sub) of ``s.children`` mapped to the remainder
    view: ``s`` less one copy of the entry, with pendant mark yr.  Built on
    first use and kept as long as ``s`` lives."""
    rests = getattr(s, "_rests", None)
    if rests is None:
        kids = s.children
        rests = {}
        for i, entry in enumerate(kids):
            if entry not in rests:
                # removing one entry keeps the others in canonical order
                rests[entry] = HalfEdgeTree(_interned(s.mark, kids[:i] + kids[i + 1:]), entry[0][1])
        object.__setattr__(s, "_rests", rests)
    return rests


def count_branch_pairs(
    tau: HalfEdgeTree, tau_prime: HalfEdgeTree, t: CanonicalTree, h: int
) -> int:
    """Number of root children of `t` whose depth-(h-1) cut views equal (tau, tau_prime)."""
    if h < 1:
        raise ValueError("h must be at least 1")
    if tau.tree.depth > h - 1 or tau_prime.tree.depth > h - 1:
        raise ValueError("view depth exceeds h-1")
    if t.depth > h:
        raise ValueError("tree depth exceeds h")
    return sum(1 for pair in branch_views(t, h - 1) if pair == (tau, tau_prime))


def random_labeling(t: CanonicalTree, rng) -> LabeledTree:
    """Uniformly random Ulam-Harris-Neveu labeling of `t`.

    Each vertex's children are put in uniformly random order, independently
    across vertices, which realizes breadth-first labeling with ties broken
    uniformly at random.
    """
    vmarks: Dict[tuple, int] = {}
    emarks: Dict[Tuple[tuple, tuple], int] = {}

    def place(node: CanonicalTree, label: tuple) -> None:
        vmarks[label] = node.mark
        k = node.root_degree
        if k == 0:
            return
        order = rng.permutation(k)
        for slot, idx in enumerate(order, start=1):
            (yc, yr), sub = node.children[int(idx)]
            child = label + (slot,)
            emarks[(child, label)] = yc
            emarks[(label, child)] = yr
            place(sub, child)

    place(t, ())
    return LabeledTree(vmarks, emarks)


def tree_to_obj(t: CanonicalTree) -> dict:
    """JSON-ready encoding: {"mark": m, "children": [{"ym_child", "ym_root", "tree"}]}."""
    return {
        "mark": t.mark,
        "children": [
            {"ym_child": yc, "ym_root": yr, "tree": tree_to_obj(sub)}
            for (yc, yr), sub in t.children
        ],
    }


def tree_from_obj(obj: dict, path: str = "", *at) -> CanonicalTree:
    """Inverse of ``tree_to_obj``; a node or child entry that is not a dict,
    children that are not a list, or a mark that is a bool or not an integer
    raises ValueError naming its path after the prefix ``path.format(*at)``,
    such as ``children[0].ym_child``, which is only formatted then."""
    names: List[Tuple[str, ...]] = []  # per depth, the paths of a node and its fields

    def build(o: dict, depth: int, at: tuple) -> CanonicalTree:
        if depth == len(names):
            node = path + "children[{}].tree." * depth
            kid = node + "children[{}]"
            names.append((node[:-1] or "tree", node + "mark", node + "children",
                          kid, kid + ".ym_child", kid + ".ym_root"))
        here, mark, children, kid, ym_child, ym_root = names[depth]
        _of_type(o, dict, here, *at)
        kids = []
        for i, c in enumerate(_of_type(o.get("children"), list, children, *at)):
            a = (*at, i)
            _of_type(c, dict, kid, *a)
            pair = (_as_index(c.get("ym_child"), ym_child, *a), _as_index(c.get("ym_root"), ym_root, *a))
            kids.append((pair, build(c.get("tree"), depth + 1, a)))
        return CanonicalTree(_as_index(o.get("mark"), mark, *at), tuple(kids))

    return build(obj, 0, at)


def _as_index(value, field: str, *at) -> int:
    """``value`` as an int (numpy integers too); a bool or a value that is not
    an integer raises ValueError naming ``field.format(*at)``, which is only
    formatted then."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{field.format(*at)} must be an integer, not {value!r}")
    return operator.index(value)


def _of_type(value, kind: type, path: str, *at):
    """``value``, after checking that it is a ``kind``; else ValueError naming
    ``path.format(*at)``."""
    if not isinstance(value, kind):
        raise ValueError(f"{path.format(*at)} must be a {kind.__name__}, not {value!r}")
    return value


def _as_number(value, path: str, *at) -> float:
    """``value`` as a float; a bool (JSON ``true``) or a value that is not a
    real number raises ValueError naming ``path.format(*at)``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{path.format(*at)} must be a number, not {value!r}")
    return float(value)


def _number_list(value, path: str) -> List[float]:
    """``value``, a list of numbers, as floats; else ValueError naming
    ``path`` or the entry ``path[i]``."""
    return [_as_number(w, f"{path}[{i}]") for i, w in enumerate(_of_type(value, list, path))]
