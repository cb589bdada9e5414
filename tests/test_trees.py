"""Tree core tests.

Raw trees in these tests are nested tuples ``(mark, [((yc, yr), sub), ...])``
with children in arbitrary order.  The isomorphism oracle below decides
equality of raw trees by exhaustive child matching and is written without
reference to the canonical encoding, so it can vouch for it.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphld import trees
from graphld.trees import (
    CanonicalTree,
    HalfEdgeTree,
    LabeledTree,
    attach,
    branch_views,
    canonicalize,
    count_branch_pairs,
    random_labeling,
    split_at_child,
    tree_from_obj,
    tree_to_obj,
    truncate,
)

from helpers import (
    entry_key, key_sorted_tree, oracle_branch_views, run_python, sort_and_cut_branch_views,
)

# ---------------------------------------------------------------- oracles


def iso_equal(a, b) -> bool:
    """Marked rooted tree isomorphism by exhaustive child matching."""
    amark, akids = a
    bmark, bkids = b
    if amark != bmark or len(akids) != len(bkids):
        return False
    if not akids:
        return True
    for perm in itertools.permutations(range(len(bkids))):
        ok = True
        for i, j in enumerate(perm):
            (apair, asub), (bpair, bsub) = akids[i], bkids[j]
            if apair != bpair or not iso_equal(asub, bsub):
                ok = False
                break
        if ok:
            return True
    return False


def raw_truncate(a, h):
    """Depth truncation on raw trees (the BFS construction)."""
    mark, kids = a
    if h == 0:
        return (mark, [])
    return (mark, [(pair, raw_truncate(sub, h - 1)) for pair, sub in kids])


def raw_depth(a) -> int:
    mark, kids = a
    return 0 if not kids else 1 + max(raw_depth(sub) for _, sub in kids)


def raw_to_labeled(a) -> LabeledTree:
    vmarks, emarks = {}, {}

    def walk(node, label):
        mark, kids = node
        vmarks[label] = mark
        for slot, ((yc, yr), sub) in enumerate(kids, start=1):
            child = label + (slot,)
            emarks[(child, label)] = yc
            emarks[(label, child)] = yr
            walk(sub, child)

    walk(a, ())
    return LabeledTree(vmarks, emarks)


def raw_shuffle(a, rng):
    """A random relabeling: shuffle every child list independently."""
    mark, kids = a
    order = rng.permutation(len(kids)) if kids else []
    return (mark, [(kids[int(i)][0], raw_shuffle(kids[int(i)][1], rng)) for i in order])


def canon(a) -> CanonicalTree:
    return canonicalize(raw_to_labeled(a))


def random_raw(rng, n_vertices, n_x=3, n_y=2):
    """Random raw tree on exactly n_vertices vertices (uniform parent attachment)."""
    nodes = [(int(rng.integers(n_x)), [])]
    for _ in range(n_vertices - 1):
        parent = nodes[int(rng.integers(len(nodes)))]
        child = (int(rng.integers(n_x)), [])
        pair = (int(rng.integers(n_y)), int(rng.integers(n_y)))
        parent[1].append((pair, child))
        nodes.append(child)
    return nodes[0]


raw_trees = st.recursive(
    st.tuples(st.integers(0, 2), st.just([])),
    lambda sub: st.tuples(
        st.integers(0, 2),
        st.lists(
            st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)), sub),
            max_size=3,
        ),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------- canonicalize


def test_canonicalize_single_root():
    t = canon((4, []))
    assert t.mark == 4 and t.children == () and t.depth == 0


def test_canonicalize_star_child_order_irrelevant():
    a, b, c = 0, 1, 2
    y = (0, 0)
    t1 = canon((a, [(y, (b, [])), (y, (c, []))]))
    t2 = canon((a, [(y, (c, [])), (y, (b, []))]))
    assert t1 == t2 and t1.encoding == t2.encoding


def test_canonicalize_matches_isomorphism_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        base = random_raw(rng, 10)
        r1, r2 = raw_shuffle(base, rng), raw_shuffle(base, rng)
        assert iso_equal(r1, r2)
        assert canon(r1) == canon(r2)
        other = random_raw(rng, 10)
        assert iso_equal(base, other) == (canon(base) == canon(other))


@given(raw_trees)
@settings(max_examples=60, deadline=None)
def test_canonicalize_invariant_under_shuffle(raw):
    rng = np.random.default_rng(0)
    assert canon(raw) == canon(raw_shuffle(raw, rng))


@pytest.mark.parametrize("bad", [
    lambda: CanonicalTree(0, (((70000, 0), CanonicalTree(1)),)),
    lambda: CanonicalTree(0, (((-1, 0), CanonicalTree(1)),)),
    lambda: CanonicalTree(0, (((1.5, 0), CanonicalTree(1)),)),
    lambda: CanonicalTree(1.5),
], ids=["edge_mark_70000", "edge_mark_negative", "edge_mark_float", "vertex_mark_float"])
def test_canonical_tree_rejects_bad_marks_with_value_error(bad):
    # edge marks and non-integer marks are checked by the packing itself
    with pytest.raises(ValueError, match="mark index out of range"):
        bad()


@pytest.mark.parametrize("mark", [65535, 65536, -1])
@pytest.mark.parametrize("where", ["vertex", "edge"])
def test_vertex_and_edge_marks_share_one_range(where, mark):
    # both kinds of mark fit the 16-bit header: 0..65535
    build = {
        "vertex": lambda: CanonicalTree(mark),
        "edge": lambda: CanonicalTree(0, (((mark, 0), CanonicalTree(1)),)),
    }[where]
    if mark == 65535:
        assert tree_from_obj(tree_to_obj(build())) is build()
    else:
        with pytest.raises(ValueError, match="mark index out of range"):
            build()


def test_root_degree_beyond_the_header_is_named():
    leaf = ((0, 0), CanonicalTree(0))
    assert CanonicalTree(0, (leaf,) * 65535).root_degree == 65535
    with pytest.raises(ValueError, match="^root degree 65536 exceeds 65535$"):
        CanonicalTree(0, (leaf,) * 65536)


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree({(1,): 0}, {})
    with pytest.raises(ValueError):
        LabeledTree({(): 0, (2,): 0}, {((2,), ()): 0, ((), (2,)): 0})
    with pytest.raises(ValueError):
        LabeledTree({(): 0, (1,): 0}, {})


# ---------------------------------------------------------------- truncate


def test_truncate_path():
    path = (0, [((0, 0), (1, [((0, 0), (2, [((0, 0), (3, []))]))]))])
    t = canon(path)
    assert truncate(t, 1) == canon(raw_truncate(path, 1))
    assert truncate(t, 1).depth == 1


def test_truncate_identity_when_deep_enough():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = canon(random_raw(rng, 8))
        assert truncate(t, t.depth) is t
        assert truncate(t, t.depth + 3) is t


def test_truncate_matches_bfs_oracle_and_nests():
    rng = np.random.default_rng(2)
    for _ in range(30):
        raw = random_raw(rng, 12)
        t = canon(raw)
        for h in range(raw_depth(raw) + 1):
            assert truncate(t, h) == canon(raw_truncate(raw, h))
        assert truncate(truncate(t, 2), 1) == truncate(t, 1)


# ---------------------------------------------------------------- split / attach


def test_split_single_edge():
    t = canon((0, [((5, 7), (1, []))]))
    branch, rest = split_at_child(t, 0)
    assert branch == HalfEdgeTree(canon((1, [])), 5)
    assert rest == HalfEdgeTree(canon((0, [])), 7)


def test_split_star_remainder():
    kappa = 4
    raw = (0, [((0, 0), (1, [])) for _ in range(kappa)])
    t = canon(raw)
    _, rest = split_at_child(t, 2)
    assert rest.tree == canon((0, [((0, 0), (1, [])) for _ in range(kappa - 1)]))


def test_split_index_out_of_range():
    with pytest.raises(IndexError):
        split_at_child(canon((0, [])), 0)


def test_attach_smallest():
    a = HalfEdgeTree(canon((0, [])), 3)
    b = HalfEdgeTree(canon((1, [])), 5)
    t = attach(a, b)
    assert t == canon((0, [((5, 3), (1, []))]))


def test_attach_degree_increment():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = HalfEdgeTree(canon(random_raw(rng, 5)), int(rng.integers(2)))
        b = HalfEdgeTree(canon(random_raw(rng, 4)), int(rng.integers(2)))
        assert attach(a, b).root_degree == a.tree.root_degree + 1


def test_attach_figure_shape():
    a_tree = canon((0, [((0, 0), (1, [((0, 0), (2, []))])), ((0, 0), (1, []))]))
    b_tree = canon((1, [((0, 0), (0, [])), ((0, 0), (0, [])), ((0, 0), (2, []))]))
    out = attach(HalfEdgeTree(a_tree, 1), HalfEdgeTree(b_tree, 0))
    assert out.root_degree == 3


def test_split_attach_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(30):
        t = canon(random_raw(rng, 9))
        for i in range(t.root_degree):
            branch, rest = split_at_child(t, i)
            assert attach(rest, branch) == t


def test_truncation_commutes_with_split():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = canon(random_raw(rng, 10))
        h = 2
        tt = truncate(t, h)
        got = sorted(
            (b.truncated(h - 1).sort_key, r.truncated(h - 1).sort_key)
            for b, r in (split_at_child(tt, i) for i in range(tt.root_degree))
        )
        want = sorted(
            (b.truncated(h - 1).sort_key, r.truncated(h - 1).sort_key)
            for b, r in (split_at_child(t, i) for i in range(t.root_degree))
        )
        assert got == want


# ---------------------------------------------------------------- count_branch_pairs


def test_count_branch_pairs_star_example():
    # no edge marks: star with root 0 and leaves 0, 1, 1
    raw = (0, [((0, 0), (1, [])), ((0, 0), (0, [])), ((0, 0), (1, []))])
    t = canon(raw)
    leaf = lambda m: HalfEdgeTree(canon((m, [])), 0)
    assert count_branch_pairs(leaf(1), leaf(0), t, 1) == 2
    assert count_branch_pairs(leaf(0), leaf(0), t, 1) == 1
    assert count_branch_pairs(leaf(0), leaf(1), t, 1) == 0


def raw_branch_views(raw, h):
    """Oracle: per-child (branch, remainder) cut views, built on raw trees."""
    mark, kids = raw
    out = []
    for i, ((yc, yr), sub) in enumerate(kids):
        rest = (mark, kids[:i] + kids[i + 1 :])
        out.append(
            (
                HalfEdgeTree(canon(raw_truncate(sub, h)), yc),
                HalfEdgeTree(canon(raw_truncate(rest, h)), yr),
            )
        )
    return out


def test_count_branch_pairs_oracle_and_partition():
    rng = np.random.default_rng(6)
    for _ in range(20):
        raw = random_raw(rng, 8, n_x=2, n_y=2)
        t = canon(raw)
        h = max(t.depth, 1)
        views = raw_branch_views(raw, h - 1)
        assert sorted(v[0].sort_key for v in views) == sorted(
            v[0].sort_key for v in branch_views(t, h - 1)
        )
        total = 0
        for tau, tau_p in set(views):
            c = count_branch_pairs(tau, tau_p, t, h)
            assert c == sum(1 for v in views if v == (tau, tau_p))
            total += c
        assert total == t.root_degree


def test_branch_views_sort_children_that_truncation_reorders():
    C = CanonicalTree
    x = C(0, (((0, 0), C(0, (((0, 0), C(0)),))), ((0, 0), C(5))))
    y = C(0, (((0, 0), C(0, (((0, 0), C(0)), ((0, 0), C(0))))), ((0, 0), C(3))))
    assert x < y and truncate(x, 1) > truncate(y, 1)
    t = C(0, (((0, 0), x), ((0, 0), y), ((1, 0), C(2))))
    views = branch_views(t, 2)
    assert list(views) == oracle_branch_views(t, 2)
    cut = [(pair, truncate(sub, 1)) for pair, sub in t.children]
    for i, (_, rest) in enumerate(views):
        assert len(rest.tree.children) == 2
        assert rest.tree is C(t.mark, tuple(cut[:i] + cut[i + 1:]))


# x < y, but their depth-1 truncations compare the other way round
REORDER_X = (0, [((0, 0), (0, [((0, 0), (0, []))])), ((0, 0), (5, []))])
REORDER_Y = (0, [((0, 0), (0, [((0, 0), (0, [])), ((0, 0), (0, []))])), ((0, 0), (3, []))])


@given(raw_trees)
@example((0, [((0, 0), REORDER_X), ((0, 0), REORDER_Y), ((1, 0), (2, []))]))
@settings(max_examples=80, deadline=None)
def test_branch_views_are_the_sort_and_cut_views(raw):
    # the remainders kept on the truncation are the very trees that sorting
    # the truncated entries and cutting one out interns, for h = 0,
    # 1 <= h < depth and h >= depth
    t = canon(raw)
    for h in range(t.depth + 2):
        got, want = branch_views(t, h), sort_and_cut_branch_views(t, h)
        assert len(got) == len(want) == t.root_degree
        for (branch, rest), (branch2, rest2) in zip(got, want):
            assert branch.tree is branch2.tree and rest.tree is rest2.tree
            assert (branch.pendant_mark, rest.pendant_mark) == (branch2.pendant_mark, rest2.pendant_mark)


def test_count_branch_pairs_degree_zero():
    t = canon((0, []))
    leaf = HalfEdgeTree(t, 0)
    assert count_branch_pairs(leaf, leaf, t, 1) == 0


# ---------------------------------------------------------------- random_labeling


def test_random_labeling_isolated_root():
    lt = random_labeling(canon((3, [])), np.random.default_rng(0))
    assert set(lt.vertices()) == {()} and lt.vmarks[()] == 3


def test_random_labeling_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(30):
        t = canon(random_raw(rng, 10))
        assert canonicalize(random_labeling(t, rng)) == t


def test_random_labeling_symmetric_star():
    t = canon((0, [((0, 0), (1, [])) for _ in range(4)]))
    rng = np.random.default_rng(9)
    for _ in range(5):
        assert canonicalize(random_labeling(t, rng)) == t


def test_random_labeling_uniform_over_leaf_orders():
    # asymmetric 2-leaf star: the two labelings have exact probability 1/2 each
    t = canon((0, [((0, 0), (1, [])), ((0, 0), (2, []))]))
    rng = np.random.default_rng(10)
    n = 10_000
    hits = 0
    for _ in range(n):
        lt = random_labeling(t, rng)
        hits += lt.vmarks[(1,)] == 1
    p = hits / n
    sigma = (0.25 / n) ** 0.5
    assert abs(p - 0.5) < 3 * sigma


# ---------------------------------------------------------------- encoding / json


def test_hash_and_equality_consistency():
    rng = np.random.default_rng(11)
    seen = {}
    for _ in range(60):
        t = canon(random_raw(rng, 6, n_x=2, n_y=1))
        if t in seen:
            assert seen[t] == t.encoding
        seen[t] = t.encoding


def test_trees_compare_and_hash_by_identity():
    # interning makes equal trees one object, so identity is the equality
    assert CanonicalTree.__eq__ is object.__eq__
    assert CanonicalTree.__hash__ is object.__hash__
    t = canon((0, [((1, 0), (2, [])), ((0, 0), (1, []))]))
    assert canon((0, [((0, 0), (1, [])), ((1, 0), (2, []))])) is t
    assert tree_from_obj(tree_to_obj(t)) is t
    # copying or unpickling re-interns, so it makes no second object of a
    # live tree, and the memos of truncations and remainders stay behind
    blob = pickle.dumps(t)
    branch_views(t, 1)
    truncate(t, 0)
    assert pickle.dumps(t) == blob
    for twin in (copy.copy, copy.deepcopy, lambda u: pickle.loads(pickle.dumps(u))):
        assert twin(t) is t


def _set_field(obj, field, value):
    """Set ``value`` at a dotted path such as ``children[0].tree.mark``."""
    *path, last = field.split(".")
    for part in path:
        name, _, index = part.partition("[")
        obj = obj[name][int(index[:-1])] if index else obj[name]
    obj[last] = value


@pytest.mark.parametrize("field, value", [
    ("mark", True),
    ("mark", 1.5),
    ("children[0].ym_child", True),
    ("children[0].ym_child", 1.0),
    ("children[0].ym_root", 0.5),
    ("children[0].tree.mark", False),
    ("children[0].tree.mark", "1"),
])
def test_tree_from_obj_rejects_marks_that_are_not_integers(field, value):
    # JSON `true` used to build a tree whose entry stores True, and 1.5 was
    # reported as out of range
    obj = tree_to_obj(canon((0, [((0, 0), (1, []))])))
    _set_field(obj, field, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer, not "):
        tree_from_obj(obj)


def test_tree_from_obj_takes_numpy_integers():
    obj = {"mark": np.int64(2), "children": [
        {"ym_child": np.uint16(1), "ym_root": np.int32(0), "tree": {"mark": np.int8(3), "children": []}}]}
    t = tree_from_obj(obj)
    assert t is canon((2, [((1, 0), (3, []))]))
    assert type(t.children[0][0][0]) is int


def test_json_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(15):
        t = canon(random_raw(rng, 7))
        assert tree_from_obj(tree_to_obj(t)) == t


@given(raw_trees)
@settings(max_examples=40, deadline=None)
def test_labeling_round_trip_property(raw):
    t = canon(raw)
    rng = np.random.default_rng(13)
    assert canonicalize(random_labeling(t, rng)) == t


# ---------------------------------------------------------------- intern table and entry order


# marks on both sides of 256, where the little-endian header's first byte
# stops being the whole mark
WIDE = st.sampled_from((0, 1, 2, 255, 256, 257, 513, 65535))
wide_raw_trees = st.recursive(
    st.tuples(WIDE, st.just([])),
    lambda sub: st.tuples(WIDE, st.lists(st.tuples(st.tuples(WIDE, WIDE), sub), max_size=4)),
    max_leaves=10,
)


def key_sorted_raw(raw):
    """``canon`` through the key-sorted oracle constructor at every vertex."""
    mark, kids = raw
    return key_sorted_tree(mark, [(pair, key_sorted_raw(sub)) for pair, sub in kids])


@given(wide_raw_trees, st.integers(0, 2**32))
@example((256, [((0, 0), (1, [((0, 0), (0, []))])), ((0, 0), (256, [])), ((0, 0), (1, []))]), 0)
@settings(max_examples=120, deadline=None)
def test_constructor_sort_is_the_entry_key_sort(raw, seed):
    # natural tuple order, subtrees compared by encoding only when the pairs
    # tie, is the (pair, encoding) order; depth-0 cuts keep it without a sort
    t = key_sorted_raw(raw)
    assert canon(raw) is t
    entries = list(t.children)
    random.Random(seed).shuffle(entries)
    assert CanonicalTree(t.mark, tuple(entries)) is t
    assert list(t.children) == sorted(t.children, key=entry_key)
    cut = key_sorted_tree(t.mark, [(pair, CanonicalTree(sub.mark)) for pair, sub in t.children])
    assert truncate(t, 1) is (cut if t.depth > 1 else t)
    assert list(truncate(t, 1).children) == sorted(truncate(t, 1).children, key=entry_key)


def test_dead_entry_cannot_remove_a_live_tree():
    # a dead tree's callback removes its key only while the key still holds
    # a dead reference
    class Gone:
        __slots__ = ("__weakref__",)

    t = CanonicalTree(4323, (((0, 0), CanonicalTree(4324)),))
    obj = Gone()
    stale = trees._Entry(obj, None)
    stale.key = t.encoding
    del obj
    assert stale() is None
    trees._forget(stale)
    assert trees._INTERN[t.encoding]() is t
    assert CanonicalTree(4323, (((0, 0), CanonicalTree(4324)),)) is t


@pytest.mark.parametrize("ending", ["", "trees.__dict__.clear()\ndel keep\n"])
def test_exit_holding_trees_prints_nothing(ending):
    # the intern table's callbacks run while interpreters shut down and after
    # the module's globals are gone; a callback that read a global printed
    # "Exception ignored ... NameError: _INTERN" there
    code = ("from graphld import trees\n"
            "from graphld.trees import CanonicalTree as C, truncate\n"
            "keep = [C(i, (((0, 0), C(i + 1, (((1, 0), C(i)),))),)) for i in range(300)]\n"
            "cuts = [truncate(t, 1) for t in keep]\n" + ending)
    out = run_python(code)
    assert out.returncode == 0
    assert out.stderr == ""
