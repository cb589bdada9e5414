"""Random generation of sparse marked graph ensembles and Galton-Watson trees.

All samplers are pure functions of (arguments, rng); rngs are counter-based
(Philox) so runs are bit-reproducible across platforms, and parallel batches
can use independent streams of the same seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .measures import DegreeLaw, _check_mark_laws
from .trees import MAX_MARK, LabeledTree, _Frozen, _as_index, _of_type

if TYPE_CHECKING:
    import numpy as np

CM_RESTARTS = 1000


class SamplerGaveUp(RuntimeError):
    """A sampler stopped on a valid input: ``sample_cm`` found no simple
    pairing of a graphical degree sequence in ``CM_RESTARTS`` restarts."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct (seed, stream) pairs mod 2**64 are independent."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    # a uint64 array: a plain list would pass key words >= 2**63 through float64
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------- graph type


class MarkedGraph(_Frozen):
    """A finite simple graph, optionally with vertex and directed edge marks.

    Stored as numpy arrays: the edges as an m×2 array of endpoints u < v in
    increasing order, the vertex marks, and per edge the marks (y(u, v),
    y(v, u)) of its two sides as an m×2 array.  ``edges`` (sorted pairs),
    ``vmarks`` (a tuple) and ``emarks`` (a dict: ``emarks[(u, v)]`` is the
    mark vertex ``u`` carries on edge {u, v}, for both directions of every
    edge) are built from them on first access and kept.
    Graphs are immutable: their views are computed once and kept in
    ``_views`` (see ``graphld.empirical``) for as long as the graph lives,
    so do not mutate ``emarks`` in place.
    """

    __slots__ = ("n", "_ends", "_vm", "_em", "_edges", "_vmarks", "_emarks", "_views")

    def __init__(self, n: int, edges, vmarks=None, emarks=None) -> None:
        """``edges`` is a sequence or array of vertex pairs, ``vmarks`` one
        mark per vertex, and ``emarks`` either a dict {(u, v): y} with both
        directions of every edge or an m×2 array whose row i holds the marks
        at the first and the second end of ``edges[i]``.  The first fault in
        input order raises ValueError: a bool or non-integer, or a mark
        outside [0, ``MAX_MARK``], names its field (``edges[3]``,
        ``vmarks[0]``, ``emarks[(0, 1)]``, ``emarks[1]``), then come
        self-loops, endpoints out of range, duplicate edges and marks that do
        not match the edges."""
        import numpy as np  # here: importing samplers or gibbs must not pay for numpy

        n = _as_index(n, "n")
        if n < 0:
            raise ValueError(f"n must be nonnegative, not {n}")
        ends, bad = _leading_ints(edges, 2, "edges[{}]".format)
        u, v = ends[:, 0], ends[:, 1]
        out = ~((0 <= u) & (u < n) & (0 <= v) & (v < n))
        # faulty rows get keys of their own, so they repeat no other row
        own = -1 - np.arange(len(ends))
        lo = np.where(out, own, np.minimum(u, v)).astype(np.int64)
        hi = np.where(out, own, np.maximum(u, v)).astype(np.int64)
        order = np.lexsort((hi, lo))  # stable: a repeat sorts after its first copy
        repeat = np.zeros(len(ends), dtype=bool)
        repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        fault = np.flatnonzero((u == v) | out | repeat)
        if len(fault):
            i = fault[0]
            a, b = ends[i].tolist()
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if out[i]:
                raise ValueError(f"edge ({a}, {b}) out of range")
            raise ValueError(f"duplicate edge {(lo[i].item(), hi[i].item())}")
        if bad is not None:
            raise bad
        if (vmarks is None) != (emarks is None):
            raise ValueError("vertex and edge marks must be supplied together")
        flip = u > v
        if vmarks is not None:
            if len(vmarks) != n:
                raise ValueError("vmarks length mismatch")
            vmarks, bad = _leading_marks(vmarks, 0, "vmarks[{}]".format)
            if bad is not None:
                raise bad
            emarks = _edge_marks(emarks, lo, hi, flip, n)[order]
        for name, value in (("_ends", np.column_stack((lo, hi))[order]), ("_vm", vmarks),
                            ("_em", emarks)):
            if value is not None:
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", n)
        for name in ("_edges", "_vmarks", "_emarks", "_views"):
            object.__setattr__(self, name, None)

    def __reduce__(self):
        # copies and pickles rebuild the graph and leave its views behind
        return type(self), (self.n, self._ends, self._vm, self._em)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(map(tuple, self._ends.tolist())))
        return self._edges

    @property
    def vmarks(self) -> Optional[Tuple[int, ...]]:
        if self._vmarks is None and self.is_marked:
            object.__setattr__(self, "_vmarks", tuple(self._vm.tolist()))
        return self._vmarks

    @property
    def emarks(self) -> Optional[Dict[Tuple[int, int], int]]:
        if self._emarks is None and self.is_marked:
            # (u, v) then (v, u) for each edge in order, sharing the ints of ``edges``
            keys = chain.from_iterable(zip(self.edges, map(tuple, map(reversed, self.edges))))
            object.__setattr__(self, "_emarks", dict(zip(keys, self._em.ravel().tolist())))
        return self._emarks

    @property
    def is_marked(self) -> bool:
        return self._vm is not None

    def adjacency(self) -> List[List[int]]:
        import numpy as np  # here: importing samplers or gibbs must not pay for numpy

        tail, head = self._ends.ravel(), self._ends[:, ::-1].ravel()
        head = head[np.lexsort((head, tail))].tolist()
        ptr = np.cumsum(np.bincount(tail, minlength=self.n)).tolist()
        return [head[a:b] for a, b in zip([0] + ptr, ptr)]

    def degree_histogram(self) -> Dict[int, int]:
        """Vertex count per degree, the degrees in order of first appearance."""
        import numpy as np  # here: importing samplers or gibbs must not pay for numpy

        deg = np.bincount(self._ends.ravel(), minlength=self.n)
        degrees, first, counts = np.unique(deg, return_index=True, return_counts=True)
        order = np.argsort(first)
        return dict(zip(degrees[order].tolist(), counts[order].tolist()))

    def _file_fields(self) -> dict:
        """The graph file form with its rows as arrays: ``edges`` and ``emarks``
        are aligned m×2 rows, ``emarks[i]`` the marks at the first and the
        second end of ``edges[i]``."""
        fields = {"n": self.n, "edges": self._ends}
        if self.is_marked:
            fields.update(vmarks=self._vm, emarks=self._em)
        return fields

    def to_obj(self) -> dict:
        """The graph file form, ``_file_fields`` with its rows as lists."""
        return {k: v if k == "n" else v.tolist() for k, v in self._file_fields().items()}

    @classmethod
    def from_obj(cls, obj: dict) -> "MarkedGraph":
        """Inverse of ``to_obj``.  It also reads the record form of earlier
        versions, ``emarks`` a list of {"u", "v", "yu", "yv"} dicts, told apart
        by its first entry being a dict.  A graph that is not a dict, a record
        that is not a dict or that repeats the edge of an earlier record, and
        a malformed row raise ValueError naming it, such as ``emarks[3]``."""
        emarks = _of_type(obj, dict, "graph").get("emarks")
        if emarks is not None and _of_type(emarks, list, "emarks") and isinstance(emarks[0], dict):
            emarks = _record_marks(emarks)
        vmarks = obj.get("vmarks")
        return cls(obj["n"], _of_type(obj["edges"], list, "edges"),
                   None if vmarks is None else _of_type(vmarks, list, "vmarks"), emarks)


def _record_marks(records: list) -> dict:
    """The directed-pair mark dict of a record-form ``emarks`` list."""
    emarks, owner = {}, {}
    for i, rec in enumerate(records):
        _of_type(rec, dict, f"emarks[{i}]")
        u, v = rec["u"], rec["v"]
        if (u, v) in owner:
            raise ValueError(f"emarks[{i}] repeats the edge of emarks[{owner[(u, v)]}]")
        owner[(u, v)] = owner[(v, u)] = i
        emarks[(u, v)], emarks[(v, u)] = rec["yu"], rec["yv"]
    return emarks


def _leading_ints(rows, width: int, name):
    """The rows of ``rows`` before its first malformed one, as an int64 array
    (object dtype if an entry exceeds int64) of shape (k, width), or (k,)
    for width 0, and the ValueError of row k, or None if every row is well
    formed.  A row is malformed if it does not have ``width`` entries or an
    entry is a bool or not an integer; ``name(i)`` names row i."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" \
            and np.can_cast(rows.dtype, np.int64) and rows.shape[1:] == ((width,) if width else ()):
        return rows.astype(np.int64), None
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    k, error = len(rows), None
    if width:
        try:
            flat = list(chain.from_iterable(rows))
        except TypeError:
            flat = []
        if len(flat) != width * k:
            k = next(i for i, row in enumerate(rows)
                     if not (hasattr(row, "__len__") and len(row) == width))
            error = ValueError(f"{name(k)} must be a pair, not {rows[k]!r}")
            flat = list(chain.from_iterable(rows[:k]))
    else:
        flat = list(rows)
    kinds = list(map(type, flat))
    bad = min((kinds.index(t) for t in set(kinds) if t is bool or not hasattr(t, "__index__")),
              default=None)
    if bad is not None:
        k = bad // max(width, 1)
        error = ValueError(f"{name(k)} must be an integer, not {flat[bad]!r}")
    flat = flat[:k * max(width, 1)]
    try:
        table = np.array(flat, dtype=np.int64)
    except OverflowError:
        table = np.array(list(map(operator.index, flat)), dtype=object)
    return (table.reshape(k, width) if width else table), error


def _leading_marks(rows, width: int, name):
    """``_leading_ints`` of marks, which must also lie in [0, ``MAX_MARK``]."""
    table, error = _leading_ints(rows, width, name)
    out = (table < 0) | (table > MAX_MARK)
    if out.any():
        k = out.ravel().argmax() // max(width, 1)
        bad = table[k:k + 1].tolist()[0]
        return table[:k], ValueError(f"{name(k)} must be in [0, {MAX_MARK}], not {bad!r}")
    return table, error


def _edge_marks(emarks, lo, hi, flip, n: int):
    """The marks (y(lo, hi), y(hi, lo)) of each edge as an m×2 array, from a
    dict keyed by directed pairs or an m×2 array aligned with the input edges,
    whose rows ``flip`` list their ends as (hi, lo)."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    m = len(lo)
    if not isinstance(emarks, dict):
        marks, bad = _leading_marks(emarks, 2, "emarks[{}]".format)
        if bad is not None:
            raise bad
        if len(marks) != m:
            raise ValueError("edge mark entries do not match the edge set")
        return np.where(flip[:, None], marks[:, ::-1], marks)
    keys = list(emarks)
    name = lambda i: f"emarks[{keys[i]}]"
    pairs, bad = _leading_ints(keys, 2, name)
    marks, bad_mark = _leading_marks(list(emarks.values()), 0, name)
    # entries in order, each mark checked before its key
    if bad_mark is not None and (bad is None or len(marks) <= len(pairs)):
        bad = bad_mark
    if bad is not None:
        raise bad
    a, b = pairs[:, 0], pairs[:, 1]
    code = np.where((0 <= a) & (a < n) & (0 <= b) & (b < n), a * n + b, -1).astype(np.int64)
    # each side (lo, hi) and (hi, lo) of each edge looked up among the keys;
    # a side with no key lands on a code that differs from it, -1 past the end
    order = np.argsort(code)
    found = np.append(code[order], -1)
    want = np.stack((lo * n + hi, hi * n + lo))
    at = np.searchsorted(found[:-1], want)
    missing = np.flatnonzero((found[at] != want).any(axis=0))
    if len(missing):
        i = missing[0]
        raise ValueError(f"missing directed mark on edge ({lo[i]}, {hi[i]})")
    if len(keys) != 2 * m:
        raise ValueError("edge mark entries do not match the edge set")
    return marks[order[at]].T


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of one graph ensemble with i.i.d. marks.

    ``nu`` is the vertex mark law; ``xi`` the (possibly asymmetric) law on
    ordered edge mark pairs.  ``alpha`` is required for the CM ensemble,
    ``kappa`` for ER; FE takes an explicit edge count or derives one from
    ``kappa`` as round(n * kappa / 2).
    """

    ensemble: str
    nu: Tuple[float, ...]
    xi: Tuple[Tuple[float, ...], ...]
    kappa: Optional[float] = None
    alpha: Optional[DegreeLaw] = None
    m_n: Optional[int] = None

    def __post_init__(self):
        if self.ensemble not in ("CM", "FE", "ER"):
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        _check_mark_laws(self.nu, self.xi)
        if self.ensemble == "CM" and self.alpha is None:
            raise ValueError("CM needs a degree law alpha")
        if self.ensemble == "ER" and self.kappa is None:
            raise ValueError("ER needs kappa")
        if self.ensemble == "FE" and self.kappa is None and self.m_n is None:
            raise ValueError("FE needs kappa or m_n")

    def edge_count(self, n: int) -> int:
        if self.m_n is not None:
            return self.m_n
        return round(n * self.kappa / 2)

    def to_obj(self) -> dict:
        obj = {
            "ensemble": self.ensemble,
            "nu": list(self.nu),
            "xi": [list(r) for r in self.xi],
        }
        if self.kappa is not None:
            obj["kappa"] = self.kappa
        if self.alpha is not None:
            obj["alpha"] = self.alpha.to_obj()
        if self.m_n is not None:
            obj["m_n"] = self.m_n
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "ModelConfig":
        """Inverse of ``to_obj``; ``alpha`` is read by ``DegreeLaw.from_obj``."""
        alpha = obj.get("alpha")
        if alpha is not None:
            alpha = DegreeLaw.from_obj(alpha, "alpha")
        return cls(
            ensemble=obj["ensemble"],
            nu=tuple(obj["nu"]),
            xi=tuple(tuple(r) for r in obj["xi"]),
            kappa=obj.get("kappa"),
            alpha=alpha,
            m_n=obj.get("m_n"),
        )


# ---------------------------------------------------------------- degree counts


def integer_degree_counts(alpha: DegreeLaw, n: int) -> Dict[int, int]:
    """Integer vertex counts per degree close to n*alpha, with even total degree.

    Largest-remainder apportionment; if the total degree comes out odd, one
    vertex is moved from some odd degree k (the likeliest) to k - 1.
    """
    items = alpha.items()
    floors = {k: int(math.floor(n * w)) for k, w in items}
    remainders = sorted(
        ((n * w - floors[k], k) for k, w in items), key=lambda t: (-t[0], t[1])
    )
    short = n - sum(floors.values())
    for _, k in remainders[:short]:
        floors[k] += 1
    if sum(k * c for k, c in floors.items()) % 2:
        odd = [k for k, c in floors.items() if k % 2 and c > 0]
        if not odd:
            raise ValueError("cannot fix degree parity")
        k = max(odd, key=lambda k: floors[k])
        floors[k] -= 1
        floors[k - 1] = floors.get(k - 1, 0) + 1
    return {k: c for k, c in sorted(floors.items()) if c > 0}


def _degree_counts(cfg: ModelConfig, n: int) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for k, w in cfg.alpha.items():
        c = n * w
        if abs(c - round(c)) > 1e-9:
            raise ValueError(f"n * alpha({k}) = {c} is not integral")
        counts[k] = round(c)
    if sum(counts.values()) != n:
        raise ValueError("alpha counts do not sum to n")
    if sum(k * c for k, c in counts.items()) % 2:
        raise ValueError("odd total degree")
    return counts


def _is_graphical(counts: Dict[int, int]) -> bool:
    """Erdős–Gallai test on a degree histogram, checked only at the last vertex
    of each run of equal degrees (Tripathi–Vijay 2003): O(distinct degrees²),
    which is O(edges) since D distinct degrees need D(D-1)/2 half-edges."""
    runs = sorted(counts.items(), reverse=True)
    if any(d < 0 for d, _ in runs) or sum(d * c for d, c in runs) % 2:
        return False
    k = head = 0
    for i, (d, c) in enumerate(runs):
        k += c
        head += d * c
        if head > k * (k - 1) + sum(min(e, k) * m for e, m in runs[i + 1:]):
            return False
    return True


# ---------------------------------------------------------------- pair indexing


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2

def _pair_start(u: int, n: int) -> int:
    return u * (n - 1) - u * (u - 1) // 2

def _unrank_pair(t, n: int):
    """The pairs (u, v), u < v, of ranks ``t`` (an array) in lexicographic
    order, as an m×2 int64 array."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    t = np.asarray(t, dtype=np.int64)
    # u from the square root, then moved onto its exact row of ranks
    back = (_pair_count(n) - 1 - t).astype(float)
    u = np.minimum(n - 1 - (1 + np.sqrt(1 + 8 * back).astype(np.int64)) // 2, n - 2)
    while (up := _pair_start(u + 1, n) <= t).any():
        u += up
    while (down := _pair_start(u, n) > t).any():
        u -= down
    return np.column_stack((u, u + 1 + (t - _pair_start(u, n))))


# ---------------------------------------------------------------- ensembles


def sample_cm(n: int, cfg: ModelConfig, rng: np.random.Generator) -> MarkedGraph:
    """Uniform simple graph with degree histogram exactly n * alpha.

    Configuration-model stub pairing with whole-pairing rejection: any pairing
    containing a self-loop or multi-edge restarts from scratch, which leaves
    the uniform law on simple realizations.  After ``CM_RESTARTS`` rejected
    pairings it raises ``SamplerGaveUp``.
    """
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    counts = _degree_counts(cfg, n)
    if not _is_graphical(counts):
        raise ValueError("degree sequence is not graphical")
    stubs = np.repeat(np.arange(n), np.repeat(list(counts), list(counts.values())))
    if stubs.size == 0:
        return MarkedGraph(n, [])
    for _ in range(CM_RESTARTS):
        perm = rng.permutation(stubs)
        u = np.minimum(perm[0::2], perm[1::2])
        v = np.maximum(perm[0::2], perm[1::2])
        if np.any(u == v):
            continue
        codes = np.sort(u.astype(np.int64) * n + v)
        if (codes[1:] == codes[:-1]).any():
            continue
        return MarkedGraph(n, np.column_stack((u, v)))
    raise SamplerGaveUp(f"sampler gave up: no simple pairing of this graphical degree "
                        f"sequence in CM_RESTARTS = {CM_RESTARTS} restarts")


def sample_fe(n: int, m_n: int, rng: np.random.Generator) -> MarkedGraph:
    """Uniform simple graph with exactly m_n edges (partial Fisher-Yates)."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    total = _pair_count(n)
    if m_n < 0:
        raise ValueError(f"negative m_n = {m_n}")
    if m_n > total:
        raise ValueError(f"m_n = {m_n} exceeds {total} available pairs")
    # step i swaps position i with j = i + r, a uniform pick of the last
    # total - i positions; one call draws all steps, the same integers as one
    # scalar draw per step
    step = np.arange(m_n)
    j = step + rng.integers(total - step)
    # step i picks the value at position j at time i: j itself, unless an
    # earlier step l swapped it in, the last such being ``last[i]``; then the
    # value step l found at position l, which ``held`` resolves the same way
    order = np.argsort(j, kind="stable")
    js = j[order]
    same = js[1:] == js[:-1]
    last = np.full(m_n, -1)
    last[order[1:][same]] = order[:-1][same]
    # per step l, the last step that swapped into position l; this is read
    # only for steps with j > l, where every such step comes before l
    lo, hi = np.searchsorted(js, step), np.searchsorted(js, step, side="right") - 1
    held = np.where(hi >= lo, order[hi.clip(min=0)], step)
    while (held[held] != held).any():
        held = held[held]
    return MarkedGraph(n, _unrank_pair(np.where(last >= 0, held[last], j), n))


def sample_er(n: int, kappa: float, rng: np.random.Generator) -> MarkedGraph:
    """Each pair independently present with probability kappa / n."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    if kappa > n:
        raise ValueError("kappa exceeds n")
    if kappa < 0:
        raise ValueError("negative kappa")
    p = kappa / n if n else 0.0
    total = _pair_count(n)
    if p <= 0 or total == 0:
        return MarkedGraph(n, [])
    if p >= 1:
        return MarkedGraph(n, _unrank_pair(np.arange(total), n))
    # the picks are the running sums of geometric gaps from -1, drawn in
    # batches until one passes the last pair; a gap capped at total + 1
    # still passes it, and no sum up to the first that passes overflows
    picks = []
    cur = -1
    batch = max(64, int(total * p * 1.2))
    while True:
        ranks = cur + np.cumsum(np.minimum(rng.geometric(p, size=batch), total + 1))
        past = ranks >= total
        if past.any():
            picks.append(ranks[:past.argmax()])
            return MarkedGraph(n, _unrank_pair(np.concatenate(picks), n))
        picks.append(ranks)
        cur = ranks[-1]


def assign_marks(g: MarkedGraph, nu: Sequence[float], xi, rng: np.random.Generator) -> MarkedGraph:
    """I.i.d. vertex marks from nu; per edge an ordered pair from xi assigned
    to the two sides by a fair coin, so each directed pair has the symmetrized
    law (xi + xi^T) / 2."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    if g.is_marked:
        raise ValueError("graph is already marked")
    nu, xi = _check_mark_laws(nu, xi)
    xi = np.asarray(xi, dtype=float)
    vmarks = rng.choice(len(nu), size=g.n, p=np.asarray(nu, dtype=float))
    m = len(g._ends)
    emarks = np.zeros((m, 2), dtype=np.int64)
    if m:
        flat = rng.choice(xi.size, size=m, p=xi.ravel())
        pair = np.column_stack(np.unravel_index(flat, xi.shape))
        coins = rng.integers(2, size=m)
        # coin 1 gives the first end y and the second y'; coin 0 the reverse
        emarks = np.where(coins[:, None] == 1, pair, pair[:, ::-1])
    return MarkedGraph(g.n, g._ends, vmarks, emarks)


# ---------------------------------------------------------------- tree samplers


def _size_biased_offspring(q: DegreeLaw) -> DegreeLaw:
    mean = q.mean()
    if mean <= 0:
        raise ValueError("zero-mean offspring law")
    return DegreeLaw({k - 1: k * w / mean for k, w in q.items() if k > 0})


def sample_sized_biased_gw(offspring, nu, xi, depth: int, rng: np.random.Generator) -> LabeledTree:
    """Size-biased Galton-Watson tree truncated at ``depth``, with i.i.d. marks.

    ``offspring`` is a DegreeLaw (root offspring; deeper vertices use the
    size-biased shifted law (k+1) q(k+1) / mean) or a float Poisson mean, for
    which the shifted law is again Poisson.
    """
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(offspring, DegreeLaw):
        rootlaw = offspring
        deeplaw = _size_biased_offspring(offspring)

        def draw(law):
            ks, ws = zip(*law.items())
            return int(ks[rng.choice(len(ks), p=np.asarray(ws) / math.fsum(ws))])

        draw_root = lambda: draw(rootlaw)
        draw_deep = lambda: draw(deeplaw)
    else:
        beta = float(offspring)
        if beta <= 0:
            raise ValueError("zero-mean offspring law")
        draw_root = draw_deep = lambda: int(rng.poisson(beta))

    nu = np.asarray(nu, dtype=float)
    xi = np.asarray(xi, dtype=float)

    def edge_pair() -> Tuple[int, int]:
        flat = int(rng.choice(xi.size, p=xi.ravel()))
        y, yp = np.unravel_index(flat, xi.shape)
        return (int(y), int(yp)) if rng.integers(2) else (int(yp), int(y))

    vmarks = {(): int(rng.choice(len(nu), p=nu))}
    emarks: Dict[Tuple[tuple, tuple], int] = {}
    frontier = [()]
    for level in range(depth):
        nxt = []
        for v in frontier:
            k = draw_root() if level == 0 and v == () else draw_deep()
            for slot in range(1, k + 1):
                c = v + (slot,)
                vmarks[c] = int(rng.choice(len(nu), p=nu))
                yc, yr = edge_pair()
                emarks[(c, v)] = yc
                emarks[(v, c)] = yr
                nxt.append(c)
        frontier = nxt
    return LabeledTree(vmarks, emarks)


def _extension_table(rho_h, h: int, depth: int):
    """(atoms, probabilities, CDF), in encoding order, of the unimodular
    extension of an admissible depth-h law to ``depth``: iterated one-step
    extensions (enumerable supports only), memoized on ``rho_h`` and its
    extensions, and the table memoized on the depth-``depth`` law, so each is
    built once.  The CDF is the one ``Generator.choice`` builds from p."""
    from .measures import is_admissible, pair_measure
    from .rates import one_step_extension

    if depth < h:
        raise ValueError("depth must be at least h")
    law = rho_h
    if rho_h.mean_degree() > 0:
        ok, defect = is_admissible(pair_measure(rho_h, h))
        if not ok:
            raise ValueError(f"input law is inadmissible (asymmetry {defect:.3g})")
        for d in range(h, depth):
            law = one_step_extension(law, d)

    def table():
        import numpy as np  # here: importing samplers or gibbs must not pay for numpy

        atoms, weights = zip(*law.items())
        p = np.asarray(weights) / math.fsum(weights)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        p.flags.writeable = cdf.flags.writeable = False
        return atoms, p, cdf
    return law._memoized("draw_table", depth, table)


def sample_ugwt(rho_h, h: int, depth: int, rng: np.random.Generator) -> LabeledTree:
    """Draw from the unimodular extension of an admissible depth-h law: one
    atom of its ``_extension_table`` to ``depth``, labeled at random; the atom
    is ``rng.choice``'s over the table, found by a binary search of its CDF."""
    from .trees import random_labeling

    atoms, _, cdf = _extension_table(rho_h, h, depth)
    return random_labeling(atoms[int(cdf.searchsorted(rng.random(), side="right"))], rng)
