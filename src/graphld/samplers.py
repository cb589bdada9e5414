"""Random generation of sparse marked graph ensembles and Galton-Watson trees.

All samplers are pure functions of (arguments, rng); rngs are counter-based
(Philox) so runs are bit-reproducible across platforms, and parallel batches
can use independent streams of the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .measures import DegreeLaw, _check_mark_laws
from .trees import LabeledTree, _Frozen, _as_index, _of_type

if TYPE_CHECKING:
    import numpy as np

CM_RESTARTS = 1000


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct (seed, stream) pairs mod 2**64 are independent."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    # a uint64 array: a plain list would pass key words >= 2**63 through float64
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------- graph type


class MarkedGraph(_Frozen):
    """A finite simple graph, optionally with vertex and directed edge marks.

    ``emarks[(u, v)]`` is the mark vertex ``u`` carries on edge {u, v}; every
    edge has entries for both directions.  Graphs are immutable: their views
    are computed once and kept in ``_views`` (see ``graphld.empirical``) for
    as long as the graph lives, so do not mutate ``emarks`` in place.
    """

    __slots__ = ("n", "edges", "vmarks", "emarks", "_views")

    def __init__(
        self,
        n: int,
        edges: Sequence[Tuple[int, int]],
        vmarks: Optional[Sequence[int]] = None,
        emarks: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> None:
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
        object.__setattr__(self, "_views", None)

    def __reduce__(self):
        # copies and pickles rebuild the graph and leave its views behind
        return type(self), (self.n, self.edges, self.vmarks, self.emarks)

    @property
    def is_marked(self) -> bool:
        return self.vmarks is not None

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degree_histogram(self) -> Dict[int, int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        hist: Dict[int, int] = {}
        for d in deg:
            hist[d] = hist.get(d, 0) + 1
        return hist

    def to_obj(self) -> dict:
        obj = {"n": self.n, "edges": [[u, v] for u, v in self.edges]}
        if self.is_marked:
            obj["vmarks"] = list(self.vmarks)
            obj["emarks"] = [
                {"u": u, "v": v, "yu": self.emarks[(u, v)], "yv": self.emarks[(v, u)]}
                for u, v in self.edges
            ]
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "MarkedGraph":
        """Inverse of ``to_obj``; a graph or an ``emarks`` record that is not
        a dict raises ValueError naming it, such as ``emarks[3]``."""
        vmarks = _of_type(obj, dict, "graph").get("vmarks")
        emarks = None
        if vmarks is not None:
            emarks = {}
            for i, rec in enumerate(_of_type(obj["emarks"], list, "emarks")):
                _of_type(rec, dict, f"emarks[{i}]")
                emarks[(rec["u"], rec["v"])] = rec["yu"]
                emarks[(rec["v"], rec["u"])] = rec["yv"]
        return cls(obj["n"], [tuple(e) for e in obj["edges"]], vmarks, emarks)


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

def _unrank_pair(t: int, n: int) -> Tuple[int, int]:
    """The t-th pair (u, v), u < v, in lexicographic order."""
    u = min(int(n - 1 - (1 + math.isqrt(1 + 8 * (_pair_count(n) - 1 - t))) // 2), n - 2)
    while _pair_start(u + 1, n) <= t:
        u += 1
    while _pair_start(u, n) > t:
        u -= 1
    return u, u + 1 + (t - _pair_start(u, n))


# ---------------------------------------------------------------- ensembles


def sample_cm(n: int, cfg: ModelConfig, rng: np.random.Generator) -> MarkedGraph:
    """Uniform simple graph with degree histogram exactly n * alpha.

    Configuration-model stub pairing with whole-pairing rejection: any pairing
    containing a self-loop or multi-edge restarts from scratch, which leaves
    the uniform law on simple realizations.
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
        codes = u.astype(np.int64) * n + v
        if np.unique(codes).size != codes.size:
            continue
        return MarkedGraph(n, list(zip(u.tolist(), v.tolist())))
    raise RuntimeError(f"no simple pairing found in {CM_RESTARTS} restarts")


def sample_fe(n: int, m_n: int, rng: np.random.Generator) -> MarkedGraph:
    """Uniform simple graph with exactly m_n edges (partial Fisher-Yates)."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    total = _pair_count(n)
    if m_n < 0:
        raise ValueError(f"negative m_n = {m_n}")
    if m_n > total:
        raise ValueError(f"m_n = {m_n} exceeds {total} available pairs")
    swap: Dict[int, int] = {}
    picks = []
    # step i swaps in a uniform pick of the last total - i pairs; one call
    # draws all steps, the same integers as one scalar draw per step
    for i, r in enumerate(rng.integers(total - np.arange(m_n)).tolist()):
        j = i + r
        picks.append(swap.get(j, j))
        swap[j] = swap.get(i, i)
    return MarkedGraph(n, [_unrank_pair(t, n) for t in picks])


def sample_er(n: int, kappa: float, rng: np.random.Generator) -> MarkedGraph:
    """Each pair independently present with probability kappa / n."""
    if kappa > n:
        raise ValueError("kappa exceeds n")
    if kappa < 0:
        raise ValueError("negative kappa")
    p = kappa / n
    total = _pair_count(n)
    if p <= 0 or total == 0:
        return MarkedGraph(n, [])
    if p >= 1:
        return MarkedGraph(n, [_unrank_pair(t, n) for t in range(total)])
    picks = []
    cur = -1
    batch = max(64, int(total * p * 1.2))
    while True:
        gaps = rng.geometric(p, size=batch)
        for g in gaps:
            cur += int(g)
            if cur >= total:
                return MarkedGraph(n, [_unrank_pair(t, n) for t in picks])
            picks.append(cur)


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
    m = len(g.edges)
    emarks: Dict[Tuple[int, int], int] = {}
    if m:
        flat = rng.choice(xi.size, size=m, p=xi.ravel())
        ys, yps = np.unravel_index(flat, xi.shape)
        coins = rng.integers(2, size=m)
        for (u, v), y, yp, c in zip(g.edges, ys.tolist(), yps.tolist(), coins.tolist()):
            yu, yv = (y, yp) if c else (yp, y)
            emarks[(u, v)] = yu
            emarks[(v, u)] = yv
    return MarkedGraph(g.n, g.edges, vmarks.tolist(), emarks)


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


def _draw_table(law):
    """(atoms, probabilities) of a tree measure, in encoding order."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    atoms, weights = zip(*law.items())
    p = np.asarray(weights) / math.fsum(weights)
    p.flags.writeable = False
    return atoms, p


def sample_ugwt(rho_h, h: int, depth: int, rng: np.random.Generator) -> LabeledTree:
    """Draw from the unimodular extension of an admissible depth-h law.

    The extension is materialized exactly by iterating the one-step extension
    up to ``depth`` and drawing from the resulting finite law; intended for
    enumerable supports (the support grows quickly with depth).  The
    extensions are memoized on ``rho_h`` and its extensions, and the draw
    table (atoms and probabilities) on the depth-``depth`` law, so repeated
    draws from the same law build them once and draw from the same array.
    """
    from .measures import is_admissible, pair_measure
    from .rates import one_step_extension
    from .trees import random_labeling

    if depth < h:
        raise ValueError("depth must be at least h")
    law = rho_h
    if rho_h.mean_degree() > 0:
        ok, defect = is_admissible(pair_measure(rho_h, h))
        if not ok:
            raise ValueError(f"input law is inadmissible (asymmetry {defect:.3g})")
        for d in range(h, depth):
            law = one_step_extension(law, d)
    atoms, p = law._memoized("draw_table", depth, lambda: _draw_table(law))
    i = rng.choice(len(atoms), p=p)
    return random_labeling(atoms[int(i)], rng)
