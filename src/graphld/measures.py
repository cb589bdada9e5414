"""Finitely supported measures on canonical trees and on pairs of half-edge trees.

Weights are 64-bit floats with a 1e-12 normalization tolerance.  Measures are
immutable after construction; +inf is a legitimate value of the entropy
functionals, never an error.  The laws derived from a ``TreeMeasure`` (its
truncations, pair weights and pair laws, and in ``graphld.rates`` its
extension kernels and one-step extensions) are computed once per measure and
depth and shared by every caller.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .trees import (
    CanonicalTree,
    HalfEdgeTree,
    _Frozen,
    _as_index,
    _as_number,
    _of_type,
    branch_views,
    tree_from_obj,
    tree_to_obj,
    truncate,
)

MASS_TOL = 1e-12
ADMISSIBILITY_TOL = 1e-9


def _in_unit_range(w: float) -> bool:
    # the bounds reject NaN and +-inf and keep fsum from overflowing
    return 0.0 <= w <= 1.0 + MASS_TOL


def _clean_weights(weights: Mapping, what: str, non_tree_mass: float = 0.0) -> Dict:
    """The positive entries of ``weights`` as floats.

    Every entry and ``non_tree_mass`` must lie in [0, 1] (within MASS_TOL),
    and together they must sum to 1 within MASS_TOL.
    """
    clean = {}
    for key, w in weights.items():
        w = float(w)
        if not _in_unit_range(w):
            raise ValueError(f"{what} weight {w!r} is not in [0, 1]")
        if w > 0:
            clean[key] = w
    if not _in_unit_range(non_tree_mass):
        raise ValueError(f"non_tree_mass {non_tree_mass!r} is not in [0, 1]")
    total = math.fsum(list(clean.values()) + [non_tree_mass])
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{what} has total mass {total!r}, expected 1 within {MASS_TOL}")
    return clean


def _fsum_by(pairs: Iterable[Tuple[object, float]]) -> Dict:
    """Per key of the (key, weight) ``pairs``, the ``math.fsum`` of its
    weights, with keys in first-seen order; being correctly rounded, each sum
    has the same bits for every order of the pairs."""
    acc: Dict = {}
    for key, w in pairs:
        acc.setdefault(key, []).append(w)
    return {key: math.fsum(ws) for key, ws in acc.items()}


def _is_probability(weights: List[float]) -> bool:
    return (
        bool(weights)
        and all(_in_unit_range(w) for w in weights)
        and abs(math.fsum(weights) - 1.0) <= MASS_TOL
    )


def _check_mark_laws(nu, xi=None):
    """(nu, xi) as float tuples, after checking that ``nu`` is a probability
    vector and ``xi``, when given, a square probability matrix."""
    nu = tuple(float(w) for w in nu)
    if not _is_probability(nu):
        raise ValueError("nu is not a probability vector")
    if xi is None:
        return nu, None
    xi = tuple(tuple(float(w) for w in row) for row in xi)
    if not _is_probability([w for row in xi for w in row]):
        raise ValueError("xi is not a probability matrix")
    if any(len(row) != len(xi) for row in xi):
        raise ValueError("xi must be square")
    return nu, xi


class TreeMeasure(_Frozen):
    """A probability measure on canonical trees of depth at most ``depth_bound``.

    ``non_tree_mass`` holds probability carried by non-tree (cyclic) sample
    points that cannot be represented as atoms; it stays unresolved under
    truncation and blocks operations that need the full support.

    Laws derived from the measure are memoized per depth in ``_memo`` (see
    ``_memoized``); returned measures are shared, so do not mutate their
    ``atoms``.
    """

    __slots__ = ("atoms", "non_tree_mass", "depth_bound", "_memo")

    def __init__(
        self,
        atoms: Mapping[CanonicalTree, float],
        non_tree_mass: float = 0.0,
        depth_bound: Optional[int] = None,
    ) -> None:
        non_tree_mass = float(non_tree_mass)
        clean = _clean_weights(atoms, "tree measure", non_tree_mass)
        max_depth = max((t.depth for t in clean), default=0)
        if depth_bound is None:
            depth_bound = max_depth
        elif max_depth > depth_bound:
            raise ValueError(f"atom depth {max_depth} exceeds depth_bound {depth_bound}")
        object.__setattr__(self, "atoms", clean)
        object.__setattr__(self, "non_tree_mass", non_tree_mass)
        object.__setattr__(self, "depth_bound", int(depth_bound))
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        # through the constructor: the trees re-intern and the memo starts empty
        return (TreeMeasure, (self.atoms, self.non_tree_mass, self.depth_bound))

    def _memoized(self, kind: str, h, build: Callable[[], object]):
        """The law ``kind`` of this measure at depth ``h`` (or against the
        reference law ``h``): ``build()`` on the first request, the stored
        result afterwards.  A raising ``build`` stores nothing."""
        key = (kind, h)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[CanonicalTree, int],
        non_tree_count: int = 0,
        depth_bound: Optional[int] = None,
    ) -> "TreeMeasure":
        total = sum(counts.values()) + non_tree_count
        if total <= 0:
            raise ValueError("empty count table")
        return cls(
            {t: c / total for t, c in counts.items()},
            non_tree_count / total,
            depth_bound,
        )

    def get(self, t: CanonicalTree) -> float:
        return self.atoms.get(t, 0.0)

    def items(self) -> List[Tuple[CanonicalTree, float]]:
        """Atoms sorted by canonical encoding, for deterministic iteration."""
        return sorted(self.atoms.items(), key=lambda kv: kv[0].encoding)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TreeMeasure)
            and self.atoms == other.atoms
            and self.non_tree_mass == other.non_tree_mass
        )

    def __repr__(self) -> str:
        return (
            f"TreeMeasure({len(self.atoms)} atoms, depth_bound={self.depth_bound},"
            f" non_tree_mass={self.non_tree_mass})"
        )

    def truncated(self, h: int) -> "TreeMeasure":
        """Pushforward under depth-``h`` truncation; non-tree mass is carried
        over.  Computed once per ``h``."""
        if h >= self.depth_bound:
            return self
        return self._memoized("truncated", h, lambda: TreeMeasure(
            _fsum_by((truncate(t, h), w) for t, w in self.atoms.items()), self.non_tree_mass, h))

    def _require_tree_support(self, op: str) -> None:
        if self.non_tree_mass > MASS_TOL:
            raise ValueError(f"{op} needs full tree support, non_tree_mass > 0")

    def _gate(self, op: str, h: int) -> float:
        """The mean degree, after checking that the depth-``h`` operation
        ``op`` has full tree support and no atom deeper than ``h``."""
        self._require_tree_support(op)
        if self.depth_bound > h:
            raise ValueError(f"{op}: atoms of depth {self.depth_bound} exceed h={h}")
        return self.mean_degree()

    def degree_law(self) -> "DegreeLaw":
        self._require_tree_support("degree_law")
        return DegreeLaw(_fsum_by((t.root_degree, w) for t, w in self.atoms.items()))

    def mean_degree(self) -> float:
        self._require_tree_support("mean_degree")
        return math.fsum(len(t.children) * w for t, w in self.atoms.items())

    def root_mark_law(self) -> Dict[int, float]:
        self._require_tree_support("root_mark_law")
        return dict(sorted(_fsum_by((t.mark, w) for t, w in self.atoms.items()).items()))

    def to_obj(self) -> dict:
        return {
            "atoms": [{"tree": tree_to_obj(t), "weight": w} for t, w in self.items()],
            "non_tree_mass": self.non_tree_mass,
            "depth_bound": self.depth_bound,
        }

    @classmethod
    def from_obj(cls, obj: dict, path: str = "", *at) -> "TreeMeasure":
        """Inverse of ``to_obj``.  A measure or atom that is not a dict, atoms
        that are not a list, a weight or mass that is a bool or not a number,
        or a mark or depth that is not an integer, raises ValueError naming
        its path after the prefix ``path.format(*at)``, such as
        ``atoms[1].weight``, and so does a tree listed twice, naming both
        atoms; paths are only formatted then."""
        _of_type(obj, dict, path[:-1] or "measure", *at)
        atom = path + "atoms[{}]"
        tree, weight = atom + ".tree.", atom + ".weight"
        atoms, index = {}, {}
        for i, a in enumerate(_of_type(obj["atoms"], list, path + "atoms", *at)):
            _of_type(a, dict, atom, *at, i)
            t = tree_from_obj(a.get("tree"), tree, *at, i)
            if index.setdefault(t, i) != i:
                raise ValueError(f"{atom.format(*at, index[t])} and {atom.format(*at, i)}"
                                 " list the same tree")
            atoms[t] = _as_number(a.get("weight"), weight, *at, i)
        depth = obj.get("depth_bound")
        return cls(atoms, _as_number(obj.get("non_tree_mass", 0.0), path + "non_tree_mass", *at),
                   None if depth is None else _as_index(depth, path + "depth_bound", *at))


class PairMeasure(_Frozen):
    """A probability measure on ordered pairs of half-edge trees; its
    symmetry defect is computed once."""

    __slots__ = ("atoms", "_defect")

    def __init__(self, atoms: Mapping[Tuple[HalfEdgeTree, HalfEdgeTree], float]) -> None:
        object.__setattr__(self, "atoms", _clean_weights(atoms, "pair measure"))
        object.__setattr__(self, "_defect", None)

    def get(self, a: HalfEdgeTree, b: HalfEdgeTree) -> float:
        return self.atoms.get((a, b), 0.0)

    def items(self) -> List[Tuple[Tuple[HalfEdgeTree, HalfEdgeTree], float]]:
        return sorted(self.atoms.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key))

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PairMeasure) and self.atoms == other.atoms

    def symmetry_defect(self) -> float:
        """max over pairs of |p(a,b) - p(b,a)|."""
        if self._defect is None:
            defect = 0.0
            for (a, b), w in self.atoms.items():
                defect = max(defect, abs(w - self.atoms.get((b, a), 0.0)))
            object.__setattr__(self, "_defect", defect)
        return self._defect


class DegreeLaw(_Frozen):
    """A probability law on nonnegative integer degrees."""

    __slots__ = ("probs",)

    def __init__(self, probs: Mapping[int, float]) -> None:
        for k in probs:
            # a bool is an int, but not a degree; 2.0 and numpy's 2 are
            if (isinstance(k, bool) or not isinstance(k, numbers.Real) or k < 0
                    or not (isinstance(k, numbers.Integral) or float(k).is_integer())):
                raise ValueError(f"bad degree {k!r}")
        clean = _clean_weights(probs, "degree law")
        object.__setattr__(self, "probs", {int(k): w for k, w in clean.items()})

    def pmf(self, k: int) -> float:
        return self.probs.get(k, 0.0)

    def items(self) -> List[Tuple[int, float]]:
        return sorted(self.probs.items())

    def mean(self) -> float:
        return math.fsum(k * w for k, w in self.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, DegreeLaw) and self.probs == other.probs

    def to_obj(self) -> Dict[str, float]:
        """The law as a JSON object from each degree, in decimal, to its weight."""
        return {str(k): w for k, w in self.items()}

    @classmethod
    def from_obj(cls, obj, path: str) -> "DegreeLaw":
        """Inverse of ``to_obj``.  A key that is not the canonical decimal
        spelling of a nonnegative integer (such as "02", "+2", " 2" or "0_2"),
        a weight that is a bool or not a number, or an ``obj`` that is not a
        dict raises ValueError naming ``path`` or the entry ``path["k"]``."""
        probs = {}
        for k, w in _of_type(obj, dict, path).items():
            if not (isinstance(k, str) and k.isascii() and k.isdigit() and str(int(k)) == k):
                raise ValueError(f"{path} key {k!r} is not a degree in canonical decimal form")
            probs[int(k)] = _as_number(w, f'{path}["{k}"]')
        return cls(probs)


class DepthChain(_Frozen):
    """A consistent family (rho_1, ..., rho_H) of depth-h measures.

    ``levels[h-1]`` is the depth-h law.  ``extension_exact`` records that
    depths beyond the materialized prefix are defined as iterated one-step
    unimodular extensions of the last level, so their per-depth rate terms
    vanish by construction rather than by evaluation.  Its truncation defect
    is computed once.
    """

    __slots__ = ("levels", "extension_exact", "_defect")

    def __init__(self, levels: Iterable[TreeMeasure], extension_exact: bool = False) -> None:
        levels = tuple(levels)
        if not levels:
            raise ValueError("empty chain")
        for h, m in enumerate(levels, start=1):
            if m.depth_bound > h:
                raise ValueError(f"level {h} has depth_bound {m.depth_bound}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "extension_exact", bool(extension_exact))
        object.__setattr__(self, "_defect", None)

    def __len__(self) -> int:
        return len(self.levels)

    def level(self, h: int) -> TreeMeasure:
        if not 1 <= h <= len(self.levels):
            raise IndexError(f"no materialized level {h}")
        return self.levels[h - 1]

    def truncation_defect(self) -> float:
        """max TV between each level truncated one step and the previous level."""
        if self._defect is None:
            worst = 0.0
            for h in range(2, len(self.levels) + 1):
                worst = max(worst, tv_distance(self.level(h).truncated(h - 1), self.level(h - 1)))
            object.__setattr__(self, "_defect", worst)
        return self._defect


# ---------------------------------------------------------------- entropies


def _weights(m) -> Mapping:
    """The weight map of a measure or degree law, or ``m`` itself (a dict); sums
    over it are correctly rounded ``fsum``s, so its order does not matter."""
    if isinstance(m, DegreeLaw):
        return m.probs
    return m.atoms if isinstance(m, (TreeMeasure, PairMeasure)) else m


def _non_tree_mass(m) -> float:
    """The non-tree mass of a ``TreeMeasure``; 0.0 for any other argument."""
    return m.non_tree_mass if isinstance(m, TreeMeasure) else 0.0


def entropy(m) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    if isinstance(m, TreeMeasure):
        m._require_tree_support("entropy")
    return -math.fsum(w * math.log(w) for w in _weights(m).values() if w > 0)


def relative_entropy(m, base) -> float:
    """sum m log(m/base) in nats over the positive weights of ``m``; +inf when
    m is not absolutely continuous.  ``base`` is a measure, a degree law, a
    weight dict or a density: a function of an atom or pair key.  Non-tree
    mass of ``m`` gives +inf against every base, except that against a base
    with non-tree mass too it raises ValueError."""
    if _non_tree_mass(m) > MASS_TOL:
        if _non_tree_mass(base) > MASS_TOL:
            raise ValueError("cannot compare two unresolved non-tree masses")
        return math.inf
    if m is base and isinstance(m, (TreeMeasure, PairMeasure)):
        # every term is w log(w/w) = 0.0
        return 0.0
    density = base if callable(base) else _weights(base).get
    terms = []
    for key, w in _weights(m).items():
        if w <= 0:
            continue
        b = density(key)
        if b is None or b <= 0:
            return math.inf
        terms.append(w * math.log(w / b))
    return math.fsum(terms)


def tv_distance(m, base) -> float:
    """Total variation distance (half the l1 distance over the joint support,
    the non-tree mass of either side counted as one more atom)."""
    ma, ba = _weights(m), _weights(base)
    total = math.fsum(abs(ma.get(k, 0.0) - ba.get(k, 0.0)) for k in set(ma) | set(ba))
    total += abs(_non_tree_mass(m) - _non_tree_mass(base))
    return 0.5 * total


# ---------------------------------------------------------------- size-biasing


def size_bias(rho: TreeMeasure) -> TreeMeasure:
    """Reweight by root degree over the mean degree; kills degree-0 atoms."""
    rho._require_tree_support("size_bias")
    beta = rho.mean_degree()
    if beta <= 0:
        raise ValueError("degenerate size-bias: mean degree is 0")
    return TreeMeasure(
        {t: w * t.root_degree / beta for t, w in rho.atoms.items() if t.root_degree > 0},
        0.0,
        rho.depth_bound,
    )


def _pair_weights(u: TreeMeasure, h: int) -> Dict[Tuple[HalfEdgeTree, HalfEdgeTree], float]:
    """Per pair of depth-(h-1) cut views, the u-mass of root children cut to it
    (memoized on ``u``: read, do not mutate)."""

    return u._memoized("pair_weights", h, lambda: _fsum_by(
        (key, w) for t, w in u.atoms.items() for key in branch_views(t, h - 1)))


def pair_measure(rho: TreeMeasure, h: Optional[int] = None) -> PairMeasure:
    """Law of the ordered pair of depth-(h-1) half-edge views across a root edge.

    Cell (tau, tau') receives (1/beta) x the rho-expected number of root
    children whose cut views are (branch, remainder) = (tau, tau').  Computed
    once per (rho, h).
    """
    if h is None:
        h = rho.depth_bound

    def build():
        beta = rho._gate("pair_measure", h)
        if beta <= 0:
            raise ValueError("degenerate pair measure: mean degree is 0")
        return PairMeasure({k: w / beta for k, w in _pair_weights(rho, h).items()})

    return rho._memoized("pair_measure", h, build)


def is_admissible(p: PairMeasure) -> Tuple[bool, float]:
    """Whether ``p`` is symmetric within ``ADMISSIBILITY_TOL``; also the max asymmetry."""
    defect = p.symmetry_defect()
    return defect <= ADMISSIBILITY_TOL, defect


def pair_marginals(p: PairMeasure):
    """(first marginal, second marginal, conditional first-given-second).

    The disintegration identity p(a, b) = second(b) * cond[b][a] holds exactly
    on atoms.
    """
    first = _fsum_by((a, w) for (a, _), w in p.atoms.items())
    second = _fsum_by((b, w) for (_, b), w in p.atoms.items())
    cond: Dict[HalfEdgeTree, Dict[HalfEdgeTree, float]] = {b: {} for b in second}
    for (a, b), w in p.atoms.items():
        cond[b][a] = w / second[b]
    return first, second, cond


# ---------------------------------------------------------------- mass transport


def transport_violation(weights) -> float:
    """Max |sum_k w(k) (g(a, b) - g(b, a))| over all 0/1 functions g of the
    pair key k = (a, b), for pair weights w (0 off their keys).

    The sum is sum_k g(k) (w(k) - w(k̄)), whose positive and negative parts
    have equal totals, so the greedy g = 1{w(k) > w(k̄)} attains the maximum.
    Its excesses enter ``fsum`` as exact pairs w(k), -w(k̄): no indicator's
    correctly rounded sum exceeds the value.
    """
    with_swap = ((w, weights.get(key[::-1], 0.0)) for key, w in weights.items())
    return math.fsum(t for w, swap in with_swap if w > swap for t in (w, -swap))


def mtp_check(u, h: Optional[int] = None, rng=None) -> float:
    """Max mass-transport violation over all 0/1 test functions of the key.

    Accepts either a TreeMeasure or a finite marked graph (see
    ``mtp_check_graph``).  Test functions depend on a doubly rooted tree only
    through its key, the pair of depth-(h-1) half-edge views that
    ``branch_views`` cuts at a root edge, so both sides are finite sums over
    the keys of the atoms, and ``transport_violation`` takes their exact max.
    The result is ~0 for a unimodular measure, such as the component law of a
    finite forest or an exact extension chain.  ``rng`` is accepted and
    ignored: the check is deterministic.
    """
    if hasattr(u, "edges"):
        from .empirical import mtp_check_graph

        return mtp_check_graph(u, h=h)
    u._require_tree_support("mtp_check")
    if h is None:
        h = max(u.depth_bound, 1)
    return transport_violation(_pair_weights(u, h))
