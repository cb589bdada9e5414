"""Large-deviation rate functions for neighborhood and component empirical measures.

Three provably equal representations are implemented as mutual cross-checks:

* the component form, an average of two relative entropies per depth against
  the one-step unimodular extension and its conditionally reweighted version;
* the intermediate form, a difference of tree-level and pair-level relative
  entropies per depth;
* the combinatorial form, assembled from Shannon entropies, matching
  entropies, and pairing-multiplicity log-factorials (microstate counting).

All evaluations are truncated at a finite depth H; the per-depth summands are
nonnegative, so truncated totals are certified lower bounds for the component
and intermediate forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .measures import (
    MASS_TOL,
    DegreeLaw,
    DepthChain,
    PairMeasure,
    TreeMeasure,
    _check_mark_laws,
    _fsum_by,
    _pair_weights,
    entropy,
    is_admissible,
    pair_marginals,
    pair_measure,
    relative_entropy,
    tv_distance,
)
from .trees import (CanonicalTree, HalfEdgeTree, _Frozen, _as_number, _number_list, _of_type,
                    branch_views)

GATE_TOL = 1e-9
POISSON_TAIL = 1e-13
# entries of the largest Poisson degree table; the table of mean b needs
# about 2b to 4b of them, so means above about 65 000 raise ValueError
POISSON_TABLE_LIMIT = 1 << 18
# atoms of the largest explicit depth-1 star law; larger ones raise ValueError
STAR_ATOM_LIMIT = 200_000
# atoms of the largest one-step extension; larger ones raise ValueError before
# any is built (the README's depth-3 chain needs 140 748)
EXTENSION_ATOM_LIMIT = 1_000_000

__all__ = [
    "GATE_TOL",
    "ReferenceLaw",
    "RateReport",
    "ExtensionKernel",
    "edge_density_rate",
    "leaf_indep_law",
    "leaf_cond_law",
    "nbd_rate_generic",
    "nbd_rate",
    "vertex_only_rate",
    "extension_kernel",
    "one_step_extension",
    "cond_extension_law",
    "extension_chain",
    "edge_mark_intensity",
    "matching_entropy",
    "matching_entropy_sum",
    "ensemble_reference",
    "component_rate",
    "intermediate_rate",
    "combinatorial_rate",
]


def edge_density_rate(kappa: float, beta: float) -> float:
    """Cost per vertex of shifting the mean degree from kappa to beta.

    (kappa/2) * ((beta/kappa) log(beta/kappa) - beta/kappa + 1), with 0 log 0 = 0;
    convex in beta with minimum 0 at beta = kappa.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return kappa / 2.0
    r = beta / kappa
    return 0.5 * kappa * (r * math.log(r) - r + 1.0)


def matching_entropy(beta: float) -> float:
    """beta/2 - (beta/2) log beta, the per-vertex entropy of a near-uniform
    perfect matching on beta * n half-edges; 0 at beta = 0."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return 0.0
    return beta / 2.0 - (beta / 2.0) * math.log(beta)


def matching_entropy_sum(intensity: Dict[Tuple[int, int], float]) -> float:
    """Sum of matching entropies over the cells of an edge mark intensity."""
    return math.fsum(matching_entropy(v) for v in intensity.values())


# ---------------------------------------------------------------- reference law


def _poisson_pmf(b: float, d: int) -> float:
    """P(D = d) for D ~ Poisson(b), b > 0."""
    return math.exp(-b + d * math.log(b) - math.lgamma(d + 1))


class ReferenceLaw(_Frozen):
    """The i.i.d.-marks reference law on depth-1 stars.

    The root degree follows either a fixed finite law or a Poisson law,
    whose ``degree_pmf`` table (what ``materialize`` lists) stops at a cap
    with neglected tail below 1e-12 (reported in ``neglected_tail``; a table
    longer than ``POISSON_TABLE_LIMIT`` entries raises ValueError before it
    is built) while ``degree_density`` is positive at every degree; vertex
    marks are i.i.d. ``nu``
    and each edge carries an ordered mark pair with the symmetrized law
    ``xibar``.  A fixed ``alpha`` that is not a ``DegreeLaw``, such as a
    dict from degree to weight, is checked by passing it to ``DegreeLaw``.
    """

    __slots__ = ("alpha", "poisson_mean", "nu", "xi", "xibar", "degree_pmf", "neglected_tail")

    def __init__(self, nu, xi, alpha: Union[DegreeLaw, Mapping[int, float], None] = None,
                 poisson_mean: Optional[float] = None):
        if (alpha is None) == (poisson_mean is None):
            raise ValueError("exactly one of alpha and poisson_mean is required")
        nu, xi = _check_mark_laws(nu, xi)
        k = len(xi)
        xibar = tuple(
            tuple((xi[y][yp] + xi[yp][y]) / 2.0 for yp in range(k)) for y in range(k)
        )
        if alpha is not None:
            if not isinstance(alpha, DegreeLaw):
                alpha = DegreeLaw(alpha)
            pmf = dict(alpha.items())
            tail = 0.0
        else:
            b = float(poisson_mean)
            if not math.isfinite(b):
                raise ValueError("poisson mean must be finite")
            if b < 0:
                raise ValueError("poisson mean must be nonnegative")
            if b == 0:
                pmf, tail = {0: 1.0}, 0.0
            else:
                pmf, tail = {}, math.inf
                cap = max(8, int(math.ceil(b)))
                while True:
                    if cap + 1 > POISSON_TABLE_LIMIT:
                        raise ValueError(
                            f"poisson mean {b!r} needs a degree table of {cap + 1} entries"
                            f" (limit {POISSON_TABLE_LIMIT})"
                        )
                    longer = {d: _poisson_pmf(b, d) for d in range(cap + 1)}
                    longer_tail = 1.0 - math.fsum(longer.values())
                    # for means of about 500 and above the tail stalls at a
                    # rounding floor above POISSON_TAIL: keep the shorter table
                    if longer_tail >= tail:
                        break
                    pmf, tail = longer, longer_tail
                    if tail < POISSON_TAIL:
                        break
                    cap *= 2
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "poisson_mean", poisson_mean)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "xibar", xibar)
        object.__setattr__(self, "degree_pmf", pmf)
        object.__setattr__(self, "neglected_tail", max(tail, 0.0))

    @classmethod
    def fixed_alpha(cls, alpha: Union[DegreeLaw, Mapping[int, float]], nu, xi) -> "ReferenceLaw":
        return cls(nu, xi, alpha=alpha)

    @classmethod
    def poisson(cls, beta: float, nu, xi) -> "ReferenceLaw":
        return cls(nu, xi, poisson_mean=beta)

    def mean_degree(self) -> float:
        if self.alpha is not None:
            return self.alpha.mean()
        return float(self.poisson_mean)

    def degree_density(self, d: int) -> float:
        """p(d), read from ``degree_pmf``; a Poisson law past its table gives
        the pmf from the expression the table was built from."""
        if d in self.degree_pmf or not self.poisson_mean:
            return self.degree_pmf.get(d, 0.0)
        return _poisson_pmf(float(self.poisson_mean), d)

    def nu_pmf(self, x: int) -> float:
        return self.nu[x] if 0 <= x < len(self.nu) else 0.0

    def xibar_pmf(self, y: int, yp: int) -> float:
        if 0 <= y < len(self.xibar) and 0 <= yp < len(self.xibar):
            return self.xibar[y][yp]
        return 0.0

    def xibar_marginal(self, y: int) -> float:
        if not 0 <= y < len(self.xibar):
            return 0.0
        return math.fsum(self.xibar[y])

    def xibar_dict(self) -> Dict[Tuple[int, int], float]:
        return {
            (y, yp): w
            for y, row in enumerate(self.xibar)
            for yp, w in enumerate(row)
            if w > 0
        }

    def star_density(self, t: CanonicalTree) -> float:
        """Exact atom probability of the reference law at a depth <= 1 tree."""
        if t.depth > 1:
            raise ValueError("star density is defined on depth <= 1 trees")
        d = t.root_degree
        dens = self.degree_density(d) * self.nu_pmf(t.mark)
        if dens == 0.0:
            return 0.0
        cells = Counter((pair, sub.mark) for pair, sub in t.children)
        powers, factor, _ = _star_factors(d, [(self.nu_pmf(x) * self.xibar_pmf(*pair), m)
                                              for (pair, x), m in cells.items()])
        return math.prod(powers, start=dens) * factor

    def pair_density(self, cell: Tuple[HalfEdgeTree, HalfEdgeTree]) -> float:
        """Reference probability of an ordered pair of depth-0 half-edge views."""
        a, b = cell
        if a.tree.depth > 0 or b.tree.depth > 0:
            raise ValueError("pair density is defined on depth-0 views")
        return (
            self.nu_pmf(a.tree.mark)
            * self.nu_pmf(b.tree.mark)
            * self.xibar_pmf(a.pendant_mark, b.pendant_mark)
        )

    def materialize(self) -> TreeMeasure:
        """The reference law as an explicit depth-1 measure (small supports only)."""
        return _reweighted(self, lambda x_o, x, yc, yr: 1.0)

    def to_obj(self) -> dict:
        obj = {"nu": list(self.nu), "xi": [list(r) for r in self.xi]}
        if self.alpha is not None:
            obj["degree"] = {"type": "fixed", "pmf": self.alpha.to_obj()}
        else:
            obj["degree"] = {"type": "poisson", "mean": self.poisson_mean}
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "ReferenceLaw":
        """Inverse of ``to_obj``.  A weight or mean that is a bool or not a
        number, a degree key that is not in canonical decimal form, or a part
        of the law that is not the expected dict or list, raises ValueError
        naming its path, such as ``degree.pmf["1"]`` or ``nu[0]``."""
        _of_type(obj, dict, "law")
        deg = _of_type(obj["degree"], dict, "degree")
        nu = _number_list(obj["nu"], "nu")
        xi = [_number_list(row, f"xi[{i}]") for i, row in enumerate(_of_type(obj["xi"], list, "xi"))]
        if deg["type"] == "fixed":
            return cls.fixed_alpha(DegreeLaw.from_obj(deg["pmf"], "degree.pmf"), nu, xi)
        if deg["type"] == "poisson":
            return cls.poisson(_as_number(deg["mean"], "degree.mean"), nu, xi)
        raise ValueError(f"unknown degree law type {deg['type']!r}")


# ------------------------------------------------------- depth-1 reference pair


def _star_factors(d: int, groups):
    """For d i.i.d. leaves, m of them of entry weight q per (q, m) in
    ``groups``: the powers q**m, the multinomial(d; m over groups) factor, and
    the lgamma(m + 1) of each m >= 2.  A star's mass is
    ``math.prod(powers, start=base) * factor``: base times each power in
    turn, then the factor."""
    powers, logfacts = [], []
    logmult = math.lgamma(d + 1)
    for q, m in groups:
        powers.append(q**m)
        lg = math.lgamma(m + 1)
        logmult -= lg
        if m > 1:
            logfacts.append(lg)
    return powers, math.exp(logmult), tuple(logfacts)


def _multisets(roots, limit: int, what: str):
    """Per root, the list of one (tree, mass, log-factorials) per multiset of
    its entries.  Each root is a triple (mark, mass, groups); a group
    (options, m) stands for m equal root entries, each drawn i.i.d. from the
    sorted (entry, q) list ``options``, so a tree's mass chains the
    ``_star_factors`` of its groups from the root mass, and its
    log-factorials are the lgamma(c + 1) of each entry it has c >= 2 times
    (callers keep distinct multisets distinct trees, and entries of distinct
    groups distinct).  The choices of each (options, m) are built once per
    call.  ValueError
    "{what} would need N atoms (limit L)" is raised before any tree is built
    when the roots have more than ``limit`` multisets: prod C(k+m-1, m) over
    the groups of k options each, summed over the roots."""
    projected = sum(math.prod(math.comb(len(options) + m - 1, m) for options, m in groups)
                    for _, _, groups in roots)
    if projected > limit:
        raise ValueError(f"{what} would need {projected} atoms (limit {limit})")
    made = {}  # (id(options), m) -> its choices; ``roots`` keeps each options alive
    for mark, mass, groups in roots:
        if mass == 0.0:
            yield []
            continue
        # the partial multisets over the groups so far; a root with no
        # groups is its one empty multiset
        partial = [((), mass, ())]
        for options, m in groups:
            choices = made.get((id(options), m))
            if choices is None:
                choices = made[id(options), m] = []
                for combo in itertools.combinations_with_replacement(range(len(options)), m):
                    counts = [(options[i][1], c) for i, c in Counter(combo).items()]
                    choices.append((tuple(options[i][0] for i in combo), *_star_factors(m, counts)))
            partial = [(kids + more, math.prod(powers, start=w) * factor, lf + more_lf)
                       for kids, w, lf in partial for more, powers, factor, more_lf in choices]
        yield [(CanonicalTree(mark, kids), w, lf) for kids, w, lf in partial if w > 0]


def _star_law(root_mass: Dict[Tuple[int, int], float],
              entries: Dict[int, Dict[Tuple[Tuple[int, int], int], float]]) -> TreeMeasure:
    """The explicit depth-1 law whose root of mark x_o and degree d has mass
    ``root_mass[(x_o, d)]`` and whose d leaf entries ((yc, yr), x) are i.i.d.
    with weights ``entries[x_o]``.  Raises ValueError before building a
    support of more than STAR_ATOM_LIMIT atoms."""
    per_root = {x_o: [((pair, CanonicalTree(x)), q) for (pair, x), q in sorted(ew.items()) if q > 0]
                for x_o, ew in entries.items()}
    roots = [(x_o, base, [(per_root[x_o], d)] if d else []) for (x_o, d), base in root_mass.items()]
    built = _multisets(roots, STAR_ATOM_LIMIT, "materialized support")
    return TreeMeasure({t: w for t, w, _ in itertools.chain.from_iterable(built)}, 0.0, 1)


def _reweighted(law: ReferenceLaw, ratio: Callable[[int, int, int, int], float]) -> TreeMeasure:
    """The reference star law with every leaf entry ((yc, yr), x) below a root
    of mark x_o reweighted by ``ratio(x_o, x, yc, yr)``."""
    roots = [x_o for x_o, w in enumerate(law.nu) if w > 0]
    k = range(len(law.xibar))
    return _star_law(
        {(x_o, d): pd * law.nu[x_o] for x_o in roots for d, pd in law.degree_pmf.items()},
        {x_o: {((yc, yr), x): law.nu[x] * law.xibar[yc][yr] * ratio(x_o, x, yc, yr)
               for yc in k for yr in k for x in range(len(law.nu))} for x_o in roots},
    )


def _leaf_ratios(law: ReferenceLaw, pi: PairMeasure):
    """(indep, cond): the leaf reweightings ``ratio(x_o, x, yc, yr)`` of the
    reference star law toward i.i.d. entries from the child marginal of the
    depth-1 pair law ``pi``, and toward entries drawn from its conditional
    given the root entry (root mark x_o, root-side edge mark yr).  Both read
    ``pair_marginals(pi)`` at the depth-0 views of the entries.  Each is a
    table: a ratio is computed on its first lookup and read back after."""
    first, _, cond = pair_marginals(pi)

    @functools.cache
    def indep(x_o: int, x: int, yc: int, yr: int) -> float:
        base = law.nu_pmf(x) * law.xibar_marginal(yc)
        if base == 0.0:
            return 0.0
        return first.get(HalfEdgeTree(CanonicalTree(x), yc), 0.0) / base

    @functools.cache
    def conditional(x_o: int, x: int, yc: int, yr: int) -> float:
        row = cond.get(HalfEdgeTree(CanonicalTree(x_o), yr))
        if row is None:
            # conditioning entry carries no size-biased mass; any conditional
            # version is admissible, and ratio 1 keeps the total mass exactly 1
            return 1.0
        base = law.nu_pmf(x) * law.xibar_pmf(yc, yr)
        if base == 0.0:
            return 0.0
        return row.get(HalfEdgeTree(CanonicalTree(x), yc), 0.0) * law.xibar_marginal(yr) / base

    return indep, conditional


def _leaf_density(dens: float, ratio, t: CanonicalTree) -> float:
    """Reference star density ``dens`` of ``t`` with each leaf entry
    reweighted by ``ratio``."""
    for (yc, yr), sub in t.children:
        if dens == 0.0:
            return 0.0
        dens *= ratio(t.mark, sub.mark, yc, yr)
    return dens


def _leaf_stats(mu: TreeMeasure, law: ReferenceLaw, op: str):
    """The input checks of the leaf laws, then ``_leaf_ratios`` of ``mu``."""
    if mu._gate(op, 1) <= 0:
        raise ValueError(f"{op} needs positive mean degree")
    for t, _ in mu.items():
        if law.star_density(t) <= 0.0:
            raise ValueError(f"{op}: input is not absolutely continuous at {t!r}")
    return _leaf_ratios(law, pair_measure(mu, 1))


def leaf_indep_law(mu: TreeMeasure, law: ReferenceLaw) -> TreeMeasure:
    """The reference star law reweighted so leaf entries are i.i.d. from the
    size-biased child marginal of ``mu``; a probability measure dominating
    ``mu`` whenever ``mu`` is dominated by the reference."""
    return _reweighted(law, _leaf_stats(mu, law, "leaf_indep_law")[0])


def leaf_cond_law(mu: TreeMeasure, law: ReferenceLaw) -> TreeMeasure:
    """The reference star law reweighted so leaf entries are conditionally
    i.i.d. given the root entry, from the size-biased conditional of ``mu``."""
    return _reweighted(law, _leaf_stats(mu, law, "leaf_cond_law")[1])


# --------------------------------------------------------- neighborhood rates


def _root_mark_divergence(mu: TreeMeasure, law: ReferenceLaw) -> float:
    return relative_entropy(mu.root_mark_law(), law.nu_pmf)


def nbd_rate_generic(beta: float, law: ReferenceLaw, mu: TreeMeasure) -> float:
    """Neighborhood rate of a depth-1 law against a reference at mean degree beta.

    This is the depth-1 component form, ``component_rate([mu], beta,
    law).value``.  Mean-degree-0 case: relative entropy of the root mark law.
    Otherwise, the average of the relative entropies against the
    independent-leaf and the conditional-leaf reweightings of the reference,
    gated to +inf when the mean degree mismatches, the size-biased pair law is
    asymmetric, or the input is not dominated by the reference.
    """
    if mu.depth_bound > 1:
        raise ValueError("nbd_rate_generic is defined on depth-1 laws")
    return component_rate([mu], beta, law).value


def ensemble_reference(ensemble: str, cfg, measure=None) -> Tuple[float, ReferenceLaw, Optional[float]]:
    """(beta, reference law, kappa) for one ensemble.

    CM: beta is the mean of alpha and the reference degree law is alpha.
    FE: beta = kappa with a Poisson(kappa) reference.  ER: the reference is
    re-centered at the measured mean degree of ``measure``; kappa is returned
    for the edge density cost.
    """
    ens = ensemble.upper()
    if ens == "CM":
        if cfg.alpha is None:
            raise ValueError("CM reference needs a degree law alpha")
        kappa = cfg.alpha.mean()
        return kappa, ReferenceLaw.fixed_alpha(cfg.alpha, cfg.nu, cfg.xi), None
    if ens == "FE":
        if cfg.kappa is None:
            raise ValueError("FE reference needs kappa")
        kappa = float(cfg.kappa)
        return kappa, ReferenceLaw.poisson(kappa, cfg.nu, cfg.xi), None
    if ens == "ER":
        if cfg.kappa is None:
            raise ValueError("ER reference needs kappa")
        if measure is None:
            raise ValueError("ER reference is centered at the measured mean degree")
        level1 = measure.level(1) if isinstance(measure, DepthChain) else measure
        bprime = 0.0 if level1.non_tree_mass > MASS_TOL else level1.mean_degree()
        return bprime, ReferenceLaw.poisson(bprime, cfg.nu, cfg.xi), float(cfg.kappa)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def nbd_rate(ensemble: str, cfg, mu: TreeMeasure) -> float:
    """Ensemble neighborhood rate of a depth-1 law.

    This is the depth-1 component form against the ensemble's reference,
    ``component_rate([mu], beta, law, ensemble, kappa).value`` with
    ``(beta, law, kappa) = ensemble_reference(ensemble, cfg, mu)``.  CM
    additionally gates on exact degree-law agreement; ER adds the edge density
    cost of moving the mean degree off kappa.
    """
    if mu.depth_bound > 1:
        raise ValueError("nbd_rate is defined on depth-1 laws")
    beta, law, kappa = ensemble_reference(ensemble, cfg, mu)
    return component_rate([mu], beta, law, ensemble=ensemble, kappa=kappa).value


def vertex_only_rate(beta: float, law: ReferenceLaw, mu: TreeMeasure) -> float:
    """Marks-on-vertices-only form of the neighborhood rate.

    With a trivial edge mark alphabet the rate simplifies to the conditional
    relative entropy plus (beta/2) times the mutual information of the
    size-biased (child, root) mark pair.
    """
    if len(law.xi) != 1:
        raise ValueError("vertex_only_rate needs a trivial edge mark alphabet")
    if mu.depth_bound > 1:
        raise ValueError("vertex_only_rate is defined on depth-1 laws")
    an = _prepare([mu], beta, law, None, None)
    if an.short is not None:
        return an.short
    h_cond = relative_entropy(mu, an.component_bases(1)[1])
    pi = an.pi(1)
    first, second, _ = pair_marginals(pi)
    mutual = relative_entropy(pi, lambda k: first[k[0]] * second[k[1]])
    return h_cond + 0.5 * beta * mutual


# ------------------------------------------------------------ depth extension


class ExtensionKernel(_Frozen):
    """Conditional laws of the one-step-deeper half-edge view across a root edge.

    For a size-biased tree and a uniformly chosen root neighbor, this is the
    law of the depth-h view away from that neighbor, given its depth-(h-1)
    truncation (first argument) and the depth-(h-1) view from the opposite
    side (second argument).  Admissibility of the input makes the same kernel
    valid for either orientation of the edge.
    """

    __slots__ = ("h", "_laws")

    def __init__(self, rho: TreeMeasure, h: int) -> None:
        beta = rho._gate("extension kernel", h)
        if beta <= 0:
            raise ValueError("degenerate kernel: mean degree is 0")
        ok, defect = is_admissible(pair_measure(rho, h))
        if not ok:
            raise ValueError(f"input law is inadmissible (asymmetry {defect:.3g})")
        # the masses of (branch, depth-h remainder) pairs, each candidate
        # remainder filed under its cell: its depth-(h-1) cut and the branch
        cells: Dict[Tuple[HalfEdgeTree, HalfEdgeTree], Dict[HalfEdgeTree, float]] = {}
        for (branch, rest), w in _pair_weights(rho, h + 1).items():
            cells.setdefault((rest.truncated(h - 1), branch), {})[rest] = w
        totals = {key: math.fsum(cand.values()) for key, cand in cells.items()}
        laws = {key: {c: cand[c] / totals[key] for c in sorted(cand, key=lambda c: c.sort_key)}
                for key, cand in cells.items()}
        object.__setattr__(self, "h", int(h))
        object.__setattr__(self, "_laws", laws)

    def cells(self) -> List[Tuple[HalfEdgeTree, HalfEdgeTree]]:
        return sorted(self._laws, key=lambda k: (k[0].sort_key, k[1].sort_key))

    def law(self, prior: HalfEdgeTree, opposite: HalfEdgeTree) -> Dict[HalfEdgeTree, float]:
        """The extension law for a view pair; defined on positive-mass pairs."""
        try:
            return dict(self._laws[(prior, opposite)])
        except KeyError:
            raise ValueError("no mass on this view pair") from None


def extension_kernel(rho: TreeMeasure, h: int) -> ExtensionKernel:
    """``ExtensionKernel(rho, h)``, built once per (rho, h)."""
    return rho._memoized("kernel", h, lambda: ExtensionKernel(rho, h))


def one_step_extension(rho: TreeMeasure, h: int) -> TreeMeasure:
    """Depth-(h+1) unimodular extension of an admissible depth-h law.

    Each root branch is deepened independently from the extension kernel;
    degree-0 atoms pass through unchanged.  The depth-h marginal of the
    result equals the input on atoms.  Computed once per (rho, h), with its
    depth-(h+1) pair weights, its truncation to depth h and the
    log-factorial term of ``combinatorial_rate``.
    """
    return rho._memoized("extension", h, lambda: _extend(rho, h))


def _extend(rho: TreeMeasure, h: int) -> TreeMeasure:
    if rho._gate("one_step_extension", h) == 0:
        return TreeMeasure(rho.atoms, 0.0, h + 1)
    kernel = extension_kernel(rho, h)

    @functools.cache
    def options(view: Tuple[HalfEdgeTree, HalfEdgeTree]) -> list:
        # the deeper root entries of a child of view (branch, rest), with
        # their kernel probabilities; the atoms have depth <= h, so a branch
        # is a whole root subtree, and equal root entries have equal views
        return sorted((((deeper.pendant_mark, view[1].pendant_mark), deeper.tree), p)
                      for deeper, p in kernel.law(*view).items())

    sources = rho.items()
    roots = [(s.mark, w, [(options(view), m) for view, m in Counter(branch_views(s, h - 1)).items()])
             for s, w in sources]
    atoms, cut, logfacts = {}, {}, []
    for (s, _), built in zip(sources, _multisets(roots, EXTENSION_ATOM_LIMIT, "one-step extension")):
        atoms.update((t, w) for t, w, _ in built)
        cut[s] = math.fsum(w for _, w, _ in built)
        logfacts += [w * math.fsum(lf) for _, w, lf in built if lf]
    ext = TreeMeasure(atoms, 0.0, h + 1)
    # every atom built from a source truncates to it, so the truncation gives
    # each source the fsum of its built masses (the bits of the atom-wise
    # cut); a root child deepened to b from its cut views (b|_{h-1}, r) keeps
    # r, its depth-h remainder, so each pair weight is one pair weight of rho
    # times one kernel probability; an atom's equal root entries are the
    # repeats of its multiset, so the correctly rounded fsums give the bits of
    # the atom-wise E[sum log m!]
    ext._memoized("truncated", h, lambda: TreeMeasure(cut, 0.0, h))
    ext._memoized("log_factorials", h + 1, lambda: math.fsum(logfacts))
    ext._memoized("pair_weights", h + 1, lambda: {
        (deeper, rest): w * p for (branch, rest), w in _pair_weights(rho, h + 1).items()
        for deeper, p in kernel.law(branch, rest.truncated(h - 1)).items()})
    return ext


def _cond_from_extension(rstar: TreeMeasure, pi, pistar, h: int) -> TreeMeasure:
    """Reweight the extension ``rstar`` by the per-branch ratio of the view-pair
    laws ``pi`` (of the depth-h law) and ``pistar`` (of ``rstar``).

    On an exact chain the depth-h law is ``rstar`` itself, so ``pi`` is
    ``pistar``, every ratio is 1.0 and ``rstar`` is the result."""
    if pi is pistar:
        return rstar
    atoms: Dict[CanonicalTree, float] = {}
    for t, w in rstar.items():
        dens = 1.0
        for branch, rest in branch_views(t, h - 1):
            denom = pistar.get(branch, rest)
            if denom <= 0.0:
                raise ValueError("extension pair law misses one of its own views")
            dens *= pi.get(branch, rest) / denom
            if dens == 0.0:
                break
        if dens > 0.0:
            atoms[t] = w * dens
    return TreeMeasure(atoms, 0.0, h)


def cond_extension_law(rho: TreeMeasure, h: int, law: Optional[ReferenceLaw] = None) -> TreeMeasure:
    """The conditionally reweighted reference at depth h.

    For h >= 2 this reweights the one-step extension of the depth-(h-1)
    truncation by the per-branch view-pair density; at h = 1 it is the
    conditional-leaf reweighting of the depth-1 reference law.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    if h == 1:
        if law is None:
            raise ValueError("the depth-1 form needs the reference law")
        return leaf_cond_law(rho, law)
    rho._gate("cond_extension_law", h)
    rstar = one_step_extension(rho.truncated(h - 1), h - 1)
    return _cond_from_extension(rstar, pair_measure(rho, h), pair_measure(rstar, h), h)


def _completed(levels: Union[TreeMeasure, Sequence[TreeMeasure]]) -> List[TreeMeasure]:
    """The levels as a list; a single measure of depth h >= 2 comes with its
    truncations to depths 1..h-1 in front."""
    if isinstance(levels, TreeMeasure):
        levels = [levels]
    levels = list(levels)
    if len(levels) == 1:
        levels = [levels[0].truncated(h) for h in range(1, levels[0].depth_bound)] + levels
    return levels


def extension_chain(levels: Union[TreeMeasure, Sequence[TreeMeasure]], depth: int) -> DepthChain:
    """Extend a measure (or a consistent prefix) to ``depth`` levels by
    iterated one-step extensions; deeper per-depth rate terms then vanish by
    construction.  A single measure of depth h >= 2 is first completed by its
    truncations to depths 1..h-1."""
    levels = _completed(levels)
    if not levels:
        raise ValueError("empty chain")
    while len(levels) < depth:
        h = len(levels)
        levels.append(one_step_extension(levels[-1], h))
    return DepthChain(levels, extension_exact=True)


# ----------------------------------------------------------- component rates


def edge_mark_intensity(level1: TreeMeasure) -> Dict[Tuple[int, int], float]:
    """Mean number per vertex of root half-edges by ordered (own, opposite)
    edge mark pair; entries sum to the mean degree."""
    beta = level1.mean_degree()
    if beta == 0:
        return {}
    cells = _fsum_by(((a.pendant_mark, b.pendant_mark), w)
                     for (a, b), w in pair_measure(level1, 1).atoms.items())
    return {k: beta * w for k, w in sorted(cells.items())}


@dataclass
class RateReport:
    """Truncated evaluation of one representation of the component rate.

    ``terms`` lists the per-depth summand pair; ``prefix_totals`` the running
    generic totals, so ``value = boundary + prefix_totals[-1]`` whenever the
    gates pass.  ``j_values`` holds the per-depth microstate entropy estimates
    for the combinatorial form.
    """

    form: str
    ensemble: Optional[str]
    beta: float
    depth: int
    value: float
    boundary: float = 0.0
    terms: List[Tuple[float, float]] = field(default_factory=list)
    prefix_totals: List[float] = field(default_factory=list)
    j_values: List[float] = field(default_factory=list)
    log_factorial_terms: List[float] = field(default_factory=list)
    flags: Dict[str, object] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {**asdict(self), "terms": [list(t) for t in self.terms]}


@dataclass
class _ChainAnalysis:
    """One rate evaluation's view of a depth chain, built by ``_prepare``.

    ``short`` is None when the positive-mean machinery should run, +inf when
    a gate fails, or the finite mean-degree-0 value.  ``beta`` becomes the law's
    mean for FE and the measured mean degree for ER once the gates pass.  ``bases`` and
    ``component_bases`` are the one place that picks each depth's reference
    laws from ``law`` (depth 1) or from the chain (deeper).  The laws below,
    the chain's truncation defect, each pair law's symmetry defect and the
    level-1 star densities against ``law`` are kept on the objects they
    describe, so every form and call on the same chain computes them once;
    each call gets its own ``flags``.
    """

    chain: DepthChain
    law: ReferenceLaw
    beta: float
    flags: Dict[str, object]
    boundary: float = 0.0
    short: Optional[float] = None
    # the reference star density of each level-1 atom, from the dominance gate
    stars: Dict[CanonicalTree, float] = field(default_factory=dict)

    def pi(self, h: int) -> PairMeasure:
        """pi_h: the pair law of level h."""
        return pair_measure(self.chain.level(h), h)

    def bases(self, h: int):
        """(tree base, pair base) of depth h: the reference star and pair
        densities at h = 1; beyond, (rho*_h, pi*_h), the one-step extension
        of level h-1 and its pair law."""
        if h == 1:
            return self.stars, self.law.pair_density
        rstar = one_step_extension(self.chain.level(h - 1), h - 1)
        return rstar, pair_measure(rstar, h)

    def component_bases(self, h: int):
        """(indep, cond) of depth h: the reference star law with i.i.d. and
        with conditionally i.i.d. leaves at h = 1; beyond, rho*_h and its
        reweighting by pi_h / pi*_h."""
        if h == 1:
            return tuple({t: _leaf_density(dens, ratio, t) for t, dens in self.stars.items()}
                         for ratio in _leaf_ratios(self.law, self.pi(1)))
        rstar, pistar = self.bases(h)
        return rstar, _cond_from_extension(rstar, self.pi(h), pistar, h)


def _prepare(levels, beta, law, ensemble, kappa) -> _ChainAnalysis:
    """The gates shared by every rate form; see ``_ChainAnalysis``."""
    chain = levels if isinstance(levels, DepthChain) else DepthChain(levels)
    ens = ensemble.upper() if ensemble else None
    an = _ChainAnalysis(chain, law, beta, {
        "extension_exact": chain.extension_exact,
        "neglected_tail": law.neglected_tail,
    })
    flags = an.flags
    if ens == "ER" and kappa is None:
        raise ValueError("ER evaluation needs kappa")
    tree_ok = all(lv.non_tree_mass <= MASS_TOL for lv in chain.levels)
    flags["tree_supported"] = tree_ok
    if not tree_ok:
        if ens == "ER":
            flags["mean_degree"] = None
        an.short = math.inf
        return an
    defect = chain.truncation_defect()
    flags["consistency_defect"] = defect
    if defect > GATE_TOL:
        raise ValueError(f"inconsistent depth chain (truncation defect {defect:.3g})")
    mean = chain.level(1).mean_degree()
    flags["mean_degree"] = mean
    if ens == "CM":
        if law.alpha is None:
            raise ValueError("CM evaluation needs a fixed degree law reference")
        match = tv_distance(chain.level(1).degree_law(), law.alpha) <= GATE_TOL
        flags["degree_law_match"] = match
        if not match:
            an.short = math.inf
            return an
    if ens == "FE":
        if law.poisson_mean is None:
            raise ValueError("FE evaluation needs a Poisson degree law reference")
        beta = law.mean_degree()
    if ens == "ER":
        an.boundary = edge_density_rate(kappa, mean)
        if law.poisson_mean is None or abs(law.poisson_mean - mean) > GATE_TOL:
            raise ValueError("ER evaluation needs the reference centered at the measured mean degree")
        beta = mean
    if beta <= 0:
        an.short = _root_mark_divergence(chain.level(1), law) if mean == 0 else math.inf
        return an
    if abs(mean - beta) > GATE_TOL:
        an.short = math.inf
        return an
    worst = 0.0
    for h in range(1, len(chain) + 1):
        worst = max(worst, is_admissible(an.pi(h))[1])
    flags["admissible"] = worst <= GATE_TOL
    flags["admissibility_defect"] = worst
    if worst > GATE_TOL:
        an.short = math.inf
        return an
    level1 = chain.level(1)
    an.stars = level1._memoized("star_density", law,
                                lambda: {t: law.star_density(t) for t in level1.atoms})
    dominated = all(dens > 0.0 for dens in an.stars.values())
    flags["absolutely_continuous"] = dominated
    if not dominated:
        an.short = math.inf
        return an
    an.beta = beta
    return an


def _resolve_depth(chain: DepthChain, depth: Optional[int]) -> Tuple[int, int]:
    """(materialized evaluation depth, number of padded depths).

    Depths beyond the materialized prefix are legal only for chains declared
    extension-exact, where the deeper levels are one-step extensions by
    definition and the per-depth summands vanish identically.
    """
    if depth is None:
        return len(chain), 0
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth <= len(chain):
        return depth, 0
    if not chain.extension_exact:
        raise ValueError(f"depth {depth} exceeds the materialized chain of length {len(chain)}")
    return len(chain), depth - len(chain)


def _evaluate(form: str, levels, beta, law, ensemble, kappa, depth, totals) -> RateReport:
    """One rate form over the shared gates; all three forms run through here.

    ``totals(an, report, depth)`` yields the form's prefix total at
    depths 1..depth and records its per-depth terms in ``report``; this
    function owns the gated short-circuit, the depth padding and the report.
    """
    an = _prepare(levels, beta, law, ensemble, kappa)
    report = RateReport(form=form, ensemble=ensemble, beta=an.beta, depth=len(an.chain),
                        value=math.inf, boundary=an.boundary, flags=an.flags)
    if an.short is not None:
        if an.short != math.inf:
            report.value = an.boundary + an.short
            report.prefix_totals.append(an.short)
        return report
    evald, padded = _resolve_depth(an.chain, depth)
    an.flags["padded_depths"] = padded
    report.prefix_totals.extend(totals(an, report, evald))
    # along declared extensions the summands vanish and the microstate
    # entropy is unchanged
    report.prefix_totals += report.prefix_totals[-1:] * padded
    if report.terms:
        report.terms += [(0.0, 0.0)] * padded
    report.j_values += report.j_values[-1:] * padded
    report.depth = evald + padded
    report.value = an.boundary + report.prefix_totals[-1]
    return report


def _component_totals(an: _ChainAnalysis, report: RateReport, depth: int):
    total = 0.0
    for h in range(1, depth + 1):
        a, b = (relative_entropy(an.chain.level(h), base) for base in an.component_bases(h))
        report.terms.append((a, b))
        total += 0.5 * (a + b)
        yield total


def component_rate(levels, beta: float, law: ReferenceLaw, ensemble: Optional[str] = None,
                   kappa: Optional[float] = None, depth: Optional[int] = None) -> RateReport:
    """Average-of-two-relative-entropies representation, truncated at ``depth``.

    Depth 1 compares against the independent-leaf and conditional-leaf
    reweightings of the reference; depth h >= 2 against the one-step
    extension of the previous level and its conditional reweighting.
    """
    return _evaluate("component", levels, beta, law, ensemble, kappa, depth, _component_totals)


def _intermediate_totals(an: _ChainAnalysis, report: RateReport, depth: int):
    total = 0.0
    for h in range(1, depth + 1):
        tree_base, pair_base = an.bases(h)
        a = relative_entropy(an.chain.level(h), tree_base)
        b = 0.5 * an.beta * relative_entropy(an.pi(h), pair_base)
        report.terms.append((a, b))
        total += a - b
        yield total


def intermediate_rate(levels, beta: float, law: ReferenceLaw, ensemble: Optional[str] = None,
                      kappa: Optional[float] = None, depth: Optional[int] = None) -> RateReport:
    """Tree-minus-pair relative entropy representation, truncated at ``depth``;
    termwise equal to the component form."""
    return _evaluate("intermediate", levels, beta, law, ensemble, kappa, depth, _intermediate_totals)


def _log_factorial_sum(t: CanonicalTree) -> float:
    """Sum of log(m!) over the multiplicities m of equal depth-(h-1) cut views
    of the root children of a tree of depth <= h: two children have equal
    views exactly when their entries in ``t.children`` are equal, and equal
    entries are adjacent in that sorted tuple, so each m is a run length.
    A run of one adds lgamma(2), exactly 0.0: distinct entries skip grouping."""
    kids = t.children
    if len(set(kids)) == len(kids):
        return 0.0
    return math.fsum(math.lgamma(len(list(run)) + 1) for _, run in itertools.groupby(kids))


def _combinatorial_totals(an: _ChainAnalysis, report: RateReport, depth: int):
    beta, law = an.beta, an.law
    level1 = an.chain.level(1)
    intensity = edge_mark_intensity(level1)
    normalized = {k: v / beta for k, v in intensity.items()}
    h_root = entropy(level1.root_mark_law())
    h_root_nu = _root_mark_divergence(level1, law)
    h_intensity = relative_entropy(normalized, law.xibar_dict())
    s_vec = matching_entropy_sum(intensity)
    base = h_root + h_root_nu + 0.5 * beta * h_intensity + s_vec
    # the dominance gate gave every degree of level 1 a density p(d) > 0
    base -= 2.0 * matching_entropy(beta) + math.fsum(
        w * (math.lgamma(d + 1) + math.log(law.degree_density(d)))
        for d, w in level1.degree_law().items())
    for h in range(1, depth + 1):
        lv = an.chain.level(h)
        efact = lv._memoized("log_factorials", h, lambda: math.fsum(
            w * _log_factorial_sum(t) for t, w in lv.atoms.items()))
        # both entropies are functions of level h alone: computed once per level
        j = (
            -matching_entropy(beta)
            + lv._memoized("entropy", h, lambda: entropy(lv))
            - 0.5 * beta * lv._memoized("pair_entropy", h, lambda: entropy(an.pi(h)))
            - efact
        )
        report.j_values.append(j)
        report.log_factorial_terms.append(efact)
        yield base - j


def combinatorial_rate(levels, beta: float, law: ReferenceLaw, ensemble: Optional[str] = None,
                       kappa: Optional[float] = None, depth: Optional[int] = None) -> RateReport:
    """Microstate-entropy representation.

    Per depth h, the microstate entropy estimate is
    J_h = -s(beta) + H(rho_h) - (beta/2) H(pi_h) - E[sum log multiplicity!],
    with s the matching entropy; the rate is a boundary assembly of Shannon
    entropies, mark divergences and matching entropies minus J at the deepest
    evaluated level.
    """
    report = _evaluate("combinatorial", levels, beta, law, ensemble, kappa, depth, _combinatorial_totals)
    if report.j_values:
        diffs = [b - a for a, b in zip(report.j_values, report.j_values[1:])]
        if all(abs(d) <= 1e-12 for d in diffs):
            direction = "constant"
        elif all(d <= 1e-12 for d in diffs):
            direction = "non-increasing"
        elif all(d >= -1e-12 for d in diffs):
            direction = "non-decreasing"
        else:
            direction = "mixed"
        report.flags["j_direction"] = direction
    return report
