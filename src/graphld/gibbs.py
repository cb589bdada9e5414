"""Gibbs conditioning for the configuration model with vertex marks.

Conditioning a CM graph with i.i.d. vertex marks on a lower bound for the
mean local h-sum (the neighborhood functional summing h over the root's
neighbors) concentrates the neighborhood empirical measure at an exponential
tilt of the unconditioned law.  This module solves the finite-dimensional
dual problem for the tilted degree-mark joint law, assembles the limiting
depth-1 measure, and validates the concentration by conditional Monte Carlo
on the mark vector of a fixed degree sequence.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .measures import (DegreeLaw, TreeMeasure, _check_mark_laws, _fsum_by, relative_entropy,
                       tv_distance)
from .rates import _star_law
from .samplers import integer_degree_counts

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GibbsProblem",
    "GibbsSolution",
    "MCReport",
    "g_of_lambda",
    "solve",
    "brute_force_opt",
    "conditional_mc",
    "delta_sweep",
]

# Accepting a sample requires its functional to clear the threshold by more
# than this guard, so exact ties (which float rounding can push to either
# side) resolve deterministically as rejections.  The functional takes values
# on a grid with spacing at least (min degree gap)/n, far above the guard.
TIE_TOL = 1e-9

BRACKET_MAX = 2.0**60

# Largest exact conditional-MC problem, in table cells: the per-class
# composition tables plus the convolution work of the lattice-sum laws.
# Larger problems are sampled by rejection, in batches of REJECTION_BATCH.
EXACT_TABLE_BUDGET = 1 << 22
REJECTION_BATCH = 1 << 20
# Largest draw budget of conditional_mc: numpy draws binomial counts and
# Poisson means below about 2**63, and the Poisson cap is 2 * samples + 1e6.
SAMPLES_LIMIT = 1 << 61

# Largest denominator tried when reading an h value as a fraction (0.1 = 1/10).
_MAX_DENOMINATOR = 10**6


@dataclass(frozen=True)
class GibbsProblem:
    """Conditioning instance: degree law, mark law, h values, threshold.

    ``hfun[x]`` is the value of h at mark x (aligned with ``nu``).  ``solve``
    needs ``c`` strictly between the unconditioned mean of the local h-sum and
    its essential supremum; ``brute_force_opt`` also takes c at or below the
    mean, or at the supremum.  Above the supremum both raise ValueError.
    """

    alpha: DegreeLaw
    nu: Tuple[float, ...]
    hfun: Tuple[float, ...]
    c: float
    delta: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "nu", _check_mark_laws(self.nu)[0])
        object.__setattr__(self, "hfun", tuple(float(v) for v in self.hfun))
        if len(self.hfun) != len(self.nu):
            raise ValueError("hfun and nu must have the same length")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, not {self.delta!r}")

    @functools.cached_property
    def _tilt(self) -> Tuple[List[int], List[float], List[float], List[Tuple[int, float]]]:
        """What every tilt reads, read once: the marks x with nu(x) > 0, their
        log nu(x) and h(x), and each degree n > 0 with n * alpha(n)."""
        marks = [x for x, w in enumerate(self.nu) if w > 0]
        return (marks, [math.log(self.nu[x]) for x in marks], [self.hfun[x] for x in marks],
                [(n, n * an) for n, an in self.alpha.items() if n != 0])

    @functools.cached_property
    def _h_lattice(self) -> Tuple[Fraction, Fraction, List[int]]:
        """``_lattice`` of the h values of the marks with nu > 0."""
        return _lattice(self._tilt[2])

    def kappa(self) -> float:
        return self.alpha.mean()

    def unconditioned_mean(self) -> float:
        """Mean of the local h-sum under the unconditioned law."""
        return self.kappa() * math.fsum(
            w * v for w, v in zip(self.nu, self.hfun)
        )

    def supremum(self) -> float:
        """Essential supremum of the local h-sum per vertex."""
        return self.kappa() * max(
            v for w, v in zip(self.nu, self.hfun) if w > 0
        )


@dataclass
class GibbsSolution:
    """Tilted optimizer of the conditioned problem.

    ``gamma[(n, x)]`` is the joint degree-mark law; ``psi[x]`` its size-biased
    mark marginal; ``value`` the optimal rate H(gamma || alpha x nu).
    """

    lam: float
    gamma: Dict[Tuple[int, int], float]
    psi: Dict[int, float]
    value: float
    residuals: Dict[str, float] = field(default_factory=dict)

    @functools.cached_property
    def mu_star(self) -> TreeMeasure:
        """The limiting depth-1 law (root entry from gamma, leaves i.i.d. psi),
        built on first read; raises ValueError when it would need more than
        ``rates.STAR_ATOM_LIMIT`` atoms."""
        leaves = {((0, 0), x): w for x, w in self.psi.items()}
        return _star_law({(x, n): w for (n, x), w in self.gamma.items()},
                         {x: leaves for _, x in self.gamma})

    def to_obj(self) -> dict:
        return {
            "lambda": self.lam,
            "gamma": {f"{n},{x}": w for (n, x), w in sorted(self.gamma.items())},
            "psi": {str(x): w for x, w in sorted(self.psi.items())},
            "mu_star": self.mu_star.to_obj(),
            "value": self.value,
            "residuals": dict(self.residuals),
        }


def g_of_lambda(problem: GibbsProblem, lam: float) -> float:
    """Mean local h-sum under the lambda-tilted degree-mark law.

    Per degree n the root mark is tilted by exp(lambda * n * h(x)); the value
    is the alpha-average of n times the tilted mean of h.  Continuous in
    lambda, equal to the unconditioned mean at 0, and approaching the
    essential supremum as lambda grows.
    """
    _, logs, hs, degrees = problem._tilt
    total = []
    for n, n_an in degrees:
        raw, z = _tilted(logs, hs, lam * n)
        total.append(n_an * math.fsum(map(operator.mul, hs, raw)) / z)
    return math.fsum(total)


def _tilted(logs: List[float], hs: List[float], ln: float) -> Tuple[List[float], float]:
    """The weights nu(x) * exp(lambda * n * h(x)) of the marks with nu(x) > 0,
    from their log nu and h and ``ln`` = lambda * n, scaled so that the
    largest is 1.0, and their fsum."""
    logs = [lw + ln * v for lw, v in zip(logs, hs)]
    m = max(logs)
    raw = [math.exp(lw - m) for lw in logs]
    return raw, math.fsum(raw)


def _tilted_row(problem: GibbsProblem, lam: float, n: int) -> List[float]:
    """Conditional law of the marks with nu > 0 at degree n under the lambda
    tilt, mass exactly 1."""
    _, logs, hs, _ = problem._tilt
    raw, z = _tilted(logs, hs, lam * n)
    p = [r / z for r in raw]
    top = max(range(len(p)), key=p.__getitem__)
    p[top] = 1.0 - math.fsum(v for i, v in enumerate(p) if i != top)
    return p


def solve(problem: GibbsProblem) -> GibbsSolution:
    """Solve the conditioned optimization in closed tilted form.

    Finds lambda with g(lambda) = c by bracketed bisection (the bracket grows
    geometrically; g is verified nondecreasing on the sampled bracket; the
    bisection stops at its floating-point fixed point), forms
    gamma(n, x) = alpha(n) * tilted mark law, and assembles psi; mu_star is
    built when first read and obeys ``rates.STAR_ATOM_LIMIT``.  Raises
    ValueError when c is outside the open feasibility interval.
    """
    g0 = problem.unconditioned_mean()
    sup = problem.supremum()
    if not problem.c > g0:
        raise ValueError(
            f"threshold c={problem.c} must exceed the unconditioned mean {g0}"
        )
    if not problem.c < sup:
        raise ValueError(
            f"threshold c={problem.c} must lie below the essential supremum {sup}"
        )
    hi = 1.0
    samples = [g0]
    while True:
        samples.append(g_of_lambda(problem, hi))
        if samples[-1] > problem.c:
            break
        hi *= 2.0
        if hi > BRACKET_MAX:
            raise RuntimeError("bracket failure: g(lambda) did not reach c")
    monotone = all(b >= a - 1e-12 for a, b in zip(samples, samples[1:]))
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # g(hi) > c, and g(lo) <= c once lo has moved, so every later
            # step keeps lo and hi; an unmoved lo = 0.0 meets mid only at
            # hi = 5e-324, where either way lambda is 0.0
            break
        if g_of_lambda(problem, mid) <= problem.c:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)

    gamma: Dict[Tuple[int, int], float] = {}
    for n, an in problem.alpha.items():
        if an == 0:
            continue
        for x, p in zip(problem._tilt[0], _tilted_row(problem, lam, n)):
            if p > 0:
                gamma[(n, x)] = an * p
    raw_psi = sorted(_fsum_by((x, n * w) for (n, x), w in gamma.items()).items())
    mass = math.fsum(v for _, v in raw_psi)
    psi = {x: v / mass for x, v in raw_psi if v > 0}
    value = relative_entropy(gamma, lambda k: problem.alpha.pmf(k[0]) * problem.nu[k[1]])

    # KKT residuals: per-degree multiplier recovered from normalization
    stat = 0.0
    for n, an in problem.alpha.items():
        if an == 0:
            continue
        devs = [
            1.0
            + math.log(gamma[(n, x)] / (an * problem.nu[x]))
            - lam * n * problem.hfun[x]
            for x in range(len(problem.nu))
            if gamma.get((n, x), 0.0) > 0
        ]
        lam_prime = math.fsum(devs) / len(devs)
        stat = max(stat, max(abs(d - lam_prime) for d in devs))
    rows = _fsum_by((n, w) for (n, _), w in gamma.items())
    row_res = max(abs(s - problem.alpha.pmf(n)) for n, s in rows.items())
    active = math.fsum(
        n * problem.hfun[x] * w for (n, x), w in gamma.items()
    )
    residuals = {
        "stationarity": stat,
        "row_sums": row_res,
        "active_constraint": abs(active - problem.c),
        "complementary_slackness": abs(lam * (active - problem.c)),
        "psi_mass": abs(math.fsum(psi.values()) - 1.0),
        "g_monotone_on_bracket": 0.0 if monotone else 1.0,
    }
    return GibbsSolution(lam, gamma, psi, value, residuals)


def brute_force_opt(problem: GibbsProblem) -> Tuple[Dict[Tuple[int, int], float], float]:
    """Directly minimize H(gamma || alpha x nu) on the constraint polytope.

    Independent of the tilted closed form: Newton's method on gamma, over the
    cells with alpha(n) * nu(x) > 0.  The product law is the optimum (value
    0.0) when it meets the threshold.  Else the start mixes it with the top-h
    corner (each class on its cells of largest h, in proportion to nu),
    halfway from the threshold to the corner; each step solves the KKT system
    [diag(1/gamma) A^T; A 0] of the row sums and the threshold, halved until
    gamma stays positive and the KKT residual falls, up to the floating-point
    fixed point.  At the supremum the corner is the optimum; above it,
    ValueError.  Small instances only; used as a test oracle.
    """
    import numpy as np  # here, so that importing graphld does not load numpy

    support = [(n, an) for n, an in problem.alpha.items() if an > 0]
    max_deg = max(n for n, _ in support)
    n_x = len(problem.nu)
    if (max_deg + 1) * n_x > 12:
        raise ValueError(
            f"brute force cap exceeded: ({max_deg} + 1) * {n_x} > 12"
        )
    marks = [x for x, w in enumerate(problem.nu) if w > 0]
    cells = [(n, x) for n, _ in support for x in marks]
    mass = np.array([[an] for _, an in support])
    base = mass * [problem.nu[x] for x in marks]
    nh = np.outer([n for n, _ in support], [problem.hfun[x] for x in marks])
    corner = np.where(nh == nh.max(axis=1, keepdims=True), base, 0.0)
    corner *= mass / corner.sum(axis=1, keepdims=True)
    base, corner, nh = base.ravel(), corner.ravel(), nh.ravel()
    low, high = nh @ base, nh @ corner
    product = dict(zip(cells, base.tolist()))
    if problem.c <= low:
        return product, 0.0
    if problem.c > problem.supremum():
        raise ValueError(
            f"threshold c={problem.c} exceeds the essential supremum {problem.supremum()}"
        )
    if problem.c >= high:  # the threshold row is a sum of the row sums on the top cells
        gamma = {cell: w for cell, w in zip(cells, corner.tolist()) if w > 0}
    else:
        m, k = len(cells), len(support) + 1
        a = np.vstack([np.repeat(np.eye(k - 1), len(marks), axis=1), nh])
        want = np.append(mass, problem.c)
        kkt = np.zeros((m + k, m + k))
        kkt[m:, :m] = a
        kkt[:m, m:] = a.T

        def residual(v):  # at gamma v[:m] and multipliers v[m:]
            return np.concatenate([np.log(v[:m] / base) + 1.0 + v[m:] @ a, a @ v[:m] - want])

        r = (problem.c - low) / (high - low)
        v = np.concatenate([(1 - r) / 2 * base + (1 + r) / 2 * corner, np.zeros(k)])
        res = residual(v)
        for _ in range(1000):
            np.fill_diagonal(kkt[:m, :m], 1.0 / v[:m])
            step, s = np.linalg.solve(kkt, -res), 1.0
            if not np.isfinite(step).all():  # else the halving below never ends
                raise RuntimeError("brute force Newton step overflowed")
            while not np.array_equal(new := v + s * step, v):
                if (new[:m] > 0).all() and (new_res := residual(new)) @ new_res < res @ res:
                    break
                s /= 2
            else:
                break  # no step moves v: its floating-point fixed point
            v, res = new, new_res
        else:
            raise RuntimeError("brute force Newton iteration reached no fixed point")
        gamma = dict(zip(cells, v[:m].tolist()))
    return gamma, relative_entropy(gamma, product)


@dataclass
class MCReport:
    """Conditional Monte Carlo summary for one (n, delta) run.

    Frequencies are averages of per-sample empirical laws over accepted
    samples; ``*_tv`` compare them to the solved gamma and psi; ``*_se`` are
    the largest per-cell standard errors of those averages.  ``draws`` counts
    the unconditioned draws up to the first-hitting time of ``min_accepted``
    acceptances (or all ``samples``).  ``exact_*_tv`` are the TV distances of
    the exact conditional means, free of Monte Carlo noise; they are None when
    the problem was sampled by rejection.
    """

    n: int
    delta: float
    threshold: float
    draws: int
    accepted: int
    acceptance_rate: float
    joint_emp: Dict[Tuple[int, int], float]
    joint_tv: float
    joint_se: float
    leaf_emp: Dict[int, float]
    leaf_tv: float
    leaf_se: float
    degree_marginal_exact: bool
    fast_path: bool
    exact_joint_tv: Optional[float] = None
    exact_leaf_tv: Optional[float] = None

    def to_obj(self) -> dict:
        return {
            **asdict(self),
            "joint_emp": {f"{d},{x}": w for (d, x), w in sorted(self.joint_emp.items())},
            "leaf_emp": {str(x): w for x, w in sorted(self.leaf_emp.items())},
        }


def _joint_and_leaf(cell_means, n, classes):
    """Joint (degree, mark) law and size-biased leaf law from mean cell counts."""
    total_deg = sum(d * c for d, c in classes)
    joint = {cell: m / n for cell, m in cell_means.items()}
    return joint, _fsum_by((x, d * m / total_deg) for (d, x), m in cell_means.items())


def _finish_report(
    problem, solution, n, delta, threshold, classes, draws, accepted,
    cell_sums, cell_sqsums, fast_path, exact_means=None,
) -> MCReport:
    if accepted == 0:
        raise RuntimeError("zero accepted samples within the draw budget")
    total_deg = sum(d * c for d, c in classes)
    joint_emp, leaf_emp = _joint_and_leaf(
        {cell: s / accepted for cell, s in cell_sums.items()}, n, classes
    )
    joint_se = 0.0
    for cell, s in cell_sums.items():
        mean = s / accepted
        var = max(cell_sqsums[cell] / accepted - mean * mean, 0.0)
        joint_se = max(joint_se, math.sqrt(var / accepted) / n)
    leaf_se = joint_se * max(d for d, _ in classes) * n / total_deg
    exact_joint_tv = exact_leaf_tv = None
    if exact_means is not None:
        joint_ex, leaf_ex = _joint_and_leaf(exact_means, n, classes)
        exact_joint_tv = tv_distance(joint_ex, solution.gamma)
        exact_leaf_tv = tv_distance(leaf_ex, solution.psi)
    return MCReport(
        n=n,
        delta=delta,
        threshold=threshold,
        draws=draws,
        accepted=accepted,
        acceptance_rate=accepted / draws,
        joint_emp=joint_emp,
        joint_tv=tv_distance(joint_emp, solution.gamma),
        joint_se=joint_se,
        leaf_emp=leaf_emp,
        leaf_tv=tv_distance(leaf_emp, solution.psi),
        leaf_se=leaf_se,
        degree_marginal_exact=True,
        fast_path=fast_path,
        exact_joint_tv=exact_joint_tv,
        exact_leaf_tv=exact_leaf_tv,
    )


# ---------------------------------------------------------------- exact path
#
# Write h_x = h0 + step * j_x with integers j_x >= 0.  A draw's functional is
# (h0 * total degree + step * T) / n with T = sum_d d * s_d and s_d the class
# lattice sum sum_x j_x k_{d,x}, so acceptance is the tail event T >= t_min.
# The tables below hold the multinomial law of every class's mark counts
# grouped by s_d, and the law of T; accepted draws are sampled from them
# directly, with no rejected draws.


def _lattice(hvals: Sequence[float]) -> Tuple[Fraction, Fraction, List[int]]:
    """Exact (h0, step, j) with h[x] = h0 + step * j[x] and integers j >= 0.

    A value is read as the simplest fraction that converts back to exactly
    the same float (so 0.1 is 1/10), else as the float's exact binary value.
    A value set with no common lattice (0, 1, sqrt 2) gets a step so fine that
    the tables exceed the budget.
    """
    fracs = []
    for v in hvals:
        f = Fraction(v).limit_denominator(_MAX_DENOMINATOR)
        fracs.append(f if float(f) == v else Fraction(v))
    h0 = min(fracs)
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [int((f - h0) * den) for f in fracs]
    g = math.gcd(*nums) or 1
    return h0, Fraction(g, den), [k // g for k in nums]


def _compositions(c: int, k: int) -> np.ndarray:
    """All k-part compositions of c as rows of an (M, k) integer array, in
    lexicographic order."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    parts, left = np.zeros((1, 0), dtype=np.int64), np.full(1, c)
    for _ in range(k - 1):
        # each row, extended by every next part up to what it leaves
        rows, nxt = np.nonzero(np.arange(c + 1) <= left[:, None])
        parts, left = np.concatenate((parts[rows], nxt[:, None]), axis=1), left[rows] - nxt
    return np.concatenate((parts, left[:, None]), axis=1)


def _dilate(law: np.ndarray, d: int) -> np.ndarray:
    """Law of d * s from the law of s."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    if d == 0:
        return np.array([law.sum()])
    out = np.zeros(d * (len(law) - 1) + 1)
    out[::d] = law
    return out


@dataclass
class _CountLaw:
    """Exact law of the per-class mark counts and of the lattice sum T.

    Per class i: ``comps[i]`` are the mark-count vectors over ``marks``,
    sorted by their lattice sum ``sums[i]``; ``weights[i]`` their multinomial
    probabilities; ``laws[i]`` the law of the class lattice sum; ``prefix[i]``
    the law of sum_{j <= i} d_j s_j.  Acceptance is T >= ``t_min``, of
    probability ``mass``; ``cell_means`` are the exact conditional means of
    the (degree, mark) counts.
    """

    classes: List[Tuple[int, int]]
    marks: List[int]
    comps: List[np.ndarray]
    weights: List[np.ndarray]
    sums: List[np.ndarray]
    laws: List[np.ndarray]
    prefix: List[np.ndarray]
    t_min: int
    mass: float
    cell_means: Dict[Tuple[int, int], float]


def _count_law(problem, classes, n, threshold) -> Optional[_CountLaw]:
    """Tables of the exact path, or None when they would exceed the budget."""
    marks = problem._tilt[0]
    h0, step, j = problem._h_lattice
    span = max(j)
    total_deg = sum(d * c for d, c in classes)
    k = len(marks)
    t_len = total_deg * span + 1
    cost = k * sum(math.comb(c + k - 1, k - 1) for _, c in classes) + len(classes) * t_len
    if len(classes) > 1:
        cost += len(classes) ** 2 * t_len * (max(d * c for d, c in classes) * span + 1)
    if cost > EXACT_TABLE_BUDGET:
        return None

    import numpy as np  # here: importing samplers or gibbs must not pay for numpy
    logp = np.log(np.array([problem.nu[x] for x in marks]))
    jv = np.array(j, dtype=np.int64)
    # lf[i] = log i!
    lf = np.array(list(map(math.lgamma, range(1, max(c for _, c in classes) + 2))))
    comps, weights, sums, laws = [], [], [], []
    for _, c in classes:
        kc = _compositions(c, k)
        sv = kc @ jv
        order = np.argsort(sv, kind="stable")
        kc, sv = kc[order], sv[order]
        w = np.exp(lf[c] - lf[kc].sum(axis=1) + kc @ logp)
        comps.append(kc)
        weights.append(w)
        sums.append(sv)
        laws.append(np.bincount(sv, weights=w, minlength=c * span + 1))
    dilated = [_dilate(law, d) for (d, _), law in zip(classes, laws)]
    prefix = list(itertools.accumulate(dilated, np.convolve))

    # accept iff (h0 * total_deg + step * T) / n > threshold + TIE_TOL, that
    # is T > (theta * n - h0 * total_deg) / step, in exact integer arithmetic
    t_law = prefix[-1]
    theta = threshold + TIE_TOL
    if math.isfinite(theta):
        a, b = theta.as_integer_ratio()
        t_min = ((a * n * h0.denominator - h0.numerator * total_deg * b) * step.denominator
                 // (b * h0.denominator * step.numerator)) + 1
    else:  # -inf accepts every draw, +inf and nan none
        t_min = 0 if theta < 0 else len(t_law)
    t_min = min(max(t_min, 0), len(t_law))
    mass = 1.0 if t_min == 0 else min(float(t_law[t_min:].sum()), 1.0)

    cell_means: Dict[Tuple[int, int], float] = {}
    for i, (d, _) in enumerate(classes):
        rest = functools.reduce(
            np.convolve, (dl for jj, dl in enumerate(dilated) if jj != i), np.ones(1)
        )
        tail = np.append(np.cumsum(rest[::-1])[::-1], 0.0)
        pw = weights[i] * tail[np.minimum(np.maximum(t_min - d * sums[i], 0), len(rest))]
        total = pw.sum()
        means = pw @ comps[i] / total if total > 0 else np.zeros(k)
        for x in range(len(problem.nu)):
            cell_means[(d, x)] = 0.0
        for x, m in zip(marks, means):
            cell_means[(d, x)] = float(m)
    return _CountLaw(list(classes), marks, comps, weights, sums, laws, prefix,
                     t_min, mass, cell_means)


def _binomial_below(rng, samples: int, p: float, limit: int) -> int:
    """Binomial(samples, p) conditioned to be below ``limit``."""
    while True:
        x = rng.binomial(samples, p, size=64)
        x = x[x < limit]
        if x.size:
            return int(x[0])


def _draw_rows(rng, counts, lo, hi, weigh):
    """Per row r, counts[r] drawn over the cells lo[r] .. hi[r] - 1 (never
    empty) in proportion to ``weigh(cells)``, in one multinomial call; returns
    the cells and their counts, flat, row by row.  Rows are right-aligned: a
    leading cell of probability 0 draws nothing from the generator (a
    trailing one would), so the stream is that of one call per row.  Each
    row's normaliser sums its own cells, so it has the bits of that call's."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    width = int((hi - lo).max(initial=0))
    if width <= 1:  # a one-cell row draws nothing either
        return lo, counts
    cells = hi[:, None] + np.arange(-width, 0)
    real = cells >= lo[:, None]
    w = np.where(real, weigh(np.maximum(cells, lo[:, None])), 0.0)
    z = np.array([row[width - k:].sum() for row, k in zip(w, hi - lo)])
    return cells[real], rng.multinomial(counts, w / z[:, None])[real]


def _sample_exact(law: _CountLaw, rng, samples, min_accepted, n_x):
    """Draw count, accepted count and accepted cell sums, rejection-free."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    mass = law.mass
    if min_accepted is None:
        draws, accepted = samples, int(rng.binomial(samples, mass))
    else:
        # draws up to the min_accepted-th acceptance: min_accepted plus a
        # negative binomial, drawn as its Poisson-gamma mixture (numpy's own
        # sampler overflows for tiny mass).  A Poisson mean beyond
        # 2 * samples + 1e6 exceeds samples except with probability below
        # exp(-250000), so the cap is taken as hit without drawing it.
        y = rng.gamma(min_accepted, (1.0 - mass) / mass)
        draws = min_accepted + (int(rng.poisson(y)) if y < 2.0 * samples + 1e6 else samples)
        accepted = min_accepted
        if draws > samples:
            draws = samples
            accepted = _binomial_below(rng, samples, mass, min_accepted)

    t_law = law.prefix[-1]
    counts = np.zeros(len(t_law), dtype=np.int64)
    if accepted:
        tail = t_law[law.t_min:]
        counts[law.t_min:] = rng.multinomial(accepted, tail / tail.sum())

    # split each accepted T into class sums, last class first, then each
    # class sum into mark-count vectors: one multinomial call per step
    s_counts: List[np.ndarray] = [None] * len(law.classes)
    for i in range(len(law.classes) - 1, -1, -1):
        d, n_s = law.classes[i][0], len(law.laws[i])
        below = law.prefix[i - 1] if i else np.ones(1)
        ts = np.flatnonzero(counts)
        # the window of s with 0 <= t - d * s < len(below)
        lo = np.maximum((ts - len(below)) // d + 1, 0) if d else np.zeros_like(ts)
        hi = np.minimum(ts // d + 1, n_s) if d else np.full_like(ts, n_s)
        s, got = _draw_rows(rng, counts[ts], lo, hi,
                            lambda cells: law.laws[i][cells] * below[ts[:, None] - d * cells])
        s_counts[i] = np.zeros(n_s, dtype=np.int64)
        np.add.at(s_counts[i], s, got)
        counts = np.zeros(len(below), dtype=np.int64)
        np.add.at(counts, np.repeat(ts, hi - lo) - d * s, got)

    cell_sums: Dict[Tuple[int, int], float] = {}
    cell_sqsums: Dict[Tuple[int, int], float] = {}
    for i, (d, _) in enumerate(law.classes):
        comps, w, sv = law.comps[i], law.weights[i], law.sums[i]
        starts = np.searchsorted(sv, np.arange(len(law.laws[i]) + 1))
        many = np.flatnonzero((np.diff(starts) > 1) & (s_counts[i] > 0))
        # a sum with a single composition needs no draw
        comp_counts = s_counts[i][sv]
        idx, got = _draw_rows(rng, s_counts[i][many], starts[many], starts[many + 1], w.__getitem__)
        comp_counts[idx] = got
        tot = comp_counts @ comps
        sq = comp_counts @ (comps * comps)
        for x in range(n_x):
            cell_sums[(d, x)] = 0.0
            cell_sqsums[(d, x)] = 0.0
        for x, a, b in zip(law.marks, tot, sq):
            cell_sums[(d, x)] = float(a)
            cell_sqsums[(d, x)] = float(b)
    return draws, accepted, cell_sums, cell_sqsums


# ---------------------------------------------------------------- rejection


def _rejection_counts(problem, classes, n, threshold, samples, rng, min_accepted):
    """Draw count, accepted count and accepted cell sums by rejection."""
    import numpy as np  # here: importing samplers or gibbs must not pay for numpy

    n_x = len(problem.nu)
    cell_sums: Dict[Tuple[int, int], float] = {
        (d, x): 0.0 for d, _ in classes for x in range(n_x)
    }
    cell_sqsums: Dict[Tuple[int, int], float] = dict(cell_sums)
    drawn = 0
    accepted = 0
    nu_vec = np.array(problem.nu)
    h_vec = np.array(problem.hfun)
    while drawn < samples and (min_accepted is None or accepted < min_accepted):
        size = min(REJECTION_BATCH, samples - drawn)
        per_class = []
        t = np.zeros(size)
        for d, c in classes:
            if n_x == 2:
                k1 = rng.binomial(c, problem.nu[1], size=size)
                ks = np.stack([c - k1, k1], axis=1)
            else:
                ks = rng.multinomial(c, nu_vec, size=size)
            per_class.append(ks)
            t += d * (ks @ h_vec)
        t /= n
        mask = t > threshold + TIE_TOL
        if min_accepted is not None:
            # the batch ends at the draw that brings the count to min_accepted
            hit = np.flatnonzero(mask)
            if len(hit) >= min_accepted - accepted:
                size = int(hit[min_accepted - accepted - 1]) + 1
                mask = mask[:size]
        drawn += size
        hits = int(mask.sum())
        if hits:
            accepted += hits
            for (d, _), ks in zip(classes, per_class):
                kept = ks[:size][mask].astype(np.float64)
                for x in range(n_x):
                    cell_sums[(d, x)] += float(kept[:, x].sum())
                    cell_sqsums[(d, x)] += float((kept[:, x] ** 2).sum())
    return drawn, accepted, cell_sums, cell_sqsums


def _binomial_tail(problem, classes, n, threshold) -> bool:
    """One degree class, two marks, and an acceptance event that is a
    nonempty tail set in the mark-1 count."""
    if len(classes) != 1 or len(problem.nu) != 2:
        return False
    d0, c0 = classes[0]
    h0, h1 = problem.hfun
    ok = [(d0 * (b * h1 + (c0 - b) * h0)) / n > threshold + TIE_TOL
          for b in range(c0 + 1)]
    return any(ok) and all(ok[ok.index(True):])


def _check_mc_size(n: int, samples: int) -> None:
    """The size and draw budget that ``conditional_mc`` accepts."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= samples <= SAMPLES_LIMIT:
        raise ValueError(f"samples must be in [1, {SAMPLES_LIMIT}], not {samples}")


def conditional_mc(
    problem: GibbsProblem,
    n: int,
    samples: int,
    rng: np.random.Generator,
    delta: Optional[float] = None,
    min_accepted: Optional[int] = None,
    solution: Optional[GibbsSolution] = None,
) -> MCReport:
    """Exact sampling of the conditioned mark configuration at size n.

    Marks are drawn i.i.d. from nu on the integer degree sequence closest to
    n * alpha; a draw is accepted when its mean local h-sum strictly exceeds
    c - delta.  Only the per-degree mark counts matter for both the
    acceptance event and the reported empirical laws (each vertex occurs as a
    neighbor exactly degree-many times), so the graph pairing is never
    sampled.  ``samples`` caps the number of draws; with ``min_accepted`` the
    draws stop at the draw that brings the accepted count to that value.

    When h lies on a lattice the accepted draws are sampled directly from
    their exact law, with no rejected draws, and the report carries the exact
    conditional TVs.  Otherwise, or when the exact tables would exceed
    ``EXACT_TABLE_BUDGET`` cells, draws are rejected in batches of at most
    ``REJECTION_BATCH``.
    """
    _check_mc_size(n, samples)
    if min_accepted is not None and min_accepted < 1:
        raise ValueError("min_accepted must be at least 1")
    if solution is None:
        solution = solve(problem)
    delta = problem.delta if delta is None else float(delta)
    if not delta > 0:
        raise ValueError(f"delta must be positive, not {delta!r}")
    threshold = problem.c - delta
    counts = integer_degree_counts(problem.alpha, n)
    classes = sorted((d, c) for d, c in counts.items() if c > 0)
    fast = _binomial_tail(problem, classes, n, threshold)

    law = _count_law(problem, classes, n, threshold)
    if law is None:
        result = _rejection_counts(problem, classes, n, threshold, samples, rng, min_accepted)
        exact_means = None
    else:
        if law.mass <= 0.0:
            raise RuntimeError("conditioning event has empty support at this n")
        result = _sample_exact(law, rng, samples, min_accepted, len(problem.nu))
        exact_means = law.cell_means
    return _finish_report(
        problem, solution, n, delta, threshold, classes, *result, fast, exact_means
    )


def delta_sweep(
    problem: GibbsProblem,
    n: int,
    samples: int,
    rng: np.random.Generator,
    deltas: Sequence[float] = (0.1, 0.05, 0.02),
    **kwargs,
) -> List[MCReport]:
    """Side-by-side conditional MC reports over a slack sweep."""
    solution = kwargs.pop("solution", None) or solve(problem)
    return [
        conditional_mc(problem, n, samples, rng, delta=d, solution=solution, **kwargs)
        for d in deltas
    ]
