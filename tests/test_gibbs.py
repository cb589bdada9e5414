"""Tests for the Gibbs conditioning solver and its Monte Carlo validation.

The canonical worked instance (all vertices of degree 2, two equiprobable
marks, h the indicator of mark 1, threshold 3/2) has a fully explicit
solution: the tilt equation reads 2 e^{2 lam} / (1 + e^{2 lam}) = 3/2, so
lam = log(3)/2, the tilted joint law puts 3/4 on (2, 1), and the optimal
value is the relative entropy of (1/4, 3/4) against the uniform law.  The
Monte Carlo reports are checked against exact conditional laws computed by
enumerating the sufficient mark counts.
"""

import itertools
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import graphld.gibbs as gibbs
from graphld.gibbs import (
    TIE_TOL,
    GibbsProblem,
    brute_force_opt,
    conditional_mc,
    delta_sweep,
    g_of_lambda,
    solve,
)
from graphld.measures import DegreeLaw, TreeMeasure, relative_entropy, tv_distance
from graphld.rates import ReferenceLaw, nbd_rate
from graphld.samplers import ModelConfig, integer_degree_counts, make_rng

from helpers import (
    _assemble_mu_star, bisection_lambda, gammaln_count_weights, lex_compositions,
    per_call_g_of_lambda, per_call_tilted, per_value_sample_exact, rejection_conditional_mc,
    run_python, slsqp_brute_force, star,
)

LAM_STAR = math.log(3.0) / 2.0
V_STAR = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)


def canonical_problem(c=1.5, delta=0.05):
    return GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (0.0, 1.0), c, delta)


def two_class_problem():
    return GibbsProblem(
        DegreeLaw({1: 0.5, 3: 0.5}), (0.4, 0.6), (0.0, 1.0), 1.5, 0.1
    )


# ---------------------------------------------------------------------------
# the tilt equation
# ---------------------------------------------------------------------------


def test_g_matches_closed_form_on_grid():
    p = canonical_problem()
    for lam in np.linspace(0.0, 2.5, 26):
        expected = 2.0 * math.exp(2 * lam) / (1.0 + math.exp(2 * lam))
        assert g_of_lambda(p, float(lam)) == pytest.approx(expected, abs=1e-12)


def test_g_at_zero_is_unconditioned_mean():
    for p in (canonical_problem(), two_class_problem()):
        mean = p.kappa() * math.fsum(w * v for w, v in zip(p.nu, p.hfun))
        assert g_of_lambda(p, 0.0) == pytest.approx(mean, abs=1e-12)
        assert p.unconditioned_mean() == pytest.approx(mean, abs=1e-12)


def test_g_increasing_and_saturating():
    p = two_class_problem()
    grid = [g_of_lambda(p, lam) for lam in np.linspace(0.0, 30.0, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))
    assert grid[-1] == pytest.approx(p.supremum(), abs=1e-10)


def test_problem_helpers_two_class():
    p = two_class_problem()
    assert p.kappa() == pytest.approx(2.0, abs=1e-15)
    assert p.unconditioned_mean() == pytest.approx(2.0 * 0.6, abs=1e-15)
    assert p.supremum() == pytest.approx(2.0, abs=1e-15)


def test_problem_validation():
    with pytest.raises(ValueError):
        GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.4), (0.0, 1.0), 1.5)
    with pytest.raises(ValueError):
        GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (0.0, 1.0, 2.0), 1.5)
    with pytest.raises(ValueError):
        GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (0.0, 1.0), 1.5, delta=0.0)


# ---------------------------------------------------------------------------
# the solver on the canonical instance
# ---------------------------------------------------------------------------


def test_solve_canonical_tilt_and_value():
    s = solve(canonical_problem())
    assert s.lam == pytest.approx(LAM_STAR, abs=1e-12)
    assert s.gamma[(2, 1)] == pytest.approx(0.75, abs=1e-12)
    assert s.gamma[(2, 0)] == pytest.approx(0.25, abs=1e-12)
    assert math.fsum(w for (n, _), w in s.gamma.items() if n == 2) == 1.0
    assert s.psi[1] == pytest.approx(0.75, abs=1e-12)
    assert s.psi[0] == pytest.approx(0.25, abs=1e-12)
    assert s.value == pytest.approx(V_STAR, abs=1e-13)


def test_solve_canonical_residuals():
    s = solve(canonical_problem())
    assert s.residuals["stationarity"] <= 1e-9
    assert s.residuals["row_sums"] == 0.0
    assert s.residuals["active_constraint"] <= 1e-10
    assert s.residuals["complementary_slackness"] <= 1e-10
    assert s.residuals["psi_mass"] <= 1e-14
    assert s.residuals["g_monotone_on_bracket"] == 0.0


def test_solve_canonical_mu_star_atoms():
    s = solve(canonical_problem())
    mu = s.mu_star
    # root mark x with leaf multiset {a, b}: gamma(2,x) * mult * psi_a psi_b
    expected = {}
    for x in (0, 1):
        for a, b in itertools.combinations_with_replacement((0, 1), 2):
            mult = 1 if a == b else 2
            expected[star(x, (a, b))] = (
                s.gamma[(2, x)] * mult * s.psi[a] * s.psi[b]
            )
    assert set(dict(mu.items())) == set(expected)
    for t, w in mu.items():
        assert w == pytest.approx(expected[t], abs=1e-12)
    assert math.fsum(w for _, w in mu.items()) == pytest.approx(1.0, abs=1e-14)
    assert mu.mean_degree() == pytest.approx(2.0, abs=1e-12)
    assert dict(mu.degree_law().items()) == pytest.approx({2: 1.0}, abs=1e-14)
    # hand values: star(1,(1,1)) = 3/4 * 9/16 = 27/64, star(0,(0,0)) = 1/64
    assert mu.get(star(1, (1, 1))) == pytest.approx(27 / 64, abs=1e-12)
    assert mu.get(star(0, (0, 0))) == pytest.approx(1 / 64, abs=1e-12)


def test_mu_star_neighborhood_rate_equals_value():
    s = solve(canonical_problem())
    cfg = ModelConfig(
        ensemble="CM", nu=(0.5, 0.5), xi=((1.0,),), alpha=DegreeLaw({2: 1.0})
    )
    assert nbd_rate("CM", cfg, s.mu_star) == pytest.approx(s.value, abs=1e-8)


def test_solve_near_mean_threshold_limit():
    s = solve(canonical_problem(c=1.0 + 1e-8))
    assert 0.0 < s.lam < 1e-7
    assert s.value < 1e-8
    assert s.gamma[(2, 1)] == pytest.approx(0.5, abs=1e-7)


def test_solve_infeasible_thresholds():
    with pytest.raises(ValueError, match="unconditioned mean"):
        solve(canonical_problem(c=0.8))
    with pytest.raises(ValueError, match="unconditioned mean"):
        solve(canonical_problem(c=1.0))  # boundary: must strictly exceed
    with pytest.raises(ValueError, match="essential supremum"):
        solve(canonical_problem(c=2.0))
    with pytest.raises(ValueError, match="essential supremum"):
        solve(canonical_problem(c=2.5))


@given(degrees=st.dictionaries(st.integers(1, 4), st.integers(1, 5), min_size=1, max_size=3),
       marks=st.lists(st.tuples(st.integers(1, 5), st.integers(-30, 30).map(lambda k: k / 10)),
                      min_size=2, max_size=3),
       t=st.just(0.0) | st.floats(1e-9, 1.0 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_solve_lambda_is_the_200_step_bisection_bit_for_bit(degrees, marks, t):
    # the bisection stops at its fixed point, where the 200-step loop only
    # repeats; t = 0 puts c one float above the unconditioned mean
    total = sum(degrees.values())
    alpha = DegreeLaw({d: k / total for d, k in degrees.items()})
    weight = sum(w for w, _ in marks)
    nu, hfun = tuple(w / weight for w, _ in marks), tuple(v for _, v in marks)
    free = GibbsProblem(alpha, nu, hfun, 0.0)
    g0, sup = free.unconditioned_mean(), free.supremum()
    c = g0 + t * (sup - g0) if t else math.nextafter(g0, math.inf)
    assume(g0 < c < sup)
    p = GibbsProblem(alpha, nu, hfun, c)
    assert solve(p).lam.hex() == bisection_lambda(p).hex()


@given(degrees=st.dictionaries(st.integers(0, 6), st.integers(1, 5), min_size=1, max_size=3),
       marks=st.lists(st.tuples(st.integers(0, 5), st.integers(-30, 30).map(lambda k: k / 10)),
                      min_size=2, max_size=4).filter(lambda ms: any(w for w, _ in ms)),
       lam=st.floats(0.0, 60.0))
@settings(max_examples=100, deadline=None)
def test_tilt_table_keeps_the_bits_of_the_per_call_tilt(degrees, marks, lam):
    # marks with nu = 0 leave the table, and lambda * n is formed once per
    # degree: the same floats in the same order as reading nu and h per call
    total = sum(degrees.values())
    alpha = DegreeLaw({d: k / total for d, k in degrees.items()})
    weight = sum(w for w, _ in marks)
    p = GibbsProblem(alpha, tuple(w / weight for w, _ in marks), tuple(v for _, v in marks), 0.0)
    assert g_of_lambda(p, lam).hex() == per_call_g_of_lambda(p, lam).hex()
    for n in degrees:
        raw, z = per_call_tilted(p, lam, n)
        p_row = [r / z for r in raw]
        top = max(range(len(p_row)), key=p_row.__getitem__)
        p_row[top] = 1.0 - math.fsum(v for i, v in enumerate(p_row) if i != top)
        row = gibbs._tilted_row(p, lam, n)
        assert [v.hex() for v in row] == [p_row[x].hex() for x, w in enumerate(p.nu) if w > 0]


def test_lambda_strictly_increasing_in_threshold():
    lams = [solve(canonical_problem(c=c)).lam for c in (1.1, 1.3, 1.5, 1.7, 1.9)]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_solution_serializes():
    s = solve(canonical_problem())
    obj = s.to_obj()
    blob = json.dumps(obj, sort_keys=True)
    back = json.loads(blob)
    assert back["lambda"] == pytest.approx(LAM_STAR, abs=1e-12)
    assert back["gamma"]["2,1"] == pytest.approx(0.75, abs=1e-12)
    assert set(back) == {
        "lambda", "gamma", "psi", "mu_star", "value", "residuals",
    }


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


def test_brute_force_matches_closed_form_canonical():
    gamma_bf, v_bf = brute_force_opt(canonical_problem())
    assert v_bf == pytest.approx(V_STAR, abs=1e-15)
    assert gamma_bf[(2, 1)] == pytest.approx(0.75, abs=1e-15)
    assert gamma_bf[(2, 0)] == pytest.approx(0.25, abs=1e-15)


def test_brute_force_matches_solver_two_class():
    p = two_class_problem()
    s = solve(p)
    gamma_bf, v_bf = brute_force_opt(p)
    assert v_bf == pytest.approx(s.value, abs=1e-12)
    for cell, w in s.gamma.items():
        assert gamma_bf.get(cell, 0.0) == pytest.approx(w, abs=1e-12)


def test_brute_force_inactive_constraint_gives_product():
    # below and at the unconditioned mean 1.0
    for c in (0.8, 1.0):
        assert brute_force_opt(canonical_problem(c=c)) == ({(2, 0): 0.5, (2, 1): 0.5}, 0.0)


def test_brute_force_at_the_supremum_gives_the_face_optimum():
    # only the top-h cells remain, where the threshold row is a sum of the row sums
    assert brute_force_opt(canonical_problem(c=2.0)) == ({(2, 1): 1.0}, math.log(2.0))
    gamma_sq, v_sq = slsqp_brute_force(canonical_problem(c=2.0))
    assert gamma_sq == {(2, 1): pytest.approx(1.0, abs=1e-12)}
    assert v_sq == pytest.approx(math.log(2.0), abs=1e-12)
    # a degree-0 class keeps its product law; a tie splits in proportion to nu
    p = GibbsProblem(DegreeLaw({0: 0.25, 2: 0.75}), (0.2, 0.3, 0.5), (1.0, 0.0, 1.0), 1.5)
    gamma_bf, v_bf = brute_force_opt(p)
    want = {(0, 0): 0.05, (0, 1): 0.075, (0, 2): 0.125, (2, 0): 0.75 * 0.2 / 0.7,
            (2, 2): 0.75 * 0.5 / 0.7}
    assert gamma_bf == pytest.approx(want, abs=1e-15)
    assert v_bf == pytest.approx(-0.75 * math.log(0.7), abs=1e-15)


def test_brute_force_above_the_supremum_raises():
    with pytest.raises(ValueError, match=r"c=2.5 exceeds the essential supremum 2.0"):
        brute_force_opt(canonical_problem(c=2.5))


def test_brute_force_skips_marks_with_zero_nu():
    # log(g / 0) on the cells of a mark with nu = 0 once broke the optimizer
    p = GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5, 0.0), (0, 1, 2), 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma_bf, v_bf = brute_force_opt(p)
    s = solve(p)
    assert s.gamma == pytest.approx({(2, 0): 0.25, (2, 1): 0.75}, abs=1e-15)
    assert set(gamma_bf) == set(s.gamma)
    assert gamma_bf == pytest.approx(s.gamma, abs=1e-15)
    assert v_bf == pytest.approx(s.value, abs=1e-15)


def test_brute_force_concentrates_near_supremum():
    gamma_bf, v_bf = brute_force_opt(canonical_problem(c=1.95))
    assert gamma_bf[(2, 1)] >= 0.95
    assert v_bf > 0.3


def test_brute_force_dimension_cap():
    p = GibbsProblem(DegreeLaw({6: 1.0}), (0.5, 0.5), (0.0, 1.0), 4.0)
    with pytest.raises(ValueError, match="cap"):
        brute_force_opt(p)


def test_brute_force_runs_and_loads_no_scipy_with_scipy_blocked(tmp_path):
    # C06's problem, in an interpreter where importing scipy fails
    res = run_python(
        "import sys\nsys.modules['scipy'] = None\n"
        "from graphld.gibbs import GibbsProblem, brute_force_opt\n"
        "from graphld.measures import DegreeLaw\n"
        "p = GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (0.0, 1.0), 1.5, 0.05)\n"
        "gamma, value = brute_force_opt(p)\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy'"
        " and mod is not None), repr(gamma[(2, 1)]))",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["[]", "0.75"]


# ---------------------------------------------------------------------------
# conditional Monte Carlo
# ---------------------------------------------------------------------------


def exact_single_class_conditional(n, p1, h0, h1, d, threshold):
    """Exact conditional joint law by enumerating the mark-1 count."""
    pmf = stats.binom.pmf(np.arange(n + 1), n, p1)
    keep = [
        b for b in range(n + 1)
        if (d * (b * h1 + (n - b) * h0)) / n > threshold + TIE_TOL
    ]
    mass = float(pmf[keep].sum())
    e_b = float(sum(b * pmf[b] for b in keep)) / mass
    return mass, {(d, 1): e_b / n, (d, 0): (n - e_b) / n}


def test_conditional_mc_single_class_matches_exact():
    p = canonical_problem()
    rng = make_rng(101)
    rep = conditional_mc(p, 20, 3_000_000, rng)
    assert rep.fast_path
    assert rep.degree_marginal_exact
    acc_exact, joint_exact = exact_single_class_conditional(
        20, 0.5, 0.0, 1.0, 2, 1.45
    )
    n_eff = rep.draws
    assert rep.acceptance_rate == pytest.approx(
        acc_exact, abs=5 * math.sqrt(acc_exact / n_eff)
    )
    for cell, w in joint_exact.items():
        assert rep.joint_emp[cell] == pytest.approx(w, abs=5 * rep.joint_se + 1e-9)
    # single degree class: size-biased leaf law coincides with the joint law
    assert rep.leaf_emp[1] == pytest.approx(rep.joint_emp[(2, 1)], abs=1e-12)
    exact_tv = abs(joint_exact[(2, 1)] - 0.75)
    assert rep.joint_tv == pytest.approx(exact_tv, abs=5 * rep.joint_se)


def test_conditional_mc_two_class_matches_enumeration():
    p = two_class_problem()
    s = solve(p)
    counts = integer_degree_counts(p.alpha, 16)
    assert counts == {1: 8, 3: 8}
    rng = make_rng(103)
    rep = conditional_mc(p, 16, 500_000, rng, solution=s)
    assert not rep.fast_path
    # enumerate the two binomial mark-1 counts exactly
    pmf = stats.binom.pmf(np.arange(9), 8, 0.6)
    tot = 0.0
    acc_cells = {(1, 0): 0.0, (1, 1): 0.0, (3, 0): 0.0, (3, 1): 0.0}
    for b1 in range(9):
        for b3 in range(9):
            t = (b1 + 3 * b3) / 16
            if t > p.c - p.delta + TIE_TOL:
                w = float(pmf[b1] * pmf[b3])
                tot += w
                acc_cells[(1, 1)] += w * b1
                acc_cells[(1, 0)] += w * (8 - b1)
                acc_cells[(3, 1)] += w * b3
                acc_cells[(3, 0)] += w * (8 - b3)
    exact_joint = {k: v / tot / 16 for k, v in acc_cells.items()}
    assert rep.acceptance_rate == pytest.approx(
        tot, abs=5 * math.sqrt(tot / rep.draws)
    )
    for cell, w in exact_joint.items():
        assert rep.joint_emp[cell] == pytest.approx(w, abs=5 * rep.joint_se + 1e-9)
    # leaf law is the degree-weighted mark aggregate over a fixed total degree
    total_deg = 8 * 1 + 8 * 3
    leaf_exact = {
        x: sum(d * acc_cells[(d, x)] for d in (1, 3)) / tot / total_deg
        for x in (0, 1)
    }
    for x, w in leaf_exact.items():
        assert rep.leaf_emp[x] == pytest.approx(w, abs=5 * rep.leaf_se + 1e-9)


def test_conditional_mc_descending_h_falls_back_and_matches():
    # h decreasing in the mark index: the acceptance set is a lower tail in
    # the mark-1 count, so the tail-set shortcut must not be used
    p = GibbsProblem(DegreeLaw({2: 1.0}), (0.5, 0.5), (1.0, 0.0), 1.5, 0.05)
    s = solve(p)
    assert s.gamma[(2, 0)] == pytest.approx(0.75, abs=1e-12)
    rng = make_rng(107)
    rep = conditional_mc(p, 20, 400_000, rng, solution=s)
    assert not rep.fast_path
    acc_exact, joint_exact = exact_single_class_conditional(
        20, 0.5, 1.0, 0.0, 2, 1.45
    )
    for cell, w in joint_exact.items():
        assert rep.joint_emp[cell] == pytest.approx(w, abs=5 * rep.joint_se + 1e-9)


def test_conditional_mc_no_bite_recovers_product():
    # a slack larger than the threshold gap accepts every draw
    p = canonical_problem(delta=2.0)
    rng = make_rng(109)
    rep = conditional_mc(p, 20, 200_000, rng)
    assert rep.acceptance_rate == 1.0
    se = math.sqrt(0.25 / (20 * rep.accepted))
    assert rep.joint_emp[(2, 1)] == pytest.approx(0.5, abs=5 * se)
    assert rep.joint_emp[(2, 0)] == pytest.approx(0.5, abs=5 * se)


def test_conditional_mc_zero_accepted_raises():
    # threshold just below the maximum: only the all-ones mark vector passes
    p = canonical_problem(c=1.99, delta=0.001)
    rng = make_rng(113)
    with pytest.raises(RuntimeError, match="zero accepted"):
        conditional_mc(p, 30, 100_000, rng)


def test_conditional_mc_min_accepted_stops_early():
    p = canonical_problem()
    rng = make_rng(127)
    rep = conditional_mc(p, 20, 50_000_000, rng, min_accepted=500)
    assert rep.accepted >= 500
    assert rep.draws < 50_000_000


def test_conditional_mc_deterministic():
    p = canonical_problem()
    rep1 = conditional_mc(p, 20, 300_000, make_rng(31))
    rep2 = conditional_mc(p, 20, 300_000, make_rng(31))
    assert rep1.to_obj() == rep2.to_obj()
    blob = json.dumps(rep1.to_obj(), sort_keys=True)
    assert json.dumps(rep2.to_obj(), sort_keys=True) == blob


def test_conditional_mc_input_validation():
    p = canonical_problem()
    with pytest.raises(ValueError):
        conditional_mc(p, 20, 0, make_rng(1))
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            conditional_mc(p, n, 10, make_rng(1))
    with pytest.raises(ValueError):
        conditional_mc(p, 20, 100, make_rng(1), delta=-0.1)


def test_conditional_mc_bounds_the_draw_budget():
    # numpy overflowed on these budgets: 10**20 as "Python int too large to
    # convert to C long", 10**300 as a Poisson "lam value too large"
    p = canonical_problem()
    for samples in (gibbs.SAMPLES_LIMIT + 1, 10**20, 10**300):
        with pytest.raises(ValueError, match=rf"^samples must be in \[1, {gibbs.SAMPLES_LIMIT}\], not {samples}$"):
            conditional_mc(p, 400, samples, make_rng(1), min_accepted=10)
    # the largest budget passes numpy: a Poisson draw count at n = 200, and a
    # binomial of the whole budget at n = 400, whose acceptance mass is 1.6e-20
    rep = conditional_mc(p, 200, gibbs.SAMPLES_LIMIT, make_rng(1), min_accepted=10)
    assert rep.accepted == 10 and rep.draws > 10**10
    with pytest.raises(RuntimeError, match="zero accepted"):
        conditional_mc(p, 400, gibbs.SAMPLES_LIMIT, make_rng(1), min_accepted=10)


def test_nan_slack_is_rejected():
    # NaN passed the test delta <= 0 and conditioned on an empty event
    with pytest.raises(ValueError, match="^delta must be positive, not nan$"):
        canonical_problem(delta=math.nan)
    with pytest.raises(ValueError, match="^delta must be positive, not nan$"):
        conditional_mc(canonical_problem(), 20, 100, make_rng(1), delta=math.nan)


def test_delta_sweep_reports():
    p = canonical_problem()
    rng = make_rng(131)
    reps = delta_sweep(p, 20, 300_000, rng)
    assert [r.delta for r in reps] == [0.1, 0.05, 0.02]
    assert [r.threshold for r in reps] == pytest.approx([1.4, 1.45, 1.48])
    for r in reps:
        assert r.accepted > 0
        assert 0.0 < r.acceptance_rate <= 1.0
    # looser slack can only enlarge the acceptance event
    assert reps[0].acceptance_rate >= reps[2].acceptance_rate - 3e-3


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def small_problems(draw):
    degs = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)
    )
    weights = [draw(st.integers(1, 5)) for _ in degs]
    tot = sum(weights)
    alpha = DegreeLaw({d: w / tot for d, w in zip(degs, weights)})
    n_x = draw(st.sampled_from((2, 3)))
    if max(degs) > 3 and n_x == 3:
        n_x = 2  # keep the brute force dimension cap satisfied
    nu_w = [draw(st.integers(1, 4)) for _ in range(n_x)]
    nu = tuple(w / sum(nu_w) for w in nu_w)
    hvals = [
        k / 8.0
        for k in draw(
            st.lists(st.integers(0, 16), min_size=n_x, max_size=n_x, unique=True)
        )
    ]
    frac = draw(st.floats(0.15, 0.8))
    p = GibbsProblem(alpha, nu, tuple(hvals), 1.0)
    lo, hi = p.unconditioned_mean(), p.supremum()
    return GibbsProblem(alpha, nu, tuple(hvals), lo + frac * (hi - lo))


@settings(max_examples=25, deadline=None)
@given(small_problems())
def test_solver_properties(p):
    s = solve(p)
    assert s.lam > 0
    assert s.value > 0
    assert s.residuals["stationarity"] <= 1e-9
    assert s.residuals["row_sums"] <= 1e-14
    assert s.residuals["active_constraint"] <= 1e-8
    assert g_of_lambda(p, s.lam) == pytest.approx(p.c, abs=1e-8)
    assert math.fsum(s.psi.values()) == pytest.approx(1.0, abs=1e-12)
    mass = math.fsum(w for _, w in s.mu_star.items())
    assert mass == pytest.approx(1.0, abs=1e-10)
    # the depth-1 law must reproduce the joint degree-mark law at the root
    for (n, x), w in s.gamma.items():
        got = math.fsum(
            wt for t, wt in s.mu_star.items()
            if t.root_degree == n and t.mark == x
        )
        assert got == pytest.approx(w, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(small_problems())
def test_mu_star_matches_per_leaf_oracle(p):
    # the star-law builder multiplies q**m per group of equal leaves, the
    # oracle one leaf at a time: the same support, weights a few ulps apart
    s = solve(p)
    want = _assemble_mu_star(s.gamma, s.psi)
    assert set(s.mu_star.atoms) == set(want.atoms)
    for t, w in want.atoms.items():
        assert abs(s.mu_star.atoms[t] - w) <= 1e-15 * w


# the 60 leaves of six marks have C(65, 5) = 8 259 888 multisets per root mark
DEGREE_60 = {"alpha": {"60": 1.0}, "nu": [1 / 6] * 6, "hfun": [0, 1, 2, 3, 4, 5], "c": 180}
LIMIT_MESSAGE = "materialized support would need 49559328 atoms (limit 200000)"


def test_mu_star_obeys_the_star_atom_limit():
    # a fresh process with a timeout, so that an unguarded build fails the test
    res = run_python(
        "from graphld.gibbs import GibbsProblem, solve\n"
        "from graphld.measures import DegreeLaw\n"
        f"p = GibbsProblem(DegreeLaw({{60: 1.0}}), {DEGREE_60['nu']}, {DEGREE_60['hfun']}, 180)\n"
        "s = solve(p)\n"
        "try:\n"
        "    s.mu_star\n"
        "except ValueError as e:\n"
        "    print(e)\n", timeout=10)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == LIMIT_MESSAGE


def test_monte_carlo_runs_where_mu_star_is_over_the_limit():
    # 6 * C(25, 5) = 318 780 atoms: only a read of mu_star meets the limit
    p = GibbsProblem(DegreeLaw({20: 1.0}), (1 / 6,) * 6, (0, 1, 2, 3, 4, 5), 52)
    rep = conditional_mc(p, 10, 2000, np.random.default_rng(1))
    assert rep.draws == 2000 and rep.accepted > 0
    assert len(delta_sweep(p, 10, 500, np.random.default_rng(2), deltas=(0.1,))) == 1
    with pytest.raises(ValueError, match="318780 atoms"):
        solve(p).mu_star


def test_gibbs_cli_over_the_star_atom_limit_exits_2(tmp_path):
    argv = ["gibbs", "--out-prefix", "g"] + [
        a for k, v in DEGREE_60.items() for a in (f"--{k}", json.dumps(v))]
    res = run_python(f"import sys; from graphld.cli import main; sys.exit(main({argv!r}))",
                     cwd=tmp_path, timeout=10)
    assert res.returncode == 2, res.stdout + res.stderr
    err = json.loads(res.stdout)["error"]
    assert err == {"type": "hypothesis_violation", "message": LIMIT_MESSAGE}
    assert os.listdir(tmp_path) == []


def assert_brute_force_agrees(p):
    """The Newton oracle against ``solve`` to 1e-9 and against SLSQP to 1e-6,
    on every cell and on the value."""
    s = solve(p)
    gamma_bf, v_bf = brute_force_opt(p)
    gamma_sq, v_sq = slsqp_brute_force(p)
    assert v_bf == pytest.approx(s.value, abs=1e-9)
    assert v_bf == pytest.approx(v_sq, abs=1e-6)
    for cell in set(s.gamma) | set(gamma_bf) | set(gamma_sq):
        assert gamma_bf.get(cell, 0.0) == pytest.approx(s.gamma.get(cell, 0.0), abs=1e-9)
        assert gamma_bf.get(cell, 0.0) == pytest.approx(gamma_sq.get(cell, 0.0), abs=1e-6)


@settings(max_examples=12, deadline=None)
@given(small_problems())
def test_brute_force_agrees_with_tilted_solution(p):
    assert_brute_force_agrees(p)


def at_fraction(alpha, nu, hfun, frac):
    """The problem whose threshold is ``frac`` of the way from the
    unconditioned mean to the supremum."""
    p = GibbsProblem(DegreeLaw(alpha), nu, hfun, 1.0)
    lo, hi = p.unconditioned_mean(), p.supremum()
    return GibbsProblem(p.alpha, nu, hfun, lo + frac * (hi - lo))


@pytest.mark.parametrize("p", [
    at_fraction({0: 0.25, 2: 0.75}, (0.5, 0.5), (0.0, 1.0), 0.5),
    at_fraction({1: 0.5, 2: 0.5}, (0.2, 0.3, 0.5), (1.0, 0.0, 1.0), 0.5),
    at_fraction({1: 0.5, 3: 0.5}, (1 / 3, 1 / 3, 1 / 3), (0.0, 1.0, 2.0), 0.9999),
], ids=["degree_0_class", "tie_in_top_h", "near_supremum"])
def test_brute_force_agrees_on_named_cases(p):
    assert_brute_force_agrees(p)


# ---------------------------------------------------------------------------
# exact path against enumeration and against the rejection oracle
# ---------------------------------------------------------------------------


def degree_classes(p, n):
    return sorted((d, c) for d, c in integer_degree_counts(p.alpha, n).items() if c > 0)


def enumerate_conditional(p, n, threshold):
    """Acceptance mass and conditional mean (degree, mark) counts, by
    enumerating every vector of per-class mark counts."""
    classes = degree_classes(p, n)
    n_x = len(p.nu)
    per_class = []
    for _, c in classes:
        opts = []
        for head in itertools.product(range(c + 1), repeat=n_x - 1):
            if sum(head) <= c:
                ks = head + (c - sum(head),)
                w = math.factorial(c)
                for kx, px in zip(ks, p.nu):
                    w = w * px**kx / math.factorial(kx)
                if w > 0:
                    opts.append((ks, w))
        per_class.append(opts)
    masses = []
    sums = {(d, x): [] for d, _ in classes for x in range(n_x)}
    for combo in itertools.product(*per_class):
        t = sum(d * sum(k * h for k, h in zip(ks, p.hfun))
                for (d, _), (ks, _) in zip(classes, combo)) / n
        if t > threshold + TIE_TOL:
            w = math.prod(wk for _, wk in combo)
            masses.append(w)
            for (d, _), (ks, _) in zip(classes, combo):
                for x, k in enumerate(ks):
                    sums[(d, x)].append(w * k)
    mass = math.fsum(masses)
    means = {cell: math.fsum(v) / mass for cell, v in sums.items()} if mass else {}
    return mass, means


def check_exact_tables(p, n):
    threshold = p.c - p.delta
    law = gibbs._count_law(p, degree_classes(p, n), n, threshold)
    assert law is not None
    mass, means = enumerate_conditional(p, n, threshold)
    assert law.mass == pytest.approx(mass, abs=1e-12)
    if mass > 0:
        assert set(law.cell_means) == set(means)
        for cell, m in means.items():
            assert law.cell_means[cell] == pytest.approx(m, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_problems(), st.integers(2, 12))
def test_exact_tables_match_enumeration(p, n):
    check_exact_tables(p, n)


def test_exact_tables_decimal_h():
    # 0.1 and 0.3 have no common binary lattice; read as 1/10 and 3/10
    p = GibbsProblem(DegreeLaw({1: 0.5, 2: 0.5}), (0.2, 0.5, 0.3),
                     (0.0, 0.1, 0.3), 0.3, 0.02)
    check_exact_tables(p, 10)
    assert gibbs._lattice(p.hfun)[1:] == (Fraction(1, 10), [0, 1, 3])


def test_compositions_enumerate_once():
    comps = gibbs._compositions(5, 3)
    assert comps.shape == (21, 3)
    assert (comps.sum(axis=1) == 5).all() and (comps >= 0).all()
    assert len({tuple(r) for r in comps}) == 21
    assert gibbs._compositions(4, 1).tolist() == [[4]]


def test_compositions_are_in_lexicographic_order():
    for c in range(7):
        for k in range(1, 5):
            assert [tuple(r) for r in gibbs._compositions(c, k).tolist()] == lex_compositions(c, k)


def check_batched_draws(law, n_x, seed, samples, min_accepted):
    """The batched draws of ``_sample_exact`` against the per-value oracle:
    the same results, and the generator left in the same state."""
    a, b = make_rng(seed), make_rng(seed)
    got = gibbs._sample_exact(law, a, samples, min_accepted, n_x)
    assert got == per_value_sample_exact(law, b, samples, min_accepted, n_x)
    assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
    return got


@st.composite
def count_laws(draw):
    """A small ``_CountLaw`` with positive acceptance mass: up to three
    degree classes (degree 0 included), up to four marks (some with nu = 0,
    some with equal h, so that lattice sums repeat) and any threshold."""
    degs = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    deg_w = [draw(st.integers(1, 5)) for _ in degs]
    nu_w = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4).filter(any))
    nu = tuple(w / sum(nu_w) for w in nu_w)
    hfun = tuple(draw(st.lists(st.integers(0, 3), min_size=len(nu), max_size=len(nu))))
    p = GibbsProblem(DegreeLaw({d: w / sum(deg_w) for d, w in zip(degs, deg_w)}), nu, hfun, 0.0)
    n = draw(st.integers(1, 14))
    top = max(degs) * max(hfun)
    law = gibbs._count_law(p, degree_classes(p, n), n, draw(st.floats(-0.5, top + 0.5)))
    assume(law is not None and law.mass > 0)
    return law, len(nu)


@given(count_laws(), st.integers(0, 2**32 - 1),
       st.sampled_from((1, 40, 10**4, 10**12)), st.none() | st.integers(1, 3000))
@settings(max_examples=150, deadline=None)
def test_batched_draws_equal_per_value_draws(law_and_marks, seed, samples, min_accepted):
    law, n_x = law_and_marks
    check_batched_draws(law, n_x, seed, samples, min_accepted)


@pytest.mark.parametrize("p, n", [
    # a degree-0 class: every lattice sum lies in its window, one wide row
    (GibbsProblem(DegreeLaw({0: 0.25, 2: 0.75}), (0.3, 0.3, 0.4), (0.0, 1.0, 2.0), 1.6), 8),
    # two marks: every sum has one composition, and the first class's rows
    # are one cell wide, so neither draws from the generator
    (canonical_problem(), 40),
    (two_class_problem(), 16),
    # three marks on two classes: wide rows and repeated lattice sums
    (GibbsProblem(DegreeLaw({1: 0.5, 3: 0.5}), (1 / 3, 1 / 3, 1 / 3), (0.0, 1.0, 2.0), 2.6), 40),
], ids=["degree-0", "one-class", "two-class", "generic"])
def test_batched_draws_on_named_cases(p, n):
    law = gibbs._count_law(p, degree_classes(p, n), n, p.c - p.delta)
    for seed in range(5):
        check_batched_draws(law, len(p.nu), seed, 10**12, 30_000)
        check_batched_draws(law, len(p.nu), seed, 10**6, None)


def test_batched_draws_with_zero_accepted_under_the_cap():
    # acceptance mass 2^-30 and 100 draws: no draw is accepted, so there is
    # no value of T to split and every cell sum is 0
    p = canonical_problem(c=1.99, delta=0.001)
    law = gibbs._count_law(p, degree_classes(p, 30), 30, p.c - p.delta)
    for seed in range(3):
        draws, accepted, sums, sqsums = check_batched_draws(law, 2, seed, 100, 10)
        assert (draws, accepted) == (100, 0)
        assert set(sums.values()) == set(sqsums.values()) == {0.0}


def test_tilt_table_and_lattice_are_read_once_per_problem(monkeypatch):
    # neither is built with the problem; solve builds the tilt table, the
    # first exact conditional MC the lattice, and later calls read both
    p = GENERIC_3MARK
    p = GibbsProblem(p.alpha, p.nu, p.hfun, p.c, p.delta)
    assert "_tilt" not in vars(p) and "_h_lattice" not in vars(p)
    lattices = []
    original = gibbs._lattice
    monkeypatch.setattr(gibbs, "_lattice", lambda h: lattices.append(h) or original(h))
    s = solve(p)
    assert "_tilt" in vars(p) and lattices == []
    for n in (20, 40):
        conditional_mc(p, n, 10**6, make_rng(7, n), solution=s)
    assert lattices == [[0.0, 1.0, 2.0]]


GENERIC_3MARK = GibbsProblem(DegreeLaw({1: 0.5, 3: 0.5}), (1 / 3, 1 / 3, 1 / 3),
                             (0.0, 1.0, 2.0), 2.6, 0.05)


@pytest.mark.parametrize("p, n", [
    (canonical_problem(), 20),
    (canonical_problem(), 80),
    (GENERIC_3MARK, 20),
    (GENERIC_3MARK, 40),
], ids=["c07-20", "c07-80", "generic-20", "generic-40"])
def test_count_law_weights_match_the_gammaln_oracle(p, n):
    # the log-factorial table sums the same terms as scipy's gammaln, each
    # rounded differently: the weights agree to rounding
    law = gibbs._count_law(p, degree_classes(p, n), n, p.c - p.delta)
    oracle = gammaln_count_weights(law, p.nu)
    assert len(law.weights) == len(oracle) == len(law.classes)
    for w, ref in zip(law.weights, oracle):
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p, n", [
    (canonical_problem(), 20),
    (two_class_problem(), 16),
    (GENERIC_3MARK, 20),
    # lattice sums 0, 2, ..., 9 with 6 reached twice and 1 never
    (GibbsProblem(DegreeLaw({2: 1.0}), (0.3, 0.3, 0.4), (0.0, 2.0, 3.0), 3.9), 3),
    # isolated vertices: the degree-0 class leaves T unchanged
    (GibbsProblem(DegreeLaw({0: 0.25, 2: 0.75}), (0.5, 0.5), (0.0, 1.0), 1.2), 8),
])
def test_exact_path_agrees_with_rejection_oracle(p, n):
    s = solve(p)
    new = conditional_mc(p, n, 400_000, make_rng(211, n), solution=s)
    old = rejection_conditional_mc(p, n, 400_000, make_rng(223, n), solution=s)
    assert new.exact_joint_tv is not None and old.exact_joint_tv is None
    assert new.fast_path == old.fast_path
    assert new.draws == old.draws == 400_000
    rate = old.acceptance_rate
    assert new.acceptance_rate == pytest.approx(
        rate, abs=5 * math.sqrt(2 * rate * (1 - rate) / new.draws))
    for cell, w in old.joint_emp.items():
        se = math.hypot(new.joint_se, old.joint_se)
        assert new.joint_emp[cell] == pytest.approx(w, abs=5 * se + 1e-12)
    for x, w in old.leaf_emp.items():
        se = math.hypot(new.leaf_se, old.leaf_se)
        assert new.leaf_emp[x] == pytest.approx(w, abs=5 * se + 1e-12)


def check_fallback_matches_enumeration(p, n, seed):
    s = solve(p)
    rep = conditional_mc(p, n, 300_000, make_rng(seed), solution=s)
    assert rep.exact_joint_tv is None and rep.exact_leaf_tv is None
    assert rep.draws == 300_000
    mass, means = enumerate_conditional(p, n, p.c - p.delta)
    assert rep.acceptance_rate == pytest.approx(
        mass, abs=5 * math.sqrt(mass / rep.draws))
    for cell, m in means.items():
        assert rep.joint_emp[cell] == pytest.approx(m / n, abs=5 * rep.joint_se + 1e-12)


def test_non_lattice_h_falls_back_to_rejection():
    p = GibbsProblem(DegreeLaw({2: 1.0}), (1 / 3, 1 / 3, 1 / 3),
                     (0.0, 1.0, math.sqrt(2.0)), 2.2, 0.05)
    assert gibbs._count_law(p, degree_classes(p, 12), 12, 2.15) is None
    check_fallback_matches_enumeration(p, 12, 229)


def test_over_budget_falls_back_to_rejection(monkeypatch):
    p = two_class_problem()
    monkeypatch.setattr(gibbs, "EXACT_TABLE_BUDGET", 10)
    check_fallback_matches_enumeration(p, 16, 233)


@pytest.mark.parametrize("p, n", [(canonical_problem(delta=2.0), 20),
                                  (GibbsProblem(DegreeLaw({1: 0.5, 3: 0.5}),
                                                (0.2, 0.3, 0.5), (0.0, 1.0, 2.0),
                                                3.0, 3.5), 12)])
def test_exact_path_accepts_everything(p, n):
    rep = conditional_mc(p, n, 10**9, make_rng(239), min_accepted=1000)
    assert rep.acceptance_rate == 1.0
    assert rep.draws == rep.accepted == 1000
    # unconditioned means: every cell count is c * nu(x)
    classes = degree_classes(p, n)
    joint = {(d, x): c * w / n for d, c in classes for x, w in enumerate(p.nu)}
    s = solve(p)
    assert rep.exact_joint_tv == pytest.approx(tv_distance(joint, s.gamma), abs=1e-12)


def test_infinite_slack_accepts_everything():
    p = canonical_problem()
    rep = conditional_mc(p, 20, 1000, make_rng(271), delta=math.inf)
    assert rep.acceptance_rate == 1.0 and rep.accepted == 1000


def test_exact_path_zero_accepted_under_cap_raises():
    # acceptance mass 2^-30: the draw cap is hit with no accepted draw
    p = canonical_problem(c=1.99, delta=0.001)
    with pytest.raises(RuntimeError, match="zero accepted"):
        conditional_mc(p, 30, 100_000, make_rng(241), min_accepted=10)


def test_exact_path_empty_support_raises():
    # threshold 2.45 lies above every attainable mean h-sum (at most 2)
    p = canonical_problem(c=2.5)
    with pytest.raises(RuntimeError, match="empty support"):
        conditional_mc(p, 20, 1000, make_rng(251), solution=solve(canonical_problem()))


def test_samples_cap_before_min_accepted():
    p = canonical_problem()
    mass, _ = enumerate_conditional(p, 20, p.c - p.delta)
    rep = conditional_mc(p, 20, 100_000, make_rng(257), min_accepted=10**6)
    assert rep.draws == 100_000
    assert 0 < rep.accepted < 10**6
    assert rep.acceptance_rate == pytest.approx(
        mass, abs=5 * math.sqrt(mass / rep.draws))


def test_min_accepted_stops_at_first_hitting_draw():
    p = two_class_problem()
    mass, _ = enumerate_conditional(p, 16, p.c - p.delta)
    reps = [conditional_mc(p, 16, 10**12, make_rng(263, i), min_accepted=200)
            for i in range(200)]
    assert all(r.accepted == 200 for r in reps)
    # draws - 200 is negative binomial: mean 200 (1 - P) / P
    mean = float(np.mean([r.draws for r in reps]))
    sd = math.sqrt(200 * (1 - mass)) / mass / math.sqrt(len(reps))
    assert mean == pytest.approx(200 / mass, abs=5 * sd)


def test_rejection_path_stops_at_first_hitting_draw():
    # h = (0, 1, sqrt 2) has no common lattice, so draws are rejected in
    # batches; the accepted count used to run on to the end of the batch
    p = GibbsProblem(DegreeLaw({2: 1.0}), (1 / 3, 1 / 3, 1 / 3),
                     (0.0, 1.0, math.sqrt(2.0)), 2.2)
    mass, _ = enumerate_conditional(p, 20, p.c - p.delta)
    s = solve(p)
    reps = [conditional_mc(p, 20, 20_000, make_rng(281, i), min_accepted=10, solution=s)
            for i in range(200)]
    assert all(r.exact_joint_tv is None and r.accepted == 10 for r in reps)
    # draws - 10 is negative binomial: mean 10 (1 - P) / P
    mean = float(np.mean([r.draws for r in reps]))
    sd = math.sqrt(10 * (1 - mass)) / mass / math.sqrt(len(reps))
    assert mean == pytest.approx(10 / mass, abs=5 * sd)


def test_joint_and_leaf_sums_each_leaf_weight_exactly():
    # with three degree classes a running sum in class order rounds mark 0's
    # weight up in its last bit; each leaf weight is the per-mark fsum
    classes = [(1, 3), (2, 5), (3, 7)]
    total_deg = sum(d * c for d, c in classes)
    cell_means = {(1, 0): 2.637, (1, 1): 0.363, (2, 0): 0.68, (2, 1): 4.32,
                  (3, 0): 6.758, (3, 1): 0.242}
    joint, leaf = gibbs._joint_and_leaf(cell_means, 15, classes)
    assert joint == {cell: m / 15 for cell, m in cell_means.items()}
    assert list(leaf) == [0, 1]
    for x in (0, 1):
        terms = [d * m / total_deg for (d, xx), m in cell_means.items() if xx == x]
        assert leaf[x].hex() == math.fsum(terms).hex()
    assert leaf[0] != (2.637 / total_deg + 2 * 0.68 / total_deg) + 3 * 6.758 / total_deg


def test_min_accepted_must_be_positive():
    with pytest.raises(ValueError, match="min_accepted"):
        conditional_mc(canonical_problem(), 20, 100, make_rng(1), min_accepted=0)


def test_exact_tv_decreases_and_matches_sampled_tv():
    p = canonical_problem()
    s = solve(p)
    reps = [conditional_mc(p, n, 20_000_000_000, make_rng(269, i),
                           min_accepted=100_000, solution=s)
            for i, n in enumerate((20, 40, 80))]
    exact = [r.exact_joint_tv for r in reps]
    assert all(b < a for a, b in zip(exact, exact[1:]))
    leaf = [r.exact_leaf_tv for r in reps]
    assert all(b < a for a, b in zip(leaf, leaf[1:]))
    for r in reps:
        assert r.joint_tv == pytest.approx(r.exact_joint_tv, abs=5 * r.joint_se)
        assert r.leaf_tv == pytest.approx(r.exact_leaf_tv, abs=5 * r.leaf_se)
    obj = reps[0].to_obj()
    assert obj["exact_joint_tv"] == exact[0] and obj["exact_leaf_tv"] == leaf[0]
