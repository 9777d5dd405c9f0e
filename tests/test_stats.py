import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import chi2

from cdexchange import (
    BinnedLaw,
    BinningMismatch,
    ConvergenceTally,
    DegenerateParameters,
    DirichletSpec,
    EmptySample,
    HistogramBinning,
    SimulationPlan,
    TooFewSamples,
    binned_law,
    binned_tv,
    convergence_report,
    default_binning,
    derived_rng,
    dirichlet_moments,
    good_spec,
    marginal_ks,
    moment_z_scores,
    run_ensemble,
    sample_dirichlet,
    validate_plan,
)

from cdexchange import stats
from cdexchange.simulate import _BLOCK
from util import ensemble_samples, make_config, report_of, uniform_config

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


# ---------------------------------------------------------------- moments

def test_moments_symmetric_oracle():
    spec = DirichletSpec(np.ones(3), 1.0)
    mean, cov = dirichlet_moments(spec)
    assert np.allclose(mean, 1.0 / 3.0, rtol=0, atol=1e-15)
    assert np.allclose(np.diag(cov), 1.0 / 18.0, rtol=1e-14)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -1.0 / 36.0, rtol=1e-14)


def test_moments_two_agent_oracle():
    a, b, g = 1.5, 0.5, 2.0
    spec = DirichletSpec(np.array([a, b]), g)
    mean, cov = dirichlet_moments(spec)
    s = a + b
    assert math.isclose(mean[0], g * a / s, rel_tol=1e-14)
    assert math.isclose(cov[0, 0], g * g * a * b / (s * s * (s + 1)), rel_tol=1e-14)
    assert math.isclose(cov[0, 1], -cov[0, 0], rel_tol=1e-14)


def test_moments_cov_structure():
    spec = DirichletSpec(np.array([0.4, 1.1, 2.7, 0.9]), 3.0)
    _, cov = dirichlet_moments(spec)
    assert np.allclose(cov, cov.T, rtol=0, atol=0)
    # mass conservation kills one direction
    assert np.allclose(cov.sum(axis=1), 0.0, atol=1e-15)
    w = np.linalg.eigvalsh(cov)
    assert w.min() > -1e-15
    assert np.sum(w > 1e-12) == 3


def test_moments_match_monte_carlo():
    spec = DirichletSpec(np.array([1.3, 0.9, 2.2]), 1.0)
    pts = sample_dirichlet(spec, derived_rng(11, 3, 0), size=200_000)
    z = moment_z_scores(pts, spec)
    assert np.abs(z).max() < 4.0


# ---------------------------------------------------------------- marginal KS

def test_marginal_ks_null_uniformity():
    # under the true law the p-value is (asymptotically) uniform
    spec = DirichletSpec(np.array([1.2, 0.8, 1.0]), 1.0)
    rng = derived_rng(5, 3, 1)
    pvals = np.empty(200)
    for r in range(200):
        x = sample_dirichlet(spec, rng, size=400)[:, 0]
        pvals[r] = marginal_ks(x, 1.2, 3.0, 1.0).pvalue
    assert np.sum(pvals < 0.01) <= 7
    assert abs(pvals.mean() - 0.5) < 0.12


def test_marginal_ks_binned_frequencies():
    # independent route: bin counts against betainc increments
    spec = DirichletSpec(np.array([1.3, 0.9, 2.2]), 1.0)
    x = sample_dirichlet(spec, derived_rng(6, 3, 2), size=200_000)[:, 0]
    edges = np.linspace(0.0, 1.0, 41)
    expected = np.diff(betainc(1.3, 4.4 - 1.3, edges)) * x.size
    observed, _ = np.histogram(x, bins=edges)
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, 39)


def test_marginal_ks_arcsine():
    rng = derived_rng(7, 3, 3)
    x = rng.beta(0.5, 0.5, size=50_000)
    res = marginal_ks(x, 0.5, 1.0, 1.0)
    assert res.pvalue > 0.01
    assert 0.0 <= res.statistic <= 1.0


def test_marginal_ks_rejects_point_mass():
    x = np.full(1000, 0.5)
    res = marginal_ks(x, 1.0, 2.0, 1.0)
    assert res.statistic >= 0.4
    assert res.pvalue < 1e-6


def test_marginal_ks_scaled_total():
    rng = derived_rng(8, 3, 4)
    x = 3.0 * rng.beta(2.0, 1.0, size=20_000)
    assert marginal_ks(x, 2.0, 3.0, 3.0).pvalue > 0.01


def test_marginal_ks_given_cdf_matches_on_ties():
    # 600 samples on 25 distinct values: every value is tied many times
    rng = derived_rng(9, 3, 5)
    levels = 2.0 * rng.beta(1.5, 2.5, size=25)
    x = rng.choice(levels, size=600)
    cdf = betainc(1.5, 2.5, np.clip(x / 2.0, 0.0, 1.0))
    plain = marginal_ks(x, 1.5, 4.0, 2.0)
    given = marginal_ks(x, 1.5, 4.0, 2.0, cdf=cdf)
    assert given.statistic == plain.statistic
    assert given.pvalue == plain.pvalue
    with pytest.raises(ValueError):
        marginal_ks(x, 1.5, 4.0, 2.0, cdf=cdf[:-1])


def test_marginal_ks_errors():
    good = np.linspace(0.01, 0.99, 100)
    with pytest.raises(EmptySample):
        marginal_ks(np.array([]), 1.0, 2.0, 1.0)
    with pytest.raises(TooFewSamples):
        marginal_ks(good[:10], 1.0, 2.0, 1.0)
    with pytest.raises(DegenerateParameters):
        marginal_ks(good, 0.0, 2.0, 1.0)
    with pytest.raises(DegenerateParameters):
        marginal_ks(good, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        marginal_ks(good + 1.0, 1.0, 2.0, 1.0)


# ---------------------------------------------------------------- binned TV

def test_binned_tv_identical_is_zero():
    x = derived_rng(9, 3, 5).random((1000, 2))
    b = HistogramBinning(np.zeros(2), np.ones(2), 8)
    assert binned_tv(x, x, b) == 0.0


def test_binned_tv_disjoint_is_one():
    b = HistogramBinning([0.0], [1.0], 2)
    lo = np.linspace(0.0, 0.49, 500)
    hi = np.linspace(0.51, 1.0, 500)
    assert binned_tv(lo, hi, b) == 1.0


def test_binned_tv_shifted_uniform():
    # U[0,1] vs U[0.5,1.5]: true TV is exactly 1/2 and the bin edges
    # align with the crossing, so the binned value is unbiased
    rng = derived_rng(10, 3, 6)
    a = rng.random(100_000)
    bsamp = rng.random(100_000) + 0.5
    binning = HistogramBinning([0.0], [1.5], 30)
    tv = binned_tv(a, bsamp, binning)
    assert abs(tv - 0.5) < 0.02


def test_binned_tv_beta_vs_uniform():
    # density 2x vs 1 on [0,1]: TV = 0.25 with the crossing on an edge
    rng = derived_rng(11, 3, 7)
    a = np.sqrt(rng.random(100_000))
    u = rng.random(100_000)
    binning = HistogramBinning([0.0], [1.0], 20)
    assert abs(binned_tv(a, u, binning) - 0.25) < 0.02


def test_binned_tv_marginal_mode():
    rng = derived_rng(12, 3, 8)
    a = rng.random((40_000, 4))
    b = rng.random((40_000, 4))
    b[:, 2] = 0.5 * b[:, 2]  # squeeze one coordinate
    binning = HistogramBinning(np.zeros(4), np.ones(4), 16, mode="marginal")
    moved = binned_tv(a, b, binning)
    null = binned_tv(a, rng.random((40_000, 4)), binning)
    assert moved > 0.4
    assert null < 0.05


def test_binned_tv_joint_cell_guard():
    b = HistogramBinning(np.zeros(4), np.ones(4), 64)
    x = np.full((10, 4), 0.5)
    with pytest.raises(BinningMismatch):
        binned_tv(x, x, b)


def test_binned_tv_errors():
    b = HistogramBinning(np.zeros(2), np.ones(2), 4)
    pts = np.full((5, 2), 0.5)
    with pytest.raises(EmptySample):
        binned_tv(np.empty((0, 2)), pts, b)
    with pytest.raises(BinningMismatch):
        binned_tv(np.full((5, 3), 0.5), pts, b)
    with pytest.raises(BinningMismatch):
        binned_tv(np.full((5, 2, 2), 0.5), pts, b)


def test_binning_validation():
    with pytest.raises(BinningMismatch):
        HistogramBinning([0.0, 0.0], [1.0], 4)
    with pytest.raises(BinningMismatch):
        HistogramBinning([0.0], [0.0], 4)
    with pytest.raises(BinningMismatch):
        HistogramBinning([0.0], [1.0], 0)
    with pytest.raises(BinningMismatch):
        HistogramBinning([0.0], [1.0], 4, mode="typo")
    with pytest.raises(BinningMismatch):
        HistogramBinning([], [], 4)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    b=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    c=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
def test_binned_tv_metric_properties(a, b, c):
    binning = HistogramBinning([0.0], [1.0], 4)
    dab = binned_tv(a, b, binning)
    assert 0.0 <= dab <= 1.0
    assert dab == binned_tv(b, a, binning)
    assert dab <= binned_tv(a, c, binning) + binned_tv(c, b, binning) + 1e-12


# ---------------------------------------------------------------- binned law

@settings(max_examples=40, deadline=None)
@given(
    alphas=st.lists(st.floats(0.3, 3.0), min_size=2, max_size=6),
    total=st.floats(0.1, 10.0),
    n_samples=st.integers(1, 30_000),
    marginal=st.booleans(),
)
def test_binned_law_masses_are_a_law(alphas, total, n_samples, marginal):
    spec = DirichletSpec(np.array(alphas), total)
    binning = default_binning(n_samples, np.full(len(alphas), total))
    if marginal:
        binning = HistogramBinning(binning.lower, binning.upper, binning.bins, "marginal")
    law = binned_law(spec, binning)
    rows = len(alphas) if binning.mode == "marginal" else 1
    cells = binning.bins if binning.mode == "marginal" else binning.bins ** len(alphas)
    assert law.masses.shape == (rows, cells)
    assert law.masses.min() >= 0.0
    np.testing.assert_allclose(law.masses.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def _mc_tv_bound(law, n, level=1e-6):
    # E[TV] <= 0.5 * sum_cells sqrt(p (1 - p) / n) <= 0.5 * sqrt(K / n) over
    # the K cells of nonzero mass (Cauchy-Schwarz); one point moves a row's
    # TV by at most 1/n, so it exceeds its mean by eps with probability at
    # most exp(-2 n eps^2) (McDiarmid), union-bounded over the rows.
    rows = law.masses.shape[0]
    k = (law.masses > 0.0).sum(axis=1).max()
    return 0.5 * math.sqrt(k / n) + math.sqrt(math.log(rows / level) / (2 * n))


@pytest.mark.parametrize("alphas, total", [
    ([0.4, 2.2], 2.0),                # joint, 1-D slice
    ([0.35, 1.3, 2.6], 1.5),          # joint, 2-D slice
    ([0.4, 0.8, 2.0, 0.3], 1.0),      # marginal
])
def test_binned_law_matches_monte_carlo(alphas, total):
    n = 2_000_000
    spec = DirichletSpec(np.array(alphas), total)
    binning = default_binning(8000, np.full(len(alphas), total))
    x = sample_dirichlet(spec, derived_rng(21, 3, len(alphas)), size=n)
    law = binned_law(spec, binning)
    bound = _mc_tv_bound(law, n)
    assert binned_tv(x, law, binning) <= bound
    # a law with the exponents permuted is told apart
    wrong = binned_law(DirichletSpec(np.array(alphas[::-1]), total), binning)
    assert binned_tv(x, wrong, binning) > 10 * bound


def test_binned_law_two_coordinates_is_beta_cdf_differences():
    a, b, total, bins = 0.45, 1.7, 3.0, 13
    law = binned_law(DirichletSpec(np.array([a, b]), total),
                     HistogramBinning(np.zeros(2), np.full(2, total), bins))
    cells = law.masses.reshape(bins, bins)
    edges = betainc(a, b, np.arange(bins + 1) / bins)
    # x_2 = total - x_1, so x_1's bin i is the cell (i, bins - 1 - i)
    np.testing.assert_allclose(np.diag(cells[:, ::-1]), np.diff(edges), rtol=0, atol=1e-14)
    assert cells.sum() - np.trace(cells[:, ::-1]) == 0.0


def _mp_cell(alphas, bins, cell):
    """Mass of one joint cell of a 3-coordinate Dirichlet law on the unit
    simplex, from mpmath: a quadrature over x_1 of mpmath's incomplete
    Beta function over the x_2-interval that the cell cuts out."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        a1, a2, a3 = (mp.mpf(a) for a in alphas)
        w = mp.mpf(1) / bins
        i1, i2, i3 = cell

        def density(x1):
            r = 1 - x1
            lo = max(i2 * w, r - (i3 + 1) * w, 0)
            hi = min((i2 + 1) * w, r - i3 * w, r)
            if hi <= lo:
                return mp.mpf(0)
            return (x1 ** (a1 - 1) * r ** (a2 + a3 - 1) / mp.beta(a1, a2 + a3)
                    * mp.betainc(a2, a3, lo / r, hi / r, regularized=True))

        lo, hi = i1 * w, (i1 + 1) * w
        kinks = [1 - k * w for k in range(bins + 2) if lo < 1 - k * w < hi]
        return float(mp.quad(density, [lo] + kinks + [hi]))


@pytest.mark.parametrize("alphas", [(0.4, 0.7, 2.6), (2.2, 1.5, 0.35)])
def test_binned_law_three_coordinates_matches_mpmath(alphas):
    bins = 5
    law = binned_law(DirichletSpec(np.array(alphas), 1.0),
                     HistogramBinning(np.zeros(3), np.ones(3), bins))
    cells = law.masses.reshape(bins, bins, bins)
    for cell in [(0, 1, 3), (0, 4, 0), (1, 1, 2), (2, 0, 1), (3, 0, 0), (4, 0, 0)]:
        assert abs(cells[cell] - _mp_cell(alphas, bins, cell)) <= 1e-9, cell
    # a cell off the slice x_1 + x_2 + x_3 = 1 has no mass
    assert cells[1, 2, 2] == 0.0


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 2.0, 49.0, 1000.0])
def test_gauss_jacobi_rule_matches_scipy(alpha):
    from scipy.special import roots_jacobi

    nodes, weights = stats._gauss_jacobi(stats._LAW_NODES, alpha)
    ref_nodes, ref_weights = roots_jacobi(stats._LAW_NODES, alpha, 0.0)
    order = np.argsort(nodes)
    np.testing.assert_allclose(nodes[order], ref_nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights[order] / weights.sum(),
                               ref_weights / ref_weights.sum(), rtol=1e-11)


def test_binned_law_errors():
    spec = DirichletSpec(np.array([0.5, 1.0, 2.0]), 1.0)
    joint = HistogramBinning(np.zeros(3), np.ones(3), 8)
    law = binned_law(spec, joint)
    assert isinstance(law, BinnedLaw)
    x = sample_dirichlet(spec, derived_rng(22, 3, 0), size=100)
    assert binned_tv(x, law, HistogramBinning(np.zeros(3), np.ones(3), 8)) == binned_tv(x, law, joint)
    for other in (HistogramBinning(np.zeros(3), np.ones(3), 9),
                  HistogramBinning(np.zeros(3), np.ones(3), 8, "marginal"),
                  HistogramBinning(np.zeros(3), np.full(3, 2.0), 8)):
        with pytest.raises(BinningMismatch):
            binned_tv(x, law, other)
    with pytest.raises(BinningMismatch):  # a law of other coordinates
        binned_law(spec, HistogramBinning(np.zeros(2), np.ones(2), 8))
    with pytest.raises(BinningMismatch):  # a joint axis off [0, total]
        binned_law(spec, HistogramBinning(np.zeros(3), np.full(3, 2.0), 8))
    with pytest.raises(BinningMismatch):  # joint above 3 coordinates
        binned_law(DirichletSpec(np.ones(4), 1.0),
                   HistogramBinning(np.zeros(4), np.ones(4), 4))
    with pytest.raises(EmptySample):
        binned_tv(np.empty((0, 3)), law, joint)


def test_default_binning_rules():
    assert default_binning(1000, [1.0]).bins == 10
    assert default_binning(300_000, [1.0]).bins == 64
    assert default_binning(1, [1.0]).bins == 1
    assert default_binning(1000, [1.0, 1.0, 1.0]).mode == "joint"
    assert default_binning(1000, [1.0] * 4).mode == "marginal"
    b = default_binning(1000, [2.0, 3.0])
    assert np.array_equal(b.lower, [0.0, 0.0])
    assert np.array_equal(b.upper, [2.0, 3.0])


# ---------------------------------------------------------------- z-scores

def _loop_moment_z_scores(points, spec):
    """The coordinate-by-coordinate z-scores, kept as an oracle for the
    vectorized ``moment_z_scores``."""
    x = np.asarray(points, dtype=float)
    n, d = x.shape
    t_mean, t_cov = dirichlet_moments(spec)
    c = x - x.mean(axis=0)
    zs = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(d):
            se = c[:, i].std(ddof=1) / math.sqrt(n)
            diff = x[:, i].mean() - t_mean[i]
            zs.append(diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf))
        for i in range(d):
            v = (c[:, i] ** 2).sum() / (n - 1)
            m4 = (c[:, i] ** 4).mean()
            se = math.sqrt(max(m4 - v * v, 0.0) / n)
            diff = v - t_cov[i, i]
            zs.append(diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf))
        for i in range(d):
            for j in range(i + 1, d):
                cv = (c[:, i] * c[:, j]).sum() / (n - 1)
                m22 = ((c[:, i] * c[:, j]) ** 2).mean()
                se = math.sqrt(max(m22 - cv * cv, 0.0) / n)
                diff = cv - t_cov[i, j]
                zs.append(diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf))
    return np.asarray(zs)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 7),
    n=st.sampled_from([2, 3, 50, 1000, 9000]),
    seed=st.integers(0, 2**32 - 1),
    frozen=st.integers(0, 3),
)
def test_moment_z_scores_match_loop_oracle(d, n, seed, frozen):
    rng = np.random.default_rng(seed)
    spec = DirichletSpec(rng.uniform(0.3, 3.0, d), float(rng.uniform(0.5, 4.0)))
    pts = sample_dirichlet(spec, rng, size=n)
    # constant coordinates take the zero-SE branch
    pts[:, :frozen] = spec.total / d
    z = moment_z_scores(pts, spec)
    ref = _loop_moment_z_scores(pts, spec)
    assert z.shape == ref.shape == (d + d + d * (d - 1) // 2,)
    # means and covariances are the same arithmetic; the variance SE uses
    # (c^2)^2 where the loop took c**4, which may differ in the last bits
    assert np.array_equal(z[:d], ref[:d])
    assert np.array_equal(z[2 * d:], ref[2 * d:])
    np.testing.assert_allclose(z[d:2 * d], ref[d:2 * d], rtol=1e-12, atol=0)


def test_moment_z_scores_shape_and_shift():
    spec = DirichletSpec(np.ones(3), 1.0)
    pts = sample_dirichlet(spec, derived_rng(13, 3, 9), size=50_000)
    z = moment_z_scores(pts, spec)
    assert z.shape == (9,)  # 3 means, 3 variances, 3 covariances
    assert np.abs(z).max() < 4.0
    shifted = pts.copy()
    shifted[:, 0] += 0.05
    assert moment_z_scores(shifted, spec)[0] > 10.0


def test_moment_z_scores_errors():
    spec = DirichletSpec(np.ones(3), 1.0)
    with pytest.raises(BinningMismatch):
        moment_z_scores(np.full((10, 2), 0.5), spec)
    with pytest.raises(TooFewSamples):
        moment_z_scores(np.full((1, 3), 1 / 3), spec)


# ---------------------------------------------------------------- reports

def _small_plan(initial_state, n_traj=800, times=(0.0, 1.0), seed=41, n_goods=1):
    return validate_plan(
        SimulationPlan(
            cfg=uniform_config(3, n_goods=n_goods, seed=seed),
            t_end=float(times[-1]),
            sample_times=np.array(times, dtype=float),
            n_trajectories=n_traj,
            initial_state=initial_state,
        )
    )


def test_convergence_report_at_equilibrium():
    rep = report_of(_small_plan("equilibrium"))
    bound = rep.baseline_tv_mean + np.maximum(6.0 * rep.baseline_tv_std, 0.06)
    assert (rep.tv <= bound[None, :]).all()
    assert (rep.ks_pvalue > 1e-4).all()
    assert rep.max_moment_z.max() < 5.0
    assert rep.binning_modes == ["joint"]


def test_convergence_report_flags_point_mass():
    # at t=0 every trajectory sits on the same deterministic point, so the
    # empirical law is a point mass however the endowments are placed
    rep = report_of(_small_plan("endowments", times=(0.0, 2.0)))
    assert rep.tv[0, 0] > 0.9          # t=0 degenerate vs stationary
    assert rep.ks_pvalue[0].max() < 1e-6
    assert rep.max_moment_z[0] > 10.0
    assert rep.tv[1, 0] < rep.tv[0, 0]  # later snapshot has moved toward it


@pytest.mark.parametrize(
    "initial_state, n_traj",
    [("equilibrium", 300), ("endowments", 300), ("equilibrium", _BLOCK + 60)],
)
def test_convergence_report_ks_matches_plain_marginal_ks(initial_state, n_traj):
    # close sample times: most holdings do not change between two of them,
    # so the report reuses most CDF values; an endowment start ties every
    # value at t=0.  The moment z-scores are plain calls too.
    cfg = make_config(
        rates=[[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]],
        exponents=[[0.6, 1.4], [1.1, 0.8], [2.3, 1.0]],
        endowments=[[0.2, 1.5], [0.5, 0.5], [0.3, 1.0]],
        seed=17,
    )
    times = np.array([0.0, 0.02, 0.05, 0.05, 0.3, 1.0])
    plan = SimulationPlan(cfg, 1.0, times, n_traj, initial_state)
    samples = ensemble_samples(plan)
    rep = report_of(plan)
    for g in range(cfg.n_goods):
        spec = good_spec(cfg, g)
        for t in range(times.size):
            for i in range(cfg.n_agents):
                res = marginal_ks(samples[t, :, i, g], spec.alphas[i],
                                  spec.exponent_sum, spec.total)
                assert rep.ks_statistic[t, i, g] == res.statistic
                assert rep.ks_pvalue[t, i, g] == res.pvalue
    for t in range(times.size):
        assert rep.max_moment_z[t] == max(
            np.abs(moment_z_scores(samples[t, :, :, g], good_spec(cfg, g))).max()
            for g in range(cfg.n_goods))
    if n_traj > _BLOCK:
        assert report_of(plan, workers=2).to_json_dict() == rep.to_json_dict()


def test_convergence_report_draws_only_the_baseline(monkeypatch):
    # the per-time TV compares with the exact binned law and draws
    # nothing; the baseline draws one stationary sample per replicate
    plan = _small_plan("equilibrium", n_traj=300, times=(0.0, 0.1, 0.5), n_goods=2)
    draws = []
    real = stats.sample_dirichlet
    monkeypatch.setattr(stats, "sample_dirichlet",
                        lambda *a, **k: draws.append(a) or real(*a, **k))
    tally = ConvergenceTally(plan)
    run_ensemble(tally.plan, each=tally.add)
    assert draws == []
    rep = convergence_report(tally)
    assert len(draws) == stats._BASELINE_REPLICATES * plan.cfg.n_goods
    assert rep.baseline_replicates == stats._BASELINE_REPLICATES
    # at an equilibrium start every TV is one more draw of the baseline's law
    assert (rep.tv <= rep.baseline_tv_mean + 6.0 * rep.baseline_tv_std).all()


def test_convergence_report_needs_samples():
    # a tally that has not taken every sample time gives no report, and it
    # takes the sample times only in order
    plan = _small_plan("equilibrium", n_traj=40)
    tally = ConvergenceTally(plan)
    with pytest.raises(ValueError):
        convergence_report(tally)
    first = ensemble_samples(plan)[0]
    with pytest.raises(ValueError):
        tally.add(1, first)
    tally.add(0, first)
    with pytest.raises(ValueError):
        convergence_report(tally)


@pytest.mark.parametrize("consume", [run_ensemble, report_of])
def test_memory_does_not_grow_with_sample_times(consume):
    # A run holds a few slices of the ensemble, never one per sample time.
    def peak(n_times):
        plan = _small_plan("equilibrium", n_traj=2048, n_goods=2,
                           times=np.linspace(0.0, 1.0, n_times))
        tracemalloc.start()
        try:
            consume(plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    consume(_small_plan("equilibrium", n_traj=40))  # first-call imports
    assert peak(200) <= 1.5 * peak(2)


def test_convergence_report_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    rep = report_of(_small_plan("equilibrium", n_traj=120, times=(0.0, 0.5)))
    payload = rep.to_json_dict()
    schema = json.loads((SCHEMA_DIR / "convergence_report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    rebuilt = json.loads(json.dumps(payload))
    assert rebuilt == payload


def test_convergence_report_csv_round_trip(tmp_path):
    plan = _small_plan("equilibrium", n_traj=120, times=(0.0, 0.5))
    rep = report_of(plan)
    path = tmp_path / "conv.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# plan_digest: ")
    assert lines[1] == f"# seed: {plan.cfg.seed}"
    rows = list(csv.reader(lines[2:]))
    header, data = rows[0], rows[1:]
    assert header[0] == "sample_time"
    assert len(data) == 2
    for row in data:
        assert len(row) == len(header)
        vals = [float(v) for v in row]
        assert math.isfinite(vals[0])
    # repr round trip preserves the exact binary values
    assert float(data[1][2]) == rep.tv[1, 0]
