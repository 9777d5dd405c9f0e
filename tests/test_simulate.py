import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import ks_2samp, norm

from cdexchange import (
    AliasTable,
    SimulationPlan,
    State,
    check_state,
    derived_rng,
    marginal_ks,
    plan_digest,
    run_ensemble,
    simulate_trajectory,
    validate_plan,
)
from cdexchange import simulate
from cdexchange.economy import ConfigError
from cdexchange.simulate import _BLOCK, _embedded_batch, _pair_table

from util import KS_CRIT_1PCT, ensemble_samples, make_config, report_of, uniform_config


def small_plan(cfg, **kw):
    defaults = dict(
        cfg=cfg,
        t_end=2.0,
        sample_times=np.array([0.0, 1.0, 2.0]),
        n_trajectories=50,
    )
    defaults.update(kw)
    return SimulationPlan(**defaults)


# ---------------------------------------------------------------- streams

def test_derived_rng_deterministic_and_distinct():
    a = derived_rng(7, 0, 3).random(4)
    b = derived_rng(7, 0, 3).random(4)
    c = derived_rng(7, 0, 4).random(4)
    d = derived_rng(8, 0, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------- alias table

def test_alias_table_frequencies():
    w = np.array([1.0, 2.0, 4.0, 3.0])
    table = AliasTable(w)
    n = 200_000
    counts = np.bincount(table.draw_many(derived_rng(1, 0), n), minlength=4)
    p = w / w.sum()
    assert np.all(np.abs(counts - n * p) <= 3.0 * np.sqrt(n * p * (1 - p)))


def test_alias_table_scalar_draw_matches_law():
    w = np.array([1.0, 3.0])
    table = AliasTable(w)
    rng = derived_rng(2, 0)
    n = 40_000
    counts = np.bincount([table.draw(rng) for _ in range(n)], minlength=2)
    p = w / w.sum()
    assert np.all(np.abs(counts - n * p) <= 3.0 * np.sqrt(n * p * (1 - p)))


def test_alias_table_deterministic_construction():
    w = [0.2, 0.5, 0.1, 1.7, 0.0]
    a, b = AliasTable(w), AliasTable(w)
    assert np.array_equal(a.prob, b.prob) and np.array_equal(a.alias, b.alias)


def test_alias_table_validation():
    for bad in ([], [[1.0]], [-1.0, 2.0], [0.0, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            AliasTable(bad)


def test_pair_table_covers_upper_triangle():
    cfg = uniform_config(4)
    table, iu, ju = _pair_table(cfg)
    assert table.n == 6
    assert np.all(iu < ju)


# ---------------------------------------------------------------- plans

def test_validate_plan_normalizes():
    cfg = uniform_config(2)
    plan = validate_plan(small_plan(cfg, n_trajectories=np.int64(3)))
    assert isinstance(plan.n_trajectories, int)
    with pytest.raises(ValueError):
        plan.sample_times[0] = 5.0


def test_validate_plan_accepts_zero_t_end():
    cfg = uniform_config(2)
    plan = validate_plan(
        small_plan(cfg, t_end=0.0, sample_times=np.array([0.0]))
    )
    assert plan.t_end == 0.0


def test_validate_plan_errors():
    cfg = uniform_config(2)
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, t_end=-1.0))
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, sample_times=np.array([0.0, 3.0])))
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, sample_times=np.array([1.0, 0.5])))
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, sample_times=np.array([])))
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, n_trajectories=0))
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, initial_state="nowhere"))
    with pytest.raises(ConfigError):
        validate_plan(small_plan(cfg, initial_state=12))
    bad_state = State(np.array([[0.9], [0.9]]))
    with pytest.raises(ValueError):
        validate_plan(small_plan(cfg, initial_state=bad_state))


# ---------------------------------------------------------------- trajectories

def test_zero_time_snapshot_is_initial_state():
    cfg = uniform_config(3, n_goods=2)
    plan = small_plan(cfg, t_end=0.0, sample_times=np.array([0.0]))
    traj = simulate_trajectory(plan, 0)
    assert traj.n_events == 0
    assert np.array_equal(traj.holdings[0], cfg.endowments)


def test_trajectory_determinism():
    cfg = uniform_config(3, seed=99)
    plan = small_plan(cfg)
    a = simulate_trajectory(plan, 5)
    b = simulate_trajectory(plan, 5)
    c = simulate_trajectory(plan, 6)
    d = simulate_trajectory(plan, 5 + _BLOCK)
    assert np.array_equal(a.holdings, b.holdings)
    assert a.n_events == b.n_events and a.seed_used == b.seed_used
    assert not np.array_equal(a.holdings, c.holdings)
    # rows of one block share its stream; the next block has its own
    assert a.seed_used == c.seed_used
    assert a.seed_used != d.seed_used


def test_trajectory_index_validated():
    plan = small_plan(uniform_config(2))
    for bad in (-1, 1.0):
        with pytest.raises(ValueError):
            simulate_trajectory(plan, bad)


def test_block_of_one_matches_scalar_reference(monkeypatch):
    # With one row per block the lockstep kernel must reproduce a plain
    # event loop that makes the same draws in the same order, bit for bit.
    monkeypatch.setattr(simulate, "_BLOCK", 1)
    cfg = make_config(
        rates=[[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]],
        exponents=[[0.7, 2.0], [1.3, 0.4], [2.5, 1.0]],
        endowments=[[1.0, 0.2], [0.0, 0.3], [0.0, 0.5]],
        seed=5,
    )
    plan = validate_plan(
        small_plan(cfg, t_end=3.0, sample_times=np.array([0.0, 0.5, 0.5, 2.0, 3.0]),
                   n_trajectories=4)
    )
    traj = simulate_trajectory(plan, 3)

    alias, iu, ju = _pair_table(cfg)
    rng = derived_rng(cfg.seed, 0, 3)
    h = np.array(cfg.endowments)
    expected = np.empty_like(traj.holdings)
    t, ptr, n_events = 0.0, 0, 0
    while True:
        t_next = t + rng.standard_exponential(1)[0] / cfg.total_rate
        while ptr < plan.sample_times.size and plan.sample_times[ptr] < t_next:
            expected[ptr] = h
            ptr += 1
        if t_next > plan.t_end:
            break
        p = alias.draw_many(rng, 1)[0]
        i, j = iu[p], ju[p]
        x = rng.standard_gamma(cfg.exponents[i][None])[0]
        y = rng.standard_gamma(cfg.exponents[j][None])[0]
        pooled = h[i] + h[j]
        h[i] = pooled * (x / (x + y))
        h[j] = pooled - h[i]
        h[i] = pooled - h[j]
        n_events += 1
        t = t_next
    assert n_events == traj.n_events > 0
    assert np.array_equal(expected, traj.holdings)


def test_trajectory_conserves_goods():
    cfg = uniform_config(4, n_goods=2, alpha=0.5, total=3.0)
    plan = small_plan(cfg, t_end=20.0, sample_times=np.array([20.0]))
    traj = simulate_trajectory(plan, 0)
    check_state(cfg, State(traj.holdings[0]))


def test_event_count_mean():
    # total rate 1, horizon 5: the event count is Poisson(5)
    cfg = uniform_config(2, rate=1.0, seed=314)
    plan = small_plan(
        cfg, t_end=5.0, sample_times=np.array([5.0]), n_trajectories=2000
    )
    ens = run_ensemble(plan)
    mean = ens.event_counts.mean()
    assert abs(mean - 5.0) <= 0.15  # 3 sigma at this ensemble size


def test_one_step_is_exact_pair_dirichlet():
    # With two agents a single embedded step lands exactly in the
    # stationary law, whatever the starting point.
    cfg = make_config(
        rates=np.ones((2, 2)) - np.eye(2),
        exponents=[[1.5], [0.5]],
        endowments=[[1.0], [0.0]],
        seed=21,
    )
    n = 20_000
    start = np.tile([[0.97], [0.03]], (n, 1, 1))
    out = _embedded_batch(start, cfg, 1, derived_rng(cfg.seed, 12))
    res = marginal_ks(out[:, 0, 0], 1.5, 2.0, 1.0)
    assert res.statistic < KS_CRIT_1PCT / math.sqrt(n)


# ---------------------------------------------------------------- ensembles

def test_single_trajectory_ensemble_matches():
    cfg = uniform_config(3, seed=17)
    plan = small_plan(cfg, n_trajectories=1)
    ens = run_ensemble(plan)
    traj = simulate_trajectory(plan, 0)
    assert np.array_equal(ens.means, traj.holdings)
    assert np.array_equal(ensemble_samples(plan)[:, 0], traj.holdings)
    assert ens.event_counts[0] == traj.n_events


def test_ensemble_bit_identical_across_runs_and_workers():
    cfg = uniform_config(3, n_goods=2, seed=23)
    plan = small_plan(cfg, n_trajectories=600, initial_state="equilibrium")
    base = run_ensemble(plan)
    samples = ensemble_samples(plan)
    for workers in (1, 2, 8):
        again = run_ensemble(plan, workers=workers)
        assert np.array_equal(samples, ensemble_samples(plan, workers))
        assert np.array_equal(base.means, again.means)
        assert np.array_equal(base.variances, again.variances)
        assert np.array_equal(base.event_counts, again.event_counts)
    assert base.plan_digest == plan_digest(plan)


def test_multi_block_ensemble():
    # three blocks, the last one partial
    cfg = uniform_config(3, n_goods=2, alpha=0.7, seed=29)
    plan = small_plan(cfg, n_trajectories=2 * _BLOCK + 3, initial_state="equilibrium")
    base = run_ensemble(plan)
    samples = ensemble_samples(plan)
    for workers in (2, 8):
        again = run_ensemble(plan, workers=workers)
        assert np.array_equal(samples, ensemble_samples(plan, workers))
        assert np.array_equal(base.means, again.means)
        assert np.array_equal(base.variances, again.variances)
        assert np.array_equal(base.event_counts, again.event_counts)
    for k in (2 * _BLOCK + 1, _BLOCK - 1):
        traj = simulate_trajectory(plan, k)
        assert np.array_equal(traj.holdings, samples[:, k])
        assert traj.n_events == base.event_counts[k]
    # a smaller ensemble is a prefix of a larger one
    short = ensemble_samples(replace(plan, n_trajectories=_BLOCK + 1))
    assert np.array_equal(short, samples[:, : _BLOCK + 1])


def test_verify_runs_no_event_after_the_last_sample_time(monkeypatch):
    # The slices do not depend on t_end, and the run behind a convergence
    # report applies no encounter after the last sample time; run_ensemble
    # goes on to t_end for the event counts.
    applied = []
    encounters = simulate._encounters

    def counted(h, rows, *args):
        applied.append(rows.size)
        encounters(h, rows, *args)

    monkeypatch.setattr(simulate, "_encounters", counted)
    cfg = uniform_config(3, n_goods=2, seed=31)
    short = small_plan(cfg, t_end=1.0, sample_times=np.array([0.0, 0.5, 1.0]),
                       n_trajectories=40)
    long = replace(short, t_end=50.0)
    first = report_of(short)
    n_short = sum(applied)
    again = report_of(long)
    assert sum(applied) == 2 * n_short
    assert np.array_equal(first.tv, again.tv)
    assert np.array_equal(first.ks_statistic, again.ks_statistic)
    assert first.plan_digest != again.plan_digest == plan_digest(long)
    assert np.array_equal(ensemble_samples(short), ensemble_samples(long))
    applied.clear()
    events = run_ensemble(long).event_counts
    assert sum(applied) - n_short > events.sum() > 40 * short.n_trajectories


def test_ensemble_means_in_range():
    cfg = uniform_config(3, total=2.0, seed=3)
    plan = small_plan(cfg, n_trajectories=400)
    ens = run_ensemble(plan)
    assert (ens.means >= 0.0).all() and (ens.means <= 2.0).all()
    assert (ens.variances >= 0.0).all() and (ens.variances <= 4.0).all()


def test_ensemble_variances_match_numpy():
    cfg = uniform_config(3, n_goods=2, seed=4)
    plan = small_plan(cfg, n_trajectories=300, initial_state="equilibrium")
    ens = run_ensemble(plan)
    assert ens.variances.shape == ens.means.shape
    samples = ensemble_samples(plan)
    assert np.allclose(ens.means, samples.mean(axis=1), rtol=1e-12, atol=0.0)
    manual = np.var(samples, axis=1, ddof=1)
    assert np.allclose(ens.variances, manual, rtol=1e-12, atol=0.0)


def _mean_generator(cfg, good):
    """Generator A of the exact mean dynamics of one good,
    d/dt E g = A E g, with A[i, j] = r_ij a_i / (a_i + a_j) off the
    diagonal and columns summing to zero."""
    a = cfg.exponents[:, good]
    gen = cfg.rates * a[:, None] / (a[:, None] + a[None, :])
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=0))
    return gen


def test_transient_means_follow_exact_ode():
    # Stationary checks cannot see a wrong clock rate or pair weight (any
    # of them leaves the Dirichlet law invariant); the transient means can.
    cfg = make_config(
        rates=[
            [0.0, 0.4, 1.5, 0.8],
            [0.4, 0.0, 0.6, 2.0],
            [1.5, 0.6, 0.0, 0.3],
            [0.8, 2.0, 0.3, 0.0],
        ],
        exponents=[[0.5, 2.0], [1.0, 0.6], [2.5, 1.5], [1.7, 3.0]],
        endowments=np.full((4, 2), 0.25),
        seed=2718,
    )
    times = np.array([0.1, 0.3, 0.6, 1.2, 2.5])
    n = 20_000
    plan = small_plan(cfg, t_end=2.5, sample_times=times, n_trajectories=n,
                      initial_state=State.point_mass(cfg, 0))
    means = run_ensemble(plan).means
    se = ensemble_samples(plan).std(axis=1, ddof=1) / math.sqrt(n)
    z = np.empty_like(means)
    for g in range(cfg.n_goods):
        gen = _mean_generator(cfg, g)
        start = State.point_mass(cfg, 0).holdings[:, g]
        exact = np.array([expm(gen * t) @ start for t in times])
        z[:, :, g] = (means[:, :, g] - exact) / se[:, :, g]
    # Bonferroni over every (time, agent, good) at family level 1e-4
    bound = norm.isf(1e-4 / (2 * z.size))
    assert np.abs(z).max() <= bound


def test_equilibrium_start_is_stationary():
    cfg = uniform_config(3, alpha=1.0, seed=777)
    plan = small_plan(
        cfg,
        t_end=4.0,
        sample_times=np.array([0.0, 4.0]),
        n_trajectories=3000,
        initial_state="equilibrium",
    )
    samples = ensemble_samples(plan)
    # first vs last sample time: means agree within 3 two-sample sigmas
    for i in range(3):
        a = samples[0, :, i, 0]
        b = samples[1, :, i, 0]
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 3.0 * se


def test_good_decoupling():
    # a 2-good run's per-good marginals match matched single-good runs
    n = 4000
    two = uniform_config(3, n_goods=2, alpha=2.0, seed=88)
    plan2 = small_plan(
        two, t_end=2.0, sample_times=np.array([2.0]), n_trajectories=n
    )
    two_samples = ensemble_samples(plan2)
    for g in range(2):
        one = uniform_config(3, n_goods=1, alpha=2.0, seed=88 + 1000 * (g + 1))
        plan1 = small_plan(
            one, t_end=2.0, sample_times=np.array([2.0]), n_trajectories=n
        )
        res = ks_2samp(two_samples[0, :, 0, g], ensemble_samples(plan1)[0, :, 0, 0])
        assert res.pvalue > 0.01


def test_workers_argument_validated():
    cfg = uniform_config(2)
    with pytest.raises(ValueError):
        run_ensemble(small_plan(cfg), workers=0)


# ---------------------------------------------------------------- embedded

@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 4),
    steps=st.integers(0, 12),
    alpha=st.floats(0.3, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedded_steps_conserve(n, steps, alpha, seed):
    cfg = uniform_config(n, n_goods=2, alpha=alpha, total=2.5, seed=seed)
    batch = np.tile(State.point_mass(cfg, n - 1).holdings, (8, 1, 1))
    _embedded_batch(batch, cfg, steps, derived_rng(seed, 15))
    for h in batch:
        check_state(cfg, State(h))


# ---------------------------------------------------------------- digests

def test_plan_digest_sensitivity():
    cfg = uniform_config(2)
    base = small_plan(cfg)
    assert plan_digest(base) == plan_digest(small_plan(cfg))
    assert plan_digest(base) != plan_digest(small_plan(cfg, t_end=3.0))
    assert plan_digest(base) != plan_digest(small_plan(cfg, n_trajectories=51))
    assert plan_digest(base) != plan_digest(
        small_plan(cfg, initial_state="equilibrium")
    )
    explicit = small_plan(cfg, initial_state=State.equal_split(cfg))
    assert plan_digest(base) != plan_digest(explicit)
