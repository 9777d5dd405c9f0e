"""Acceptance gate: one test per advertised guarantee, each printing a
single pass/fail line (run with ``pytest -s`` to see them all)."""

import itertools
import json
import math
import time

import numpy as np
from scipy.stats import chi2, ks_2samp, poisson

from cdexchange import (
    DirichletSpec,
    HistogramBinning,
    RunManifest,
    SimulationPlan,
    State,
    density_ratio_floor,
    derived_rng,
    gamma_ratio_floor,
    minorization_check,
    moment_z_scores,
    optimize_rate,
    run,
    run_ensemble,
    validate_plan,
)
from cdexchange.bounds import minorization_mass
from cdexchange.simulate import _embedded_batch, _pair_table

from util import ensemble_samples, make_config, report_of, uniform_config


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _plan(cfg, t_end, times, n, initial_state="endowments"):
    return validate_plan(
        SimulationPlan(
            cfg=cfg,
            t_end=t_end,
            sample_times=np.array(times, dtype=float),
            n_trajectories=n,
            initial_state=initial_state,
        )
    )


def test_criterion_1_equilibrium_invariance():
    # stationary start stays stationary: all first/second moments at t=5
    # within 3 Monte Carlo standard errors, at 10^5 trajectories
    cfg = uniform_config(3, alpha=1.0, seed=2026)
    plan = _plan(cfg, 5.0, [5.0], 100_000, initial_state="equilibrium")
    t0 = time.perf_counter()
    samples = ensemble_samples(plan)
    elapsed = time.perf_counter() - t0
    spec = DirichletSpec(np.ones(3), 1.0)
    z = moment_z_scores(samples[0, :, :, 0], spec)
    ok = bool(np.abs(z).max() <= 3.0) and elapsed < 60.0
    _report(
        1,
        ok,
        f"max |moment z| = {np.abs(z).max():.3f} over {z.size} moments "
        f"(3.0 allowed), runtime {elapsed:.1f}s (60s allowed)",
    )


def test_criterion_2_convergence_from_point_mass():
    cfg = uniform_config(3, alpha=1.0, seed=4093)
    times = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    plan = _plan(cfg, 8.0, times, 100_000, initial_state=State.point_mass(cfg, 0))
    rep = report_of(plan)
    tv = rep.tv[:, 0]
    slack = 3.0 * math.sqrt(2.0) * rep.baseline_tv_std[0]
    monotone = bool(np.all(np.diff(tv) <= slack))
    floor = rep.baseline_tv_mean[0] + 3.0 * rep.baseline_tv_std[0]
    at_floor = tv[-1] <= floor
    ks_ok = bool((rep.ks_pvalue[-1, :, 0] >= 0.01).all())
    _report(
        2,
        monotone and at_floor and ks_ok,
        f"tv={np.array2string(tv, precision=4)} non-increasing within {slack:.2g}: "
        f"{monotone}; tv(8)={tv[-1]:.4f} <= floor {floor:.4f}: {at_floor}; "
        f"min KS p at t=8 = {rep.ks_pvalue[-1, :, 0].min():.3f} >= 0.01: {ks_ok}",
    )


def test_criterion_3_two_agent_one_step_coupling():
    # one embedded step from any two starts gives the same law
    cfg = make_config(
        rates=[[0.0, 1.0], [1.0, 0.0]],
        exponents=[[1.3], [0.7]],
        endowments=[[0.5], [0.5]],
        seed=58,
    )
    n = 100_000
    a = np.tile([[0.9], [0.1]], (n, 1, 1))
    b = np.tile([[0.2], [0.8]], (n, 1, 1))
    _embedded_batch(a, cfg, 1, derived_rng(cfg.seed, 3, 1))
    _embedded_batch(b, cfg, 1, derived_rng(cfg.seed, 3, 2))
    res = ks_2samp(a[:, 0, 0], b[:, 0, 0])
    ok = res.pvalue > 0.01
    _report(
        3,
        ok,
        f"two-sample KS p = {res.pvalue:.3f} (> 0.01 required), "
        f"D = {res.statistic:.5f}, n = {n} per start",
    )


def test_criterion_4_certified_constants(tmp_path):
    # closed-form ladder values through the CLI, then random probes that
    # the two floors never overshoot the functions they bound
    doc = {
        "economy": {
            "n_agents": 3,
            "n_goods": 1,
            "rates": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
            "exponents": [[1.0], [1.0], [1.0]],
            "endowments": [[1 / 3], [1 / 3], [1 / 3]],
            "seed": 0,
        }
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run(RunManifest("bound", str(out), config_path=str(cfg_path)))
    payload = json.loads((out / "doeblin.json").read_text())
    levels = payload["goods"][0]["levels"]
    c2, c3 = levels[0]["coefficient"], levels[1]["coefficient"]
    ladder_ok = code == 0 and c2 == 1.0 and abs(c3 - 1.0 / 18.0) < 1e-12

    rng = derived_rng(0, 3, 4)
    violations = 0
    for level in (2, 3):
        alphas = rng.uniform(0.5, 3.0, size=level + 1)
        floor = density_ratio_floor(level, alphas)
        delta = 1.0 / (level * (level + 1.0))
        y = rng.uniform(0.0, 1.0 / (level + 1.0), size=10_000)
        x = y + delta + rng.random(10_000) * (1.0 - y - delta)
        for a, b in itertools.permutations(alphas, 2):
            f = (x - y) ** (a - 1.0) * x ** (1.0 - a - b)
            violations += int(np.sum(f < floor * (1.0 - 1e-12)))

        gfloor = gamma_ratio_floor(level, alphas)
        for _ in range(10_000):
            i, j = rng.choice(alphas.size, size=2, replace=False)
            rest = [k for k in range(alphas.size) if k not in (i, j)]
            sub = rng.choice(rest, size=level - 1, replace=False)
            s = alphas[i] + alphas[sub].sum()
            ratio = math.exp(
                math.lgamma(alphas[i] + alphas[j])
                - math.lgamma(alphas[i])
                + math.lgamma(s)
                - math.lgamma(s + alphas[j])
            )
            violations += int(ratio < gfloor * (1.0 - 1e-12))

    ok = ladder_ok and violations == 0
    _report(
        4,
        ok,
        f"c2 = {c2} (want 1), |c3 - 1/18| = {abs(c3 - 1.0 / 18.0):.2e} "
        f"(< 1e-12), floor violations = {violations} (want 0)",
    )


def test_criterion_5_minorization_coupling():
    cfg = uniform_config(3, alpha=1.0, seed=91)
    binning = HistogramBinning(np.zeros(3), np.ones(3), 16)
    res = minorization_check(
        cfg, 100_000, derived_rng(cfg.seed, 3, 5), binning=binning
    )
    budget = (1.0 - 1.0 / 18.0) + res.self_tv[0] + 3.0 / math.sqrt(res.n_samples)
    ok = res.ok and res.tv[0] <= budget
    _report(
        5,
        ok,
        f"binned TV after {res.steps} steps = {res.tv[0]:.4f} <= "
        f"1 - 1/18 + tolerance = {budget:.4f} (self-distance {res.self_tv[0]:.4f})",
    )


def test_criterion_6_poisson_clock_and_pair_law():
    # event counts over [0,5] at unit total rate are Poisson(5)
    cfg = uniform_config(2, rate=1.0, seed=66)
    plan = _plan(cfg, 5.0, [5.0], 10_000)
    counts = run_ensemble(plan).event_counts
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = poisson.pmf(np.arange(kmax + 1), 5.0) * counts.size
    expected[-1] = counts.size - poisson.cdf(kmax - 1, 5.0) * counts.size
    # merge sparse cells from both ends until every expected count >= 5
    while expected.size > 2 and expected[0] < 5.0:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(0.99, expected.size - 1))
    clock_ok = stat < crit

    # pair selection on a non-uniform 4-agent matrix follows rate/total
    rates = np.array(
        [
            [0.0, 1.0, 2.0, 0.5],
            [1.0, 0.0, 3.0, 1.5],
            [2.0, 3.0, 0.0, 2.5],
            [0.5, 1.5, 2.5, 0.0],
        ]
    )
    cfg4 = make_config(
        rates=rates,
        exponents=np.ones((4, 1)),
        endowments=np.full((4, 1), 0.25),
        seed=67,
    )
    table, iu, ju = _pair_table(cfg4)
    draws = table.draw_many(derived_rng(cfg4.seed, 3, 6), 1_000_000)
    freq = np.bincount(draws, minlength=iu.size)
    p = rates[iu, ju] / cfg4.total_rate
    sigma = np.sqrt(draws.size * p * (1.0 - p))
    z = np.abs(freq - draws.size * p) / sigma
    pair_ok = bool((z <= 3.0).all())
    _report(
        6,
        clock_ok and pair_ok,
        f"chi-square {stat:.1f} < {crit:.1f} on {expected.size} cells: {clock_ok}; "
        f"max pair-frequency |z| = {z.max():.2f} <= 3: {pair_ok}",
    )


def test_criterion_7_rate_optimizer():
    worst_stat = 0.0
    worst_scale = 0.0
    for c, k_rate, n in ((1.0 / 18.0, 1.0, 3), (1.0 / 18.0, 3.0, 3),
                         (0.004, 2.5, 4), (0.3, 10.0, 3)):
        tau, rate = optimize_rate(c, k_rate, n)
        for bump in (1.0 + 1e-6, 1.0 - 1e-6):
            t = tau * bump
            r = -math.log1p(-minorization_mass(c, k_rate, n, t)) / t
            worst_stat = max(worst_stat, (r - rate) / rate)
        tau2, rate2 = optimize_rate(c, 2.0 * k_rate, n)
        worst_scale = max(
            worst_scale,
            abs(rate2 - 2.0 * rate) / (2.0 * rate),
            abs(tau2 - 0.5 * tau) / (0.5 * tau),
        )
    ok = worst_stat <= 5e-13 and worst_scale <= 1e-10
    _report(
        7,
        ok,
        f"max stationarity excess = {worst_stat:.2e} (<= 5e-13), "
        f"max doubling-law error = {worst_scale:.2e} (<= 1e-10)",
    )


def test_criterion_8_goods_factorize():
    n = 20_000
    t_end = 3.0
    alphas = (1.0, 2.0)
    cfg2 = make_config(
        rates=np.ones((3, 3)) - np.eye(3),
        exponents=[[alphas[0], alphas[1]]] * 3,
        endowments=[[1 / 3, 1 / 3]] * 3,
        seed=406,
    )
    two_samples = ensemble_samples(_plan(cfg2, t_end, [t_end], n))
    pvals = []
    for g in range(2):
        cfg1 = make_config(
            rates=np.ones((3, 3)) - np.eye(3),
            exponents=[[alphas[g]]] * 3,
            endowments=[[1 / 3]] * 3,
            seed=406 + 1000 * (g + 1),
        )
        one_samples = ensemble_samples(_plan(cfg1, t_end, [t_end], n))
        for agent in range(3):
            res = ks_2samp(two_samples[0, :, agent, g], one_samples[0, :, agent, 0])
            pvals.append(res.pvalue)
    ok = min(pvals) > 0.01
    _report(
        8,
        ok,
        f"min two-sample KS p over {len(pvals)} agent/good marginals = "
        f"{min(pvals):.3f} (> 0.01 required)",
    )


def test_criterion_9_byte_identical_outputs(tmp_path):
    doc = {
        "economy": {
            "n_agents": 3,
            "n_goods": 2,
            "rates": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
            "exponents": [[1.0, 0.5]] * 3,
            "endowments": [[1 / 3, 1 / 3]] * 3,
            "seed": 12,
        },
        "simulation": {
            "t_end": 1.5,
            "sample_times": [0.0, 1.5],
            "n_trajectories": 300,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    def output_bytes(tag, command, workers):
        out = tmp_path / f"{command}-{tag}"
        manifest = RunManifest(
            command, str(out), config_path=str(cfg_path), workers=workers
        )
        assert run(manifest) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    mismatches = []
    for command in ("simulate", "verify", "bound"):
        base = output_bytes("w1", command, 1)
        if not base:
            mismatches.append(f"{command}: no output files")
        for tag, workers in (("w2", 2), ("w8", 8), ("again", 1)):
            if output_bytes(tag, command, workers) != base:
                mismatches.append(f"{command}@{tag}")
    ok = not mismatches
    _report(
        9,
        ok,
        "simulate/verify/bound outputs byte-identical across workers "
        f"1, 2, 8 and a repeat run{'' if ok else ': mismatches ' + str(mismatches)}",
    )
