"""Layer microbenchmarks for the costs that spans cannot see.

The traced workload commands time every function the CLI looks up (see
``spans.TARGETS``), but not the kernels inside the ensemble's trajectory
loop: the encounter split, the Beta draw, the alias draw, the per-event
and per-trajectory cost, and per-point Dirichlet sampling.  These are
timed here by calling the public functions directly on the workloads'
own configs and plans.

Each function returns metrics keyed by their BENCHMARK.json names.  Each
timed loop runs for about ``budget`` seconds and reports the median batch.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np


def per_call(fn, budget=0.2, batches=5):
    """Median seconds per call of ``fn()`` over ``batches`` timed batches."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= budget / batches:
            break
        n *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def economy_layer(sim_cfg, ver_cfg, ver_plan):
    from cdexchange import State, apply_encounter, beta_sample, good_spec, sample_dirichlet

    rng = np.random.default_rng(0)
    state = State(np.array(sim_cfg.endowments))
    a, b = float(sim_cfg.exponents[0, 0]), float(sim_cfg.exponents[1, 0])
    spec = good_spec(ver_cfg, 0)
    n = ver_plan.n_trajectories
    return {
        "economy.apply_encounter_us":
            1e6 * per_call(lambda: apply_encounter(state, 0, 1, sim_cfg, rng)),
        "economy.beta_sample_ns": 1e9 * per_call(lambda: beta_sample(a, b, rng)),
        "economy.sample_dirichlet_ns_per_point":
            1e9 * per_call(lambda: sample_dirichlet(spec, rng, size=n)) / n,
    }


def _trajectory_cost(plan, budget=0.3):
    from cdexchange import simulate_trajectory

    elapsed, events, k = 0.0, 0, 0
    while elapsed < budget:
        t0 = time.perf_counter()
        traj = simulate_trajectory(plan, k)
        elapsed += time.perf_counter() - t0
        events += traj.n_events
        k += 1
    return elapsed, events, k


def simulate_layer(sim_cfg, sim_plan, ver_plan):
    from cdexchange import AliasTable

    elapsed, events, _ = _trajectory_cost(sim_plan)
    iu, ju = np.triu_indices(sim_cfg.n_agents, 1)
    alias = AliasTable(sim_cfg.rates[iu, ju])
    rng = np.random.default_rng(0)
    at_zero = replace(ver_plan, t_end=0.0,
                      sample_times=np.zeros(ver_plan.sample_times.size))
    overhead, _, calls = _trajectory_cost(at_zero)
    return {
        "simulate.us_per_event": 1e6 * elapsed / events,
        "simulate.alias_draw_ns": 1e9 * per_call(lambda: alias.draw(rng)),
        "simulate.traj_overhead_us": 1e6 * overhead / calls,
    }


def run_all(sim, ver):
    """``sim`` and ``ver`` are the loaded (config, plan) pairs of the
    simulate-events and verify-dense workloads."""
    (sim_cfg, sim_plan), (ver_cfg, ver_plan) = sim, ver
    out = economy_layer(sim_cfg, ver_cfg, ver_plan)
    out.update(simulate_layer(sim_cfg, sim_plan, ver_plan))
    return out
