#!/usr/bin/env python
"""Watch a small economy relax to its stationary product-Dirichlet law.

Starts every trajectory from a point mass (one agent holds everything),
then prints, per sample time, the binned TV distance of the ensemble to
the exact binned stationary law, the worst moment z-score, and the KS
p-value range.  The noise floor is the mean distance of a stationary
sample of the same size to that law.
"""

import argparse

import numpy as np

from cdexchange import (
    ConvergenceTally,
    EconomyConfig,
    SimulationPlan,
    State,
    convergence_report,
    run_ensemble,
    validate_config,
)


def uniform_config(n_agents: int, seed: int) -> EconomyConfig:
    rates = np.ones((n_agents, n_agents)) - np.eye(n_agents)
    endow = np.zeros((n_agents, 1))
    endow[0, 0] = 1.0
    return validate_config(
        EconomyConfig(
            n_agents=n_agents,
            n_goods=1,
            rates=rates,
            exponents=np.ones((n_agents, 1)),
            endowments=endow,
            seed=seed,
        )
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--agents", type=int, default=3)
    ap.add_argument("--trajectories", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--t-end", type=float, default=8.0, dest="t_end")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    cfg = uniform_config(args.agents, args.seed)
    times = [t for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0) if t <= args.t_end]
    plan = SimulationPlan(
        cfg=cfg,
        t_end=args.t_end,
        sample_times=np.array(times),
        n_trajectories=args.trajectories,
        initial_state=State.point_mass(cfg, 0),
    )
    tally = ConvergenceTally(plan)
    run_ensemble(tally.plan, workers=args.workers, each=tally.add)
    rep = convergence_report(tally)

    floor = rep.baseline_tv_mean[0]
    print(f"agents={args.agents} trajectories={args.trajectories} "
          f"bins={rep.bins_per_coordinate[0]} mode={rep.binning_modes[0]}")
    print(f"noise floor (stationary sample to the law): {floor:.4f}")
    print(f"{'t':>6}  {'tv':>8}  {'max|z|':>8}  {'min KS p':>9}")
    for k, t in enumerate(rep.sample_times):
        print(
            f"{t:6.2f}  {rep.tv[k, 0]:8.4f}  {rep.max_moment_z[k]:8.2f}  "
            f"{rep.ks_pvalue[k].min():9.3g}"
        )


if __name__ == "__main__":
    main()
