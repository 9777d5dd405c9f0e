#!/usr/bin/env python
"""Print certified convergence rates for uniform economies of growing size.

For each agent count the table shows the final minorization coefficient
(log10), the optimal observation window, and the certified exponential
rate -- a rigorous lower bound on the true relaxation speed, which decays
fast with the number of agents.
"""

import argparse
import math

import numpy as np

from cdexchange import EconomyConfig, doeblin_report, validate_config


def uniform_config(n_agents: int, alpha: float) -> EconomyConfig:
    rates = np.ones((n_agents, n_agents)) - np.eye(n_agents)
    return validate_config(
        EconomyConfig(
            n_agents=n_agents,
            n_goods=1,
            rates=rates,
            exponents=np.full((n_agents, 1), alpha),
            endowments=np.full((n_agents, 1), 1.0 / n_agents),
            seed=0,
        )
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-agents", type=int, default=6)
    ap.add_argument("--alpha", type=float, default=1.0)
    args = ap.parse_args()

    print(f"{'N':>3}  {'log10 coeff':>12}  {'tau*':>10}  {'rate':>12}")
    for n in range(2, args.max_agents + 1):
        rep = doeblin_report(uniform_config(n, args.alpha))
        good = rep.goods[0]
        log10_c = good.levels[-1].log_coefficient / math.log(10.0)
        print(
            f"{n:3d}  {log10_c:12.3f}  {good.tau_star:10.4g}  "
            f"{good.certified_rate:12.4g}"
        )


if __name__ == "__main__":
    main()
