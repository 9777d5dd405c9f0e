"""Workload inputs for the cdexchange benchmark, generated from a seed.

A workload is a set of config files plus the CLI commands that run on
them.  The program only ever sees the generated config files; the same
benchmark seed always gives byte-identical configs.

Every random choice that changes how much work a command does is pinned:
the total encounter rate (hence the expected event count) is fixed per
workload, and each good has a fixed number of exponents below 1 (numpy's
Gamma sampler takes a slower rejection path there).  The seed varies the
rest: rate shape, exponent values, endowments and the simulation seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

NAMES = ("simulate-events", "verify-dense", "bound-ladder")

# Full sizes.  One iteration of simulate-events runs ~30 events on each of
# 1000 trajectories twice (workers 1 and 2); verify-dense has ~1.7 events
# per trajectory, so per-trajectory setup and the convergence report carry
# the time; bound-ladder runs two `bound` commands whose cost is fixed by
# N and the grid, and the N=80 one exits 2 (log coefficient underflow).
SIZES = {
    "simulate-events": dict(agents=6, goods=3, t_end=2.0, times=9,
                            trajectories=1000, events_per_trajectory=30.0),
    "verify-dense": dict(agents=3, goods=2, t_end=0.5, times=41,
                         trajectories=10000, events_per_trajectory=1.7),
    "bound-ladder": dict(grid=64, distinct_agents=8, uniform_agents=80,
                         uniform_exponent=0.5),
}


def _rates(rng, n, total=None):
    upper = np.triu(rng.uniform(0.5, 1.5, (n, n)), 1)
    rates = upper + upper.T
    if total is not None:
        rates *= total / rates[np.triu_indices(n, 1)].sum()
    return rates


def _exponents(rng, n, m, low=0.4, high=2.5):
    # Per good: n // 2 exponents in (low, 0.9), the rest in (1.1, high).
    cols = []
    for _ in range(m):
        k = n // 2
        col = np.concatenate([rng.uniform(low, 0.9, k), rng.uniform(1.1, high, n - k)])
        cols.append(rng.permutation(col))
    return np.column_stack(cols)


def _economy(rng, rates, exponents):
    n, m = exponents.shape
    return {
        "n_agents": n,
        "n_goods": m,
        "rates": rates.tolist(),
        "exponents": exponents.tolist(),
        "endowments": rng.uniform(0.2, 1.0, (n, m)).tolist(),
        "seed": int(rng.integers(2**63)),
    }


def _simulation_doc(rng, size):
    n, m, t_end = size["agents"], size["goods"], size["t_end"]
    rate_total = size["events_per_trajectory"] / t_end
    return {
        "economy": _economy(rng, _rates(rng, n, rate_total), _exponents(rng, n, m)),
        "simulation": {
            "t_end": t_end,
            "sample_times": np.linspace(0.0, t_end, size["times"]).tolist(),
            "n_trajectories": size["trajectories"],
            "initial_state": "equilibrium",
        },
    }


def configs(name, seed, sizes=None):
    """Config documents of one workload, keyed by config name."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    size = (sizes or SIZES)[name]
    rng = np.random.default_rng([NAMES.index(name), seed])
    if name == "bound-ladder":
        n = size["distinct_agents"]
        distinct = _economy(rng, _rates(rng, n), _exponents(rng, n, 1, 0.3, 3.0))
        n = size["uniform_agents"]
        uniform = _economy(rng, _rates(rng, n),
                           np.full((n, 1), size["uniform_exponent"]))
        return {"distinct": {"economy": distinct}, "uniform": {"economy": uniform}}
    return {"plan": _simulation_doc(rng, size)}


def commands(name, sizes=None):
    """CLI invocations of one workload iteration, in run order.

    ``timed`` marks the commands whose summed wall time is ``wall_s``
    (the workers-1 commands).  ``known_failure`` marks the one command
    that fails today (the N=80 ``bound``: its minorization coefficient
    underflows to 0.0).  Its non-zero exit still counts as a failed
    operation, but its missing outputs are not checked; every other
    command's outputs are checked whatever it exits.
    """
    size = (sizes or SIZES)[name]
    if name == "simulate-events":
        return [
            dict(name="w1", command="simulate", config="plan", workers=1, timed=True),
            dict(name="w2", command="simulate", config="plan", workers=2, timed=False),
        ]
    if name == "verify-dense":
        return [dict(name="verify", command="verify", config="plan", workers=1, timed=True)]
    return [
        dict(name="distinct", command="bound", config="distinct", grid=size["grid"],
             timed=True),
        dict(name="uniform", command="bound", config="uniform", grid=size["grid"],
             timed=True, known_failure=True),
    ]


def write_configs(name, seed, directory, sizes=None):
    """Write one workload's configs as JSON; returns {config name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for key, doc in configs(name, seed, sizes).items():
        path = os.path.join(directory, f"{name}.{key}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        paths[key] = path
    return paths
