"""Shared test fixtures: small validated configs."""

import numpy as np

from cdexchange import (
    ConvergenceTally,
    EconomyConfig,
    convergence_report,
    run_ensemble,
    validate_config,
)


def uniform_config(n_agents, n_goods=1, alpha=1.0, seed=0, total=1.0, rate=1.0):
    """Fully symmetric economy: uniform rates, one exponent everywhere,
    equal endowments summing to ``total`` per good."""
    rates = rate * (np.ones((n_agents, n_agents)) - np.eye(n_agents))
    return validate_config(
        EconomyConfig(
            n_agents=n_agents,
            n_goods=n_goods,
            rates=rates,
            exponents=np.full((n_agents, n_goods), alpha),
            endowments=np.full((n_agents, n_goods), total / n_agents),
            seed=seed,
        )
    )


def make_config(rates, exponents, endowments, seed=0):
    exponents = np.asarray(exponents, dtype=float)
    return validate_config(
        EconomyConfig(
            n_agents=exponents.shape[0],
            n_goods=exponents.shape[1],
            rates=np.asarray(rates, dtype=float),
            exponents=exponents,
            endowments=np.asarray(endowments, dtype=float),
            seed=seed,
        )
    )


def ensemble_samples(plan, workers=1):
    """The ensemble's holdings at every sample time, shape (T, n, N, M)."""
    slices = []
    run_ensemble(plan, workers=workers, each=lambda t, h: slices.append(h.copy()))
    return np.stack(slices)


def report_of(plan, workers=1):
    """The convergence report of ``plan``, run the way ``verify`` runs it."""
    tally = ConvergenceTally(plan)
    run_ensemble(tally.plan, workers=workers, each=tally.add)
    return convergence_report(tally)


# Two-sided KS critical value at the 1% level (asymptotic), divided by sqrt(n).
KS_CRIT_1PCT = 1.6276
