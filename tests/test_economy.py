import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdexchange import (
    BadDimensions,
    ConservationError,
    DirichletSpec,
    EconomyConfig,
    IndexOutOfRange,
    NegativeEndowment,
    NegativeHolding,
    NonPositiveExponent,
    NonPositiveOffDiagonalRate,
    NonPositiveParameter,
    NonSymmetricRates,
    SameAgent,
    State,
    ZeroTotalGood,
    apply_encounter,
    beta_sample,
    check_state,
    config_digest,
    derived_rng,
    good_spec,
    marginal_ks,
    require_validated,
    sample_dirichlet,
    validate_config,
)
from cdexchange.economy import ConfigError, _gamma_fractions, _split_pair
from cdexchange.simulate import _embedded_batch, _encounters, _pair_table

from util import KS_CRIT_1PCT, make_config, uniform_config


# ---------------------------------------------------------------- validation

def test_minimal_two_agent_config():
    cfg = make_config(
        rates=[[0.0, 1.0], [1.0, 0.0]],
        exponents=[[1.0, 1.0], [1.0, 1.0]],
        endowments=[[1.0, 0.5], [0.0, 0.5]],
    )
    assert cfg.total_rate == 1.0
    assert np.array_equal(cfg.good_totals, [1.0, 1.0])
    assert cfg.min_rate == cfg.max_rate == 1.0


def test_rejects_zero_offdiagonal_rate():
    rates = np.ones((3, 3)) - np.eye(3)
    rates[0, 1] = rates[1, 0] = 0.0
    with pytest.raises(NonPositiveOffDiagonalRate, match=r"rates\[0\]\[1\]"):
        make_config(rates, np.ones((3, 1)), np.ones((3, 1)))


def test_rejects_zero_exponent():
    expo = np.ones((3, 2))
    expo[1, 1] = 0.0
    rates = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(NonPositiveExponent, match=r"exponents\[1\]\[1\]"):
        make_config(rates, expo, np.ones((3, 2)))


def test_rejects_asymmetric_rates():
    rates = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonSymmetricRates):
        make_config(rates, np.ones((2, 1)), np.ones((2, 1)))


def test_rejects_nonzero_diagonal():
    rates = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ConfigError, match="diagonal"):
        make_config(rates, np.ones((2, 1)), np.ones((2, 1)))


def test_rejects_bad_shapes():
    rates = np.ones((2, 2)) - np.eye(2)
    with pytest.raises(BadDimensions):
        make_config(rates, np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(BadDimensions):
        validate_config(
            EconomyConfig(1, 1, np.zeros((1, 1)), np.ones((1, 1)),
                          np.ones((1, 1)), 0)
        )


def test_rejects_negative_endowment():
    rates = np.ones((2, 2)) - np.eye(2)
    with pytest.raises(NegativeEndowment, match=r"endowments\[1\]\[0\]"):
        make_config(rates, np.ones((2, 1)), [[1.0], [-0.1]])


def test_rejects_zero_total_good():
    rates = np.ones((2, 2)) - np.eye(2)
    with pytest.raises(ZeroTotalGood, match="good 1"):
        make_config(rates, np.ones((2, 2)), [[1.0, 0.0], [1.0, 0.0]])


def test_rejects_bad_seed():
    rates = np.ones((2, 2)) - np.eye(2)
    base = EconomyConfig(2, 1, rates, np.ones((2, 1)), np.ones((2, 1)), -1)
    with pytest.raises(ConfigError, match="seed"):
        validate_config(base)


def test_validated_arrays_read_only():
    cfg = uniform_config(3)
    for arr in (cfg.rates, cfg.exponents, cfg.endowments, cfg.good_totals):
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_require_validated_guard():
    raw = EconomyConfig(
        2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 1)),
        np.ones((2, 1)), 0,
    )
    with pytest.raises(ConfigError):
        require_validated(raw)


def test_config_equality_and_digest():
    a = uniform_config(3, seed=7)
    b = uniform_config(3, seed=7)
    c = uniform_config(3, seed=8)
    assert a == b
    assert a != c
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


# ---------------------------------------------------------------- state

def test_state_constructors():
    cfg = uniform_config(3, n_goods=2, total=6.0)
    pm = State.point_mass(cfg, 1)
    assert pm.holdings[1, 0] == 6.0 and pm.holdings[0, 0] == 0.0
    eq = State.equal_split(cfg)
    assert np.allclose(eq.holdings, 2.0)


def test_check_state_errors():
    cfg = uniform_config(2)
    with pytest.raises(BadDimensions):
        check_state(cfg, State(np.ones((3, 1))))
    with pytest.raises(NegativeHolding):
        check_state(cfg, State(np.array([[1.2], [-0.2]])))
    with pytest.raises(ConservationError, match="good 0"):
        check_state(cfg, State(np.array([[0.7], [0.7]])))


# ---------------------------------------------------------------- beta draws

def beta_draws(a, b, n, rng):
    # n Beta(a, b) fractions from one call of the kernel's Gamma-ratio split
    return _gamma_fractions(np.full(n, a), np.full(n, b), rng)


def test_beta_uniform_mean():
    draws = beta_draws(1.0, 1.0, 100_000, derived_rng(101, 0))
    assert abs(draws.mean() - 0.5) < 0.005


def test_beta_moments_oracle():
    # Beta(2, 3): mean a/(a+b) = 0.4, variance ab/((a+b)^2 (a+b+1)) = 0.04.
    draws = beta_draws(2.0, 3.0, 100_000, derived_rng(102, 0))
    assert abs(draws.mean() - 0.4) < 0.005
    assert abs(draws.var() - 0.04) < 0.002


def test_beta_arcsine_ks():
    # Beta(1/2, 1/2) has the arcsine CDF 2/pi * asin(sqrt(x)); checked
    # against that closed form, not against the incomplete-Beta routine.
    n = 100_000
    draws = np.sort(beta_draws(0.5, 0.5, n, derived_rng(103, 0)))
    cdf = 2.0 / math.pi * np.arcsin(np.sqrt(draws))
    grid = np.arange(n + 1) / n
    stat = max((grid[1:] - cdf).max(), (cdf - grid[:-1]).max())
    assert stat < KS_CRIT_1PCT / math.sqrt(n)


def test_beta_rejects_bad_shapes():
    rng = derived_rng(104, 0)
    for a, b in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(NonPositiveParameter):
            beta_sample(a, b, rng)


@settings(max_examples=300, deadline=None)
@given(
    pooled=st.floats(0.0, 1e12, allow_nan=False),
    fraction=st.floats(0.0, 1.0, allow_nan=False),
)
def test_split_pair_bit_exact(pooled, fraction):
    gi, gj = _split_pair(pooled, fraction)
    assert gi + gj == pooled
    assert gi >= 0.0 and gj >= 0.0


# ---------------------------------------------------------------- encounters

def test_encounter_zero_pool():
    cfg = make_config(
        rates=np.ones((3, 3)) - np.eye(3),
        exponents=np.ones((3, 2)),
        endowments=[[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
    )
    state = State(np.array(cfg.endowments))
    out = apply_encounter(state, 1, 2, cfg, derived_rng(1, 1))
    # neither held any of good 0, so both still hold none of it
    assert out.holdings[1, 0] == 0.0 and out.holdings[2, 0] == 0.0
    assert out.holdings[0, 0] == 1.0


def test_encounter_errors():
    cfg = uniform_config(3)
    state = State.equal_split(cfg)
    rng = derived_rng(2, 0)
    with pytest.raises(SameAgent):
        apply_encounter(state, 1, 1, cfg, rng)
    with pytest.raises(IndexOutOfRange):
        apply_encounter(state, 0, 3, cfg, rng)
    with pytest.raises(BadDimensions):
        apply_encounter(State(np.ones((2, 1))), 0, 1, cfg, rng)


def encounter_batch(cfg, holdings, n, rng):
    # one kernel encounter on each of n copies of the given holdings
    h = np.tile(holdings, (n, 1, 1))
    _encounters(h, np.arange(n), _pair_table(cfg), cfg.exponents, rng)
    return h


def test_encounter_uniform_marginal():
    # Two agents, unit exponents, unit total: the post-encounter holding
    # of agent 0 is Uniform(0, 1), i.e. Beta(1, 1) scaled by the total.
    cfg = uniform_config(2)
    n = 100_000
    draws = encounter_batch(cfg, [[0.25], [0.75]], n, derived_rng(105, 0))[:, 0, 0]
    res = marginal_ks(draws, 1.0, 2.0, 1.0)
    assert res.statistic < KS_CRIT_1PCT / math.sqrt(n)


def test_encounter_pair_fraction_law():
    # Pairwise marginal law: the kept fraction of a fixed pool follows
    # Beta(a, b) with the two agents' exponents.
    cfg = make_config(
        rates=np.ones((2, 2)) - np.eye(2),
        exponents=[[2.0], [3.0]],
        endowments=[[0.5], [0.5]],
    )
    n = 100_000
    fracs = encounter_batch(cfg, [[0.1], [0.9]], n, derived_rng(106, 0))[:, 0, 0]
    res = marginal_ks(fracs, 2.0, 5.0, 1.0)
    assert res.statistic < KS_CRIT_1PCT / math.sqrt(n)


def test_encounter_goods_independent():
    # fractions taken of each good in one meeting are uncorrelated
    cfg = uniform_config(2, n_goods=2, alpha=1.5)
    rng = derived_rng(107, 0)
    n = 50_000
    f = _gamma_fractions(
        np.full((n, 2), 1.5), np.full((n, 2), 1.5), rng
    )
    r = np.corrcoef(f[:, 0], f[:, 1])[0, 1]
    assert abs(r) < 3.0 / math.sqrt(n)


def test_conservation_many_encounters():
    cfg = uniform_config(4, n_goods=2, alpha=0.5, total=3.0, seed=5)
    rng = derived_rng(cfg.seed, 9)
    state = State.point_mass(cfg, 0)
    for _ in range(5000):
        i, j = rng.choice(4, size=2, replace=False)
        state = apply_encounter(state, int(i), int(j), cfg, rng)
    check_state(cfg, state)  # totals within 1e-9 relative, no negatives


# ---------------------------------------------------------------- dirichlet

def test_dirichlet_spec_validation():
    with pytest.raises(NonPositiveExponent):
        DirichletSpec(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ZeroTotalGood):
        DirichletSpec(np.array([1.0, 1.0]), 0.0)
    with pytest.raises(BadDimensions):
        DirichletSpec(np.array([1.0]), 1.0)


def test_good_spec_errors():
    cfg = uniform_config(2, n_goods=2)
    assert good_spec(cfg, 1).total == 1.0
    with pytest.raises(IndexOutOfRange):
        good_spec(cfg, 2)


def test_sample_dirichlet_uniform_marginal():
    spec = DirichletSpec(np.array([1.0, 1.0]), 1.0)
    rng = derived_rng(108, 0)
    n = 50_000
    draws = sample_dirichlet(spec, rng, size=n)[:, 0]
    res = marginal_ks(draws, 1.0, 2.0, 1.0)
    assert res.statistic < KS_CRIT_1PCT / math.sqrt(n)


def test_sample_dirichlet_moments_oracle():
    # flat 3-agent Dirichlet: mean 1/3, Var 1/18, Cov -1/36
    spec = DirichletSpec(np.ones(3), 1.0)
    rng = derived_rng(109, 0)
    x = sample_dirichlet(spec, rng, size=100_000)
    assert abs(x[:, 0].mean() - 1.0 / 3.0) < 0.005
    assert abs(x[:, 0].var() - 1.0 / 18.0) < 0.003
    cov = np.cov(x[:, 0], x[:, 1])[0, 1]
    assert abs(cov - (-1.0 / 36.0)) < 0.003


def test_sample_dirichlet_sums_to_total():
    spec = DirichletSpec(np.array([0.5, 2.0, 1.0, 0.25]), 7.0)
    rng = derived_rng(110, 0)
    x = sample_dirichlet(spec, rng, size=2000)
    assert np.allclose(x.sum(axis=1), 7.0, rtol=1e-12)
    assert (x >= 0.0).all()


def test_sample_dirichlet_scaling_is_exact():
    a = np.array([0.5, 1.5, 3.0])
    x1 = sample_dirichlet(DirichletSpec(a, 1.0), derived_rng(42, 0), size=100)
    x2 = sample_dirichlet(DirichletSpec(a, 2.0), derived_rng(42, 0), size=100)
    assert np.array_equal(x2, 2.0 * x1)


def test_detailed_balance_one_step():
    # start exactly stationary, take one embedded step with a uniformly
    # random pair: first and second moments must not move beyond noise
    cfg = uniform_config(3, alpha=1.0, seed=2026)
    rng = derived_rng(cfg.seed, 11)
    n = 100_000
    spec = good_spec(cfg, 0)
    before = sample_dirichlet(spec, rng, size=n)[:, :, None]
    after = _embedded_batch(before.copy(), cfg, 1, rng)
    for moment in (
        lambda h: h[:, 0, 0],
        lambda h: h[:, 0, 0] ** 2,
        lambda h: h[:, 0, 0] * h[:, 1, 0],
    ):
        d = moment(after) - moment(before)
        z = d.mean() / (d.std(ddof=1) / math.sqrt(n))
        assert abs(z) <= 3.0
