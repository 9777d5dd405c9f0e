"""Certified minorization constants and total-variation convergence rates.

For the fully connected exchange process, the (N-1)-step embedded kernel
dominates a fixed multiple of the stationary Dirichlet law.  The multiple
is built by induction on the number of agents; each analytic ingredient
becomes a certified numerical lower bound here:

* ``rate_ratio``: min/max off-diagonal encounter rate, in (0, 1].
* ``density_ratio_floor``: floor of the two-variable comparison function
  ``(x - y)**(a - 1) * x**(1 - a - b)`` over its admissible wedge: the
  function is monotone in each of ``x - y`` and ``x``, so its exact
  minimum sits at a vertex of the wedge and has a closed form.
* ``gamma_ratio_floor``: floor of the Gamma-function ratio over agent
  relabelings, from one sorted prefix sum of the exponents.
* ``minorization_coefficients``: the inductive coefficients from 2 agents
  up to the full economy, multiplied out in log space.
* ``minorization_mass`` and ``optimize_rate``: the mass of the dominated
  component for the time-``tau`` chain (the coefficient times a Poisson
  tail) and the certified exponential rate, maximized over ``tau``.

Both floors depend on exponent values, not on which agents hold them, so
each works over a good's D distinct values and their multiplicities:
O(D**2) pairs per level, not one per ordered pair of agents.  A uniform
(Kac-type) column costs a few pairs per level at any number of agents.
The sorted column and its pairs are built once per column and cached.

Every floor errs downward, so the resulting rate is a true bound; the
price of each conservative step is only a smaller reported rate.  Both
floors are computed in log space and rounded down there by a margin
proportional to the magnitude of the log terms, which covers the
rounding of every elementary function and sum; an exact floor (1 for
the density floor when no exponent exceeds 1) stays exact.  The ladder,
the mass and the rate are rounded down the same way, so each reported
number is a lower bound on its exact value given the floors.

``scipy.special`` (``gammaln``, ``digamma``, ``gammainc``, ``gammaincc``)
is imported inside the functions that call it, so only ``bound`` pays
for loading scipy, on its first call; importing this module does not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .economy import (
    EconomyConfig,
    NonPositiveExponent,
    State,
    config_digest,
    require_validated,
)
from .simulate import _embedded_batch
from .stats import HistogramBinning, binned_tv, default_binning

__all__ = [
    "NumericalNonConvergence",
    "rate_ratio",
    "density_ratio_floor",
    "gamma_ratio_floor",
    "DoeblinLevel",
    "minorization_coefficients",
    "minorization_mass",
    "optimize_rate",
    "GoodBound",
    "DoeblinReport",
    "doeblin_report",
    "MinorizationCheck",
    "minorization_check",
]


class NumericalNonConvergence(RuntimeError):
    """A numerical search could not locate what it was asked for."""


def rate_ratio(cfg: EconomyConfig) -> float:
    """min/max off-diagonal encounter rate; 1 for uniform rates."""
    require_validated(cfg)
    return cfg.min_rate / cfg.max_rate


def _check_alphas(level, alphas):
    if not isinstance(level, (int, np.integer)) or level < 2:
        raise ValueError(f"level must be an integer >= 2, got {level!r}")
    a = np.asarray(alphas, dtype=float).ravel()
    if a.size < level + 1:
        raise ValueError(
            f"level {level} needs at least {level + 1} exponents, got {a.size}"
        )
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise NonPositiveExponent("all exponents must be positive")
    return int(level), a


class _Exponents(NamedTuple):
    """One exponent column, as both floors use it.

    ``desc`` holds the exponents in descending order, so an exponent's
    rank is its index there, and ``prefix[k]`` is the sum of the ``k``
    largest.  ``first`` holds the rank of each distinct value's first
    copy, ``twins`` that of each value that occurs at least twice (its
    second copy has the next rank).  ``pair_a`` and ``pair_b`` list every
    ordered exponent pair that two different agents can hold: one per
    ordered pair of distinct values, and ``(v, v)`` for each repeated
    ``v``.
    """

    desc: np.ndarray
    prefix: np.ndarray
    first: np.ndarray
    twins: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray


@functools.lru_cache(maxsize=16)
def _exponents_for(alpha_bytes: bytes) -> _Exponents:
    desc = np.sort(np.frombuffer(alpha_bytes))[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(desc)))
    first = np.flatnonzero(np.concatenate(([True], desc[1:] != desc[:-1])))
    twins = first[np.diff(np.append(first, desc.size)) > 1]
    ra, rb = _rank_pairs(first, twins)
    table = _Exponents(desc, prefix, first, twins, desc[ra], desc[rb])
    # Shared by every caller with the same column: keep it read-only.
    for a in table:
        a.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _distinct_index_pairs(k: int):
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _rank_pairs(ranks, twins):
    """Ordered pairs of distinct ranks: every pair of entries of the
    unique ``ranks``, and ``(t, t + 1)`` for each twin rank ``t``.  Both
    ranks of a twin pair hold one value and fall on the same side of any
    prefix the gamma floor takes, so the reverse order adds nothing."""
    i, j = _distinct_index_pairs(ranks.size)
    return np.concatenate((ranks[i], twins)), np.concatenate((ranks[j], twins + 1))


# Relative error allowed per unit of log-term magnitude: a few ulps for each
# elementary function and each rounding of the sums that combine them.
_LOG_SLACK = 8.0 * np.finfo(float).eps


def _exp_floor(log_values, sizes) -> float:
    """Certified ``exp`` of the smallest of ``log_values``, rounded down.

    ``sizes[k]`` bounds the magnitudes that went into ``log_values[k]``;
    the computed log errs by at most ``_LOG_SLACK * sizes[k]`` and is
    lowered by that much before the minimum.  ``exp`` itself may round up
    by an ulp, so its result steps one ulp toward zero, except at a log of
    exactly 0 (built from terms of size 0), whose ``exp`` is exactly 1.
    """
    lo = float(np.min(np.asarray(log_values) - _LOG_SLACK * np.asarray(sizes)))
    return 1.0 if lo == 0.0 else math.nextafter(math.exp(lo), 0.0)


def density_ratio_floor(level, alphas) -> float:
    """Certified lower bound of the comparison function
    ``(x - y)**(a - 1) * x**(1 - a - b)`` over ``y in [0, 1/(level+1)]``,
    ``x in [y + 1/(level(level+1)), 1]``, minimized over all ordered
    exponent pairs ``(a, b)`` drawn from ``alphas``.

    With ``u = x - y`` the region is ``delta <= u <= x <= min(1, u + c)``
    (``c = 1/(n+1)``, ``delta = 1/(n(n+1))``, ``n = level``) and the
    function is ``(u/x)**(a-1) * x**(-b)``.  For ``a <= 1`` both factors
    are at least 1, and both equal 1 at ``u = x = 1``: the minimum is 1.
    For ``a > 1`` the function rises with ``u``, so the minimum lies on
    the lower boundary ``u = max(delta, x - c)``; along its first piece
    it is monotone in ``x``, and along the second its only critical point
    is a maximum.  The minimum is therefore at a vertex, and of the three
    candidates the two at ``x = 1/n`` and ``x = 1`` can bind:
    ``((n+1)/n)**(1-a) * min(1, n**(1+b-a))``.

    Scanning every ordered pair of exponent values that two agents hold
    covers every relabeling of which agents are in play at this induction
    level, so the result is valid (if conservative) for all of them.  The
    function depends on the values alone, so the scan takes each ordered
    pair of distinct values once, and ``(v, v)`` only where two agents
    hold ``v``: O(D**2) work for D distinct values, whatever the number
    of agents.  Scale-free in the good's total.
    """
    level, alphas = _check_alphas(level, alphas)
    table = _exponents_for(alphas.tobytes())
    a, b = table.pair_a, table.pair_b
    log_step, log_n = math.log1p(1.0 / level), math.log(level)
    binds = a > 1.0
    log_f = (1.0 - a) * log_step + np.minimum(0.0, 1.0 + b - a) * log_n
    size = (1.0 + a) * log_step + (1.0 + a + b) * log_n
    return _exp_floor(np.where(binds, log_f, 0.0), np.where(binds, size, 0.0))


def _worst_sums(level, table):
    """``(a, b, s)`` for every ordered rank pair the gamma floor needs:
    ``s`` is the worst in-play sum for ``a`` when ``b`` joins."""
    m = level - 1
    ranks = np.union1d(table.first, np.arange(m, min(m + 3, table.desc.size)))
    ra, rb = _rank_pairs(ranks, table.twins)
    a, b = table.desc[ra], table.desc[rb]
    lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    taken = m + (lo < m) + (hi <= m)  # prefix length once a and b are skipped
    s = table.prefix[taken] + np.where(ra < taken, 0.0, a) - np.where(rb < taken, b, 0.0)
    return a, b, s


def gamma_ratio_floor(level, alphas) -> float:
    """Certified lower bound, over agent relabelings, of

        Gamma(a + b) / Gamma(a) * Gamma(s) / Gamma(s + b)

    where ``a`` is one in-play exponent, ``b`` the newly added one, and
    ``s`` the sum over the ``level`` in-play exponents.  The ratio falls
    as ``s`` grows, so for each ordered pair ``(a, b)`` the worst case
    takes the ``level - 1`` largest remaining exponents into ``s``: a
    prefix of the exponents sorted in descending order, lengthened past
    the ranks of ``a`` and ``b`` where they fall inside it.

    The computed ``s`` (rounding included) depends on the ranks of ``a``
    and ``b`` only through where each falls: below ``m = level - 1``, at
    ``m``, or above it.  Every such case is met by pairs drawn from each
    distinct value's first rank, the ranks ``m`` to ``m + 2``, and each
    repeated value's first two ranks, so those O(D**2) pairs for D
    distinct values give exactly the floor that every pair of agents
    would give.
    """
    from scipy.special import digamma, gammaln

    level, alphas = _check_alphas(level, alphas)
    a, b, s = _worst_sums(level, _exponents_for(alphas.tobytes()))
    terms = np.stack([gammaln(a + b), -gammaln(a), gammaln(s), -gammaln(s + b)])
    # gammaln is accurate to a few ulps of max(|value|, 1).  The rounding of
    # s, at most (level + 3) ulps of s + b, moves the log by up to
    # digamma(s + b) - digamma(s) per unit of s.
    size = (np.abs(terms) + 1.0).sum(axis=0) + (level + 3.0) * (s + b) * (
        digamma(s + b) - digamma(s)
    )
    return _exp_floor(terms.sum(axis=0), size)


@dataclass(frozen=True)
class DoeblinLevel:
    """One rung of the induction: the coefficient for ``n`` agents plus
    the floors consumed by the step up to ``n + 1`` (absent at the top
    level, which has no next step)."""

    n: int
    density_floor: float | None
    gamma_floor: float | None
    coefficient: float
    log_coefficient: float


def minorization_coefficients(cfg: EconomyConfig, good: int) -> tuple[DoeblinLevel, ...]:
    """The coefficient ladder for one good, from the exact base (two
    agents, coefficient 1) up to the full economy.  The product is
    accumulated in log space; linear coefficients underflow fast."""
    require_validated(cfg)
    if not (0 <= good < cfg.n_goods):
        raise IndexError(f"good index {good} out of range")
    alphas = cfg.exponents[:, good]
    rho = rate_ratio(cfg)
    levels, terms, size = [], [], 0.0
    for n in range(2, cfg.n_agents + 1):
        # fsum rounds the sum of every term so far once, within the margin;
        # the log is lowered by the margin and its exp one ulp further.
        log_c = math.fsum(terms) - _LOG_SLACK * size
        if n == cfg.n_agents:  # the top level has no step up, so no floors
            levels.append(DoeblinLevel(n, None, None, _exp_floor(log_c, 0.0), log_c))
            return tuple(levels)
        dens = density_ratio_floor(n, alphas)
        gam = gamma_ratio_floor(n, alphas)
        levels.append(DoeblinLevel(n, dens, gam, _exp_floor(log_c, 0.0), log_c))
        step = (
            (1.0 - n) * math.log1p(2.0 / ((n - 1.0) * rho)),
            math.log(2.0 * rho / (n * (n + 1.0))),
            math.log(gam),
            math.log(dens),
        )
        terms += step
        # Each term errs by a few ulps of its size; the second also by a few
        # ulps for the rounding of its argument, hence the 1.
        size += math.fsum(map(abs, step)) + 1.0


def _poisson_split(k: int, lam: float):
    """(P[X < k], P[X >= k]) for X ~ Poisson(lam), each to full precision.

    The tail comes from the regularized incomplete Gamma identity
    P[X >= k] = P(k, lam); the head switches to direct summation where
    the complementary route would cancel.
    """
    from scipy.special import gammainc, gammaincc

    if k <= 0:
        return 0.0, 1.0
    if lam <= 0.0:
        return 1.0, 0.0
    if lam < 30.0 and k <= 64:
        term = math.exp(-lam)
        low = term
        for j in range(1, k):
            term *= lam / j
            low += term
        return min(low, 1.0), float(gammainc(k, lam))
    return float(gammaincc(k, lam)), float(gammainc(k, lam))


# Relative error allowed in a Poisson tail per unit of |log(tail)| + k + 1.
# Against a 40-digit mpmath (k < 300, lam from 1e-14 to 3e4) the tail of
# _poisson_split erred by at most 7.5 ulps per unit; this is four times that.
_POISSON_SLACK = 32.0 * np.finfo(float).eps


def _check_mass_args(coefficient, total_rate, n_agents):
    if not (0.0 < coefficient <= 1.0):
        raise ValueError(f"coefficient must lie in (0, 1], got {coefficient!r}")
    if not (total_rate > 0.0 and math.isfinite(total_rate)):
        raise ValueError(f"total_rate must be positive, got {total_rate!r}")
    if not isinstance(n_agents, (int, np.integer)) or n_agents < 2:
        raise ValueError(f"n_agents must be an integer >= 2, got {n_agents!r}")


def minorization_mass(
    coefficient: float, total_rate: float, n_agents: int, tau: float
) -> float:
    """Mass of the dominated component for the time-``tau`` chain: the
    coefficient times the probability of at least ``n_agents - 1`` events
    in a window of length ``tau``, rounded down."""
    _check_mass_args(coefficient, total_rate, n_agents)
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau!r}")
    k = int(n_agents) - 1
    _, tail = _poisson_split(k, total_rate * tau)
    # The tail is the exp of a sum of logs, so its error grows with its log;
    # a relative error in the rounded total_rate * tau moves it by at most k
    # times as much (its elasticity in lam).
    if tail > 0.0:
        tail *= 1.0 - _POISSON_SLACK * (abs(math.log(tail)) + k + 1.0)
    return math.nextafter(coefficient * tail, 0.0)


def _log_survival(coefficient: float, k: int, lam: float) -> float:
    # log(1 - mass) without cancellation: 1 - c*tail == (1 - c) + c*head.
    head, tail = _poisson_split(k, lam)
    mass = coefficient * tail
    if mass < 0.5:
        return math.log1p(-mass)
    rest = (1.0 - coefficient) + coefficient * head
    if rest <= 0.0:
        return -math.inf
    return math.log(rest)


def optimize_rate(
    coefficient: float, total_rate: float, n_agents: int
) -> tuple[float, float]:
    """Maximize the certified rate ``-log(1 - mass(tau)) / tau`` over
    ``tau > 0``; returns ``(tau_star, certified_rate)``, the rate at
    ``tau_star`` rounded down.

    The search runs in ``lam = total_rate * tau``: a log-spaced grid
    brackets the interior maximum and golden-section search refines it
    to 1e-6 in ``log(lam)``, where rounding noise cannot yet decide it.
    Because the profile in ``lam`` does not involve ``total_rate``, the
    optimum scales exactly linearly when all rates are rescaled.  A flat
    profile (two agents, coefficient 1: the rate equals ``total_rate``
    for every ``tau``) returns the middle of the grid; a maximum pinned
    to either grid edge means no interior maximizer exists and raises
    :class:`NumericalNonConvergence`.
    """
    _check_mass_args(coefficient, total_rate, n_agents)
    k = int(n_agents) - 1

    def profile(lam: float) -> float:
        return -_log_survival(coefficient, k, lam) / lam

    def certified(lam: float) -> tuple[float, float]:
        # From the rounded-down mass: log1p errs by an ulp or so of its
        # size, within _LOG_SLACK; the division rounds once more, one ulp.
        tau = lam / total_rate
        mass = minorization_mass(coefficient, total_rate, n_agents, tau)
        return tau, math.nextafter(-math.log1p(-mass) * (1.0 - _LOG_SLACK) / tau, 0.0)

    lams = np.geomspace(1e-4, max(1e4, 200.0 * k), 400)
    vals = np.array([profile(l) for l in lams])
    finite = np.isfinite(vals)
    if not finite.any():
        raise NumericalNonConvergence("rate profile evaluated non-finite everywhere")
    vmax = float(vals[finite].max())
    vmin = float(vals[finite].min())
    if vmax - vmin <= 1e-12 * abs(vmax):
        return certified(float(lams[len(lams) // 2]))
    i = int(np.argmax(np.where(finite, vals, -np.inf)))
    # A non-finite neighbor means the survival probability underflowed to
    # zero next door (coefficient 1): the profile is still climbing there
    # and the supremum sits at tau = infinity, not at an interior point.
    if i == 0 or i == lams.size - 1 or not (finite[i - 1] and finite[i + 1]):
        raise NumericalNonConvergence(
            "no interior maximum on the search grid; the rate profile is "
            "monotone for these inputs"
        )

    lo, hi = math.log(lams[i - 1]), math.log(lams[i + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - invphi * (hi - lo)
    c2 = lo + invphi * (hi - lo)
    f1, f2 = profile(math.exp(c1)), profile(math.exp(c2))
    best_lam, best_val = float(lams[i]), float(vals[i])
    for cand_l, cand_v in ((math.exp(c1), f1), (math.exp(c2), f2)):
        if cand_v > best_val:
            best_lam, best_val = cand_l, cand_v
    for _ in range(120):
        if f1 < f2:
            lo = c1
            c1, f1 = c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = profile(math.exp(c2))
            cand_l, cand_v = math.exp(c2), f2
        else:
            hi = c2
            c2, f2 = c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = profile(math.exp(c1))
            cand_l, cand_v = math.exp(c1), f1
        if cand_v > best_val:
            best_lam, best_val = cand_l, cand_v
        if hi - lo < 1e-6:
            break
    return certified(best_lam)


@dataclass(frozen=True)
class GoodBound:
    """Certified constants for one good."""

    good: int
    levels: tuple[DoeblinLevel, ...]
    tau_star: float
    mass: float
    certified_rate: float


@dataclass(frozen=True)
class DoeblinReport:
    """All certified constants for an economy, per good and combined.

    The combined rate is the minimum over goods: the stationary law is a
    product over goods and total variation to it is bounded by the sum of
    the per-good distances, so the slowest good controls the decay.
    """

    config_digest: str
    seed: int
    n_agents: int
    n_goods: int
    total_rate: float
    rate_ratio: float
    goods: tuple[GoodBound, ...]
    certified_rate: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 2,
            "config_digest": self.config_digest,
            "seed": int(self.seed),
            "n_agents": int(self.n_agents),
            "n_goods": int(self.n_goods),
            "total_rate": float(self.total_rate),
            "rate_ratio": float(self.rate_ratio),
            "goods": [
                {
                    "good": int(gb.good),
                    "levels": [
                        {
                            "n": int(lv.n),
                            "density_floor": None
                            if lv.density_floor is None
                            else float(lv.density_floor),
                            "gamma_floor": None
                            if lv.gamma_floor is None
                            else float(lv.gamma_floor),
                            "coefficient": float(lv.coefficient),
                            "log_coefficient": float(lv.log_coefficient),
                        }
                        for lv in gb.levels
                    ],
                    "tau_star": float(gb.tau_star),
                    "mass": float(gb.mass),
                    "certified_rate": float(gb.certified_rate),
                }
                for gb in self.goods
            ],
            "certified_rate": float(self.certified_rate),
        }


def doeblin_report(cfg: EconomyConfig) -> DoeblinReport:
    """Compute the full certified report for every good of ``cfg``."""
    require_validated(cfg)
    goods = []
    for g in range(cfg.n_goods):
        levels = minorization_coefficients(cfg, g)
        coeff = levels[-1].coefficient
        tau_star, rate = optimize_rate(coeff, cfg.total_rate, cfg.n_agents)
        mass = minorization_mass(coeff, cfg.total_rate, cfg.n_agents, tau_star)
        goods.append(GoodBound(g, levels, tau_star, mass, rate))
    return DoeblinReport(
        config_digest=config_digest(cfg),
        seed=cfg.seed,
        n_agents=cfg.n_agents,
        n_goods=cfg.n_goods,
        total_rate=cfg.total_rate,
        rate_ratio=rate_ratio(cfg),
        goods=tuple(goods),
        certified_rate=min(gb.certified_rate for gb in goods),
    )


@dataclass(frozen=True)
class MinorizationCheck:
    """Empirical coupling check: after ``steps`` embedded steps from two
    adversarial starts, the binned TV per good must not exceed
    ``1 - coefficient`` beyond the estimator's own noise."""

    steps: int
    n_samples: int
    coefficients: np.ndarray  # (M,)
    tv: np.ndarray            # (M,) point-mass start vs equal-split start
    self_tv: np.ndarray       # (M,) equal-split start vs itself, fresh draws
    threshold: np.ndarray     # (M,) = 1 - coefficient + self_tv + 3/sqrt(n)
    passed: np.ndarray        # (M,) bool
    ok: bool


def minorization_check(
    cfg: EconomyConfig,
    n_samples: int,
    rng: np.random.Generator,
    *,
    steps: int | None = None,
    binning: HistogramBinning | None = None,
) -> MinorizationCheck:
    """Check the coupling consequence of the minorization empirically.

    Two batches start from a point mass (everything at agent 0) and from
    the equal split, evolve ``steps`` embedded steps (default: one fewer
    than the number of agents), and are compared good by good in binned
    TV.  A third, independently evolved equal-split batch supplies the
    estimator's noise floor, which joins a 3-sigma-scale term in the
    threshold.
    """
    require_validated(cfg)
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError("n_samples must be an integer >= 2")
    n_samples = int(n_samples)
    if steps is None:
        steps = cfg.n_agents - 1
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError("steps must be a non-negative integer")

    def batch_from(state):
        h = np.broadcast_to(
            state.holdings, (n_samples,) + state.holdings.shape
        ).copy()
        return _embedded_batch(h, cfg, steps, rng)

    a = batch_from(State.point_mass(cfg, 0))
    b = batch_from(State.equal_split(cfg))
    c = batch_from(State.equal_split(cfg))

    m = cfg.n_goods
    coeffs = np.empty(m)
    tv = np.empty(m)
    self_tv = np.empty(m)
    for g in range(m):
        coeffs[g] = minorization_coefficients(cfg, g)[-1].coefficient
        bng = binning or default_binning(
            n_samples, np.full(cfg.n_agents, cfg.good_totals[g])
        )
        tv[g] = binned_tv(a[:, :, g], b[:, :, g], bng)
        self_tv[g] = binned_tv(b[:, :, g], c[:, :, g], bng)
    threshold = (1.0 - coeffs) + self_tv + 3.0 / math.sqrt(n_samples)
    passed = tv <= threshold
    return MinorizationCheck(
        steps=int(steps),
        n_samples=n_samples,
        coefficients=coeffs,
        tv=tv,
        self_tv=self_tv,
        threshold=threshold,
        passed=passed,
        ok=bool(passed.all()),
    )
