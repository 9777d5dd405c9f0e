"""Certified minorization constants and total-variation convergence rates.

For the fully connected exchange process, the (N-1)-step embedded kernel
dominates a fixed multiple of the stationary Dirichlet law.  The multiple
is built by induction on the number of agents; each analytic ingredient
becomes a certified numerical lower bound here:

* ``rate_ratio``: min/max off-diagonal encounter rate, in (0, 1].
* ``density_ratio_floor``: floor of the two-variable comparison function
  ``(x - y)**(a - 1) * x**(1 - a - b)`` over its admissible wedge, by
  per-cell monotone corner bounds on a grid plus local bisection.
* ``gamma_ratio_floor``: floor of the Gamma-function ratio over agent
  relabelings.
* ``minorization_coefficients``: the inductive coefficients from 2 agents
  up to the full economy, multiplied out in log space.
* ``minorization_mass`` and ``optimize_rate``: the mass of the dominated
  component for the time-``tau`` chain (the coefficient times a Poisson
  tail) and the certified exponential rate, maximized over ``tau``.

Every floor errs downward, so the resulting rate is a true bound; the
price of each conservative step is only a smaller reported rate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

from .economy import (
    EconomyConfig,
    NonPositiveExponent,
    State,
    config_digest,
    good_spec,
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

_MIN_GRID = 64  # coarsest grid the density floor accepts


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


def _cell_floor(a, b, delta, y0, y1, x0, x1):
    # Lower bound of (x-y)**(a-1) * x**(1-a-b) on [y0,y1] x [x0,x1]
    # intersected with the wedge {x >= y + delta}.  Both factors are
    # monotone in their own variable (u = x - y and x respectively), so
    # the bound is a product of corner values; cells that miss the wedge
    # contribute +inf.
    valid = x1 > y0 + delta
    u_lo = np.maximum(delta, x0 - y1)
    u_hi = np.maximum(x1 - y0, u_lo)
    u_at = u_lo if a >= 1.0 else u_hi
    m1 = np.power(np.where(valid, u_at, 1.0), a - 1.0)
    x_min = np.maximum(x0, y0 + delta)
    e2 = 1.0 - a - b
    x_at = x_min if e2 >= 0.0 else x1
    m2 = np.power(np.where(valid, x_at, 1.0), e2)
    return np.where(valid, m1 * m2, np.inf)


def _pair_floor(a, b, level, grid, refine):
    # Certified floor of (x-y)**(a-1) * x**(1-a-b) over
    # y in [0, 1/(level+1)], x in [y + delta, 1], delta = 1/(level(level+1)),
    # at unit total (the function is scale-free in the total).
    delta = 1.0 / (level * (level + 1.0))
    ys = np.linspace(0.0, 1.0 / (level + 1.0), grid + 1)
    xs = np.linspace(delta, 1.0, grid + 1)
    bounds = _cell_floor(
        a, b, delta,
        ys[:-1][:, None], ys[1:][:, None],
        xs[:-1][None, :], xs[1:][None, :],
    )
    yi, xi = np.nonzero(np.isfinite(bounds))
    heap = [
        (float(bounds[r, c]), k,
         float(ys[r]), float(ys[r + 1]), float(xs[c]), float(xs[c + 1]))
        for k, (r, c) in enumerate(zip(yi, xi))
    ]
    heapq.heapify(heap)
    counter = len(heap)
    # Local bisection: repeatedly split the cell holding the current
    # global minimum; children's bounds can only rise, so the heap root
    # stays a certified floor while it tightens toward the exact minimum.
    for _ in range(refine):
        _, _, y0, y1, x0, x1 = heapq.heappop(heap)
        ym, xm = 0.5 * (y0 + y1), 0.5 * (x0 + x1)
        for cy0, cy1 in ((y0, ym), (ym, y1)):
            for cx0, cx1 in ((x0, xm), (xm, x1)):
                v = float(_cell_floor(a, b, delta, cy0, cy1, cx0, cx1))
                if math.isfinite(v):
                    heapq.heappush(heap, (v, counter, cy0, cy1, cx0, cx1))
                    counter += 1
        if not heap:
            break
    return heap[0][0]


def density_ratio_floor(level, alphas, grid: int = 256, refine: int | None = None) -> float:
    """Certified lower bound of the comparison function
    ``(x - y)**(a - 1) * x**(1 - a - b)`` over ``y in [0, 1/(level+1)]``,
    ``x in [y + 1/(level(level+1)), 1]``, minimized over all ordered
    exponent pairs ``(a, b)`` drawn from ``alphas``.

    Scanning every ordered pair covers every relabeling of which agents
    are in play at this induction level, so the result is valid (if
    conservative) for all of them.  Scale-free in the good's total.
    """
    level, a = _check_alphas(level, alphas)
    if grid < _MIN_GRID:
        raise ValueError(f"grid must be >= {_MIN_GRID}, got {grid}")
    if refine is None:
        refine = 4 * grid
    best = math.inf
    seen = set()
    for i in range(a.size):
        for j in range(a.size):
            if i == j or (a[i], a[j]) in seen:
                continue
            seen.add((a[i], a[j]))
            best = min(best, _pair_floor(a[i], a[j], level, grid, refine))
    return float(best)


def gamma_ratio_floor(level, alphas) -> float:
    """Certified lower bound, over agent relabelings, of

        Gamma(a + b) / Gamma(a) * Gamma(s) / Gamma(s + b)

    where ``a`` is one in-play exponent, ``b`` the newly added one, and
    ``s`` the sum over the ``level`` in-play exponents.  The ratio falls
    as ``s`` grows, so for each ordered pair ``(a, b)`` the worst case
    takes the ``level - 1`` largest remaining exponents into ``s``.
    """
    level, a = _check_alphas(level, alphas)
    order = np.argsort(a)[::-1]
    best = math.inf
    for i in range(a.size):
        for j in range(a.size):
            if i == j:
                continue
            rest = [k for k in order if k != i and k != j]
            s = a[i] + a[rest[: level - 1]].sum()
            log_ratio = (
                gammaln(a[i] + a[j]) - gammaln(a[i]) + gammaln(s) - gammaln(s + a[j])
            )
            best = min(best, float(log_ratio))
    return math.exp(best)


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


def minorization_coefficients(
    cfg: EconomyConfig, good: int, grid: int = 256
) -> tuple[DoeblinLevel, ...]:
    """The coefficient ladder for one good, from the exact base (two
    agents, coefficient 1) up to the full economy.  The product is
    accumulated in log space; linear coefficients underflow fast."""
    require_validated(cfg)
    if not (0 <= good < cfg.n_goods):
        raise IndexError(f"good index {good} out of range")
    alphas = cfg.exponents[:, good]
    rho = rate_ratio(cfg)
    levels = []
    log_c = 0.0
    for n in range(2, cfg.n_agents):
        dens = density_ratio_floor(n, alphas, grid)
        gam = gamma_ratio_floor(n, alphas)
        levels.append(DoeblinLevel(n, dens, gam, math.exp(log_c), log_c))
        log_c += (
            (1.0 - n) * math.log1p(2.0 / ((n - 1.0) * rho))
            + math.log(2.0 * rho / (n * (n + 1.0)))
            + math.log(gam)
            + math.log(dens)
        )
    levels.append(DoeblinLevel(cfg.n_agents, None, None, math.exp(log_c), log_c))
    return tuple(levels)


def _poisson_split(k: int, lam: float):
    """(P[X < k], P[X >= k]) for X ~ Poisson(lam), each to full precision.

    The tail comes from the regularized incomplete Gamma identity
    P[X >= k] = P(k, lam); the head switches to direct summation where
    the complementary route would cancel.
    """
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
    in a window of length ``tau``."""
    _check_mass_args(coefficient, total_rate, n_agents)
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau!r}")
    _, tail = _poisson_split(int(n_agents) - 1, total_rate * tau)
    return coefficient * tail


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
    ``tau > 0``; returns ``(tau_star, certified_rate)``.

    The search runs in ``lam = total_rate * tau``: a log-spaced grid
    brackets the interior maximum and golden-section search refines it.
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

    lams = np.geomspace(1e-4, max(1e4, 200.0 * k), 400)
    vals = np.array([profile(l) for l in lams])
    finite = np.isfinite(vals)
    if not finite.any():
        raise NumericalNonConvergence("rate profile evaluated non-finite everywhere")
    vmax = float(vals[finite].max())
    vmin = float(vals[finite].min())
    if vmax - vmin <= 1e-12 * abs(vmax):
        lam_star = float(lams[len(lams) // 2])
        return lam_star / total_rate, total_rate * profile(lam_star)
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
        if hi - lo < 1e-10:
            break
    return best_lam / total_rate, total_rate * best_val


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
    grid: int
    goods: tuple[GoodBound, ...]
    certified_rate: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config_digest": self.config_digest,
            "seed": int(self.seed),
            "n_agents": int(self.n_agents),
            "n_goods": int(self.n_goods),
            "total_rate": float(self.total_rate),
            "rate_ratio": float(self.rate_ratio),
            "grid": int(self.grid),
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


def doeblin_report(cfg: EconomyConfig, grid: int = 256) -> DoeblinReport:
    """Compute the full certified report for every good of ``cfg``."""
    require_validated(cfg)
    goods = []
    for g in range(cfg.n_goods):
        levels = minorization_coefficients(cfg, g, grid)
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
        grid=grid,
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
    grid: int = 256,
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
        coeffs[g] = minorization_coefficients(cfg, g, grid)[-1].coefficient
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
