"""Model types and the single-encounter exchange kernel.

``N`` agents hold non-negative amounts of ``M`` divisible goods.  Pairs
``(i, j)`` meet at rate ``rates[i, j]``; at a meeting they pool each good
and split it afresh, good by good, the fraction kept by agent ``i`` being
a Beta(exponents[i, m], exponents[j, m]) draw, independently across
goods.  Per-good totals are conserved, so one good's holdings live on the
scaled simplex ``{g >= 0 : sum(g) = G}``, and the stationary law of the
whole process is a product of Dirichlet distributions, one per good.

Everything stochastic takes an explicit ``numpy.random.Generator``.
This module needs numpy only, so importing the package, validating a
config and simulating never load scipy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ConfigError",
    "NonSymmetricRates",
    "NonPositiveOffDiagonalRate",
    "NonPositiveExponent",
    "ZeroTotalGood",
    "BadDimensions",
    "NegativeEndowment",
    "NonPositiveParameter",
    "SameAgent",
    "IndexOutOfRange",
    "ConservationError",
    "NegativeHolding",
    "EconomyConfig",
    "State",
    "DirichletSpec",
    "validate_config",
    "require_validated",
    "check_state",
    "good_spec",
    "beta_sample",
    "apply_encounter",
    "sample_dirichlet",
    "config_digest",
]


class ConfigError(ValueError):
    """A configuration violates a structural constraint."""


class NonSymmetricRates(ConfigError):
    pass


class NonPositiveOffDiagonalRate(ConfigError):
    pass


class NonPositiveExponent(ConfigError):
    pass


class ZeroTotalGood(ConfigError):
    pass


class BadDimensions(ConfigError):
    pass


class NegativeEndowment(ConfigError):
    pass


class NonPositiveParameter(ValueError):
    pass


class SameAgent(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


class ConservationError(ValueError):
    pass


class NegativeHolding(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class EconomyConfig:
    """Static description of one economy.

    The derived fields (``total_rate``, ``good_totals``, ``min_rate``,
    ``max_rate``) are filled in by :func:`validate_config`; functions that
    simulate or bound the process require a validated config.
    """

    n_agents: int
    n_goods: int
    rates: np.ndarray       # (N, N) symmetric, zero diagonal, positive off it
    exponents: np.ndarray   # (N, M) strictly positive
    endowments: np.ndarray  # (N, M) non-negative, positive column sums
    seed: int
    total_rate: float | None = None      # sum of rates over unordered pairs
    good_totals: np.ndarray | None = None  # (M,) column sums of endowments
    min_rate: float | None = None
    max_rate: float | None = None

    def __eq__(self, other):
        if not isinstance(other, EconomyConfig):
            return NotImplemented
        return (
            self.n_agents == other.n_agents
            and self.n_goods == other.n_goods
            and self.seed == other.seed
            and np.array_equal(self.rates, other.rates)
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.endowments, other.endowments)
        )


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def validate_config(cfg: EconomyConfig) -> EconomyConfig:
    """Check every structural invariant and return the config with the
    derived quantities cached.  Arrays in the returned config are
    read-only copies."""
    if not isinstance(cfg.n_agents, (int, np.integer)) or isinstance(cfg.n_agents, bool):
        raise BadDimensions("n_agents must be an integer")
    if not isinstance(cfg.n_goods, (int, np.integer)) or isinstance(cfg.n_goods, bool):
        raise BadDimensions("n_goods must be an integer")
    n, m = int(cfg.n_agents), int(cfg.n_goods)
    if n < 2:
        raise BadDimensions(f"n_agents must be >= 2, got {n}")
    if m < 1:
        raise BadDimensions(f"n_goods must be >= 1, got {m}")

    rates = np.array(cfg.rates, dtype=float)
    if rates.shape != (n, n):
        raise BadDimensions(f"rates must be {n}x{n}, got {rates.shape}")
    if not np.all(np.isfinite(rates)):
        raise ConfigError("rates must be finite")
    if not np.array_equal(rates, rates.T):
        bad = np.argwhere(rates != rates.T)[0]
        raise NonSymmetricRates(
            f"rates[{bad[0]}][{bad[1]}] != rates[{bad[1]}][{bad[0]}]"
        )
    if np.any(np.diag(rates) != 0.0):
        i = int(np.argwhere(np.diag(rates) != 0.0)[0][0])
        raise ConfigError(f"rates[{i}][{i}] must be zero on the diagonal")
    off = ~np.eye(n, dtype=bool)
    if np.any(rates[off] <= 0.0):
        i, j = np.argwhere((rates <= 0.0) & off)[0]
        raise NonPositiveOffDiagonalRate(
            f"rates[{i}][{j}] must be positive for i != j"
        )

    exponents = np.array(cfg.exponents, dtype=float)
    if exponents.shape != (n, m):
        raise BadDimensions(f"exponents must be {n}x{m}, got {exponents.shape}")
    if not np.all(np.isfinite(exponents)) or np.any(exponents <= 0.0):
        i, j = np.argwhere(~(np.isfinite(exponents) & (exponents > 0.0)))[0]
        raise NonPositiveExponent(f"exponents[{i}][{j}] must be positive")

    endowments = np.array(cfg.endowments, dtype=float)
    if endowments.shape != (n, m):
        raise BadDimensions(f"endowments must be {n}x{m}, got {endowments.shape}")
    if not np.all(np.isfinite(endowments)) or np.any(endowments < 0.0):
        i, j = np.argwhere(~(np.isfinite(endowments) & (endowments >= 0.0)))[0]
        raise NegativeEndowment(f"endowments[{i}][{j}] must be non-negative")
    totals = endowments.sum(axis=0)
    if np.any(totals <= 0.0):
        g = int(np.argwhere(totals <= 0.0)[0][0])
        raise ZeroTotalGood(f"good {g} has zero total endowment")

    if not isinstance(cfg.seed, (int, np.integer)) or isinstance(cfg.seed, bool):
        raise ConfigError("seed must be an integer")
    if not (0 <= int(cfg.seed) < 2**64):
        raise ConfigError("seed must fit in 64 unsigned bits")

    offdiag = rates[off]
    return replace(
        cfg,
        n_agents=n,
        n_goods=m,
        rates=_frozen(rates),
        exponents=_frozen(exponents),
        endowments=_frozen(endowments),
        seed=int(cfg.seed),
        total_rate=float(rates[np.triu_indices(n, 1)].sum()),
        good_totals=_frozen(totals),
        min_rate=float(offdiag.min()),
        max_rate=float(offdiag.max()),
    )


def require_validated(cfg: EconomyConfig) -> None:
    if cfg.total_rate is None or cfg.good_totals is None:
        raise ConfigError("config must pass validate_config first")


@dataclass
class State:
    """Holdings matrix, one row per agent, one column per good."""

    holdings: np.ndarray

    @classmethod
    def point_mass(cls, cfg: EconomyConfig, agent: int = 0) -> "State":
        require_validated(cfg)
        h = np.zeros((cfg.n_agents, cfg.n_goods))
        h[agent] = cfg.good_totals
        return cls(h)

    @classmethod
    def equal_split(cls, cfg: EconomyConfig) -> "State":
        require_validated(cfg)
        h = np.tile(cfg.good_totals / cfg.n_agents, (cfg.n_agents, 1))
        return cls(h)


def check_state(cfg: EconomyConfig, state: State) -> None:
    """Raise unless ``state`` is a valid point of the configured state space:
    correct shape, non-negative entries, per-good totals conserved to
    relative 1e-9."""
    require_validated(cfg)
    h = np.asarray(state.holdings, dtype=float)
    if h.shape != (cfg.n_agents, cfg.n_goods):
        raise BadDimensions(
            f"holdings must be {cfg.n_agents}x{cfg.n_goods}, got {h.shape}"
        )
    if np.any(h < 0.0):
        i, j = np.argwhere(h < 0.0)[0]
        raise NegativeHolding(f"holdings[{i}][{j}] is negative")
    totals = h.sum(axis=0)
    bad = np.abs(totals - cfg.good_totals) > 1e-9 * cfg.good_totals
    if np.any(bad):
        g = int(np.argwhere(bad)[0][0])
        raise ConservationError(
            f"good {g} total {totals[g]!r} drifted from {cfg.good_totals[g]!r}"
        )


@dataclass(frozen=True, eq=False)
class DirichletSpec:
    """One good's stationary law: ``total`` times a Dirichlet(``alphas``)
    point, so the holdings sum to ``total``.  ``exponent_sum`` is the sum
    of ``alphas``, filled in on construction."""

    alphas: np.ndarray
    total: float
    exponent_sum: float = 0.0

    def __post_init__(self):
        a = np.array(self.alphas, dtype=float).ravel()
        if a.size < 2:
            raise BadDimensions("need at least two agents")
        if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
            raise NonPositiveExponent("all Dirichlet exponents must be positive")
        total = float(self.total)
        if not math.isfinite(total) or total <= 0.0:
            raise ZeroTotalGood("total must be positive")
        object.__setattr__(self, "alphas", _frozen(a))
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "exponent_sum", float(a.sum()))


def good_spec(cfg: EconomyConfig, good: int) -> DirichletSpec:
    """Stationary Dirichlet spec of one good column."""
    require_validated(cfg)
    if not (0 <= good < cfg.n_goods):
        raise IndexOutOfRange(f"good index {good} out of range")
    return DirichletSpec(cfg.exponents[:, good], float(cfg.good_totals[good]))


def beta_sample(a: float, b: float, rng: np.random.Generator) -> float:
    """One Beta(a, b) variate via the two-Gamma ratio
    Gamma(a) / (Gamma(a) + Gamma(b)), which stays valid for shapes < 1."""
    if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise NonPositiveParameter(f"Beta shapes must be positive, got {a}, {b}")
    return float(_gamma_fractions(a, b, rng))


def _gamma_fractions(a, b, rng):
    # Gamma-ratio construction, vectorized over goods.  The zero-sum redraw
    # only ever fires when both shapes are tiny enough to underflow.
    x = rng.standard_gamma(a)
    y = rng.standard_gamma(b)
    s = x + y
    while np.any(s == 0.0):
        zero = s == 0.0
        x = np.where(zero, rng.standard_gamma(a), x)
        y = np.where(zero, rng.standard_gamma(b), y)
        s = x + y
    return x / s


def _split_pair(pooled, fraction):
    """Split ``pooled`` into two parts that sum back to it bit-exactly.

    The second subtraction makes the larger part the exact complement of
    the smaller one (Sterbenz), so ``gi + gj == pooled`` in floats.
    """
    gi = pooled * fraction
    gj = pooled - gi
    gi = pooled - gj
    return gi, gj


def apply_encounter(
    state: State, i: int, j: int, cfg: EconomyConfig, rng: np.random.Generator
) -> State:
    """One meeting of agents ``i`` and ``j``: each good is pooled and
    re-split by an independent Beta(exponents[i, m], exponents[j, m])
    fraction.  Returns a new state; the pair sum per good is restored
    bit-exactly."""
    require_validated(cfg)
    if not (0 <= i < cfg.n_agents and 0 <= j < cfg.n_agents):
        raise IndexOutOfRange(f"agent index out of range: ({i}, {j})")
    if i == j:
        raise SameAgent("an agent cannot meet itself")
    h = np.array(state.holdings, dtype=float)
    if h.shape != (cfg.n_agents, cfg.n_goods):
        raise BadDimensions("state shape does not match config")
    frac = _gamma_fractions(cfg.exponents[i], cfg.exponents[j], rng)
    h[i], h[j] = _split_pair(h[i] + h[j], frac)
    return State(h)


def sample_dirichlet(spec: DirichletSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact draws from the scaled Dirichlet, shape (size, N), as
    Gamma variates normalized by their sum.  A row whose Gamma variates
    all underflow to zero is redrawn."""
    x = rng.standard_gamma(spec.alphas, size=(int(size), spec.alphas.size))
    s = x.sum(axis=1)
    while np.any(s == 0.0):
        zero = s == 0.0
        x[zero] = rng.standard_gamma(spec.alphas, size=(int(zero.sum()), spec.alphas.size))
        s = x.sum(axis=1)
    x /= s[:, None]
    x *= spec.total
    return x


def config_digest(cfg: EconomyConfig) -> str:
    """Stable hex digest of the validated configuration."""
    require_validated(cfg)
    doc = {
        "n_agents": cfg.n_agents,
        "n_goods": cfg.n_goods,
        "rates": cfg.rates.tolist(),
        "exponents": cfg.exponents.tolist(),
        "endowments": cfg.endowments.tolist(),
        "seed": cfg.seed,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
