"""Event-driven runner for the exchange process.

Waiting times between encounters are Exponential(K) draws with
``K = sum_{i<j} rates[i, j]``; the meeting pair is chosen with
probability ``rates[i, j] / K`` from a precomputed alias table.

Trajectories run in fixed blocks of ``_BLOCK`` rows that advance to one
sample time after another: each step applies an encounter to every row
whose next event is due, with one vectorized draw each for the pairs,
the Beta fractions and the next waiting times.  Every block advances its
own rows of one shared (n, N, M) array, so once all blocks reach a sample
time that array *is* the ensemble's snapshot: :func:`run_ensemble` hands
it to a caller's per-slice consumer and folds it into moments, and no
run holds more than that one live slice of the ensemble.  Block ``b``
owns one PCG64 stream spawned from ``(config seed, 0, b)``, so results
are bit-identical for any number of worker threads.
The embedded (clock-free) chain is the same step without the clock.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .economy import (
    ConfigError,
    EconomyConfig,
    State,
    _gamma_fractions,
    _split_pair,
    check_state,
    config_digest,
    good_spec,
    require_validated,
    sample_dirichlet,
)

__all__ = [
    "AliasTable",
    "SimulationPlan",
    "Trajectory",
    "EnsembleStats",
    "derived_rng",
    "validate_plan",
    "simulate_trajectory",
    "run_ensemble",
    "plan_digest",
]

# Spawn-key namespaces.  Trajectory blocks use (0, block); statistical
# reference draws elsewhere in the package use 1 and 2 so streams never
# collide.
_NS_TRAJECTORY = 0

# Trajectories per lockstep block.  Fixed, so that which rows share a stream
# never depends on the worker count.
_BLOCK = 1024


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 stream for ``key`` under the given root seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


class AliasTable:
    """Walker alias sampler over a fixed non-negative weight vector.

    Construction walks indices in ascending order, so the table (and hence
    every stream of draws) is deterministic for a given weight vector.
    """

    __slots__ = ("n", "prob", "alias")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)) or w.sum() <= 0.0:
            raise ValueError("weights must be non-negative with a positive sum")
        n = w.size
        scaled = (w * (n / w.sum())).tolist()
        prob = [1.0] * n
        alias = list(range(n))
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            (small if scaled[g] < 1.0 else large).append(g)
        self.n = n
        self.prob = np.asarray(prob)
        self.alias = np.asarray(alias, dtype=np.int64)

    def draw(self, rng: np.random.Generator) -> int:
        i = int(rng.integers(self.n))
        return i if rng.random() < self.prob[i] else int(self.alias[i])

    def draw_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(self.n, size=size)
        u = rng.random(size)
        return np.where(u < self.prob[idx], idx, self.alias[idx])


def _pair_table(cfg: EconomyConfig):
    """Alias table plus (i, j) lookup arrays over upper-triangle pairs,
    built once per rate matrix."""
    return _pair_table_for(cfg.n_agents, np.asarray(cfg.rates, dtype=float).tobytes())


@functools.lru_cache(maxsize=16)
def _pair_table_for(n: int, rate_bytes: bytes):
    rates = np.frombuffer(rate_bytes).reshape(n, n)
    iu, ju = np.triu_indices(n, 1)
    table = AliasTable(rates[iu, ju])
    # Shared by every caller with the same rates: keep it read-only.
    for a in (table.prob, table.alias, iu, ju):
        a.setflags(write=False)
    return table, iu, ju


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """What to simulate: which economy, for how long, how many copies,
    where snapshots are taken, and where trajectories start.

    ``initial_state`` is a :class:`State`, the string ``"endowments"``, or
    the string ``"equilibrium"`` (a fresh per-good Dirichlet draw for every
    trajectory, taken for a whole block from the block's stream before its
    first step).
    """

    cfg: EconomyConfig
    t_end: float
    sample_times: np.ndarray
    n_trajectories: int
    initial_state: State | str = "endowments"


def validate_plan(plan: SimulationPlan) -> SimulationPlan:
    require_validated(plan.cfg)
    t_end = float(plan.t_end)
    if not math.isfinite(t_end) or t_end < 0.0:
        raise ConfigError(f"t_end must be a finite non-negative real, got {plan.t_end!r}")
    times = np.array(plan.sample_times, dtype=float).ravel()
    if times.size == 0:
        raise ConfigError("sample_times must be non-empty")
    if np.any(~np.isfinite(times)) or np.any(times < 0.0) or np.any(times > t_end):
        raise ConfigError("sample_times must lie within [0, t_end]")
    if np.any(np.diff(times) < 0.0):
        raise ConfigError("sample_times must be sorted ascending")
    if not isinstance(plan.n_trajectories, (int, np.integer)) or plan.n_trajectories < 1:
        raise ConfigError("n_trajectories must be a positive integer")
    init = plan.initial_state
    if isinstance(init, str):
        if init not in ("endowments", "equilibrium"):
            raise ConfigError(f"unknown initial_state {init!r}")
    elif isinstance(init, State):
        check_state(plan.cfg, init)
    else:
        raise ConfigError("initial_state must be a State or a recognized keyword")
    times.setflags(write=False)
    return replace(plan, t_end=t_end, sample_times=times,
                   n_trajectories=int(plan.n_trajectories))


@dataclass
class Trajectory:
    """Snapshots of one realization at the requested sample times.

    A snapshot at time ``s`` is the state immediately before the first
    event after ``s`` (the right-continuous value at ``s``).
    """

    sample_times: np.ndarray
    holdings: np.ndarray  # (T, N, M)
    n_events: int
    seed_used: int


def _initial_block(plan: SimulationPlan, rng: np.random.Generator, h: np.ndarray) -> None:
    """Fill a block's (_BLOCK, N, M) holdings ``h`` with its starting state."""
    cfg = plan.cfg
    init = plan.initial_state
    if isinstance(init, State):
        h[...] = init.holdings
    elif init == "endowments":
        h[...] = cfg.endowments
    else:
        for m in range(cfg.n_goods):
            h[:, :, m] = sample_dirichlet(good_spec(cfg, m), rng, size=_BLOCK)


def _encounters(h, rows, table, exponents, rng):
    """One encounter on each listed row of the (B, N, M) batch ``h``, in
    place: a meeting pair per row, then a Beta fraction per good, applied
    through the bit-exact pair split."""
    alias, iu, ju = table
    p = alias.draw_many(rng, rows.size)
    i = iu[p]
    j = ju[p]
    frac = _gamma_fractions(exponents[i], exponents[j], rng)
    gi, gj = _split_pair(h[rows, i] + h[rows, j], frac)
    h[rows, i] = gi
    h[rows, j] = gj


def _block_seed(cfg: EconomyConfig, block: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_NS_TRAJECTORY, block))


def _block_states(plan, block, table, h, n_events):
    """Advance one block to each sample time, then to ``t_end``, in place:
    ``h`` holds its (_BLOCK, N, M) holdings and ``n_events`` its per-row
    event counts, and the generator yields once at each stop.  A snapshot
    at ``s`` takes every event at or before ``s``.  Every row runs, so a
    row is the same whatever the ensemble size."""
    cfg = plan.cfg
    rng = np.random.Generator(np.random.PCG64(_block_seed(cfg, block)))
    _initial_block(plan, rng, h)
    n_events[:] = 0
    t_next = rng.standard_exponential(_BLOCK) / cfg.total_rate
    for t in (*plan.sample_times, plan.t_end):
        rows = np.flatnonzero(t_next <= t)
        while rows.size:
            _encounters(h, rows, table, cfg.exponents, rng)
            n_events[rows] += 1
            t_next[rows] += rng.standard_exponential(rows.size) / cfg.total_rate
            rows = rows[t_next[rows] <= t]
        yield


def _stops(plan, workers):
    """The ensemble's live holdings (n, N, M) and event counts (n,) at
    each sample time, then at ``t_end``: views of the arrays whose rows
    the blocks advance.  ``workers`` threads advance whole blocks, one
    ``next()`` per block per stop."""
    cfg = plan.cfg
    n = plan.n_trajectories
    n_blocks = -(-n // _BLOCK)
    h = np.empty((n_blocks, _BLOCK, cfg.n_agents, cfg.n_goods))
    n_events = np.empty((n_blocks, _BLOCK), dtype=np.int64)
    table = _pair_table(cfg)
    blocks = [_block_states(plan, b, table, h[b], n_events[b]) for b in range(n_blocks)]
    snapshot = h.reshape(-1, cfg.n_agents, cfg.n_goods)[:n]
    snapshot.setflags(write=False)  # consumers read the live ensemble, never write it
    workers = min(workers, n_blocks)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        step = pool.map if pool else map
        for _ in range(plan.sample_times.size + 1):
            list(step(next, blocks))
            yield snapshot, n_events.reshape(-1)[:n]


def simulate_trajectory(plan: SimulationPlan, trajectory_index: int) -> Trajectory:
    """Run one trajectory: row ``trajectory_index % _BLOCK`` of block
    ``trajectory_index // _BLOCK``, the same row :func:`run_ensemble`
    uses.  Deterministic given (cfg.seed, trajectory_index)."""
    plan = validate_plan(plan)
    if not isinstance(trajectory_index, (int, np.integer)) or trajectory_index < 0:
        raise ValueError("trajectory_index must be a non-negative integer")
    cfg = plan.cfg
    block, row = divmod(int(trajectory_index), _BLOCK)
    h = np.empty((_BLOCK, cfg.n_agents, cfg.n_goods))
    n_events = np.empty(_BLOCK, dtype=np.int64)
    snaps = [h[row].copy()
             for _ in _block_states(plan, block, _pair_table(cfg), h, n_events)]
    seed_used = int(_block_seed(cfg, block).generate_state(1, dtype=np.uint64)[0])
    return Trajectory(plan.sample_times, np.stack(snaps[:-1]),
                      int(n_events[row]), seed_used)


@dataclass
class EnsembleStats:
    """Cross-trajectory statistics at every sample time: the sample mean
    and the sample variance (ddof=1) of every holding."""

    sample_times: np.ndarray
    n_trajectories: int
    means: np.ndarray             # (T, N, M)
    variances: np.ndarray         # (T, N, M)
    event_counts: np.ndarray      # (n_trajectories,) int64, up to t_end
    plan_digest: str


def run_ensemble(plan: SimulationPlan, *, workers: int = 1, each=None) -> EnsembleStats:
    """Simulate ``plan.n_trajectories`` independent trajectories and fold
    them, one sample time at a time, into per-time means and variances,
    plus each trajectory's event count up to ``t_end``.

    ``each``, if given, is called as ``each(k, holdings)`` at sample time
    ``k`` with the ensemble's (n_trajectories, N, M) holdings, in order.
    The array is the live ensemble, read-only: it changes once the call
    returns, so a caller that keeps a slice copies it.  Memory does not grow with the
    number of sample times, and everything is bit-identical for any
    ``workers``.
    """
    plan = validate_plan(plan)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cfg = plan.cfg
    n_traj = plan.n_trajectories
    n_times = plan.sample_times.size
    means = np.empty((n_times, cfg.n_agents, cfg.n_goods))
    variances = np.empty_like(means)
    stops = _stops(plan, workers)
    for k in range(n_times):
        h, _ = next(stops)
        if each is not None:
            each(k, h)
        means[k] = h.mean(axis=0)
        dev = h - means[k]
        with np.errstate(invalid="ignore", divide="ignore"):
            variances[k] = np.square(dev, out=dev).sum(axis=0) / (n_traj - 1)
        del dev  # gone before the next slice's consumer runs
    _, events = next(stops)  # at t_end
    return EnsembleStats(
        sample_times=plan.sample_times,
        n_trajectories=n_traj,
        means=means,
        variances=variances,
        event_counts=events,
        plan_digest=plan_digest(plan),
    )


def _embedded_batch(holdings, cfg, steps, rng):
    """``steps`` embedded (clock-free) steps across a batch of independent
    states, in lockstep: each step picks a pair per state with probability
    rates[i, j] / K and redistributes.  ``holdings`` has shape
    (batch, N, M) and is updated in place."""
    table = _pair_table(cfg)
    rows = np.arange(holdings.shape[0])
    for _ in range(int(steps)):
        _encounters(holdings, rows, table, cfg.exponents, rng)
    return holdings


def plan_digest(plan: SimulationPlan) -> str:
    """Stable hex digest of (config, plan)."""
    init = plan.initial_state
    doc = {
        "config": config_digest(plan.cfg),
        "t_end": float(plan.t_end),
        "sample_times": np.asarray(plan.sample_times, dtype=float).tolist(),
        "n_trajectories": int(plan.n_trajectories),
        "initial_state": init if isinstance(init, str) else np.asarray(init.holdings).tolist(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
