"""Event-driven runner for the exchange process.

Waiting times between encounters are Exponential(K) draws with
``K = sum_{i<j} rates[i, j]``; the meeting pair is chosen with
probability ``rates[i, j] / K`` from a precomputed alias table.

Trajectories run in fixed blocks of ``_BLOCK`` rows that advance in
lockstep: each step draws the waiting times, the meeting pairs and the
Beta fractions of every still-running row with one vectorized call each.
Block ``b`` owns one PCG64 stream spawned from ``(config seed, b)``, and
every block writes its own slice of the result, so results are
bit-identical no matter how many worker threads run the blocks or in
which order they finish.  The embedded (clock-free) chain is the same
step without the clock.
"""

from __future__ import annotations

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


def _initial_block(plan: SimulationPlan, rng: np.random.Generator) -> np.ndarray:
    """Starting holdings of a block, shape (_BLOCK, N, M)."""
    cfg = plan.cfg
    init = plan.initial_state
    shape = (_BLOCK, cfg.n_agents, cfg.n_goods)
    if isinstance(init, State):
        return np.array(np.broadcast_to(init.holdings, shape), dtype=float)
    if init == "endowments":
        return np.array(np.broadcast_to(cfg.endowments, shape), dtype=float)
    h = np.empty(shape)
    for m in range(cfg.n_goods):
        h[:, :, m] = sample_dirichlet(good_spec(cfg, m), rng, size=_BLOCK)
    return h


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


def _run_block(plan, block, table, out, events):
    """Run the ``_BLOCK`` trajectories of one block in lockstep.

    Rows are kept from the first: the snapshots of row ``r`` go to
    ``out[:, r]`` (``out`` has shape (T, n_keep, N, M)) and its event count
    to ``events[r]``.  Rows past ``n_keep`` still run, so every row is the
    same whatever the ensemble size.  Returns the seed of the block's
    stream.
    """
    cfg = plan.cfg
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_NS_TRAJECTORY, block))
    seed_used = int(ss.generate_state(1, dtype=np.uint64)[0])
    rng = np.random.Generator(np.random.PCG64(ss))

    n_keep = events.size
    h = _initial_block(plan, rng)
    times = plan.sample_times
    clock = np.zeros(_BLOCK)
    ptr = np.zeros(_BLOCK, dtype=np.intp)  # next sample index of each row
    n_events = np.zeros(_BLOCK, dtype=np.int64)
    rows = np.arange(_BLOCK)  # rows whose clock has not passed t_end
    while True:
        t_next = clock[rows] + rng.standard_exponential(rows.size) / cfg.total_rate
        # Every sample time before a row's next event sees its current
        # holdings (the right-continuous value).
        due = np.searchsorted(times, t_next)
        start = ptr[rows]
        count = np.where(rows < n_keep, due - start, 0)
        if count.any():
            rr = np.repeat(rows, count)
            run_start = np.cumsum(count) - count
            tt = np.arange(rr.size) + np.repeat(start - run_start, count)
            out[tt, rr] = h[rr]
            ptr[rows] = due
        live = t_next <= plan.t_end
        rows = rows[live]
        if rows.size == 0:
            events[:] = n_events[:n_keep]
            return seed_used
        clock[rows] = t_next[live]
        _encounters(h, rows, table, cfg.exponents, rng)
        n_events[rows] += 1


def simulate_trajectory(plan: SimulationPlan, trajectory_index: int) -> Trajectory:
    """Run one trajectory: row ``trajectory_index % _BLOCK`` of block
    ``trajectory_index // _BLOCK``, the same row :func:`run_ensemble`
    returns.  Deterministic given (cfg.seed, trajectory_index)."""
    plan = validate_plan(plan)
    if not isinstance(trajectory_index, (int, np.integer)) or trajectory_index < 0:
        raise ValueError("trajectory_index must be a non-negative integer")
    cfg = plan.cfg
    block, row = divmod(int(trajectory_index), _BLOCK)
    out = np.empty((plan.sample_times.size, row + 1, cfg.n_agents, cfg.n_goods))
    events = np.empty(row + 1, dtype=np.int64)
    seed_used = _run_block(plan, block, _pair_table(cfg), out, events)
    return Trajectory(plan.sample_times, out[:, row].copy(), int(events[row]), seed_used)


@dataclass
class EnsembleStats:
    """Cross-trajectory statistics at every sample time: the sample mean
    and the sample variance (ddof=1) of every holding."""

    sample_times: np.ndarray
    n_trajectories: int
    means: np.ndarray             # (T, N, M)
    variances: np.ndarray         # (T, N, M)
    event_counts: np.ndarray      # (n_trajectories,) int64
    plan_digest: str
    samples: np.ndarray | None = None  # (T, n, N, M) when retained


def run_ensemble(
    plan: SimulationPlan,
    *,
    keep_samples: bool = False,
    workers: int = 1,
) -> EnsembleStats:
    """Simulate ``plan.n_trajectories`` independent trajectories and
    aggregate them.

    ``workers`` only controls how many threads run the blocks; every block
    is a pure function of (plan, block index) and writes its own rows, and
    aggregation runs in index order, so the result is bit-identical for
    any worker count.
    """
    plan = validate_plan(plan)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cfg = plan.cfg
    n_traj = plan.n_trajectories
    n_times = plan.sample_times.size
    shape = (cfg.n_agents, cfg.n_goods)
    table = _pair_table(cfg)

    raw = np.empty((n_times, n_traj) + shape)
    events = np.empty(n_traj, dtype=np.int64)

    def run_block(block):
        lo = block * _BLOCK
        hi = min(lo + _BLOCK, n_traj)
        _run_block(plan, block, table, raw[:, lo:hi], events[lo:hi])

    n_blocks = -(-n_traj // _BLOCK)
    workers = min(workers, n_blocks)
    if workers == 1:
        for block in range(n_blocks):
            run_block(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, range(n_blocks)))

    means = raw.mean(axis=1)
    # One sample time at a time, so the deviations never take a second
    # array the size of ``raw``.
    squares = np.stack([((raw[t] - means[t]) ** 2).sum(axis=0) for t in range(n_times)])
    with np.errstate(invalid="ignore", divide="ignore"):
        variances = squares / (n_traj - 1)

    return EnsembleStats(
        sample_times=plan.sample_times,
        n_trajectories=n_traj,
        means=means,
        variances=variances,
        event_counts=events,
        plan_digest=plan_digest(plan),
        samples=raw if keep_samples else None,
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
