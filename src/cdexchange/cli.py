"""Command-line front end.

Subcommands: ``simulate`` (ensemble moment tables), ``verify``
(convergence report against the stationary law), ``bound`` (certified
rate report), ``preset-kac`` (write the kinetic-gas preset config).

Config files are JSON with an ``economy`` section and an optional
``simulation`` section; unknown keys are rejected.  Outputs never embed
timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bounds import doeblin_report
from .economy import (
    ConfigError,
    EconomyConfig,
    State,
    config_digest,
    validate_config,
)
from .simulate import _BLOCK, SimulationPlan, run_ensemble, validate_plan
from .stats import _MIN_KS_SAMPLES, ConvergenceTally, convergence_report, default_binning

__all__ = [
    "ParseError",
    "ValidationError",
    "RunManifest",
    "load_config",
    "kac_preset",
    "run",
    "main",
]


class ParseError(ValueError):
    """The config file could not be read or is not well-formed JSON."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """The config parses but violates the schema; ``path`` names the field."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


# Inputs over these limits are refused with exit code 1 before any work:
# runs that could not finish in reasonable time or memory, and presets
# whose N x N rate matrix would be a huge nested list.  A certificate
# ladder costs about 0.2 us per agent and ordered pair of distinct
# exponent values (2-core x86 VM), so its limit is a few minutes of work.
_MAX_EVENTS = 1e9
_MAX_RUN_BYTES = 2 * 2**30
_MAX_LADDER_PAIRS = 1e9
_MAX_PRESET_AGENTS = 1000

_TOP_KEYS = {"economy", "simulation"}
_ECON_KEYS = {"n_agents", "n_goods", "rates", "exponents", "endowments", "seed"}
_SIM_KEYS = {"t_end", "sample_times", "n_trajectories", "initial_state"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_keys(section, obj, allowed, required):
    if not isinstance(obj, dict):
        raise ValidationError("must be an object", path=section)
    for k in obj:
        if k not in allowed:
            raise ValidationError("unknown key", path=f"{section}.{k}")
    for k in required:
        if k not in obj:
            raise ValidationError("missing required key", path=f"{section}.{k}")


def _as_matrix(path, value):
    if not isinstance(value, list) or not value:
        raise ValidationError("must be a non-empty array of arrays", path=path)
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ValidationError("must be a non-empty array", path=f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError("rows have unequal lengths", path=f"{path}[{i}]")
        for j, v in enumerate(row):
            if not _is_number(v):
                raise ValidationError("must be a number", path=f"{path}[{i}][{j}]")
    return value


def _as_int(path, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError("must be an integer", path=path)
    return value


def load_config(path):
    """Parse and validate a config file.

    Returns ``(EconomyConfig, SimulationPlan | None)``; the plan is None
    when the file has no ``simulation`` section.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror or err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}",
            line=err.lineno,
            column=err.colno,
        ) from err

    _require_keys("", doc, _TOP_KEYS, {"economy"})
    econ = doc["economy"]
    _require_keys("economy", econ, _ECON_KEYS, _ECON_KEYS)

    rates = _as_matrix("economy.rates", econ["rates"])
    for i, row in enumerate(rates):
        for j, v in enumerate(row):
            if v < 0:
                raise ValidationError(
                    "encounter rates must be non-negative",
                    path=f"economy.rates[{i}][{j}]",
                )
    exponents = _as_matrix("economy.exponents", econ["exponents"])
    endowments = _as_matrix("economy.endowments", econ["endowments"])

    try:
        cfg = validate_config(
            EconomyConfig(
                n_agents=_as_int("economy.n_agents", econ["n_agents"]),
                n_goods=_as_int("economy.n_goods", econ["n_goods"]),
                rates=np.array(rates, dtype=float),
                exponents=np.array(exponents, dtype=float),
                endowments=np.array(endowments, dtype=float),
                seed=_as_int("economy.seed", econ["seed"]),
            )
        )
    except ConfigError as err:
        raise ValidationError(str(err), path="economy") from err

    plan = None
    if "simulation" in doc:
        sim = doc["simulation"]
        _require_keys("simulation", sim, _SIM_KEYS,
                      {"t_end", "sample_times", "n_trajectories"})
        if not _is_number(sim["t_end"]):
            raise ValidationError("must be a number", path="simulation.t_end")
        times = sim["sample_times"]
        if not isinstance(times, list) or not all(_is_number(v) for v in times):
            raise ValidationError(
                "must be an array of numbers", path="simulation.sample_times"
            )
        init = sim.get("initial_state", "endowments")
        if isinstance(init, list):
            init = State(np.array(_as_matrix("simulation.initial_state", init),
                                  dtype=float))
        elif not isinstance(init, str):
            raise ValidationError(
                "must be a keyword or a holdings matrix",
                path="simulation.initial_state",
            )
        try:
            plan = validate_plan(
                SimulationPlan(
                    cfg=cfg,
                    t_end=float(sim["t_end"]),
                    sample_times=np.array(times, dtype=float),
                    n_trajectories=_as_int(
                        "simulation.n_trajectories", sim["n_trajectories"]
                    ),
                    initial_state=init,
                )
            )
        except ConfigError as err:
            raise ValidationError(str(err), path="simulation") from err
    return cfg, plan


def kac_preset(n_agents: int, seed: int = 0) -> dict:
    """Config document for the kinetic-gas preset: one good, every
    exponent 1/2, uniform unit rates, equal endowments summing to 1."""
    if not isinstance(n_agents, int) or n_agents < 2:
        raise ValidationError("must be an integer >= 2", path="agents")
    if n_agents > _MAX_PRESET_AGENTS:
        raise ValidationError(
            f"must be at most {_MAX_PRESET_AGENTS}, got {n_agents}", path="agents"
        )
    rates = [
        [0.0 if i == j else 1.0 for j in range(n_agents)] for i in range(n_agents)
    ]
    return {
        "economy": {
            "n_agents": n_agents,
            "n_goods": 1,
            "rates": rates,
            "exponents": [[0.5]] * n_agents,
            "endowments": [[1.0 / n_agents]] * n_agents,
            "seed": int(seed),
        },
        "simulation": {
            "t_end": 8.0,
            "sample_times": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
            "n_trajectories": 10000,
            "initial_state": "endowments",
        },
    }


@dataclass(frozen=True)
class RunManifest:
    """One resolved invocation: the command plus every effective option."""

    command: str
    output_dir: str
    config_path: str | None = None
    seed: int | None = None
    t_end: float | None = None
    n_trajectories: int | None = None
    fmt: str = "both"
    workers: int = 1
    agents: int | None = None
    grid: int = 256  # accepted and ignored: the density floor needs no grid


def _strict(obj):
    """``obj`` with every non-finite float replaced by None, so that it
    serializes as strict JSON (``null``, never ``NaN`` or ``Infinity``)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(_strict(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_simulate_csv(path, cfg, ens):
    n, m = cfg.n_agents, cfg.n_goods
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_digest: {config_digest(cfg)}\n")
        fh.write(f"# seed: {cfg.seed}\n")
        w = csv.writer(fh)
        header = ["sample_time"]
        header += [f"mean_a{i}_g{g}" for i in range(n) for g in range(m)]
        header += [f"var_a{i}_g{g}" for i in range(n) for g in range(m)]
        w.writerow(header)
        for t in range(ens.sample_times.size):
            row = [repr(float(ens.sample_times[t]))]
            row += [
                repr(float(ens.means[t, i, g]))
                for i in range(n)
                for g in range(m)
            ]
            row += [
                repr(float(ens.variances[t, i, g]))
                for i in range(n)
                for g in range(m)
            ]
            w.writerow(row)


def _simulate_json(cfg, ens):
    counts = ens.event_counts
    return {
        "schema_version": 1,
        "config_digest": config_digest(cfg),
        "seed": int(cfg.seed),
        "plan_digest": ens.plan_digest,
        "n_trajectories": int(ens.n_trajectories),
        "sample_times": ens.sample_times.tolist(),
        "means": ens.means.tolist(),
        "variances": ens.variances.tolist(),
        "event_counts": {
            "mean": float(counts.mean()),
            "min": int(counts.min()),
            "max": int(counts.max()),
        },
    }


def _apply_overrides(manifest, cfg, plan):
    if manifest.seed is not None:
        cfg = validate_config(replace(cfg, seed=manifest.seed))
        if plan is not None:
            plan = replace(plan, cfg=cfg)
    if plan is not None and manifest.t_end is not None:
        plan = replace(plan, t_end=manifest.t_end)
    if plan is not None and manifest.n_trajectories is not None:
        plan = replace(plan, n_trajectories=manifest.n_trajectories)
    if plan is not None:
        try:
            plan = validate_plan(plan)
        except ConfigError as err:
            raise ValidationError(str(err), path="simulation") from err
    return cfg, plan


def _bytes_per_row(cfg, command):
    """Bytes a run holds at its peak per simulated trajectory.  In 8-byte
    values, with S = N*M holdings: the live ensemble and a temporary copy
    of it (2S) and each row's clock and event count (3); for ``verify``
    also the previous sample time, the Beta CDF of every holding (2S) and
    the temporaries of one good's statistics (3N: ``moment_z_scores``
    holds up to 2.5N, ``binned_tv`` 2N).  None of it grows with the
    number of sample times; a tracemalloc test holds runs to it."""
    s = cfg.n_agents * cfg.n_goods
    return 8 * (2 * s + 3 if command == "simulate" else 4 * s + 3 * cfg.n_agents + 3)


def _law_bytes(plan):
    """Bytes of the exact binned laws that ``verify`` holds, one table of
    8-byte cell masses per good: bins^N cells in joint mode, N * bins in
    marginal mode (see :func:`default_binning`)."""
    n = plan.cfg.n_agents
    binning = default_binning(plan.n_trajectories, np.ones(n))
    cells = binning.bins**n if binning.mode == "joint" else n * binning.bins
    return 8 * plan.cfg.n_goods * cells


def _preflight(plan, command):
    """Refuse a plan whose expected event count or peak memory exceeds
    its limit, before any of it runs."""
    cfg = plan.cfg
    # every block simulates all _BLOCK rows, however few of them are kept
    rows = -(-plan.n_trajectories // _BLOCK) * _BLOCK
    events = cfg.total_rate * plan.t_end * rows
    if not events <= _MAX_EVENTS:
        raise ValidationError(
            f"expected {events:.3g} events (total rate x t_end x {rows} "
            f"simulated trajectories), over the limit of {_MAX_EVENTS:.3g}",
            path="simulation",
        )
    nbytes = _bytes_per_row(cfg, command) * rows
    if command == "verify":
        nbytes += _law_bytes(plan)
    if nbytes > _MAX_RUN_BYTES:
        raise ValidationError(
            f"{command} would hold {nbytes / 2**30:.3g} GiB at its peak ({rows} "
            f"simulated trajectories), over the limit of {_MAX_RUN_BYTES / 2**30:.3g} GiB",
            path="simulation",
        )


def _bound_preflight(cfg):
    """Refuse a config whose certificate ladders would evaluate more than
    the limit of exponent pairs: N levels times D**2 ordered pairs of a
    good's D distinct exponent values, summed over goods."""
    pairs = sum(cfg.n_agents * np.unique(col).size ** 2 for col in cfg.exponents.T)
    if pairs > _MAX_LADDER_PAIRS:
        raise ValidationError(
            f"the certificate ladders would evaluate {pairs:.3g} exponent pairs "
            f"(agents x distinct exponents^2, summed over goods), over the limit "
            f"of {_MAX_LADDER_PAIRS:.3g}",
            path="economy.exponents",
        )


def _dispatch(manifest: RunManifest) -> int:
    if manifest.command not in ("simulate", "verify", "bound", "preset-kac"):
        raise ValidationError(f"unknown command {manifest.command!r}", path="command")
    if manifest.fmt not in ("csv", "json", "both"):
        raise ValidationError(f"unknown format {manifest.fmt!r}", path="format")
    if manifest.command in ("simulate", "verify") and manifest.workers < 1:
        raise ValidationError(f"must be >= 1, got {manifest.workers}", path="workers")
    try:
        os.makedirs(manifest.output_dir, exist_ok=True)
    except OSError as err:
        raise ValidationError(str(err), path="out") from err
    out = manifest.output_dir

    if manifest.command == "preset-kac":
        if manifest.agents is None:
            raise ValidationError("preset-kac requires --agents", path="agents")
        doc = kac_preset(manifest.agents, manifest.seed or 0)
        _write_json(os.path.join(out, "kac_config.json"), doc)
        return 0

    if manifest.config_path is None:
        raise ValidationError(f"{manifest.command} requires --config", path="config")
    cfg, plan = load_config(manifest.config_path)
    cfg, plan = _apply_overrides(manifest, cfg, plan)

    if manifest.command == "bound":
        _bound_preflight(cfg)
        report = doeblin_report(cfg)
        _write_json(os.path.join(out, "doeblin.json"), report.to_json_dict())
        return 0

    if plan is None:
        raise ValidationError(
            f"{manifest.command} needs a 'simulation' section in the config",
            path="simulation",
        )
    _preflight(plan, manifest.command)

    if manifest.command == "simulate":
        ens = run_ensemble(plan, workers=manifest.workers)
        if manifest.fmt in ("csv", "both"):
            _write_simulate_csv(os.path.join(out, "simulate.csv"), cfg, ens)
        if manifest.fmt in ("json", "both"):
            _write_json(os.path.join(out, "simulate.json"), _simulate_json(cfg, ens))
        return 0

    if plan.n_trajectories < _MIN_KS_SAMPLES:
        raise ValidationError(
            f"verify needs at least {_MIN_KS_SAMPLES} trajectories, "
            f"got {plan.n_trajectories}",
            path="trajectories" if manifest.n_trajectories is not None
            else "simulation.n_trajectories",
        )
    tally = ConvergenceTally(plan)
    run_ensemble(tally.plan, workers=manifest.workers, each=tally.add)
    report = convergence_report(tally)
    if manifest.fmt in ("csv", "both"):
        report.write_csv(os.path.join(out, "convergence.csv"))
    if manifest.fmt in ("json", "both"):
        doc = report.to_json_dict()
        doc["config_digest"] = config_digest(cfg)
        _write_json(os.path.join(out, "convergence.json"), doc)
    return 0


def run(manifest: RunManifest) -> int:
    """Execute a manifest.  Exit code 0 on success, 1 for config or
    validation problems, 2 for runtime failures."""
    try:
        return _dispatch(manifest)
    except (ParseError, ValidationError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure, distinct exit code
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with exit code 1, like every other user error
    (argparse's own code is 2, which this CLI keeps for runtime failures).
    Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="cdexchange",
        description="Simulate the exchange economy, verify its stationary "
        "law, and compute certified convergence rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="config JSON path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override seed")

    sim = sub.add_parser("simulate", help="run an ensemble; write moment tables")
    common(sim)
    sim.add_argument("--t-end", type=float, dest="t_end", default=None)
    sim.add_argument("--trajectories", type=int, default=None)
    sim.add_argument("--format", choices=("csv", "json", "both"), default="both")
    sim.add_argument("--workers", type=int, default=1)

    ver = sub.add_parser("verify", help="compare an ensemble to the stationary law")
    common(ver)
    ver.add_argument("--t-end", type=float, dest="t_end", default=None)
    ver.add_argument("--trajectories", type=int, default=None)
    ver.add_argument("--format", choices=("csv", "json", "both"), default="both")
    ver.add_argument("--workers", type=int, default=1)

    bnd = sub.add_parser("bound", help="write the certified rate report")
    common(bnd)
    bnd.add_argument(
        "--grid", type=int, default=256,
        help="ignored: the density floor is exact (kept for old scripts)",
    )

    kac = sub.add_parser("preset-kac", help="write the kinetic-gas preset config")
    kac.add_argument("--agents", type=int, required=True)
    kac.add_argument("--out", required=True)
    kac.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    manifest = RunManifest(
        command=args.command,
        output_dir=args.out,
        config_path=getattr(args, "config", None),
        seed=getattr(args, "seed", None),
        t_end=getattr(args, "t_end", None),
        n_trajectories=getattr(args, "trajectories", None),
        fmt=getattr(args, "format", "both"),
        workers=getattr(args, "workers", 1),
        agents=getattr(args, "agents", None),
        grid=getattr(args, "grid", 256),
    )
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
