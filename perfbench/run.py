"""cdexchange benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's config files are
generated from ``--seed`` and the ``cdexchange`` CLI entry point
(``cdexchange.cli.run``) is driven on them in one fresh worker process
(``worker.py``), with at most two threads.  Every CLI exit code is
captured and every output checked; a non-zero exit or a failed check is a
failed operation.  The last line of standard output is the JSON result:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (spans of traced iterations of the workload, one traced
pass of each other workload, and layer microbenchmarks).  Generated
configs, outputs, spans and a run record go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from calibrate import calibration, to_reference
from spans import layer_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "schemas"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
SETUP_CODE = "import sys, cdexchange.cli as cli; cli.load_config(sys.argv[1])"
SUBPROCESS_TIMEOUT_S = 150
OUTPUT_FILES = {
    "simulate": ("simulate.json", "simulate.csv"),
    "verify": ("convergence.json", "convergence.csv"),
    "bound": ("doeblin.json",),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing sources, worker crash)."""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(config_path):
    """Median time of a fresh interpreter that imports cdexchange and
    loads (and validates) the workload's config: (reference seconds, raw
    seconds)."""
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, config_path],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=SUBPROCESS_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        ref.append(to_reference(raw[-1], [before, calibration()]))
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe exited {proc.returncode}")
    return statistics.median(ref), statistics.median(raw)


def run_worker(spec, run_dir):
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           str(spec_path), str(result_path)],
                          env=child_env(), stdout=sys.stderr,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text())


def output_checks(cmd, out, config, seed):
    """Content checks of one command's outputs, named after the command.
    An output that cannot be read or parsed fails as one check."""
    try:
        if cmd["command"] == "simulate":
            results = [checks.simulate_means(out, config)] if cmd["workers"] == 1 else []
        elif cmd["command"] == "verify":
            results = checks.verify_report(out, SCHEMAS)
        else:
            results = checks.bound_report(out, config, SCHEMAS, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        results = [("readable", False, f"{type(err).__name__}: {err}")]
    return [(f"{cmd['name']}.{name}", ok, detail) for name, ok, detail in results]


def check_iteration(it, first, docs, commands, seed):
    """Operations of one iteration: one per CLI invocation (ok when it
    exits 0) and one per output check.  The outputs of every command are
    checked, so a command that should have written them and did not fails
    its checks; only a ``known_failure`` command that exited non-zero is
    exempt, its exit already counting as a failed operation."""
    ops, results = [], []
    for cmd in commands:
        name = cmd["name"]
        res = it["commands"][name]
        ops.append(dict(op=f"{name}.exit", kind="cli", ok=res["rc"] == 0,
                        detail=f"exit {res['rc']} {res['stderr']}".strip()))
        if res["rc"] != 0 and cmd.get("known_failure"):
            continue
        out = os.path.join(it["dir"], name)
        results += output_checks(cmd, out, docs[cmd["config"]], seed)
        results.append(checks.same_bytes(
            f"{name}.rerun_identical", os.path.join(first["dir"], name), out,
            OUTPUT_FILES[cmd["command"]]))
    if {"w1", "w2"} <= it["commands"].keys():
        results.append(checks.same_bytes(
            "workers_identical", os.path.join(it["dir"], "w1"),
            os.path.join(it["dir"], "w2"), OUTPUT_FILES["simulate"]))
    ops += [dict(op=name, kind="check", ok=bool(ok), detail=detail)
            for name, ok, detail in results]
    return ops


def merge_operations(iterations, docs, commands, seed):
    """One operation per CLI command and per output check of the workload,
    failed when it fails in any iteration, so the counts do not depend on
    how many iterations fit in the run."""
    merged = {}
    for it in iterations:
        for op in check_iteration(it, iterations[0], docs, commands, seed):
            if not op["ok"]:
                op = dict(op, detail=f"{it['label']}: {op['detail']}")
            if merged.setdefault(op["op"], op)["ok"] and not op["ok"]:
                merged[op["op"]] = op
    return list(merged.values())


def result_line(ops, metrics, units):
    """The JSON result: correct when every output check passed."""
    return {
        "correct": all(op["ok"] for op in ops if op["kind"] == "check"),
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def timed_wall(it, commands):
    return sum(it["commands"][c["name"]]["wall_s"] for c in commands if c["timed"])


def reference_wall(it, commands):
    """``timed_wall`` in reference seconds (see calibrate.py)."""
    return sum(to_reference(res["wall_s"], res["loop_s"])
               for res in (it["commands"][c["name"]] for c in commands if c["timed"]))


def log10_certified_rate(it):
    path = os.path.join(it["dir"], "distinct", "doeblin.json")
    if it["commands"].get("distinct", {}).get("rc") != 0:
        return None
    with open(path) as fh:
        rate = json.load(fh)["certified_rate"]
    return math.log10(rate) if rate > 0 else None


def _median(values):
    return statistics.median(list(values))


def _span_total(its, cmd, name):
    return _median(it["spans"][cmd][name]["total_s"] for it in its)


def _span_per_call(its, cmd, name):
    rows = [it["spans"][cmd][name] for it in its]
    return _median(row["total_s"] / row["calls"] for row in rows)


def _summed(it, key):
    """{span name: key summed over the commands of one traced iteration}."""
    out = {}
    for summary in it["spans"].values():
        for name, row in summary.items():
            out[name] = out.get(name, 0.0) + row[key]
    return out


def _event_total(it):
    with open(os.path.join(it["dir"], "w1", "simulate.json")) as fh:
        doc = json.load(fh)
    return round(doc["event_counts"]["mean"] * doc["n_trajectories"])


def _distinct_ordered_pairs(alphas):
    return len({(a, b) for i, a in enumerate(alphas)
                for j, b in enumerate(alphas) if i != j})


def trace_metrics(result, workload, jobs):
    """Per-layer metrics of a trace-mode worker result.

    ``jobs`` maps each workload to its job (see ``make_job``).  The cli
    metrics and the tracing overhead come from the workload's own traced
    iterations; the simulate, stats and bounds metrics from the traced
    commands of the workload that exercises them (one traced pass when
    that is not this run's workload); the kernels inside the trajectory
    loop from the microbenchmarks.  Call counts are fixed by the inputs,
    so they are read from the first traced iteration.
    """
    iterations = result["iterations"]
    traced = dict(result["passes"], **{workload: [it for it in iterations if it["traced"]]})
    own = traced[workload]
    plain = [timed_wall(it, jobs[workload]["commands"]) for it in iterations
             if not it["traced"]]
    totals = [_summed(it, "total_s") for it in own]
    calls = [_summed(it, "calls") for it in own]
    sim, ver, bnd = (traced[name] for name in workloads.NAMES)

    ver_sim = jobs["verify-dense"]["docs"]["plan"]["simulation"]
    ver_econ = jobs["verify-dense"]["docs"]["plan"]["economy"]
    distinct = jobs["bound-ladder"]["docs"]["distinct"]["economy"]
    density_pairs = bnd[0]["spans"]["distinct"]["bounds.density_ratio_floor"]["calls"] \
        * _distinct_ordered_pairs([row[0] for row in distinct["exponents"]])
    density_s = _span_total(bnd, "distinct", "bounds.density_ratio_floor")
    events = _event_total(sim[0])  # the same in every iteration: rerun_identical
    metrics = {
        "cli.load_config_ms": 1e3 * _median(t["cli.load_config"] / c["cli.load_config"]
                                            for t, c in zip(totals, calls)),
        "cli.run_s": _median(t["cli.run"] for t in totals),
        "cli.write_s": _median(_summed(it, "self_s")["cli.run"] for it in own),
        "trace.overhead_s": _median(timed_wall(it, jobs[workload]["commands"]) for it in own)
        - statistics.median(plain),
        "simulate.run_ensemble_s": _span_total(sim, "w1", "simulate.run_ensemble"),
        "simulate.run_ensemble_w2_s": _span_total(sim, "w2", "simulate.run_ensemble"),
        "simulate.events": events,
        "simulate.events_per_s": _median(events / it["commands"]["w1"]["wall_s"]
                                         for it in sim),
        "simulate.events_per_s_w2": _median(events / it["commands"]["w2"]["wall_s"]
                                            for it in sim),
        "simulate.retained_mb": len(ver_sim["sample_times"]) * ver_sim["n_trajectories"]
        * ver_econ["n_agents"] * ver_econ["n_goods"] * 8 / 1e6,
        "stats.convergence_report_s": _span_total(ver, "verify", "stats.convergence_report"),
        "stats.reference_draw_s": _span_total(ver, "verify", "economy.sample_dirichlet"),
        "stats.marginal_ks_ms": 1e3 * _span_per_call(ver, "verify", "stats.marginal_ks"),
        "stats.ks_calls": ver[0]["spans"]["verify"]["stats.marginal_ks"]["calls"],
        "stats.binned_tv_ms": 1e3 * _span_per_call(ver, "verify", "stats.binned_tv"),
        "stats.tv_calls": ver[0]["spans"]["verify"]["stats.binned_tv"]["calls"],
        "stats.moment_z_ms": 1e3 * _span_per_call(ver, "verify", "stats.moment_z_scores"),
        "bounds.density_floor_s": density_s,
        "bounds.density_pair_evals": density_pairs,
        "bounds.density_floor_ms_per_pair": 1e3 * density_s / density_pairs,
        "bounds.gamma_floor_s": _span_total(bnd, "uniform", "bounds.gamma_ratio_floor"),
        "bounds.gamma_floor_ms_per_level":
            1e3 * _span_per_call(bnd, "uniform", "bounds.gamma_ratio_floor"),
        "bounds.optimize_rate_ms": 1e3 * _span_per_call(bnd, "distinct", "bounds.optimize_rate"),
        "bounds.doeblin_report_s": _span_total(bnd, "distinct", "bounds.doeblin_report"),
    }
    metrics.update(result["micro"])
    return metrics


def layer_table(result):
    rows = []
    for it in result["iterations"]:
        if it["traced"]:
            row = {}
            for summary in it["spans"].values():
                for layer, value in layer_self_times(summary).items():
                    row[layer] = row.get(layer, 0.0) + value
            rows.append(row)
    layers = sorted({layer for row in rows for layer in row})
    return {layer: statistics.median(row.get(layer, 0.0) for row in rows)
            for layer in layers}


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def machine():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev(),
    }


def make_job(workload, seed, config_dir, sizes=None):
    """A workload's config documents, the paths they are written to, and
    its CLI commands."""
    return {
        "docs": workloads.configs(workload, seed, sizes),
        "configs": workloads.write_configs(workload, seed, config_dir, sizes),
        "commands": workloads.commands(workload, sizes),
    }


def run_benchmark(workload, seed, seconds, trace, sizes=None, work=WORK):
    """Run one workload; returns (result line dict, run record dict).

    A traced run also runs one traced pass of every other workload, whose
    commands count as operations too, named ``<workload>:<operation>``.
    """
    if not (SRC / "cdexchange" / "__init__.py").is_file():
        raise BenchmarkError(f"no cdexchange sources under {SRC}")
    run_dir = Path(work) / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    names = workloads.NAMES if trace else (workload,)
    jobs = {name: make_job(name, seed, run_dir / "configs", sizes) for name in names}
    spec = {
        "src": str(SRC),
        "workload": workload,
        "mode": "trace" if trace else "time",
        "seconds": seconds,
        "out": str(run_dir),
        "jobs": {name: {key: job[key] for key in ("configs", "commands")}
                 for name, job in jobs.items()},
        "trace_path": str(run_dir / "spans.json"),
    }
    if not trace:
        setup_s, raw_setup_s = measure_setup(next(iter(jobs[workload]["configs"].values())))

    result = run_worker(spec, run_dir)
    iterations = result["iterations"]
    job = jobs[workload]
    ops = merge_operations(iterations, job["docs"], job["commands"], seed)
    for name, its in result.get("passes", {}).items():
        ops += [dict(op, op=f"{name}:{op['op']}") for op in
                merge_operations(its, jobs[name]["docs"], jobs[name]["commands"], seed)]
    if trace:
        try:
            metrics = trace_metrics(result, workload, jobs)
        except (KeyError, OSError, ValueError, ZeroDivisionError) as err:
            failed = [op["op"] for op in ops if not op["ok"]]
            raise BenchmarkError(f"per-layer metrics unavailable ({type(err).__name__}: "
                                 f"{err}); failed operations: {failed}") from err
    else:
        metrics = {
            "wall_s": _median(reference_wall(it, job["commands"]) for it in iterations),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        raw = {"wall_s": _median(timed_wall(it, job["commands"]) for it in iterations),
               "setup_s": raw_setup_s}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    line = result_line(ops, metrics, units)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "machine": machine(),
        "iterations": [{key: it[key] for key in ("label", "dir", "traced", "commands", "spans")
                        if key in it} for it in iterations],
        "passes": result.get("passes", {}),
        "operations": ops,
        "result": line,
    }
    if not trace:
        record["raw_seconds"] = raw
    if workload == "bound-ladder":
        record["log10_certified_rate"] = log10_certified_rate(iterations[0])
    if trace:
        record["layer_self_s"] = layer_table(result)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for op in record["operations"]:
        if not op["ok"]:
            print(f"# failed {op['kind']} {op['op']}: {op['detail']}")
    for name, value in record.get("raw_seconds", {}).items():
        print(f"# {name} before calibration {value} s")
    if "log10_certified_rate" in record:
        print(f"# log10_certified_rate {record['log10_certified_rate']}")
    for layer, value in record.get("layer_self_s", {}).items():
        print(f"# layer self time {layer} {value:.6f} s")
    for name, metric in line["metrics"].items():
        print(f"# {name} {metric['value']} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
