"""Fresh-process runner: drives ``cdexchange.cli.run`` for one workload.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec (written by run.py) names the source tree, the workload, the
config files and commands of each workload ("jobs"), the mode and the
time budget.  In ``time`` mode the workload's commands run in iterations
for about the budget (see ``budget``), with the host speed sampled during
each timed command (``calibrate.py``).  In ``trace`` mode untraced and
traced iterations of the workload alternate for about the budget, then
every other workload runs one traced pass, then the layer
microbenchmarks run.  Exit codes are captured per command, never raised.
The peak RSS of this process is the workload's memory metric, so nothing
heavier than the program itself is imported here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from calibrate import Sampler
from spans import SpanRecorder, summarize


def run_command(cli, cmd, config_path, out_dir, recorder=None, sampler=None):
    """Run one CLI command.  With a ``sampler`` the host speed is sampled
    while it runs (``loop_s``), and ``wall_s`` leaves out the sampling."""
    manifest = cli.RunManifest(
        command=cmd["command"], output_dir=out_dir, config_path=config_path,
        **{key: cmd[key] for key in ("workers", "grid") if key in cmd},
    )
    err = io.StringIO()
    installed = recorder.installed() if recorder else contextlib.nullcontext()
    span = recorder.span("cli.run") if recorder else contextlib.nullcontext()
    sampling = sampler.running() if sampler else contextlib.nullcontext()
    with contextlib.redirect_stderr(err), installed, span, sampling:
        t0 = time.perf_counter()
        rc = cli.run(manifest)
        wall = time.perf_counter() - t0
        spent = sampler.spent_s if sampler else 0.0
    res = {"rc": rc, "wall_s": wall - spent, "stderr": err.getvalue().strip()}
    if sampler:
        res["loop_s"] = sampler.samples
    return res


def run_iteration(cli, job, out_root, label, traced=False, sampled=False):
    """Run every command of ``job`` once.  A sampled iteration samples the
    host speed during each timed command (see calibrate.py).  A traced
    iteration records the spans of each command separately: ``spans``
    holds their summaries, ``raw_spans`` the spans themselves."""
    out = os.path.join(out_root, label)
    it = {"label": label, "dir": out, "traced": traced, "commands": {}}
    raw = {}
    for cmd in job["commands"]:
        rec = SpanRecorder() if traced else None
        sampler = Sampler() if sampled and cmd["timed"] else None
        it["commands"][cmd["name"]] = run_command(
            cli, cmd, job["configs"][cmd["config"]], os.path.join(out, cmd["name"]),
            rec, sampler)
        if traced:
            raw[cmd["name"]] = rec.spans
    if traced:
        it["spans"] = {name: summarize(spans) for name, spans in raw.items()}
        it["raw_spans"] = raw
    return it


def budget(seconds):
    """Iteration gate: always run once, then start another iteration only
    while it is expected to end before ``seconds`` plus half an iteration,
    so the measured span stays near ``seconds`` even when one iteration
    takes most of it."""
    start = time.perf_counter()
    count = 0

    def more():
        nonlocal count
        now = time.perf_counter()
        if count and now + 0.5 * (now - start) / count > start + seconds:
            return False
        count += 1
        return True
    return more


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import cdexchange.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the tree under {spec['src']}")

    job = spec["jobs"][spec["workload"]]
    result = {"iterations": []}
    iterations = result["iterations"]
    more = budget(spec["seconds"])
    if spec["mode"] == "time":
        while more():
            iterations.append(run_iteration(cli, job, spec["out"], f"it{len(iterations)}",
                                            sampled=True))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        while more():
            k = len(iterations) // 2
            iterations.append(run_iteration(cli, job, spec["out"], f"plain{k}"))
            iterations.append(run_iteration(cli, job, spec["out"], f"traced{k}", traced=True))
        # One traced pass of each other workload, so that every layer is
        # timed on its own workload's real inputs in every traced run.
        result["passes"] = {
            name: [run_iteration(cli, other, spec["out"], f"pass-{name}", traced=True)]
            for name, other in spec["jobs"].items() if name != spec["workload"]
        }
        traced = [it for it in iterations if it["traced"]]
        traced += [it for its in result["passes"].values() for it in its]
        with open(spec["trace_path"], "w") as fh:
            json.dump({it["label"]: it.pop("raw_spans") for it in traced}, fh)

        import micro

        sim, ver = (spec["jobs"][name]["configs"]["plan"]
                    for name in ("simulate-events", "verify-dense"))
        result["micro"] = micro.run_all(cli.load_config(sim), cli.load_config(ver))

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
