"""Smoke test of the benchmark itself at toy sizes.

    python3 -m pytest perfbench

Runs every workload end to end (generator, CLI worker, checks, result
line) in a few seconds, and shows that each output check rejects a
corrupted output, so a broken generator or check fails here rather than
in a long benchmark run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "simulate-events": dict(agents=3, goods=2, t_end=1.0, times=3,
                            trajectories=60, events_per_trajectory=3.0),
    "verify-dense": dict(agents=3, goods=2, t_end=0.5, times=3,
                         trajectories=60, events_per_trajectory=1.7),
    "bound-ladder": dict(grid=64, distinct_agents=4, uniform_agents=5,
                         uniform_exponent=0.5),
}
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def names(kind):
    return [m["name"] for m in BENCH[kind]]


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {name: run.run_benchmark(name, 3, 0.01, 0, sizes=TOY, work=work)
            for name in workloads.NAMES}


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert "setup_s" in names("end_to_end")


def test_configs_are_seeded_and_pin_the_event_rate():
    a = workloads.configs("simulate-events", 5, TOY)
    assert a == workloads.configs("simulate-events", 5, TOY)
    assert a != workloads.configs("simulate-events", 6, TOY)
    for seed in (5, 6):
        doc = workloads.configs("verify-dense", seed)["plan"]
        rates = np.array(doc["economy"]["rates"])
        k = rates[np.triu_indices(3, 1)].sum() * doc["simulation"]["t_end"]
        assert k == pytest.approx(workloads.SIZES["verify-dense"]["events_per_trajectory"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_run_is_correct(toy_runs, name):
    line, record = toy_runs[name]
    assert line["correct"] and line["failed"] == 0, record["operations"]
    assert list(line["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["machine"]["nproc"] >= 1


def test_trace_run_reports_every_layer_metric(tmp_path):
    line, record = run.run_benchmark("verify-dense", 3, 0.01, 1, sizes=TOY, work=tmp_path)
    assert line["correct"] and line["failed"] == 0, record["operations"]
    assert sorted(line["metrics"]) == sorted(names("per_layer"))
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for name, m in line["metrics"].items() if name != "trace.overhead_s")
    assert {"cli", "simulate", "stats"} <= record["layer_self_s"].keys()
    # The other workloads ran one traced pass each, and were checked.
    ops = {op["op"] for op in record["operations"]}
    assert {"simulate-events:workers_identical", "bound-ladder:distinct.floors_below_probe"} <= ops
    assert set(record["passes"]) == {"simulate-events", "bound-ladder"}


def _without(record, tmp_path, cmd):
    """A copy of the first iteration whose ``cmd`` exited 2 and wrote
    nothing."""
    first = record["iterations"][0]
    out = tmp_path / "broken"
    shutil.copytree(first["dir"], out)
    shutil.rmtree(out / cmd)
    return dict(first, label="broken", dir=str(out), commands=dict(
        first["commands"], **{cmd: {"rc": 2, "wall_s": 1.0, "stderr": "error: boom"}}))


def test_operations_merge_across_iterations(toy_runs, tmp_path):
    line, record = toy_runs["bound-ladder"]
    docs = workloads.configs("bound-ladder", 3, TOY)
    commands = workloads.commands("bound-ladder", TOY)
    first = record["iterations"][0]
    ops = run.merge_operations([first, _without(record, tmp_path, "distinct")],
                               docs, commands, 3)
    # The missing output replaces distinct's content checks with one failed
    # "readable" check, and adds it to the operations of the good run.
    assert len(ops) == line["attempted"] + 1
    failed = [op for op in ops if not op["ok"]]
    assert {op["op"] for op in failed} == {
        "distinct.exit", "distinct.readable", "distinct.rerun_identical"}
    assert all(op["detail"].startswith("broken:") for op in failed)


@pytest.mark.parametrize("name,cmd", [("simulate-events", "w1"), ("simulate-events", "w2"),
                                      ("verify-dense", "verify"),
                                      ("bound-ladder", "distinct")])
def test_a_command_that_exits_2_makes_the_run_incorrect(toy_runs, tmp_path, name, cmd):
    _, record = toy_runs[name]
    broken = _without(record, tmp_path, cmd)
    ops = run.merge_operations([broken], workloads.configs(name, 3, TOY),
                               workloads.commands(name, TOY), 3)
    line = run.result_line(ops, {}, {})
    assert not line["correct"] and line["failed"] >= 2


def test_known_failure_counts_as_failed_but_its_outputs_are_skipped(toy_runs, tmp_path):
    _, record = toy_runs["bound-ladder"]
    broken = _without(record, tmp_path, "uniform")
    ops = run.merge_operations([broken], workloads.configs("bound-ladder", 3, TOY),
                               workloads.commands("bound-ladder", TOY), 3)
    line = run.result_line(ops, {}, {})
    assert line["correct"]
    assert [op["op"] for op in ops if not op["ok"]] == ["uniform.exit"]


def _out(record, it, cmd):
    return os.path.join(record["iterations"][it]["dir"], cmd)


def _edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_simulate_checks_reject_corrupted_outputs(toy_runs):
    _, record = toy_runs["simulate-events"]
    config = workloads.configs("simulate-events", 3, TOY)["plan"]
    w1, w2 = _out(record, 0, "w1"), _out(record, 0, "w2")
    assert checks.same_bytes("x", w1, w2, run.OUTPUT_FILES["simulate"])[1]
    _edit_json(os.path.join(w2, "simulate.json"),
               lambda d: d["means"][1][0].__setitem__(0, d["means"][1][0][0] * 1.5))
    assert not checks.same_bytes("x", w1, w2, run.OUTPUT_FILES["simulate"])[1]
    assert not checks.simulate_means(w2, config)[1]


def test_verify_checks_reject_corrupted_outputs(toy_runs):
    _, record = toy_runs["verify-dense"]
    out = _out(record, 0, "verify")
    assert all(ok for _, ok, _ in checks.verify_report(out, run.SCHEMAS))

    def corrupt(doc):
        doc["ks_pvalue"][0][0][0] = 0.0
        doc["baseline_tv_std"][0] = 0.0
        doc["tv"][1][0] = doc["baseline_tv_mean"][0] + 0.01
        doc["schema_version"] = 2
    _edit_json(os.path.join(out, "convergence.json"), corrupt)
    assert not any(ok for _, ok, _ in checks.verify_report(out, run.SCHEMAS))


def test_bound_checks_reject_corrupted_outputs(toy_runs):
    _, record = toy_runs["bound-ladder"]
    config = workloads.configs("bound-ladder", 3, TOY)["distinct"]
    out = _out(record, 0, "distinct")
    assert all(ok for _, ok, _ in checks.bound_report(out, config, run.SCHEMAS, 0))

    def corrupt(doc):
        level = doc["goods"][0]["levels"][0]
        level["density_floor"] *= 2.0
        doc["certified_rate"] = 0.0
        doc["grid"] = 1
    _edit_json(os.path.join(out, "doeblin.json"), corrupt)
    assert not any(ok for _, ok, _ in checks.bound_report(out, config, run.SCHEMAS, 0))


def test_spans_nest_and_wrappers_are_removed():
    import cdexchange.stats as stats

    original = stats.binned_tv
    rec = spans.SpanRecorder()
    binning = stats.default_binning(40, [1.0])
    with rec.installed():
        with rec.span("outer"):
            stats.binned_tv(np.full(40, 0.25), np.full(40, 0.75), binning)
    assert stats.binned_tv is original
    s = spans.summarize(rec.spans)
    assert s["stats.binned_tv"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["stats.binned_tv"]["total_s"])
    assert set(spans.layer_self_times(s)) == {"outer", "stats"}


def test_unreadable_output_is_a_failed_check(tmp_path):
    (tmp_path / "simulate.json").write_text("{not json")
    cmd = workloads.commands("simulate-events", TOY)[0]
    [(name, ok, _)] = run.output_checks(cmd, str(tmp_path), {}, 0)
    assert name == "w1.readable" and not ok


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "verify-dense", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
