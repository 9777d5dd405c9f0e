import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cdexchange
from cdexchange import ConvergenceTally, SimulationPlan, cli, run_ensemble, validate_plan
from cdexchange.cli import (
    ParseError,
    RunManifest,
    ValidationError,
    kac_preset,
    load_config,
    main,
    run,
)
from util import report_of, uniform_config


def minimal_doc():
    return {
        "economy": {
            "n_agents": 2,
            "n_goods": 1,
            "rates": [[0.0, 1.0], [1.0, 0.0]],
            "exponents": [[1.0], [1.0]],
            "endowments": [[0.25], [0.75]],
            "seed": 9,
        },
        "simulation": {
            "t_end": 1.0,
            "sample_times": [0.0, 1.0],
            "n_trajectories": 50,
        },
    }


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- parsing

def test_load_config_minimal(tmp_path):
    cfg, plan = load_config(write_doc(tmp_path, minimal_doc()))
    assert cfg.n_agents == 2
    assert cfg.total_rate == 1.0
    assert cfg.seed == 9
    assert plan.n_trajectories == 50
    assert plan.t_end == 1.0
    assert np.array_equal(plan.sample_times, [0.0, 1.0])


def test_load_config_without_simulation(tmp_path):
    doc = minimal_doc()
    del doc["simulation"]
    cfg, plan = load_config(write_doc(tmp_path, doc))
    assert plan is None and cfg.n_agents == 2


def test_load_config_explicit_initial_state(tmp_path):
    doc = minimal_doc()
    doc["simulation"]["initial_state"] = [[1.0], [0.0]]
    _, plan = load_config(write_doc(tmp_path, doc))
    assert np.array_equal(plan.initial_state.holdings, [[1.0], [0.0]])


def test_load_config_negative_rate_path(tmp_path):
    doc = minimal_doc()
    doc["economy"]["rates"][0][1] = -2.0
    with pytest.raises(ValidationError) as exc:
        load_config(write_doc(tmp_path, doc))
    assert "economy.rates[0][1]" in str(exc.value)
    assert exc.value.path == "economy.rates[0][1]"


def test_load_config_unknown_keys(tmp_path):
    for section, key in (("", "extra"), ("economy", "gamma"), ("simulation", "dt")):
        doc = minimal_doc()
        (doc if section == "" else doc[section])[key] = 1
        with pytest.raises(ValidationError) as exc:
            load_config(write_doc(tmp_path, doc))
        want = f"{section}.{key}" if section else f".{key}"
        assert exc.value.path == want


def test_load_config_missing_keys(tmp_path):
    doc = minimal_doc()
    del doc["economy"]["exponents"]
    with pytest.raises(ValidationError) as exc:
        load_config(write_doc(tmp_path, doc))
    assert exc.value.path == "economy.exponents"
    with pytest.raises(ValidationError) as exc:
        load_config(write_doc(tmp_path, {"simulation": {}}))
    assert exc.value.path == ".economy"


def test_load_config_type_errors(tmp_path):
    doc = minimal_doc()
    doc["economy"]["n_agents"] = 2.5
    with pytest.raises(ValidationError):
        load_config(write_doc(tmp_path, doc))
    doc = minimal_doc()
    doc["economy"]["rates"] = [[0.0, 1.0], [1.0]]
    with pytest.raises(ValidationError) as exc:
        load_config(write_doc(tmp_path, doc))
    assert exc.value.path == "economy.rates[1]"
    doc = minimal_doc()
    doc["economy"]["rates"][0][1] = True
    with pytest.raises(ValidationError):
        load_config(write_doc(tmp_path, doc))
    doc = minimal_doc()
    doc["simulation"]["sample_times"] = "often"
    with pytest.raises(ValidationError):
        load_config(write_doc(tmp_path, doc))


def test_load_config_semantic_errors_land_on_section(tmp_path):
    doc = minimal_doc()
    doc["economy"]["rates"] = [[0.0, 1.0], [2.0, 0.0]]  # asymmetric
    with pytest.raises(ValidationError) as exc:
        load_config(write_doc(tmp_path, doc))
    assert exc.value.path == "economy"
    doc = minimal_doc()
    doc["simulation"]["t_end"] = -3.0
    with pytest.raises(ValidationError) as exc:
        load_config(write_doc(tmp_path, doc))
    assert exc.value.path == "simulation"


def test_load_config_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "economy": {,}\n}\n')
    with pytest.raises(ParseError) as exc:
        load_config(str(path))
    assert exc.value.line == 2
    assert exc.value.column is not None
    assert "broken.json:2:" in str(exc.value)


def test_load_config_missing_file():
    with pytest.raises(ParseError) as exc:
        load_config("/nonexistent/nowhere.json")
    assert exc.value.line is None


# ---------------------------------------------------------------- preset

def test_kac_preset_shape():
    doc = kac_preset(4, seed=3)
    econ = doc["economy"]
    assert econ["n_goods"] == 1
    assert econ["exponents"] == [[0.5]] * 4
    assert math.isclose(sum(r[0] for r in econ["endowments"]), 1.0)
    assert all(econ["rates"][i][i] == 0.0 for i in range(4))
    assert econ["rates"][0][1] == 1.0
    assert econ["seed"] == 3


def test_kac_preset_round_trips_through_loader(tmp_path):
    path = write_doc(tmp_path, kac_preset(3))
    cfg, plan = load_config(path)
    assert cfg.n_agents == 3
    assert cfg.total_rate == 3.0  # three unordered pairs at unit rate
    assert plan.t_end == 8.0


def test_kac_preset_validation():
    with pytest.raises(ValidationError):
        kac_preset(1)
    with pytest.raises(ValidationError):
        kac_preset("four")
    with pytest.raises(ValidationError):
        kac_preset(cli._MAX_PRESET_AGENTS + 1)


# ---------------------------------------------------------------- commands

def test_run_preset_kac(tmp_path):
    out = tmp_path / "o"
    code = run(RunManifest("preset-kac", str(out), agents=3, seed=5))
    assert code == 0
    doc = json.loads((out / "kac_config.json").read_text())
    assert doc["economy"]["seed"] == 5
    # the written file must itself load cleanly
    load_config(str(out / "kac_config.json"))


def test_run_simulate_formats(tmp_path):
    cfg_path = write_doc(tmp_path, minimal_doc())
    both = tmp_path / "both"
    assert run(RunManifest("simulate", str(both), config_path=cfg_path)) == 0
    assert (both / "simulate.csv").exists()
    assert (both / "simulate.json").exists()

    only_csv = tmp_path / "c"
    assert run(RunManifest("simulate", str(only_csv), config_path=cfg_path, fmt="csv")) == 0
    assert (only_csv / "simulate.csv").exists()
    assert not (only_csv / "simulate.json").exists()

    only_json = tmp_path / "j"
    assert run(RunManifest("simulate", str(only_json), config_path=cfg_path, fmt="json")) == 0
    assert not (only_json / "simulate.csv").exists()

    doc = json.loads((both / "simulate.json").read_text())
    assert doc["n_trajectories"] == 50
    assert len(doc["means"]) == 2
    assert doc["event_counts"]["min"] <= doc["event_counts"]["mean"]
    lines = (both / "simulate.csv").read_text().splitlines()
    assert lines[0].startswith("# config_digest: ")
    assert lines[2].split(",")[0] == "sample_time"
    assert len(lines) == 3 + 2  # comments, header, one row per time


def test_run_simulate_overrides(tmp_path):
    cfg_path = write_doc(tmp_path, minimal_doc())
    out = tmp_path / "o"
    code = run(
        RunManifest(
            "simulate", str(out), config_path=cfg_path,
            seed=123, t_end=1.0, n_trajectories=7, fmt="json",
        )
    )
    assert code == 0
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["seed"] == 123
    assert doc["n_trajectories"] == 7


def test_run_verify_writes_report(tmp_path):
    doc = minimal_doc()
    doc["simulation"]["n_trajectories"] = 120
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert run(RunManifest("verify", str(out), config_path=cfg_path)) == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["config_digest"]
    assert len(payload["tv"]) == 2
    assert (out / "convergence.csv").exists()


def test_run_verify_flags_frozen_start(tmp_path):
    # t_end 0: the ensemble is stuck at the endowment point, so the
    # distance to the stationary law stays near its maximum
    doc = minimal_doc()
    doc["simulation"]["t_end"] = 0.0
    doc["simulation"]["sample_times"] = [0.0]
    doc["simulation"]["n_trajectories"] = 200
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert run(RunManifest("verify", str(out), config_path=cfg_path)) == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["tv"][0][0] > 0.8


def _strict_load(path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_run_writes_strict_json(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    # one trajectory: every sample variance is 0/0
    sim = tmp_path / "sim"
    cfg_path = write_doc(tmp_path, minimal_doc())
    assert run(RunManifest("simulate", str(sim), config_path=cfg_path,
                           n_trajectories=1, fmt="json")) == 0
    doc = _strict_load(sim / "simulate.json")
    assert doc["variances"][0] == [[None], [None]]

    # the README quickstart's verify: the endowment start is a point mass,
    # so the moment z-score at t=0 is infinite
    kac = tmp_path / "kac"
    assert main(["preset-kac", "--agents", "5", "--out", str(kac)]) == 0
    cfg = str(kac / "kac_config.json")
    assert main(["verify", "--config", cfg, "--out", str(kac),
                 "--trajectories", "200"]) == 0
    doc = _strict_load(kac / "convergence.json")
    assert doc["max_moment_z"][0] is None
    assert all(math.isfinite(z) for z in doc["max_moment_z"][1:])
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "schemas"
         / "convergence_report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)


def test_run_bound_oracle(tmp_path):
    doc = kac_preset(3)
    doc["economy"]["exponents"] = [[1.0]] * 3  # unit exponents: known constant
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert run(RunManifest("bound", str(out), config_path=cfg_path)) == 0
    payload = json.loads((out / "doeblin.json").read_text())
    coeff = payload["goods"][0]["levels"][-1]["coefficient"]
    assert abs(coeff - 1.0 / 18.0) < 1e-12
    assert payload["certified_rate"] > 0.0
    assert payload["schema_version"] == 2 and "grid" not in payload
    # --grid is accepted and changes nothing
    again = tmp_path / "again"
    assert run(RunManifest("bound", str(again), config_path=cfg_path, grid=10)) == 0
    assert (again / "doeblin.json").read_bytes() == (out / "doeblin.json").read_bytes()


def test_run_exit_codes(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "o")
    assert run(RunManifest("simulate", out, config_path="/missing.json")) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(RunManifest("simulate", out, config_path=str(bad))) == 1

    doc = minimal_doc()
    doc["economy"]["rates"][0][1] = -1.0
    assert run(RunManifest("simulate", out, config_path=write_doc(tmp_path, doc))) == 1

    # no simulation section but a simulation command
    doc = minimal_doc()
    del doc["simulation"]
    assert run(
        RunManifest("verify", out, config_path=write_doc(tmp_path, doc, "nosim.json"))
    ) == 1

    good = write_doc(tmp_path, minimal_doc(), "good.json")
    for command in ("simulate", "verify"):
        assert run(RunManifest(command, out, config_path=good, workers=0)) == 1
        assert "workers" in capsys.readouterr().err

    def boom(*a, **k):
        raise RuntimeError("backend fell over")

    monkeypatch.setattr(cli, "run_ensemble", boom)
    assert run(RunManifest("simulate", out, config_path=good)) == 2
    assert "backend fell over" in capsys.readouterr().err

    # too few trajectories for the KS p-value: refused before simulating
    assert run(RunManifest("verify", out, config_path=good, n_trajectories=10)) == 1
    assert "trajectories" in capsys.readouterr().err
    few = minimal_doc()
    few["simulation"]["n_trajectories"] = 34
    assert run(
        RunManifest("verify", out, config_path=write_doc(tmp_path, few, "few.json"))
    ) == 1
    assert "simulation.n_trajectories" in capsys.readouterr().err

    # preflight: runs over the event or memory limit are refused before
    # simulating (run_ensemble still raises here, so a run that started
    # would exit 2, not 1)
    kac = tmp_path / "kac"
    assert run(RunManifest("preset-kac", str(kac), agents=4)) == 0
    kac_cfg = str(kac / "kac_config.json")
    for command, n in (("simulate", 1), ("verify", 100)):
        assert run(RunManifest(command, out, config_path=kac_cfg,
                               t_end=1e300, n_trajectories=n)) == 1
        assert "events" in capsys.readouterr().err
        assert run(RunManifest(command, out, config_path=kac_cfg,
                               n_trajectories=10**8)) == 1
        assert "events" in capsys.readouterr().err
    # one trajectory still runs a whole block: the estimate counts it
    rows = cli._BLOCK
    t_end = 2.0 * cli._MAX_EVENTS / (6.0 * rows)  # Kac N=4: total rate 6
    assert run(RunManifest("simulate", out, config_path=kac_cfg,
                           t_end=t_end, n_trajectories=1)) == 1
    assert f"x {rows} simulated" in capsys.readouterr().err
    # few events and one sample time, but over the byte limit: a slice of
    # 5e7 trajectories is 0.8 GB, and a run holds several
    wide = minimal_doc()
    wide["simulation"]["t_end"] = 1e-9
    wide["simulation"]["sample_times"] = [0.0]
    wide["simulation"]["n_trajectories"] = 5 * 10**7
    wide_cfg = write_doc(tmp_path, wide, "wide.json")
    for command in ("simulate", "verify"):
        assert run(RunManifest(command, out, config_path=wide_cfg)) == 1
        assert "GiB" in capsys.readouterr().err
    # many sample times of a small slice are not refused, however many
    # bytes all of them would take together (3000 x 200k x 2 x 8 = 9.6 GB):
    # the run starts, and the patched run_ensemble makes it exit 2
    long = minimal_doc()
    long["simulation"]["t_end"] = 1e-9
    long["simulation"]["sample_times"] = [0.0] * 3000
    long["simulation"]["n_trajectories"] = 200_000
    long_cfg = write_doc(tmp_path, long, "long.json")
    for command in ("simulate", "verify"):
        assert run(RunManifest(command, out, config_path=long_cfg)) == 2
        assert "backend fell over" in capsys.readouterr().err
    # preset-kac caps the agents before building the rate matrix
    assert run(RunManifest("preset-kac", out,
                           agents=cli._MAX_PRESET_AGENTS + 1)) == 1
    assert "agents" in capsys.readouterr().err


def test_run_bound_preflight(tmp_path, monkeypatch, capsys):
    # 4 agents; good 0 has 2 distinct exponents, good 1 one: the ladders
    # evaluate 4 x 2^2 + 4 x 1^2 = 20 exponent pairs.  Over the limit the
    # config is refused before any ladder work (the patched doeblin_report
    # would make a started run exit 2).
    doc = kac_preset(4)
    doc["economy"]["n_goods"] = 2
    doc["economy"]["exponents"] = [[0.5, 1.0], [2.0, 1.0], [0.5, 1.0], [2.0, 1.0]]
    doc["economy"]["endowments"] = [[0.25, 0.25]] * 4
    cfg_path = write_doc(tmp_path, doc)
    out = tmp_path / "o"

    def boom(cfg):
        raise RuntimeError("ladder started")

    monkeypatch.setattr(cli, "doeblin_report", boom)
    monkeypatch.setattr(cli, "_MAX_LADDER_PAIRS", 19)
    assert run(RunManifest("bound", str(out), config_path=cfg_path)) == 1
    err = capsys.readouterr().err
    assert "economy.exponents" in err and "20 exponent pairs" in err
    assert not (out / "doeblin.json").exists()
    monkeypatch.setattr(cli, "_MAX_LADDER_PAIRS", 20)
    assert run(RunManifest("bound", str(out), config_path=cfg_path)) == 2
    assert "ladder started" in capsys.readouterr().err


def test_python_dash_m_cdexchange(tmp_path):
    # python -m cdexchange runs the same command line as the script, with
    # nothing on stderr, and writes the same bytes as an in-process run
    assert main(["preset-kac", "--agents", "4", "--out", str(tmp_path)]) == 0
    cfg_path = str(tmp_path / "kac_config.json")
    assert run(RunManifest("bound", str(tmp_path / "here"), config_path=cfg_path)) == 0
    src = str(Path(cdexchange.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cdexchange", "bound", "--config", cfg_path,
         "--out", str(tmp_path / "there")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert (tmp_path / "there" / "doeblin.json").read_bytes() == (
        tmp_path / "here" / "doeblin.json"
    ).read_bytes()


@pytest.mark.parametrize("n_agents, n_goods", [(2, 1), (3, 2), (6, 1)])
def test_preflight_byte_count_bounds_the_run(n_agents, n_goods):
    # What the preflight refuses on holds what a run allocates at its peak.
    plan = validate_plan(SimulationPlan(
        uniform_config(n_agents, n_goods=n_goods, seed=5), 1.0,
        np.linspace(0.0, 1.0, 4), 20_000, "equilibrium"))
    for command, go in (("simulate", run_ensemble), ("verify", report_of)):
        go(replace(plan, n_trajectories=40))  # first-call imports
        tracemalloc.start()
        try:
            go(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = -(-plan.n_trajectories // cli._BLOCK) * cli._BLOCK
        assert peak <= cli._bytes_per_row(plan.cfg, command) * rows + 2**18, command


@pytest.mark.parametrize("n_agents, n_traj", [(2, 50), (3, 20_000), (5, 300)])
def test_preflight_counts_the_law_tables_exactly(n_agents, n_traj):
    plan = validate_plan(SimulationPlan(
        uniform_config(n_agents, n_goods=2, seed=5), 1.0, np.array([0.0, 1.0]),
        n_traj, "equilibrium"))
    laws = ConvergenceTally(plan).laws
    assert cli._law_bytes(plan) == sum(law.masses.nbytes for law in laws)


def test_run_rejects_unknown_command_and_format(tmp_path):
    assert run(RunManifest("explode", str(tmp_path))) == 1
    assert run(RunManifest("simulate", str(tmp_path), fmt="xml")) == 1


def test_run_does_not_mutate_input(tmp_path):
    cfg_path = write_doc(tmp_path, minimal_doc())
    before = open(cfg_path, "rb").read()
    run(RunManifest("simulate", str(tmp_path / "o"), config_path=cfg_path))
    assert open(cfg_path, "rb").read() == before


def test_run_outputs_are_reproducible(tmp_path):
    cfg_path = write_doc(tmp_path, minimal_doc())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(RunManifest("simulate", str(out), config_path=cfg_path)) == 0
        outs.append(
            (
                (out / "simulate.csv").read_bytes(),
                (out / "simulate.json").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- argv

def test_main_simulate(tmp_path):
    cfg_path = write_doc(tmp_path, minimal_doc())
    out = tmp_path / "o"
    code = main(
        [
            "simulate",
            "--config", cfg_path,
            "--out", str(out),
            "--trajectories", "5",
            "--format", "json",
            "--workers", "2",
        ]
    )
    assert code == 0
    assert json.loads((out / "simulate.json").read_text())["n_trajectories"] == 5


def test_main_preset_and_bound(tmp_path):
    out = tmp_path / "o"
    assert main(["preset-kac", "--agents", "2", "--out", str(out)]) == 0
    cfg = str(out / "kac_config.json")
    assert main(["bound", "--config", cfg, "--out", str(out), "--grid", "64"]) == 0
    payload = json.loads((out / "doeblin.json").read_text())
    assert payload["n_agents"] == 2
    assert payload["goods"][0]["levels"][-1]["coefficient"] == 1.0


def test_main_rejects_bad_argv(capsys):
    # usage errors are user errors: exit 1 with argparse's usage message
    for argv in (
        ["simulate"],  # missing required options
        ["simulate", "--config", "c"],  # no --out
        ["unknown-command", "--out", "x"],
        ["simulate", "--config", "c", "--out", "o", "--format", "xml"],
        ["simulate", "--config", "c", "--out", "o", "--workers", "abc"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: cdexchange") and "error:" in err, argv


def test_main_help_exits_zero(capsys):
    for argv in (["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage: cdexchange" in capsys.readouterr().out
