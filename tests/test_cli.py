"""Config parsing, experiment execution, output files, and exit codes."""

import builtins
import importlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_hamiltonian, failing_svd
import tnkit
from tnkit import cli
from tnkit.cli import load_record, main, parse_config, run
from tnkit import errors
from tnkit.errors import ValidationError
from tnkit.mps import gauge_insert

ED_CFG = {"command": "ed", "model": {"model": "heisenberg", "n": 4, "j": -1.0}}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_parse_fills_in_defaults():
    cfg = parse_config(json.dumps(ED_CFG))
    assert cfg["seed"] == 7
    assert cfg["output"] == {"path": "-", "format": "json"}
    assert cfg["algorithm"]["method"] == "dense"
    assert cfg["algorithm"]["n_states"] == 2


def test_parse_error_carries_line_and_column():
    with pytest.raises(ValidationError, match="not valid JSON") as e:
        parse_config('{"command": "ed",}')
    assert "line 1" in str(e.value)


def test_validation_errors_name_the_offending_field():
    bad = dict(ED_CFG, model={"model": "heisenberg", "n": -3})
    with pytest.raises(ValidationError, match="model.n"):
        parse_config(json.dumps(bad))
    with pytest.raises(ValidationError, match="command"):
        parse_config(json.dumps({"command": "fly"}))
    with pytest.raises(ValidationError, match="seed"):
        parse_config(json.dumps(dict(ED_CFG, seed=-1)))


def test_unknown_keys_rejected_at_every_level():
    for bad in (
        dict(ED_CFG, typo=1),
        dict(ED_CFG, model=dict(ED_CFG["model"], xi=2.0)),  # xi belongs to exp_decay only
        dict(ED_CFG, algorithm={"method": "dense", "banana": 1}),
        dict(ED_CFG, output={"path": "-", "compress": True}),
    ):
        with pytest.raises(ValidationError):
            parse_config(json.dumps(bad))


def test_model_restrictions_per_command():
    # sweeping algorithms only handle nearest-neighbor models
    bad = {"command": "tebd", "model": {"model": "exp_decay", "n": 6, "xi": 2.0}}
    with pytest.raises(ValidationError, match="nearest-neighbor"):
        parse_config(json.dumps(bad))
    with pytest.raises(ValidationError, match="model"):
        parse_config(json.dumps({"command": "ed"}))  # model is required
    # corr's fit window must end below n/2; caught at parse time, before any sweep
    corr = {"command": "corr", "model": {"model": "ising_nn", "n": 8}, "algorithm": {"fit_range": [1, 4]}}
    with pytest.raises(ValidationError, match="fit_range"):
        parse_config(json.dumps(corr))
    corr["algorithm"]["fit_range"] = [1, 3]
    assert parse_config(json.dumps(corr))["algorithm"]["fit_range"] == [1, 3]


_SCHEDULE = [0.1, 0.01, 0.001]
_DEFAULTS = {"output": {"path": "-", "format": "json"}, "seed": 7}


@pytest.mark.parametrize(
    "given, resolved",
    [
        (
            {"command": "ed", "model": {"model": "heisenberg", "n": 4}},
            {
                "command": "ed",
                "model": {"model": "heisenberg", "n": 4, "j": 1.0},
                "algorithm": {"method": "dense", "n_states": 2, "tol": 1e-10, "max_iter": 400},
            },
        ),
        (
            {"command": "ed", "model": {"model": "ising_nnn", "n": 5}},
            {
                "command": "ed",
                "model": {"model": "ising_nnn", "n": 5, "j1": 1.0, "j2": 0.5},
                "algorithm": {"method": "dense", "n_states": 2, "tol": 1e-10, "max_iter": 400},
            },
        ),
        (
            {"command": "tebd", "model": {"model": "ising_nn", "n": 6}},
            {
                "command": "tebd",
                "model": {"model": "ising_nn", "n": 6, "j": 1.0},
                "algorithm": {
                    "mode": "ground",
                    "chi_max": 50,
                    "cutoff": 1e-12,
                    "schedule": _SCHEDULE,
                    "energy_tol": 1e-10,
                    "max_sweeps_per_tau": 500,
                },
            },
        ),
        (
            {"command": "tebd", "model": {"model": "heisenberg", "n": 6}, "algorithm": {"mode": "real_time"}},
            {
                "command": "tebd",
                "model": {"model": "heisenberg", "n": 6, "j": 1.0},
                "algorithm": {"mode": "real_time", "chi_max": 50, "cutoff": 1e-12, "dt": 0.05, "n_steps": 20},
            },
        ),
        (
            {"command": "trg"},
            {
                "command": "trg",
                "algorithm": {"beta_grid": [0.2, 0.44, 0.8], "j": 1.0, "steps": 8, "chi_max": 16, "cutoff": 1e-12},
            },
        ),
        (
            {"command": "trg", "algorithm": {"beta_grid": 0.44}},
            {
                "command": "trg",
                "algorithm": {"beta_grid": [0.44], "j": 1.0, "steps": 8, "chi_max": 16, "cutoff": 1e-12},
            },
        ),
        (
            {"command": "mps-info"},
            {"command": "mps-info", "algorithm": {"state": "random", "n": 8, "chi_max": 8}},
        ),
        (
            {"command": "corr", "model": {"model": "ising_nn", "n": 24}},
            {
                "command": "corr",
                "model": {"model": "ising_nn", "n": 24, "j": 1.0},
                "algorithm": {
                    "chi_max": 8,
                    "cutoff": 1e-12,
                    "schedule": _SCHEDULE,
                    "energy_tol": 1e-10,
                    "max_sweeps_per_tau": 500,
                    "fit_range": [1, 10],
                },
            },
        ),
        ({"command": "verify"}, {"command": "verify", "algorithm": {"suite": "all"}}),
    ],
)
def test_minimal_config_resolves_to_every_default(given, resolved):
    assert parse_config(json.dumps(given)) == dict(_DEFAULTS, **resolved)


_MINIMAL = {
    "ed": {"command": "ed", "model": {"model": "heisenberg", "n": 4}},
    "ground": {"command": "tebd", "model": {"model": "ising_nn", "n": 6}},
    "real_time": {"command": "tebd", "model": {"model": "ising_nn", "n": 6}, "algorithm": {"mode": "real_time"}},
    "trg": {"command": "trg"},
    "mps-info": {"command": "mps-info"},
    "corr": {"command": "corr", "model": {"model": "ising_nn", "n": 24}},
}


@pytest.mark.parametrize(
    "base, block, key, value, path",
    [
        ("ed", "algorithm", "method", "lanczos", "algorithm.method"),
        ("ed", "algorithm", "n_states", 0, "algorithm.n_states"),
        ("ed", "algorithm", "tol", 0.0, "algorithm.tol"),
        ("ed", "algorithm", "max_iter", 1.5, "algorithm.max_iter"),
        ("ground", "algorithm", "mode", "imaginary", "algorithm.mode"),
        ("ground", "algorithm", "chi_max", 0, "algorithm.chi_max"),
        ("ground", "algorithm", "cutoff", 1.0, "algorithm.cutoff"),
        ("ground", "algorithm", "schedule", [0.1, 10], "algorithm.schedule[1]"),
        ("ground", "algorithm", "energy_tol", -1.0, "algorithm.energy_tol"),
        ("ground", "algorithm", "max_sweeps_per_tau", -1, "algorithm.max_sweeps_per_tau"),
        ("real_time", "algorithm", "dt", 0, "algorithm.dt"),
        ("real_time", "algorithm", "n_steps", 0, "algorithm.n_steps"),
        ("real_time", "algorithm", "cutoff", -0.5, "algorithm.cutoff"),
        ("trg", "algorithm", "beta_grid", [0.2, -1.0], "algorithm.beta_grid[1]"),
        ("trg", "algorithm", "j", "one", "algorithm.j"),
        ("trg", "algorithm", "steps", 41, "algorithm.steps"),
        ("trg", "algorithm", "chi_max", True, "algorithm.chi_max"),
        ("trg", "algorithm", "cutoff", -0.1, "algorithm.cutoff"),
        ("mps-info", "algorithm", "state", "w", "algorithm.state"),
        ("mps-info", "algorithm", "n", 65, "algorithm.n"),
        ("mps-info", "algorithm", "chi_max", 0, "algorithm.chi_max"),
        ("corr", "algorithm", "chi_max", "8", "algorithm.chi_max"),
        ("corr", "algorithm", "cutoff", "small", "algorithm.cutoff"),
        ("corr", "algorithm", "schedule", 0.1, "algorithm.schedule"),
        ("corr", "algorithm", "energy_tol", 0, "algorithm.energy_tol"),
        ("corr", "algorithm", "max_sweeps_per_tau", 0, "algorithm.max_sweeps_per_tau"),
        ("corr", "algorithm", "fit_range", [1], "algorithm.fit_range"),
        ("ed", "model", "model", "potts", "model.model"),
        ("ed", "model", "n", 65, "model.n"),
        ("ed", "model", "j", float("nan"), "model.j"),
        ("ed", "output", "format", "xml", "output.format"),
        ("ed", "output", "path", "", "output.path"),
        # last, so the index-based ids above stay put
        ("ground", "algorithm", "max_sweeps_per_tau", 0, "algorithm.max_sweeps_per_tau"),
    ],
)
def test_each_field_error_names_its_path(base, block, key, value, path):
    cfg = json.loads(json.dumps(_MINIMAL[base]))
    cfg.setdefault(block, {})[key] = value
    with pytest.raises(ValidationError) as e:
        parse_config(json.dumps(cfg))
    assert str(e.value).split(":")[0] == path


@pytest.mark.parametrize(
    "model, path",
    [
        ({"model": "ising_nnn", "n": 5, "j1": "x"}, "model.j1"),
        ({"model": "ising_nnn", "n": 5, "j2": [0.5]}, "model.j2"),
        ({"model": "exp_decay", "n": 5}, "model.xi"),
        ({"model": "exp_decay", "n": 5, "xi": 0.0}, "model.xi"),
    ],
)
def test_each_model_parameter_error_names_its_path(model, path):
    with pytest.raises(ValidationError) as e:
        parse_config(json.dumps({"command": "ed", "model": model}))
    assert str(e.value).split(":")[0] == path


_HUGE = 10**400  # a valid JSON integer that no float can hold


@pytest.mark.parametrize(
    "cfg, path",
    [
        ({"command": "trg", "algorithm": {"j": _HUGE}}, "algorithm.j"),
        ({"command": "ed", "model": {"model": "heisenberg", "n": 4, "j": _HUGE}}, "model.j"),
        (
            {"command": "corr", "model": {"model": "ising_nn", "n": 24}, "algorithm": {"schedule": [0.1, _HUGE]}},
            "algorithm.schedule[1]",
        ),
        ({"command": "trg", "algorithm": {"beta_grid": [-_HUGE]}}, "algorithm.beta_grid[0]"),
    ],
)
def test_an_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys, cfg, path):
    with pytest.raises(ValidationError) as e:
        parse_config(json.dumps(cfg))
    assert str(e.value).split(":")[0] == path
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 2
    assert f"tnkit: invalid config: {path}:" in capsys.readouterr().err


_HEIS6 = {"model": "heisenberg", "n": 6}


@pytest.mark.parametrize(
    "cfg, message",
    [
        # a tebd block takes only its own mode's keys
        (
            {"command": "tebd", "model": _HEIS6, "algorithm": {"mode": "ground", "dt": 0.05}},
            "algorithm: unknown key(s) dt",
        ),
        ({"command": "tebd", "model": _HEIS6, "algorithm": {"n_steps": 5}}, "algorithm: unknown key(s) n_steps"),
        (
            {"command": "tebd", "model": _HEIS6, "algorithm": {"mode": "real_time", "schedule": [0.1]}},
            "algorithm: unknown key(s) schedule",
        ),
        # only ed, tebd and corr read a model
        ({"command": "trg", "model": _HEIS6}, "config: unknown key(s) model"),
        ({"command": "mps-info", "model": _HEIS6}, "config: unknown key(s) model"),
        ({"command": "verify", "model": _HEIS6}, "config: unknown key(s) model"),
    ],
)
def test_keys_the_command_would_ignore_are_rejected(cfg, message):
    with pytest.raises(ValidationError) as e:
        parse_config(json.dumps(cfg))
    assert str(e.value).startswith(message)


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys, where):
    out = tmp_path / "absent" / "x.json" if where == "missing_dir" else tmp_path / "outdir"
    if where == "directory":
        out.mkdir()
    cfg = dict(ED_CFG, output={"path": str(out)})
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tnkit: error: cannot write output:")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob(".tnkit-*.part"))


def test_run_ed_record_contents():
    rec = run(parse_config(json.dumps(ED_CFG)))
    assert rec["command"] == "ed"
    assert np.isclose(rec["metrics"]["e0"], -1.6160254037844388)
    assert np.isclose(rec["metrics"]["gap"], 0.6589186225978914)
    assert rec["version"]
    assert rec["wall_time_s"] >= 0.0
    # the echoed config includes every default so runs are reproducible
    assert rec["config"]["seed"] == 7


@pytest.mark.parametrize(
    "model, params",
    [
        ("ising_nn", {}),
        ("ising_nn", {"j": -0.7}),
        ("ising_nnn", {}),
        ("ising_nnn", {"j1": 0.3, "j2": -1.2}),
        ("exp_decay", {"xi": 1.5}),
        ("exp_decay", {"xi": 0.8, "j": -2.0}),
        ("heisenberg", {}),
        ("heisenberg", {"j": -1.3}),
    ],
)
def test_ed_builds_each_model_from_its_parameters(model, params):
    # defaults, then every parameter set: checks which builder and which argument each key reaches
    n = 5
    cfg = {"command": "ed", "model": {"model": model, "n": n, **params}, "algorithm": {"n_states": 3}}
    rec = run(parse_config(json.dumps(cfg)))
    ref = np.linalg.eigvalsh(dense_hamiltonian(model, n, **params))[:3]
    np.testing.assert_allclose(rec["metrics"]["energies"], ref, rtol=0, atol=1e-10)


def test_ed_refuses_more_states_than_the_space_holds(tmp_path):
    cfg = {"command": "ed", "model": {"model": "heisenberg", "n": 2}, "algorithm": {"n_states": 5}}
    with pytest.raises(ValidationError, match="algorithm.n_states"):
        parse_config(json.dumps(cfg))
    for method in ("dense", "iterative"):  # the two routes used to disagree: 4 energies, or exit 4
        cfg["algorithm"]["method"] = method
        assert main(["--config", write_cfg(tmp_path, cfg, f"{method}.json")]) == 2
    cfg["algorithm"]["n_states"] = 4
    assert len(run(parse_config(json.dumps(cfg)))["metrics"]["energies"]) == 4


def test_run_is_deterministic():
    cfg = {
        "command": "ed",
        "model": {"model": "heisenberg", "n": 6, "j": -1.0},
        "algorithm": {"method": "iterative", "n_states": 2},
    }
    a = run(parse_config(json.dumps(cfg)))
    b = run(parse_config(json.dumps(cfg)))
    assert a["metrics"]["energies"] == b["metrics"]["energies"]


def test_cli_writes_json_and_csv(tmp_path):
    out_json = tmp_path / "r.json"
    cfg = dict(ED_CFG, output={"path": str(out_json), "format": "json"})
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 0
    rec = load_record(str(out_json))
    assert np.isclose(rec["metrics"]["e0"], -1.6160254037844388)

    out_csv = tmp_path / "r.csv"
    trg_cfg = {
        "command": "trg",
        "algorithm": {"beta_grid": [0.2, 0.44, 0.8], "steps": 6, "chi_max": 8},
        "output": {"path": str(out_csv), "format": "csv"},
    }
    assert main(["--config", write_cfg(tmp_path, trg_cfg, "trg.json")]) == 0
    rows = load_record(str(out_csv))
    assert [r["beta"] for r in rows] == ["0.2", "0.44", "0.8"]
    lnz = [float(r["lnz_per_site"]) for r in rows]
    assert lnz == sorted(lnz)  # lnZ/N grows with beta
    # no temp files may survive the atomic replace
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "r.csv", "r.json", "trg.json"]


def test_output_flag_overrides_config(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, ED_CFG)
    redirected = tmp_path / "other.json"
    assert main(["--config", cfg_path, "--output", str(redirected)]) == 0
    assert redirected.exists()
    # "-" streams to stdout instead of touching the filesystem
    assert main(["--config", cfg_path, "--output", "-"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["command"] == "ed"


def test_seed_flag_overrides_config(tmp_path):
    cfg = {
        "command": "mps-info",
        "algorithm": {"state": "random", "n": 6, "chi_max": 4},
        "output": {"path": str(tmp_path / "a.json")},
    }
    p = write_cfg(tmp_path, cfg)
    main(["--config", p])
    main(["--config", p, "--output", str(tmp_path / "b.json"), "--seed", "99"])
    a = load_record(str(tmp_path / "a.json"))
    b = load_record(str(tmp_path / "b.json"))
    assert a["config"]["seed"] == 7 and b["config"]["seed"] == 99
    assert a["metrics"]["entropies"] != b["metrics"]["entropies"]


def test_exit_codes(tmp_path):
    # 1: bad invocation (missing --config makes argparse bail out)
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
    # 1: unknown verify suite is a usage error, not a validation error
    p = write_cfg(tmp_path, {"command": "verify", "algorithm": {"suite": "nope"}})
    assert main(["--config", p]) == 1
    # 1: missing config file
    assert main(["--config", str(tmp_path / "absent.json")]) == 1
    # 2: config file is not JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["--config", str(bad)]) == 2
    # 2: schema violation
    p2 = write_cfg(tmp_path, {"command": "ed", "model": {"model": "heisenberg", "n": 1}}, "n1.json")
    assert main(["--config", p2]) == 2
    # 2: a field of the algorithm block out of its bounds
    p2b = write_cfg(tmp_path, {"command": "trg", "algorithm": {"steps": 0}}, "steps0.json")
    assert main(["--config", p2b]) == 2
    # 3: iterative solver starved of iterations
    p3 = write_cfg(
        tmp_path,
        {
            "command": "ed",
            "model": {"model": "heisenberg", "n": 8, "j": -1.0},
            "algorithm": {"method": "iterative", "max_iter": 1},
        },
        "starve.json",
    )
    assert main(["--config", p3]) == 3
    # 4: problem too large for the dense route
    p4 = write_cfg(tmp_path, {"command": "ed", "model": {"model": "ising_nn", "n": 24}}, "big.json")
    assert main(["--config", p4]) == 4
    # 4: a TRG step at chi 256 would build 256^4 elements; refused before it allocates
    trg_cfg = {"command": "trg", "algorithm": {"beta_grid": [0.44], "chi_max": 256, "cutoff": 0.0, "steps": 3}}
    assert main(["--config", write_cfg(tmp_path, trg_cfg, "trg_big.json")]) == 4


def _exception_class(name):
    """The exception class a README name stands for, or None for any other word."""
    module, _, attr = name.rpartition(".")
    places = [importlib.import_module(module)] if module else [errors, cli, builtins]
    obj = next((getattr(p, attr) for p in places if hasattr(p, attr)), None)
    return obj if isinstance(obj, type) and issubclass(obj, BaseException) else None


def test_readme_exit_code_table_is_what_main_returns(tmp_path, monkeypatch, capsys):
    # every error class the README table names in a row makes main exit with that row's code
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("### Exit codes", 1)[1]
    rows = [(int(m[1]), re.findall(r"`([\w.]+)`", m[2])) for m in re.finditer(r"^\| (\d) \| (.*) \|$", text, re.M)]
    assert [code for code, _ in rows] == [0, 1, 2, 3, 4]
    p = write_cfg(tmp_path, ED_CFG)
    named = {}
    for code, names in rows:
        for cls in filter(None, map(_exception_class, names)):

            def fail(cfg, cls=cls):
                raise cls("raised on purpose")

            monkeypatch.setattr(cli, "run", fail)
            assert (cls.__name__, main(["--config", p])) == (cls.__name__, code)
            assert "raised on purpose" in capsys.readouterr().err
            named[cls] = code
    assert set(cli.EXIT_CODES) <= set(named)  # the table names every type main maps
    # every class tnkit.errors defines has a row, and tnkit exports exactly those classes
    defined = {c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__}
    assert defined <= set(named)
    assert {c for c in vars(tnkit).values() if isinstance(c, type) and issubclass(c, BaseException)} == defined


def test_strong_coupling_tebd_exits_cleanly(tmp_path):
    # at |J| = 150 one imaginary-time sweep used to overflow the state norm
    out = tmp_path / "strong.json"
    cfg = {
        "command": "tebd",
        "model": {"model": "heisenberg", "n": 40, "j": -150.0},
        "algorithm": {"mode": "ground", "chi_max": 8, "schedule": [0.1], "max_sweeps_per_tau": 4},
        "output": {"path": str(out)},
    }
    assert main(["--config", write_cfg(tmp_path, cfg, "strong.json")]) == 0
    assert math.isfinite(load_record(str(out))["metrics"]["energy"])


def test_overflowing_ground_gate_is_a_numerical_failure(tmp_path, capsys):
    # exp(-tau h) overflows once tau |J| exceeds about 946 for the AFM
    cfg = {
        "command": "tebd",
        "model": {"model": "heisenberg", "n": 6, "j": -10000},
        "algorithm": {"mode": "ground", "chi_max": 8},
    }
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "tau*|j| = 1000" in err


def test_lapack_failure_exits_as_a_numerical_failure(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "run", fail)
    assert main(["--config", write_cfg(tmp_path, ED_CFG)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",
    [
        {"command": "tebd", "model": {"model": "heisenberg", "n": 4, "j": -1.0}, "algorithm": {"mode": "real_time"}},
        {"command": "trg", "algorithm": {"beta_grid": [0.44], "steps": 6, "chi_max": 32}},
    ],
    ids=["tebd", "trg"],
)
def test_an_svd_that_never_converges_exits_3(tmp_path, monkeypatch, capsys, cfg):
    # the split retries each sector and then the QR-preconditioned matrix before it gives up
    monkeypatch.setattr(np.linalg, "svd", failing_svd())
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_unconverged_tebd_is_data_not_an_error(tmp_path):
    out = tmp_path / "t.json"
    cfg = {
        "command": "tebd",
        "model": {"model": "heisenberg", "n": 4, "j": -1.0},
        "algorithm": {"mode": "ground", "max_sweeps_per_tau": 1},
        "output": {"path": str(out)},
    }
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 0
    rec = load_record(str(out))
    assert rec["metrics"]["converged"] is False


def test_corr_command_round_trip(tmp_path):
    out = tmp_path / "c.csv"
    cfg = {
        "command": "corr",
        "model": {"model": "ising_nn", "n": 24, "j": 1.0},
        "algorithm": {
            "chi_max": 8,
            "schedule": [0.05],
            "energy_tol": 3e-2,
            "max_sweeps_per_tau": 2000,
            "fit_range": [1, 8],
        },
        "output": {"path": str(out), "format": "csv"},
    }
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 0
    rows = load_record(str(out))
    assert [int(r["x"]) for r in rows] == list(range(1, 9))
    vals = [abs(float(r["connected_szsz"])) for r in rows]
    assert vals == sorted(vals, reverse=True)  # correlations decay with distance


def test_corr_metrics_depend_on_the_state_not_its_gauge(monkeypatch, rng):
    corr = {"model": {"model": "heisenberg", "n": 12, "j": -1.0}, "algorithm": {"chi_max": 8, "schedule": [0.1], "fit_range": [1, 4]}}
    cfg = parse_config(json.dumps(dict(corr, command="corr")))
    rep = cli._ground_state(cfg)
    monkeypatch.setattr(cli, "_ground_state", lambda c: rep)
    want = run(cfg)["metrics"]
    chi = rep.state.bond_dims()[5]
    x = np.eye(chi) + 0.3 * rng.standard_normal((chi, chi))
    monkeypatch.setattr(cli, "_ground_state", lambda c: replace(rep, state=gauge_insert(rep.state, 5, x)))
    got = run(cfg)["metrics"]
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-10, atol=0.0, err_msg=key)


def test_corr_without_correlations_reports_a_zero_range_state(tmp_path):
    # at J = 0 every connected correlation is exactly 0 (heisenberg) or ~1e-31 (ising_nn):
    # nothing to fit, so xi_fit carries CorrelationReport's zero-range flag and the fits are null
    for model in ("heisenberg", "ising_nn"):
        out = tmp_path / f"{model}.out.json"
        cfg = {
            "command": "corr",
            "model": {"model": model, "n": 8, "j": 0.0},
            "algorithm": {"chi_max": 4, "fit_range": [1, 3]},
            "output": {"path": str(out)},
        }
        assert main(["--config", write_cfg(tmp_path, cfg, f"{model}.json")]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["xi_fit"] == 0.0
        assert metrics["log_amplitude"] is None and metrics["gamma_fit"] is None


def test_trg_record_reports_the_truncation_per_beta():
    cfg = {"command": "trg", "algorithm": {"beta_grid": [0.2, 0.44], "steps": 2, "chi_max": 64, "cutoff": 0.0}}
    assert run(parse_config(json.dumps(cfg)))["metrics"]["max_discarded_weight"] == [0.0, 0.0]
    cfg["algorithm"].update(steps=6, chi_max=8)
    weights = run(parse_config(json.dumps(cfg)))["metrics"]["max_discarded_weight"]
    assert len(weights) == 2 and weights[1] > 0.0


def test_json_records_are_strict_and_write_infinite_lengths_as_null(tmp_path, monkeypatch):
    # a non-decaying fit gives xi = inf
    monkeypatch.setattr(cli, "fit_exponential_decay", lambda xs, cs: (math.inf, 0.0))
    out = tmp_path / "c.json"
    cfg = {
        "command": "corr",
        "model": {"model": "ising_nn", "n": 8},
        "algorithm": {"chi_max": 4, "fit_range": [1, 3]},
        "output": {"path": str(out), "format": "json"},
    }
    assert main(["--config", write_cfg(tmp_path, cfg)]) == 0

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    rec = json.loads(out.read_text(), parse_constant=reject)
    assert rec["metrics"]["xi_fit"] is None
    assert np.isfinite(rec["metrics"]["energy"])


def test_verify_command_runs_a_suite(tmp_path, capsys):
    p = write_cfg(tmp_path, {"command": "verify", "algorithm": {"suite": "core"}})
    assert main(["--config", p]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["metrics"]["all_passed"] is True
    names = [c["name"] for c in rec["metrics"]["criteria"]]
    assert "svd_examples" in names and "mera_optimality" in names


def test_verify_internals_refuse_unknown_names():
    # the CLI refuses both earlier, as usage errors; these are the library's own guards
    from tnkit import verify

    with pytest.raises(ValidationError, match="^bogus$"):
        verify._oracle_hamiltonian("bogus", 2)
    with pytest.raises(KeyError, match="unknown suite 'bogus'; choose from"):
        verify.run_suite("bogus", echo=None)



def test_real_time_tebd_record(tmp_path):
    out = tmp_path / "rt.csv"
    cfg = {
        "command": "tebd",
        "model": {"model": "heisenberg", "n": 8, "j": -1.0},
        "algorithm": {"mode": "real_time", "chi_max": 2, "dt": 0.05, "n_steps": 6},
        "output": {"path": str(out), "format": "csv"},
    }
    metrics = run(parse_config(json.dumps(cfg)))["metrics"]
    rows = load_record(str(out))
    assert [int(r["step"]) for r in rows] == list(range(6))
    np.testing.assert_allclose([float(r["time"]) for r in rows], 0.05 * np.arange(1, 7), rtol=1e-15, atol=0.0)
    assert metrics["max_discarded_weight"] > 0.0  # chi 2 truncates, and truncation only loses norm
    assert metrics["final_norm"] < 1.0
    assert metrics["final_bond_dims"] == [2] * 7


@pytest.mark.parametrize(
    "state, n, chi, entropy",
    [("ghz", 20, 2, 1.0), ("neel", 9, 1, 0.0), ("all_up", 9, 1, 0.0)],
)
def test_mps_info_records_of_the_named_states(state, n, chi, entropy):
    cfg = {"command": "mps-info", "algorithm": {"state": state, "n": n}}
    metrics = run(parse_config(json.dumps(cfg)))["metrics"]
    assert metrics["n_sites"] == n and metrics["bond_dims"] == [chi] * (n - 1)
    np.testing.assert_allclose(metrics["entropies"], entropy, atol=1e-12)
    assert metrics["norm"] == pytest.approx(1.0, abs=1e-12)


def test_more_exit_codes(tmp_path, capsys):
    ghz = write_cfg(tmp_path, {"command": "mps-info", "algorithm": {"state": "ghz", "n": 21}}, "ghz.json")
    assert main(["--config", ghz]) == 4
    assert main(["--config", write_cfg(tmp_path, ED_CFG), "--seed", "-1"]) == 1
    assert "--seed must be non-negative" in capsys.readouterr().err
    corr = {"command": "corr", "model": {"model": "ising_nn", "n": 12}, "algorithm": {"fit_range": [4, 2]}}
    assert main(["--config", write_cfg(tmp_path, corr, "corr.json")]) == 2
    assert "entries must increase" in capsys.readouterr().err


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
