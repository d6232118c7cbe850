"""Config parsing, experiment execution, output files, and exit codes."""

import json
import math

import numpy as np
import pytest

from tnkit import cli
from tnkit.cli import load_record, main, parse_config, run
from tnkit.errors import ParseError, ValidationError
from tnkit.mps import CorrelationReport

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
    with pytest.raises(ParseError) as e:
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


def test_run_ed_record_contents():
    rec = run(parse_config(json.dumps(ED_CFG)))
    assert rec["command"] == "ed"
    assert np.isclose(rec["metrics"]["e0"], -1.6160254037844388)
    assert np.isclose(rec["metrics"]["gap"], 0.6589186225978914)
    assert rec["version"]
    assert rec["wall_time_s"] >= 0.0
    # the echoed config includes every default so runs are reproducible
    assert rec["config"]["seed"] == 7


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


def test_unconverged_tebd_is_data_not_an_error(tmp_path):
    out = tmp_path / "t.json"
    cfg = {
        "command": "tebd",
        "model": {"model": "heisenberg", "n": 4, "j": -1.0},
        "algorithm": {"mode": "ground", "max_sweeps_per_tau": 0},
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


def test_trg_record_reports_the_truncation_per_beta():
    cfg = {"command": "trg", "algorithm": {"beta_grid": [0.2, 0.44], "steps": 2, "chi_max": 64, "cutoff": 0.0}}
    assert run(parse_config(json.dumps(cfg)))["metrics"]["max_discarded_weight"] == [0.0, 0.0]
    cfg["algorithm"].update(steps=6, chi_max=8)
    weights = run(parse_config(json.dumps(cfg)))["metrics"]["max_discarded_weight"]
    assert len(weights) == 2 and weights[1] > 0.0


def test_json_records_are_strict_and_write_infinite_lengths_as_null(tmp_path, monkeypatch):
    # a degenerate leading transfer-matrix pair and a non-decaying fit both give xi = inf
    monkeypatch.setattr(cli, "correlation_length", lambda m: CorrelationReport(xi=math.inf, transfer_eigs=np.ones(2)))
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
    assert rec["metrics"]["xi_transfer"] is None
    assert rec["metrics"]["xi_fit"] is None
    assert np.isfinite(rec["metrics"]["energy"])


def test_verify_command_runs_a_suite(tmp_path, capsys):
    p = write_cfg(tmp_path, {"command": "verify", "algorithm": {"suite": "core"}})
    assert main(["--config", p]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["metrics"]["all_passed"] is True
    names = [c["name"] for c in rec["metrics"]["criteria"]]
    assert "svd_examples" in names and "mera_optimality" in names


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
