"""Batch experiment driver: JSON config in, JSON/CSV result record out.

The command itself lives in the config (``{"command": "ed", ...}``) so that an
experiment is a single archivable file; the only flags are ``--config`` plus
``--output``/``--seed`` overrides. Every run emits one ResultRecord — command
echo, fully resolved config (defaults filled in), a metrics map, wall time,
and the library version — written atomically (temp file + rename), or streamed
to stdout when the output path is ``-``. JSON records are strict: non-finite
floats (an infinite correlation length) are written as ``null``.

Exit codes: 0 success (including TEBD runs that merely failed to converge —
the flag is data), 1 usage, 2 config validation, 3 numerical failure,
4 resource limits.

Randomness comes from a single ``numpy.random.default_rng(seed)`` (PCG64) per
run, so records are reproducible given (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .decomp import TruncationSpec, entanglement_entropy
from .ed import solve_dense, solve_iterative
from .errors import (
    NoConvergence,
    NumericalFailure,
    ParseError,
    TnkitError,
    TooLarge,
    ValidationError,
)
from .mpo import MPO, SZ, build_exp_decay, build_heisenberg, build_ising_nn, build_ising_nnn
from .mps import (
    bond_entropies,
    connected_correlation,
    correlation_length,
    fit_exponential_decay,
    mps_from_state_vector,
    product_mps,
    random_mps,
)
from .tebd import evolve_real_time, find_ground_state, initial_product_state
from .trg import free_energy_per_site
from .verify import SUITES, run_suite


class UsageError(Exception):
    """Bad invocation (flags, files, unknown suite) — exit code 1."""


_COMMANDS = ("ed", "tebd", "trg", "mps-info", "corr", "verify")
_MODEL_KEYS = {
    "ising_nn": {"n", "j"},
    "ising_nnn": {"n", "j1", "j2"},
    "exp_decay": {"n", "j", "xi"},
    "heisenberg": {"n", "j"},
}
_STATES = ("random", "ghz", "neel", "all_up")


# ---------------------------------------------------------------------------
# config parsing / validation


def _reject_unknown(block: dict, allowed, path: str) -> None:
    extra = sorted(set(block) - set(allowed))
    if extra:
        raise ValidationError(f"{path}: unknown key(s) {', '.join(extra)}")


def _as_int(block, key, path, default=None, lo=None, hi=None):
    val = block.get(key, default)
    if val is None:
        raise ValidationError(f"{path}.{key}: required")
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValidationError(f"{path}.{key}: expected an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ValidationError(f"{path}.{key}: must be >= {lo}, got {val}")
    if hi is not None and val > hi:
        raise ValidationError(f"{path}.{key}: must be <= {hi}, got {val}")
    return val


def _as_float(block, key, path, default=None, positive=False, nonneg=False):
    val = block.get(key, default)
    if val is None:
        raise ValidationError(f"{path}.{key}: required")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{path}.{key}: expected a number, got {val!r}")
    val = float(val)
    if not np.isfinite(val):
        raise ValidationError(f"{path}.{key}: must be finite")
    if positive and not val > 0.0:
        raise ValidationError(f"{path}.{key}: must be positive, got {val}")
    if nonneg and val < 0.0:
        raise ValidationError(f"{path}.{key}: must be non-negative, got {val}")
    return val


def _as_choice(block, key, path, choices, default=None):
    val = block.get(key, default)
    if val not in choices:
        raise ValidationError(f"{path}.{key}: expected one of {sorted(choices)}, got {val!r}")
    return val


def _parse_model(block, path="model") -> dict:
    if not isinstance(block, dict):
        raise ValidationError(f"{path}: expected an object")
    name = _as_choice(block, "model", path, _MODEL_KEYS)
    _reject_unknown(block, _MODEL_KEYS[name] | {"model"}, path)
    out = {"model": name, "n": _as_int(block, "n", path, lo=2, hi=64)}
    if name == "ising_nnn":
        out["j1"] = _as_float(block, "j1", path, default=1.0)
        out["j2"] = _as_float(block, "j2", path, default=0.5)
    elif name == "exp_decay":
        out["j"] = _as_float(block, "j", path, default=1.0)
        out["xi"] = _as_float(block, "xi", path, positive=True)
    else:
        out["j"] = _as_float(block, "j", path, default=1.0)
    return out


def _parse_truncation(block, path, default_chi) -> dict:
    chi = _as_int(block, "chi_max", path, default=default_chi, lo=1)
    cutoff = _as_float(block, "cutoff", path, default=1e-12, nonneg=True)
    if cutoff >= 1.0:
        raise ValidationError(f"{path}.cutoff: must be < 1, got {cutoff}")
    return {"chi_max": chi, "cutoff": cutoff}


def _parse_schedule(block, path) -> list[float]:
    sched = block.get("schedule", [0.1, 0.01, 0.001])
    if not isinstance(sched, list) or not sched:
        raise ValidationError(f"{path}.schedule: expected a non-empty list of step sizes")
    out = []
    for i, tau in enumerate(sched):
        if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not 0.0 < float(tau) < 10.0:
            raise ValidationError(f"{path}.schedule[{i}]: step sizes must lie in (0, 10)")
        out.append(float(tau))
    return out


def _parse_algorithm(command: str, block, path="algorithm") -> dict:
    if not isinstance(block, dict):
        raise ValidationError(f"{path}: expected an object")
    if command == "ed":
        _reject_unknown(block, {"method", "n_states", "tol", "max_iter"}, path)
        return {
            "method": _as_choice(block, "method", path, ("dense", "iterative"), default="dense"),
            "n_states": _as_int(block, "n_states", path, default=2, lo=1),
            "tol": _as_float(block, "tol", path, default=1e-10, positive=True),
            "max_iter": _as_int(block, "max_iter", path, default=400, lo=1),
        }
    if command == "tebd":
        _reject_unknown(
            block,
            {"mode", "chi_max", "cutoff", "schedule", "energy_tol", "max_sweeps_per_tau", "dt", "n_steps"},
            path,
        )
        out = _parse_truncation(block, path, default_chi=50)
        out["mode"] = _as_choice(block, "mode", path, ("ground", "real_time"), default="ground")
        if out["mode"] == "ground":
            out["schedule"] = _parse_schedule(block, path)
            out["energy_tol"] = _as_float(block, "energy_tol", path, default=1e-10, positive=True)
            out["max_sweeps_per_tau"] = _as_int(block, "max_sweeps_per_tau", path, default=500, lo=0)
        else:
            out["dt"] = _as_float(block, "dt", path, default=0.05, positive=True)
            out["n_steps"] = _as_int(block, "n_steps", path, default=20, lo=1)
        return out
    if command == "trg":
        _reject_unknown(block, {"beta_grid", "j", "steps", "chi_max", "cutoff"}, path)
        grid = block.get("beta_grid", [0.2, 0.44, 0.8])
        if isinstance(grid, (int, float)) and not isinstance(grid, bool):
            grid = [grid]
        if not isinstance(grid, list) or not grid:
            raise ValidationError(f"{path}.beta_grid: expected a number or non-empty list")
        betas = []
        for i, b in enumerate(grid):
            if isinstance(b, bool) or not isinstance(b, (int, float)) or not float(b) > 0.0:
                raise ValidationError(f"{path}.beta_grid[{i}]: inverse temperatures must be positive")
            betas.append(float(b))
        out = _parse_truncation(block, path, default_chi=16)
        out["beta_grid"] = betas
        out["j"] = _as_float(block, "j", path, default=1.0)
        out["steps"] = _as_int(block, "steps", path, default=8, lo=1, hi=40)
        return out
    if command == "mps-info":
        _reject_unknown(block, {"state", "n", "chi_max"}, path)
        return {
            "state": _as_choice(block, "state", path, _STATES, default="random"),
            "n": _as_int(block, "n", path, default=8, lo=2, hi=64),
            "chi_max": _as_int(block, "chi_max", path, default=8, lo=1),
        }
    if command == "corr":
        _reject_unknown(
            block, {"chi_max", "cutoff", "schedule", "energy_tol", "max_sweeps_per_tau", "fit_range"}, path
        )
        out = _parse_truncation(block, path, default_chi=8)
        out["schedule"] = _parse_schedule(block, path)
        out["energy_tol"] = _as_float(block, "energy_tol", path, default=1e-10, positive=True)
        out["max_sweeps_per_tau"] = _as_int(block, "max_sweeps_per_tau", path, default=500, lo=1)
        rng = block.get("fit_range", [1, 10])
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in rng)
            or not 1 <= rng[0] < rng[1]
        ):
            raise ValidationError(f"{path}.fit_range: expected [x_min, x_max] with 1 <= x_min < x_max")
        out["fit_range"] = list(rng)
        return out
    # verify
    _reject_unknown(block, {"suite"}, path)
    suite = block.get("suite", "all")
    if suite not in SUITES:
        raise UsageError(f"unknown verify suite {suite!r}; choose from {sorted(SUITES)}")
    return {"suite": suite}


def parse_config(text: str) -> dict:
    """Validate config JSON and return it with every default filled in."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config: top level must be a JSON object")
    _reject_unknown(raw, {"command", "model", "algorithm", "output", "seed"}, "config")
    command = _as_choice(raw, "command", "config", _COMMANDS)

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ValidationError("output: expected an object")
    _reject_unknown(output, {"path", "format"}, "output")
    path = output.get("path", "-")
    if not isinstance(path, str) or not path:
        raise ValidationError("output.path: expected a non-empty string")
    fmt = _as_choice(output, "format", "output", ("json", "csv"), default="json")

    seed = _as_int(raw, "seed", "config", default=7, lo=0)

    cfg = {
        "command": command,
        "algorithm": _parse_algorithm(command, raw.get("algorithm", {})),
        "output": {"path": path, "format": fmt},
        "seed": seed,
    }
    if command in ("ed", "tebd", "corr"):
        if "model" not in raw:
            raise ValidationError("model: required for command " + command)
        cfg["model"] = _parse_model(raw["model"])
        if command in ("tebd", "corr") and cfg["model"]["model"] not in ("ising_nn", "heisenberg"):
            raise ValidationError("model.model: sweeps need nearest-neighbor terms only (ising_nn, heisenberg)")
        if command == "corr" and cfg["algorithm"]["fit_range"][1] >= cfg["model"]["n"] // 2:
            raise ValidationError("algorithm.fit_range: x_max must stay below n/2 (mid-chain window)")
    elif "model" in raw:
        cfg["model"] = _parse_model(raw["model"])
    return cfg


# ---------------------------------------------------------------------------
# experiment dispatch


def _build_mpo(model: dict) -> MPO:
    name = model["model"]
    if name == "ising_nn":
        return build_ising_nn(model["n"], model["j"])
    if name == "ising_nnn":
        return build_ising_nnn(model["n"], model["j1"], model["j2"])
    if name == "exp_decay":
        return build_exp_decay(model["n"], model["xi"], model["j"])
    return build_heisenberg(model["n"], model["j"])


def _run_ed(cfg: dict):
    alg = cfg["algorithm"]
    op = _build_mpo(cfg["model"])
    if alg["method"] == "dense":
        res = solve_dense(op, n_states=alg["n_states"])
    else:
        res = solve_iterative(op, n_states=alg["n_states"], tol=alg["tol"], max_iter=alg["max_iter"], seed=cfg["seed"])
    energies = [float(e) for e in res.energies]
    metrics = {"energies": energies, "e0": energies[0], "n_matvecs": res.n_matvecs}
    if len(energies) >= 2:
        metrics["gap"] = energies[1] - energies[0]
    rows = [{"index": i, "energy": e} for i, e in enumerate(energies)]
    return metrics, rows, ("index", "energy")


def _run_tebd(cfg: dict):
    alg = cfg["algorithm"]
    model = cfg["model"]
    spec = TruncationSpec(chi_max=alg["chi_max"], cutoff=alg["cutoff"])
    if alg["mode"] == "ground":
        rep = find_ground_state(
            model["model"],
            model["n"],
            model["j"],
            spec=spec,
            schedule=tuple(alg["schedule"]),
            energy_tol=alg["energy_tol"],
            max_sweeps_per_tau=alg["max_sweeps_per_tau"],
        )
        metrics = {
            "energy": rep.energy,
            "converged": bool(rep.converged),
            "n_sweeps": rep.n_sweeps,
            "max_discarded_weight": rep.max_discarded_weight,
            "final_bond_dims": list(rep.state.bond_dims()),
        }
        rows = [
            {"sweep": i, "tau": t, "energy": e}
            for i, (t, e) in enumerate(zip(rep.tau_trace, rep.energy_trace))
        ]
        return metrics, rows, ("sweep", "tau", "energy")
    state = initial_product_state(model["model"], model["n"])
    rep = evolve_real_time(state, model["model"], model["j"], dt=alg["dt"], n_steps=alg["n_steps"], spec=spec)
    metrics = {
        "max_discarded_weight": rep.max_discarded_weight,
        "final_norm": rep.norm_trace[-1],
        "final_bond_dims": list(rep.state.bond_dims()),
    }
    rows = [
        {"step": i, "time": t, "energy": e, "norm": w}
        for i, (t, e, w) in enumerate(zip(rep.times, rep.energy_trace, rep.norm_trace))
    ]
    return metrics, rows, ("step", "time", "energy", "norm")


def _run_trg(cfg: dict):
    alg = cfg["algorithm"]
    spec = TruncationSpec(chi_max=alg["chi_max"], cutoff=alg["cutoff"])
    rows = []
    max_weights = []
    for beta in alg["beta_grid"]:
        rep = free_energy_per_site(beta, alg["j"], steps=alg["steps"], spec=spec)
        max_weights.append(max(max(w) for w in rep.discarded_weights))
        rows.append(
            {
                "beta": beta,
                "j": alg["j"],
                "steps": alg["steps"],
                "chi_max": alg["chi_max"],
                "lnz_per_site": rep.lnz_per_site,
                "f": rep.f,
            }
        )
    metrics = {
        "beta_grid": alg["beta_grid"],
        "lnz_per_site": [r["lnz_per_site"] for r in rows],
        "f": [r["f"] for r in rows],
        "max_discarded_weight": max_weights,
    }
    return metrics, rows, ("beta", "j", "steps", "chi_max", "lnz_per_site", "f")


def _mps_info_state(alg: dict, seed: int):
    n = alg["n"]
    if alg["state"] == "random":
        return random_mps(n, 2, alg["chi_max"], np.random.default_rng(seed))
    if alg["state"] == "all_up":
        return product_mps([np.array([1.0, 0.0])] * n)
    if alg["state"] == "neel":
        up, down = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        return product_mps([up if i % 2 == 0 else down for i in range(n)])
    # ghz: equal superposition of all-up and all-down; the tiny cutoff drops
    # the numerically-zero singular values so the bond profile shows rank 2
    vec = np.zeros(2**n)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return mps_from_state_vector(vec, 2, spec=TruncationSpec(chi_max=alg["chi_max"], cutoff=1e-24))


def _run_mps_info(cfg: dict):
    alg = cfg["algorithm"]
    if alg["state"] == "ghz" and alg["n"] > 20:
        raise TooLarge("ghz construction goes through a dense vector; n is capped at 20")
    m = _mps_info_state(alg, cfg["seed"])
    entropies = bond_entropies(m)
    metrics = {
        "n_sites": m.n_sites,
        "bond_dims": list(m.bond_dims()),
        "entropies": entropies,
        "norm": m.norm(),
    }
    rows = [
        {"bond": b, "chi": c, "entropy": s}
        for b, (c, s) in enumerate(zip(m.bond_dims(), entropies))
    ]
    return metrics, rows, ("bond", "chi", "entropy")


def _run_corr(cfg: dict):
    alg = cfg["algorithm"]
    model = cfg["model"]
    rep = find_ground_state(
        model["model"],
        model["n"],
        model["j"],
        spec=TruncationSpec(chi_max=alg["chi_max"], cutoff=alg["cutoff"]),
        schedule=tuple(alg["schedule"]),
        energy_tol=alg["energy_tol"],
        max_sweeps_per_tau=alg["max_sweeps_per_tau"],
    )
    report = correlation_length(rep.state)
    x_min, x_max = alg["fit_range"]
    i0 = model["n"] // 2 - (x_max + 1) // 2
    xs = list(range(x_min, x_max + 1))
    cs = [connected_correlation(rep.state, SZ, i0, i0 + x) for x in xs]
    xi_fit, log_amp = fit_exponential_decay(np.array(xs), np.array(cs))
    metrics = {
        "converged": bool(rep.converged),
        "energy": rep.energy,
        "xi_transfer": report.xi,
        "xi_fit": xi_fit,
        "log_amplitude": log_amp,
        "transfer_eig_moduli": [float(a) for a in np.abs(report.transfer_eigs)[:6]],
        "anchor_site": i0,
    }
    rows = [{"x": x, "connected_szsz": c} for x, c in zip(xs, cs)]
    return metrics, rows, ("x", "connected_szsz")


def _run_verify(cfg: dict):
    results = run_suite(cfg["algorithm"]["suite"], echo=None)
    metrics = {
        "suite": cfg["algorithm"]["suite"],
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
    }
    rows = [
        {"name": r.name, "passed": int(r.passed), "detail": r.detail, "seconds": f"{r.seconds:.3f}"}
        for r in results
    ]
    return metrics, rows, ("name", "passed", "detail", "seconds")


_RUNNERS = {
    "ed": _run_ed,
    "tebd": _run_tebd,
    "trg": _run_trg,
    "mps-info": _run_mps_info,
    "corr": _run_corr,
    "verify": _run_verify,
}


def run(cfg: dict) -> dict:
    """Execute a parsed config and return the ResultRecord (also written out)."""
    t0 = time.time()
    metrics, rows, columns = _RUNNERS[cfg["command"]](cfg)
    record = {
        "command": cfg["command"],
        "config": cfg,
        "metrics": metrics,
        "wall_time_s": time.time() - t0,
        "version": __version__,
    }
    out = cfg["output"]
    if out["format"] == "json":
        _emit(json.dumps(_finite_or_null(record), indent=2, sort_keys=True, allow_nan=False) + "\n", out["path"])
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), out["path"])
    return record


def _finite_or_null(value):
    """Copy of a record with every non-finite float replaced by None.

    JSON has no infinity or NaN; correlation lengths are legitimately
    infinite, and they are written as null.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit(text: str, path: str) -> None:
    """Write atomically (temp file in the target directory, then rename)."""
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tnkit-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_record(path: str):
    """Read back an emitted file: dict for JSON, list of row dicts for CSV."""
    with open(path, "r") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            return json.load(fh)
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="tnkit", description="Run a tensor-network experiment described by a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config, or - for stdin")
    parser.add_argument("--output", help="override output path from the config (- for stdout)")
    parser.add_argument("--seed", type=int, help="override the RNG seed from the config")
    args = parser.parse_args(argv)

    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.config, "r") as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read config: {exc}") from exc
        cfg = parse_config(text)
        if args.output is not None:
            cfg["output"]["path"] = args.output
        if args.seed is not None:
            if args.seed < 0:
                raise UsageError("--seed must be non-negative")
            cfg["seed"] = args.seed
        run(cfg)
    except UsageError as exc:
        print(f"tnkit: error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"tnkit: invalid config: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, NoConvergence) as exc:
        print(f"tnkit: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (TooLarge, MemoryError) as exc:
        print(f"tnkit: resource limit: {exc}", file=sys.stderr)
        return 4
    except TnkitError as exc:
        # anything else the library rejects traces back to the config contents
        print(f"tnkit: invalid config: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
