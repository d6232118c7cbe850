"""Batch experiment driver: JSON config in, JSON/CSV result record out.

The command itself lives in the config (``{"command": "ed", ...}``) so that an
experiment is a single archivable file; the only flags are ``--config`` plus
``--output``/``--seed`` overrides. Every run emits one ResultRecord — command
echo, fully resolved config (defaults filled in), a metrics map, wall time,
and the library version — written atomically (temp file + rename), or streamed
to stdout when the output path is ``-``. JSON records are strict: non-finite
floats (an infinite correlation length) are written as ``null``.

Each command is one ``COMMANDS`` entry: its runner plus the field tables (default
and checker per key) of its ``model`` and ``algorithm`` blocks.

Exit codes: 0 success (including TEBD runs that merely failed to converge —
the flag is data); ``EXIT_CODES`` maps each failure to 1 usage, 2 config
validation, 3 numerical failure or 4 resource limits.

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, tensors
from .decomp import TruncationSpec
from .ed import solve_dense, solve_iterative
from .errors import NoConvergence, NumericalFailure, TnkitError, TooLarge, ValidationError
from .mpo import MODELS, SZ, build_model
from .mps import (
    _FIT_ZERO,
    bond_entropies,
    connected_correlation,
    fit_exponential_decay,
    fit_power_law,
    mps_from_state_vector,
    product_mps,
    random_mps,
)
from .tebd import SWEEPABLE, evolve_real_time, find_ground_state, initial_product_state
from .trg import free_energy_per_site
from .verify import SUITES, run_suite


class UsageError(Exception):
    """Bad invocation (flags, files, unknown suite) — exit code 1."""


# ---------------------------------------------------------------------------
# config checking: a checker takes (value, path) and returns the checked value


def _number(kind, **bounds):
    """Checker of an integer (``kind=int``) or a finite number within bounds, e.g. ``_number(float, gt=0, lt=10)``."""
    return lambda val, path: tensors._number(val, f"{path}:", kind, **bounds)


def _choice(*options, note="", error=ValidationError):
    def check(val, path):
        if val not in options:
            raise error(f"{path}: expected one of {sorted(options)}{note}, got {val!r}")
        return val

    return check


def _text(val, path):
    if not isinstance(val, str) or not val:
        raise ValidationError(f"{path}: expected a non-empty string")
    return val


def _list(item, size=None, increasing=False, scalar=False):
    """Checker of a non-empty list of ``item`` values; with ``scalar`` a lone number stands for a list of one."""

    def check(val, path):
        if scalar and type(val) in (int, float):
            val = [val]
        if not isinstance(val, list) or not val or len(val) != (size or len(val)):
            raise ValidationError(f"{path}: expected a non-empty list" + (f" of {size} entries" if size else ""))
        out = [item(x, f"{path}[{i}]") for i, x in enumerate(val)]
        if increasing and out != sorted(set(out)):
            raise ValidationError(f"{path}: entries must increase, got {out}")
        return out

    return check


def _resolve(block, fields, path) -> dict:
    """Check a config object against its field table and return it with every default filled in.

    ``fields`` maps each key to (default, checker); a None default makes the key required, since no
    checker accepts None. A field table in place of a checker is a nested block, named by its key alone.
    A first entry (default, checker, tables) is a switch: its value picks the table of the other keys.
    """
    if not isinstance(block, dict):
        raise ValidationError(f"{path}: {'required' if block is None else 'expected an object'}")
    key, (default, check, *switch) = next(iter(fields.items()))
    if switch:
        val = check(block.get(key, default), f"{path}.{key}")
        fields = {key: (val, check), **switch[0][val]}
    extra = sorted(set(block) - set(fields))
    if extra:
        raise ValidationError(f"{path}: unknown key(s) {', '.join(extra)}")
    out = {}
    for key, (default, check) in fields.items():
        val = block.get(key, default)
        out[key] = _resolve(val, check, key) if isinstance(check, dict) else check(val, f"{path}.{key}")
    return out


def _models(names, note=""):
    """Field table of a ``model`` block: one of ``names``, its ``n`` and its :data:`mpo.MODELS` parameters."""
    tables = {name: {"n": (None, _number(int, ge=2, le=64))} for name in names}
    for name in names:
        for key, default in MODELS[name][1].items():
            tables[name][key] = (default, _number(float, gt=0) if key == "xi" else _number(float))
    return {"model": (None, _choice(*names, note=note), tables)}


def parse_config(text: str) -> dict:
    """Validate config JSON and return it with every default filled in."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal beyond Python's digit limit
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    cfg = _resolve(raw, _CONFIG, "config")
    alg, n = cfg["algorithm"], cfg.get("model", {}).get("n")
    if "n_states" in alg and alg["n_states"] > 2**n:
        raise ValidationError(f"algorithm.n_states: must be <= 2^n = {2**n}, got {alg['n_states']}")
    if "fit_range" in alg and alg["fit_range"][1] >= n // 2:
        raise ValidationError("algorithm.fit_range: x_max must stay below n/2 (mid-chain window)")
    return cfg


# ---------------------------------------------------------------------------
# experiment dispatch


def _run_ed(cfg: dict):
    alg = cfg["algorithm"]
    op = build_model(**cfg["model"])
    if alg["method"] == "dense":
        res = solve_dense(op, n_states=alg["n_states"])
    else:
        res = solve_iterative(op, n_states=alg["n_states"], tol=alg["tol"], max_iter=alg["max_iter"], seed=cfg["seed"])
    energies = [float(e) for e in res.energies]
    metrics = {"energies": energies, "e0": energies[0], "n_matvecs": res.n_matvecs}
    if len(energies) >= 2:
        metrics["gap"] = energies[1] - energies[0]
    return metrics, [{"index": i, "energy": e} for i, e in enumerate(energies)]


def _ground_state(cfg: dict):
    """The imaginary-time search that ``tebd`` (ground mode) and ``corr`` run."""
    alg, model = cfg["algorithm"], cfg["model"]
    return find_ground_state(
        model["model"],
        model["n"],
        model["j"],
        spec=TruncationSpec(chi_max=alg["chi_max"], cutoff=alg["cutoff"]),
        schedule=tuple(alg["schedule"]),
        energy_tol=alg["energy_tol"],
        max_sweeps_per_tau=alg["max_sweeps_per_tau"],
    )


def _run_tebd(cfg: dict):
    alg = cfg["algorithm"]
    model = cfg["model"]
    if alg["mode"] == "ground":
        rep = _ground_state(cfg)
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
        return metrics, rows
    state = initial_product_state(model["model"], model["n"])
    spec = TruncationSpec(chi_max=alg["chi_max"], cutoff=alg["cutoff"])
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
    return metrics, rows


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
    return metrics, rows


def _mps_info_state(alg: dict, seed: int):
    n = alg["n"]
    if alg["state"] == "random":
        return random_mps(n, 2, alg["chi_max"], np.random.default_rng(seed))
    if alg["state"] == "all_up":
        return product_mps([np.array([1.0, 0.0])] * n)
    if alg["state"] == "neel":
        return initial_product_state("heisenberg", n)
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
    return metrics, rows


def _run_corr(cfg: dict):
    alg = cfg["algorithm"]
    rep = _ground_state(cfg)
    x_min, x_max = alg["fit_range"]
    i0 = cfg["model"]["n"] // 2 - (x_max + 1) // 2
    xs = list(range(x_min, x_max + 1))
    cs = [connected_correlation(rep.state, SZ, i0, i0 + x) for x in xs]
    if max(map(abs, cs)) <= _FIT_ZERO:  # no correlations to fit: flagged zero-range, as CorrelationReport does
        xi_fit, log_amp, gamma_fit = 0.0, None, None
    else:
        xi_fit, log_amp = fit_exponential_decay(np.array(xs), np.array(cs))
        gamma_fit = fit_power_law(np.array(xs), np.array(cs))[0]
    metrics = {
        "converged": bool(rep.converged),
        "energy": rep.energy,
        "xi_fit": xi_fit,
        "log_amplitude": log_amp,
        "gamma_fit": gamma_fit,
        "anchor_site": i0,
    }
    return metrics, [{"x": x, "connected_szsz": c} for x, c in zip(xs, cs)]


def _run_verify(cfg: dict):
    results = run_suite(cfg["algorithm"]["suite"], echo=None)
    metrics = {
        "suite": cfg["algorithm"]["suite"],
        "all_passed": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
    return metrics, [dict(c, passed=int(c["passed"]), seconds=f"{c['seconds']:.3f}") for c in metrics["criteria"]]


# the imaginary-time search that tebd (ground mode) and corr run
_GROUND = {
    "chi_max": (50, _number(int, ge=1)),
    "cutoff": (1e-12, _number(float, ge=0, lt=1)),
    "schedule": ([0.1, 0.01, 0.001], _list(_number(float, gt=0, lt=10))),
    "energy_tol": (1e-10, _number(float, gt=0)),
    "max_sweeps_per_tau": (500, _number(int, ge=1)),
}
_SWEEP_MODELS = _models(SWEEPABLE, note=" (sweeps need nearest-neighbor terms)")

#: command -> (runner, field table of its ``model`` block or None if it reads none, field table of its ``algorithm``)
COMMANDS = {
    "ed": (_run_ed, _models(MODELS), {
        "method": ("dense", _choice("dense", "iterative")),
        "n_states": (2, _number(int, ge=1)),
        "tol": (1e-10, _number(float, gt=0)),
        "max_iter": (400, _number(int, ge=1)),
    }),
    "tebd": (_run_tebd, _SWEEP_MODELS, {"mode": ("ground", _choice("ground", "real_time"), {
        "ground": _GROUND,
        "real_time": {
            "chi_max": (50, _number(int, ge=1)),
            "cutoff": (1e-12, _number(float, ge=0, lt=1)),
            "dt": (0.05, _number(float, gt=0)),
            "n_steps": (20, _number(int, ge=1)),
        },
    })}),
    "trg": (_run_trg, None, {
        "beta_grid": ([0.2, 0.44, 0.8], _list(_number(float, gt=0), scalar=True)),
        "chi_max": (16, _number(int, ge=1)),
        "cutoff": (1e-12, _number(float, ge=0, lt=1)),
        "j": (1.0, _number(float)),
        "steps": (8, _number(int, ge=1, le=40)),
    }),
    "mps-info": (_run_mps_info, None, {
        "state": ("random", _choice("random", "ghz", "neel", "all_up")),
        "n": (8, _number(int, ge=2, le=64)),
        "chi_max": (8, _number(int, ge=1)),
    }),
    "corr": (_run_corr, _SWEEP_MODELS, {
        **_GROUND,
        "chi_max": (8, _number(int, ge=1)),
        "fit_range": ([1, 10], _list(_number(int, ge=1), size=2, increasing=True)),
    }),
    # an unknown suite is a usage error (exit 1), not a config one
    "verify": (_run_verify, None, {"suite": ("all", _choice(*SUITES, error=UsageError))}),
}

# the whole config: the command picks the blocks it reads, so a `model` block is unknown to trg, mps-info and verify
_CONFIG = {"command": (None, _choice(*COMMANDS), {
    command: {
        "output": ({}, {"path": ("-", _text), "format": ("json", _choice("json", "csv"))}),
        "seed": (7, _number(int, ge=0)),
        "algorithm": ({}, fields),
        **({"model": (None, models)} if models else {}),
    }
    for command, (_, models, fields) in COMMANDS.items()
})}


def run(cfg: dict) -> dict:
    """Execute a parsed config and return the ResultRecord (also written out).

    Each runner returns ``(metrics, rows)``; rows are never empty, and CSV columns are the first row's keys.
    """
    t0 = time.time()
    metrics, rows = COMMANDS[cfg["command"]][0](cfg)
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
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
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
    """Write atomically (temp file in the target directory, then rename); a failed write is a UsageError."""
    if path == "-":
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tnkit-", suffix=".part")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_record(path: str):
    """Read back an emitted file: dict for JSON, list of row dicts for CSV."""
    text = Path(path).read_text()
    return json.loads(text) if text.startswith("{") else list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# entry point


#: exception type -> (exit code, stderr label); ``main`` takes the first entry on the exception's MRO, so any
#: ValidationError, and any other TnkitError the library raises, traces back to the config
EXIT_CODES = {
    UsageError: (1, "error"),
    **dict.fromkeys((NumericalFailure, NoConvergence, np.linalg.LinAlgError), (3, "numerical failure")),
    **dict.fromkeys((TooLarge, MemoryError), (4, "resource limit")),
    TnkitError: (2, "invalid config"),
}


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
        try:
            text = sys.stdin.read() if args.config == "-" else Path(args.config).read_text()
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
    except tuple(EXIT_CODES) as exc:
        code, label = next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)
        print(f"tnkit: {label}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
