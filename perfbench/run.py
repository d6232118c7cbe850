"""tnkit benchmark: time to a result of stated accuracy, per CLI workload.

Run from the repository root:

    python3 perfbench/run.py --workload tebd_ground --seed 1 --seconds 32 --trace 0

Each job runs one workload config through ``tnkit.cli.parse_config`` and
``tnkit.cli.run`` in a fresh worker process (worker.py), importing tnkit
from ``src/``. The load is a closed loop with one client: jobs run back to
back, one process at a time, and a new job starts only while the last jobs'
durations say it will end within ``--seconds``. BLAS runs on
``BLAS_THREADS`` threads in every process. Every job's record is checked
against an oracle that shares no code with tnkit (oracles.py); references
are computed before the timed loop.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: from the ``run(cfg)`` call until the record is written (median
  over jobs);
* ``setup_s``: from spawning the interpreter to the first library call after
  ``import tnkit.cli`` and ``parse_config`` (median over the jobs plus
  ``SETUP_PROBES`` set-up-only processes);
* ``peak_rss_mb``: the worker's peak resident set size (median over jobs);
* ``accuracy_err``: the workload's accuracy figure against its oracle,
  defined per workload in ``WORKLOADS`` (median over jobs).

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of BENCHMARK.json from the traced ones (trace_layers.py), plus the
tracing overhead against the untraced ones. End-to-end metrics never come
from traced jobs.

The seed reaches the program only through the CLI ``seed`` override. Of the
four workloads only ``ed_lanczos`` consumes it (the Lanczos start vector),
so its ``n_matvecs`` may differ between seeds; the others are deterministic.

``--smoke`` swaps in tiny configs that take the same code paths (selftest.py).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a full result with every
sample and the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from trace_layers import COUNT_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1  # one recorded value, no higher than nproc
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 3  # set-up-only processes per run, for a steadier setup_s median
JOB_DEADLINE_S = 160.0  # no job outlives this, so a run exits well within 180 s

# Exact counts: the work model's flops and bytes, and the program's own
# iteration counts. They repeat exactly between runs of the same code.
COMPUTED = {
    "tensors.contract.flops",
    "decomp.truncated_svd.flops",
    "decomp.truncated_svd.kept_fraction",
    "ed.mpo_matvec.bytes",
    "tebd.n_sweeps",
    "ed.n_matvecs",
}

_HEISENBERG_AFM = {"model": "heisenberg", "j": -1.0}

# Each workload: the CLI config, its tiny smoke twin, the gate (oracles.gate_*)
# and its tolerances. "why" and the predictions live in BENCHMARK.json and
# README.md.
WORKLOADS = {
    "tebd_ground": {
        "config": {
            "command": "tebd",
            "model": dict(_HEISENBERG_AFM, n=16),
            "algorithm": {"mode": "ground", "chi_max": 32, "cutoff": 1e-12},
        },
        "smoke": {
            "command": "tebd",
            "model": dict(_HEISENBERG_AFM, n=6),
            "algorithm": {"mode": "ground", "chi_max": 8, "cutoff": 1e-12},
        },
        "gate": "gate_tebd_ground",
        "tol": {"energy": 1e-6},
        "accuracy": "|E - E_ref| in units of |J|, E_ref from a sparse Kronecker-sum H",
    },
    "tebd_quench": {
        "config": {
            "command": "tebd",
            "model": dict(_HEISENBERG_AFM, n=24),
            "algorithm": {"mode": "real_time", "chi_max": 48, "dt": 0.05, "n_steps": 100},
        },
        "smoke": {
            "command": "tebd",
            "model": dict(_HEISENBERG_AFM, n=6),
            "algorithm": {"mode": "real_time", "chi_max": 4, "dt": 0.05, "n_steps": 10},
        },
        "gate": "gate_tebd_quench",
        "tol": {"norm_loss": 1e-3, "discarded_weight": 1e-5},
        "accuracy": "1 - final_norm, the norm lost to truncation",
    },
    "trg_scan": {
        "config": {
            "command": "trg",
            "algorithm": {"beta_grid": [0.2, 0.44, 0.8], "chi_max": 32, "steps": 8},
        },
        "smoke": {
            "command": "trg",
            "algorithm": {"beta_grid": [0.2, 0.44, 0.8], "chi_max": 8, "steps": 2},
        },
        "gate": "gate_trg_scan",
        "tol": {
            "lnz": {"0.2": 1e-9, "0.44": 5e-3, "0.8": 1e-9},
            "ordered": [0.8],
            "beta_report": 0.44,
        },
        "smoke_tol": {
            "lnz": {"0.2": 2e-2, "0.44": 2e-1, "0.8": 1e-6},
            "ordered": [0.8],
            "beta_report": 0.44,
        },
        "accuracy": "|ln Z(0.44) - Onsager(0.44)| per spin; 0.2 and 0.8 are gated only",
    },
    "ed_lanczos": {
        "config": {
            "command": "ed",
            "model": dict(_HEISENBERG_AFM, n=14),
            "algorithm": {"method": "iterative", "n_states": 2, "tol": 1e-10},
        },
        "smoke": {
            "command": "ed",
            "model": dict(_HEISENBERG_AFM, n=6),
            "algorithm": {"method": "iterative", "n_states": 2, "tol": 1e-10},
        },
        "gate": "gate_ed",
        "tol": {"energy": 1e-8},
        "accuracy": "max level error in units of |J|, floored at the Lanczos tol (rounding noise below)",
    },
}


class SetupError(RuntimeError):
    """The benchmark cannot run here at all (no sources, worker cannot start)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return "unknown (packed ref)"
    return ref


def spawn(cfg_text: str, seed: int, record: Path, deadline: float, *, setup_only=False, spans=None):
    """Run one worker process; returns its report with setup_s added, or None."""
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), cfg_text, str(seed), str(record)]
    if setup_only:
        argv.append("--setup-only")
    if spans is not None:
        argv += ["--trace", str(spans)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        print("worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["t_call"] - t_spawn
    report["wall_s"] = report["t_done"] - report["t_call"]
    return report


def run_jobs(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import oracles

    wl = WORKLOADS[name]
    cfg = wl["smoke" if smoke else "config"]
    tol = wl.get("smoke_tol", wl["tol"]) if smoke else wl["tol"]
    gate = getattr(oracles, wl["gate"])
    ref = oracles.reference(cfg)  # outside the timed region
    cfg_text = json.dumps(cfg)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"record-{name}.json"
    spans = OUT / f"spans-{name}.csv"
    hard_deadline = time.monotonic() + JOB_DEADLINE_S

    start = time.monotonic()
    setup = []
    for _ in range(SETUP_PROBES):
        rep = spawn(cfg_text, seed, record, hard_deadline, setup_only=True)
        if rep is None:
            raise SetupError("a set-up-only worker failed; see the message above")
        setup.append(rep["setup_s"])

    jobs = []
    durations = []  # spawn to exit, per job
    while True:
        traced = trace and len(jobs) % 2 == 1
        if record.exists():
            record.unlink()
        t_job = time.monotonic()
        rep = spawn(cfg_text, seed, record, hard_deadline, spans=spans if traced else None)
        job = {"traced": traced, "ok": False}
        if rep is not None:
            try:
                with open(record) as fh:
                    metrics = json.load(fh)["metrics"]
                ok, err, detail = gate(cfg, metrics, ref, tol)
            except (OSError, KeyError, TypeError, ValueError) as exc:  # missing or malformed record
                print(f"no valid record: {exc!r}", file=sys.stderr)
                rep = None
        if rep is not None:
            job.update(
                ok=ok,
                wall_s=rep["wall_s"],
                setup_s=rep["setup_s"],
                peak_rss_mb=rep["peak_rss_kib"] * 1024 / 1e6,
                accuracy_err=err,
                detail=detail,
                record_metrics={k: metrics[k] for k in ("n_sweeps", "n_matvecs") if k in metrics},
                layers=rep.get("layers"),
            )
        jobs.append(job)
        durations.append(time.monotonic() - t_job)
        if rep is None or time.monotonic() >= hard_deadline:
            break
        # start another job only if one as long as the longer of the last two
        # still ends within --seconds; a traced run needs one job of each kind
        if (not trace or len(jobs) >= 2) and time.monotonic() - start + max(durations[-2:]) > seconds:
            break
    setup += [j["setup_s"] for j in jobs if "setup_s" in j and not j["traced"]]
    return {"jobs": jobs, "setup": setup, "reference": ref, "measured_s": time.monotonic() - start}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(job: dict) -> dict:
    """Flat per-layer values of one traced job; layers never called read 0."""
    spans = job["layers"]["spans"]
    counts = job["layers"]["counts"]
    out = {}
    for layer, row in spans.items():
        for stat, value in row.items():
            out[f"{layer}.{stat}"] = value
    out["tensors.contract.flops"] = counts.get("tensors.contract.flops", 0)
    out["decomp.truncated_svd.flops"] = counts.get("decomp.truncated_svd.flops", 0)
    full = counts.get("decomp.truncated_svd.full", 0)
    out["decomp.truncated_svd.kept_fraction"] = counts["decomp.truncated_svd.kept"] / full if full else 0.0
    out["ed.mpo_matvec.bytes"] = counts.get("ed.mpo_matvec.bytes", 0)
    out["tebd.n_sweeps"] = job["record_metrics"].get("n_sweeps", 0)
    out["ed.n_matvecs"] = job["record_metrics"].get("n_matvecs", 0)
    out["trace.spans"] = sum(row["calls"] for name, row in spans.items() if name != COUNT_SPAN)
    out["trace.wall_s"] = job["wall_s"]
    return out


def summarize(result: dict, spec: dict, trace: bool) -> tuple[dict, list[str]]:
    """Final metrics (named and ordered as in BENCHMARK.json) and report lines."""
    measured = [j for j in result["jobs"] if "wall_s" in j]
    plain = [j for j in measured if not j["traced"]]
    lines = [f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12}  unit   n"]

    def row(name, values, unit):
        q1, med, q3 = _quartiles(values)
        label = "  computed" if name in COMPUTED else ""
        lines.append(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}  {unit:<6} {len(values)}{label}")
        return med

    metrics = {}
    if not trace:
        samples = {
            "wall_s": [j["wall_s"] for j in plain],
            "setup_s": result["setup"],
            "peak_rss_mb": [j["peak_rss_mb"] for j in plain],
            "accuracy_err": [j["accuracy_err"] for j in plain],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": row(m["name"], samples[m["name"]], m["unit"]), "unit": m["unit"]}
        return metrics, lines

    traced = [layer_metrics(j) for j in measured if j["traced"]]
    base = statistics.median(j["wall_s"] for j in plain)
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_s":
            value = statistics.median(t["trace.wall_s"] for t in traced) - base
        elif name == "trace.overhead_frac":
            value = statistics.median(t["trace.wall_s"] for t in traced) / base - 1.0
        else:
            value = row(name, [t.get(name, 0) for t in traced], unit)
        metrics[name] = {"value": value, "unit": unit}
    lines.append(f"trace overhead: {metrics['trace.overhead_s']['value']:+.3f} s "
                 f"({100 * metrics['trace.overhead_frac']['value']:+.1f}%) over untraced wall_s {base:.3f} s")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs through the same code paths")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # before numpy loads: the oracles use scipy here, and workers inherit it
    os.environ.update(BLAS_ENV)
    try:
        if not (ROOT / "src" / "tnkit" / "cli.py").is_file():
            raise SetupError(f"no tnkit sources under {ROOT / 'src'}")
        spec = load_spec()
        result = run_jobs(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    jobs = result["jobs"]
    if not any("wall_s" in j for j in jobs) or (args.trace and not any(j["traced"] and "wall_s" in j for j in jobs)):
        print("perfbench: no job produced a measurement", file=sys.stderr)
        return 1
    env = environment()
    failed = sum(not j["ok"] for j in jobs)
    metrics, lines = summarize(result, spec, bool(args.trace))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} smoke={args.smoke} "
          f"jobs={len(jobs)} setup_samples={len(result['setup'])} measured={result['measured_s']:.1f}s")
    print("env " + json.dumps(env))
    print(f"accuracy_err: {WORKLOADS[args.workload]['accuracy']}")
    for i, j in enumerate(jobs):
        if "wall_s" in j:
            print(f"job {i}{' traced' if j['traced'] else ''}: wall_s={j['wall_s']:.4f} setup_s={j['setup_s']:.4f} "
                  f"peak_rss_mb={j['peak_rss_mb']:.1f} gate={'pass' if j['ok'] else 'FAIL'} {j['detail']} "
                  f"counts(computed)={json.dumps(j['record_metrics'])}")
        else:
            print(f"job {i}: FAILED (worker error)")
    print("\n".join(lines))

    summary = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    full = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke, env=env,
                reference=result["reference"], setup_samples=result["setup"],
                jobs=[{k: v for k, v in j.items() if k != "layers"} for j in jobs])
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
