"""Self-test of the benchmark: smoke runs, gates, tracer arithmetic, quench oracle.

Run from the repository root (about half a minute):

    python3 perfbench/selftest.py

or under pytest: ``python3 -m pytest perfbench/selftest.py``. The smoke runs
go through run.py and worker.py exactly as a measured run does, only with the
tiny ``smoke`` configs of run.WORKLOADS.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from trace_layers import Tracer  # noqa: E402


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_report_every_metric_with_its_unit():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = _smoke(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (workload, trace, out)
            want = [(m["name"], m["unit"]) for m in spec[key]]
            assert [(k, v["unit"]) for k, v in out["metrics"].items()] == want, (workload, trace)
            if trace == 0:
                assert all(v["value"] > 0 for v in out["metrics"].values()), (workload, out["metrics"])


def test_wrong_reference_fails_every_gate():
    for workload, wl in run.WORKLOADS.items():
        cfg = wl["smoke"]
        tol = wl.get("smoke_tol", wl["tol"])
        gate = getattr(oracles, wl["gate"])
        _smoke(workload, 0)
        with open(run.OUT / f"record-{workload}.json") as fh:
            metrics = json.load(fh)["metrics"]
        ref = oracles.reference(cfg)
        assert gate(cfg, metrics, ref, tol)[0], workload
        if workload == "tebd_ground":
            wrong = {"energy": ref["energy"] + 1e-3}
        elif workload == "ed_lanczos":
            wrong = {"energies": [e + 1e-3 for e in ref["energies"]]}
        elif workload == "trg_scan":
            wrong = {"lnz_per_site": [x + 0.5 for x in ref["lnz_per_site"]]}
        else:  # the quench gate has no reference value; a grown norm must fail it
            wrong, metrics = ref, dict(metrics, final_norm=1.001)
        assert not gate(cfg, metrics, wrong, tol)[0], workload


def test_tracer_self_time_on_synthetic_nested_calls():
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    inner_mod = types.ModuleType("fakepkg.a")
    user_mod = types.ModuleType("fakepkg.b")

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        inner_mod.inner()  # looked up in its own module, like tensors.contract -> permute
        now[0] += 3.0
        user_mod.inner()  # a from-import binding elsewhere, like mps.contract

    inner_mod.inner, inner_mod.outer = inner, outer
    user_mod.inner = inner
    modules = {"fakepkg": pkg, "fakepkg.a": inner_mod, "fakepkg.b": user_mod}
    sys.modules.update(modules)
    try:
        tracer = Tracer(clock=lambda: now[0])
        tracer.install(layers=(("a", "outer"), ("a", "inner")), package="fakepkg")
        assert user_mod.inner is not inner
        inner_mod.outer()
        tracer.uninstall()
        assert user_mod.inner is inner and inner_mod.outer is outer
    finally:
        for name in modules:
            del sys.modules[name]
    spans = tracer.summary()["spans"]
    assert spans["a.outer"] == {"calls": 1, "s": 8.0, "self_s": 4.0}
    assert spans["a.inner"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    parents = [parent for _, _, _, parent in tracer.spans]
    assert parents == [-1, 0, 0]


def test_quench_matches_dense_trotter_propagation():
    """Real-time TEBD at n=6 without truncation against the same bond gates,
    applied in the same sweep order to a dense state vector."""
    n, j, dt, steps = 6, -1.0, 0.05, 10
    sys.path.insert(0, str(run.ROOT / "src"))
    from tnkit.cli import parse_config
    from tnkit.cli import run as cli_run

    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest-quench.csv"
    cfg = parse_config(json.dumps({
        "command": "tebd",
        "model": {"model": "heisenberg", "n": n, "j": j},
        "algorithm": {"mode": "real_time", "chi_max": 64, "cutoff": 0.0, "dt": dt, "n_steps": steps},
        "output": {"path": str(path), "format": "csv"},
    }))
    cli_run(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))

    h = oracles.heisenberg_hamiltonian(n, j).toarray()
    gates = [scipy.linalg.expm(-1j * dt * oracles.heisenberg_bond(n, j, b).toarray()) for b in range(n - 1)]
    psi = np.zeros(2**n, dtype=complex)
    psi[sum(2**k for k in range(1, n, 2))] = 1.0  # Neel: even sites up, odd sites down
    for step, row in enumerate(rows):
        order = range(n - 1) if step % 2 == 0 else reversed(range(n - 1))
        for b in order:
            psi = gates[b] @ psi
        energy = (psi.conj() @ h @ psi).real / (psi.conj() @ psi).real
        assert abs(float(row["energy"]) - energy) < 1e-10, (step, row["energy"], energy)
        assert abs(float(row["norm"]) - 1.0) < 1e-12
    assert len(rows) == steps


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS  {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
