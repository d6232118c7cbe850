"""End-to-end acceptance checks, each cross-validated against an oracle.

Every check builds its own independent reference — dense Kronecker sums,
nested-loop contractions, brute-force partition functions, dense propagators —
and compares the library result at a fixed tolerance. The functions return a
:class:`CriterionResult` instead of raising, so the same code drives the
``tnkit verify`` CLI command, the pytest acceptance module, and ad-hoc runs
(``python3 -m tnkit.verify``).

Checks are grouped into suites: ``core`` (decomposition/contraction layer),
``mps``, ``tebd``, ``trg``, ``ed``, and ``all``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .decomp import (
    UNTRUNCATED,
    TruncationSpec,
    entanglement_entropy,
    mera_update,
    svd,
    truncated_svd,
)
from .ed import solve_dense, solve_iterative
from .mpo import (
    SZ,
    build_exp_decay,
    build_heisenberg,
    build_ising_nn,
    build_ising_nnn,
    mpo_to_dense,
)
from .mps import (
    connected_correlation,
    correlation_length,
    expect_local,
    expect_two_site,
    fit_exponential_decay,
    gauge_insert,
    mps_from_state_vector,
    random_mps,
    to_state_vector,
)
from .tebd import evolve_real_time, find_ground_state
from .tensors import DenseTensor, contract, contract_flops
from .trg import brute_force_lnz, close_torus, free_energy_per_site, initial_state, trg_step


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    detail: str
    seconds: float

    def one_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<24s} {self.detail}  [{self.seconds:.2f}s]"


def _result(name: str, t0: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), detail=detail, seconds=time.time() - t0)


# ---------------------------------------------------------------------------
# independent dense oracles (deliberately *not* reusing tnkit.mpo internals)

_I2 = np.eye(2)
_SZ = np.diag([0.5, -0.5])
_SX = np.array([[0.0, 0.5], [0.5, 0.0]])
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]])


def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Dense n-site embedding of a one-site operator, site 0 fastest."""
    full = np.eye(1)
    for k in range(n):
        factor = op if k == site else _I2
        full = np.kron(factor, full)  # later sites go into slower slots
    return full


def _pair_term(op: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    return _embed(op, i, n) @ _embed(op, j, n)


def _oracle_hamiltonian(model: str, n: int, **kw) -> np.ndarray:
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    if model == "ising_nn":
        for i in range(n - 1):
            h -= kw["j"] * _pair_term(_SZ, i, i + 1, n)
    elif model == "ising_nnn":
        for i in range(n - 1):
            h -= kw["j1"] * _pair_term(_SZ, i, i + 1, n)
        for i in range(n - 2):
            h -= kw["j2"] * _pair_term(_SZ, i, i + 2, n)
    elif model == "exp_decay":
        for i in range(n):
            for jj in range(i + 1, n):
                h -= kw["j"] * np.exp(-(jj - i) / kw["xi"]) * _pair_term(_SZ, i, jj, n)
    elif model == "heisenberg":
        for i in range(n - 1):
            for op in (_SX, _SY, _SZ):
                h -= kw["j"] * _pair_term(op, i, i + 1, n)
    else:  # pragma: no cover - internal misuse
        raise ValueError(model)
    return h


# ---------------------------------------------------------------------------
# criterion checks


def check_mps_roundtrip() -> CriterionResult:
    """Untruncated factor/rebuild of 25 random states, with exact bond growth."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    sizes = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12] * 3
    worst = 0.0
    profiles_ok = True
    for n in sizes[:25]:
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi /= np.linalg.norm(psi)
        m = mps_from_state_vector(psi, 2)
        expected = tuple(min(2 ** (b + 1), 2 ** (n - b - 1)) for b in range(n - 1))
        profiles_ok = profiles_ok and m.bond_dims() == expected
        worst = max(worst, float(np.max(np.abs(to_state_vector(m) - psi))))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and profiles_ok and elapsed < 10.0
    return _result(
        "mps_roundtrip", t0, ok, f"25 states N<=12: max|dev|={worst:.2e}, profiles {'exact' if profiles_ok else 'WRONG'}"
    )


def check_svd_entanglement_examples() -> CriterionResult:
    """Hand-worked two-spin spectra: product, Bell pair, singlet."""
    t0 = time.time()
    rt2 = 1.0 / np.sqrt(2.0)
    # Basis order: coefficient of |s0 s1> sits at s0 + 2*s1 (site 0 fastest).
    product = np.array([rt2, rt2, 0.0, 0.0])  # (|up,up> + |down,up>)/sqrt2
    bell = np.array([rt2, 0.0, 0.0, rt2])
    singlet = np.array([0.0, -rt2, rt2, 0.0])  # (|up,down> - |down,up>)/sqrt2
    errs = []
    for psi, lam_ref, s_ref in (
        (product, (1.0, 0.0), 0.0),
        (bell, (rt2, rt2), 1.0),
        (singlet, (rt2, rt2), 1.0),
    ):
        res = svd(psi.reshape(2, 2, order="F"))
        errs.append(float(np.max(np.abs(res.d - np.asarray(lam_ref)))))
        errs.append(abs(entanglement_entropy(res.d) - s_ref))
    worst = max(errs)
    return _result("svd_examples", t0, worst < 1e-12, f"3 worked spectra+entropies: max|dev|={worst:.2e}")


def check_truncation_identity() -> CriterionResult:
    """|psi - psi_k|_F^2 == 1 - (kept weight), at every rank of 100 matrices."""
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        a, b = rng.integers(2, 9, size=2)
        m = rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
        m /= np.linalg.norm(m)
        full = svd(m)
        for k in range(1, len(full.d) + 1):
            cut = truncated_svd(m, TruncationSpec(chi_max=k))
            approx = cut.u @ np.diag(cut.d) @ cut.v_dag
            lhs = np.linalg.norm(m - approx) ** 2
            delta = float(np.sum(np.asarray(cut.d) ** 2))
            worst = max(worst, abs(lhs - (1.0 - delta)), abs(lhs - cut.discarded_weight))
    return _result("truncation_identity", t0, worst < 1e-10, f"100 matrices, all ranks: max|dev|={worst:.2e}")


def check_gauge_invariance() -> CriterionResult:
    """Random well-conditioned bond gauges leave every expectation unchanged."""
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    worst_cond = 0.0
    for _ in range(5):
        m = random_mps(8, 2, 6, rng)
        ref_local = [expect_local(m, SZ, s) for s in (0, 3, 7)]
        ref_pair = [expect_two_site(m, SZ, 1, SZ, 5), expect_two_site(m, _SX, 2, _SX, 6)]
        for bond in range(m.n_sites - 1):
            chi = m.sites[bond].shape[2]
            x = np.eye(chi) + 0.3 * (rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)))
            if np.linalg.cond(x) >= 1e3:  # pragma: no cover - essentially never at this scale
                continue
            worst_cond = max(worst_cond, float(np.linalg.cond(x)))
            g = gauge_insert(m, bond, x)
            new_local = [expect_local(g, SZ, s) for s in (0, 3, 7)]
            new_pair = [expect_two_site(g, SZ, 1, SZ, 5), expect_two_site(g, _SX, 2, _SX, 6)]
            worst = max(worst, float(np.max(np.abs(np.array(ref_local + ref_pair) - np.array(new_local + new_pair)))))
    return _result(
        "gauge_invariance", t0, worst < 1e-8, f"5 states x 7 bonds (cond<={worst_cond:.1f}): max|shift|={worst:.2e}"
    )


def check_mpo_kron_oracle() -> CriterionResult:
    """All four builders densify to an independent Kronecker-sum oracle."""
    t0 = time.time()
    worst = 0.0
    for n in range(2, 9):
        cases = [
            (build_ising_nn(n, 1.3), _oracle_hamiltonian("ising_nn", n, j=1.3)),
            (build_ising_nnn(n, 1.0, 0.5), _oracle_hamiltonian("ising_nnn", n, j1=1.0, j2=0.5)),
            (build_exp_decay(n, 1.7, 0.9), _oracle_hamiltonian("exp_decay", n, xi=1.7, j=0.9)),
            (build_heisenberg(n, -1.0), _oracle_hamiltonian("heisenberg", n, j=-1.0)),
        ]
        for op, ref in cases:
            worst = max(worst, float(np.max(np.abs(mpo_to_dense(op) - ref))))
    # spot-check the exp-decay coupling strengths via Pauli-string projection
    n, xi, jc = 8, 1.7, 0.9
    dense = mpo_to_dense(build_exp_decay(n, xi, jc))
    spot = 0.0
    for i, jj in ((0, 3), (2, 6), (1, 7)):
        string = _pair_term(_SZ, i, jj, n)
        coeff = np.trace(dense @ string) / np.trace(string @ string)
        spot = max(spot, abs(coeff - (-jc * np.exp(-abs(i - jj) / xi))))
    ok = worst < 1e-12 and spot < 1e-12
    return _result("mpo_kron_oracle", t0, ok, f"4 models, n<=8: max|dev|={worst:.2e}, exp-decay spots {spot:.2e}")


def check_ed_iterative() -> CriterionResult:
    """Block Lanczos on degenerate spectra vs Kronecker-sum eigenvalues."""
    t0 = time.time()
    cases = [(build_ising_nnn(7, 1.0, 0.5), ("ising_nnn", 7, {"j1": 1.0, "j2": 0.5}), k, 5) for k in (3, 4)]
    cases += [(build_heisenberg(6, 1.0), ("heisenberg", 6, {"j": 1.0}), 3, seed) for seed in range(6)]
    cases.append((build_heisenberg(8, -1.0), ("heisenberg", 8, {"j": -1.0}), 3, 7))
    worst = 0.0
    for op, (model, n, kw), k, seed in cases:
        ref = np.linalg.eigvalsh(_oracle_hamiltonian(model, n, **kw))[:k]
        got = solve_iterative(op, n_states=k, seed=seed).energies
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return _result("ed_iterative", t0, worst < 1e-9, f"{len(cases)} degenerate cases: max|dE|={worst:.2e}")


def check_tebd_heisenberg_energy() -> CriterionResult:
    """Imaginary-time ground state of the N=10 antiferromagnet vs dense ED."""
    t0 = time.time()
    n = 10
    e_exact = solve_dense(build_heisenberg(n, -1.0)).energies[0]
    rep = find_ground_state("heisenberg", n, -1.0, spec=TruncationSpec(chi_max=50, cutoff=1e-12))
    rel = abs(rep.energy - e_exact) / abs(e_exact)
    elapsed = time.time() - t0
    ok = rel < 1e-6 and rep.converged and elapsed < 60.0
    return _result(
        "tebd_ground_energy", t0, ok, f"N=10 chi=50: E={rep.energy:.9f} vs ED {e_exact:.9f}, rel={rel:.2e}"
    )


def check_trotter_order() -> CriterionResult:
    """Single-sweep error against the dense propagator scales as tau^2."""
    t0 = time.time()
    n = 4
    rng = np.random.default_rng(3)
    psi0 = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi0 /= np.linalg.norm(psi0)
    h = mpo_to_dense(build_heisenberg(n, -1.0))
    omega, u = np.linalg.eigh(h)

    def one_sweep_error(tau: float) -> float:
        exact = u @ (np.exp(-1j * omega * tau) * (u.conj().T @ psi0))
        rep = evolve_real_time(mps_from_state_vector(psi0, 2), "heisenberg", -1.0, dt=tau, n_steps=1)
        return float(np.linalg.norm(to_state_vector(rep.state) - exact))

    e1, e2, e3 = one_sweep_error(0.1), one_sweep_error(0.05), one_sweep_error(0.025)
    r1, r2 = e1 / e2, e2 / e3
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    return _result("trotter_order", t0, ok, f"halving ratios {r1:.3f}, {r2:.3f} (target ~4)")


def check_trg_torus_exactness() -> CriterionResult:
    """Untruncated TRG equals the 4x4 brute-force torus; chi=16 run is Cauchy."""
    t0 = time.time()
    exact_spec = TruncationSpec(cutoff=1e-24)
    worst = 0.0
    for beta in (0.2, 0.44, 0.8):
        state = initial_state(beta, 1.0)
        for _ in range(3):  # 2^(3+1) = 16 spins = the 4x4 torus
            state = trg_step(state, exact_spec)
        worst = max(worst, abs(close_torus(state) - brute_force_lnz(beta, 1.0, 4, 4) / 16.0))
    f16 = free_energy_per_site(0.8, steps=8, spec=TruncationSpec(chi_max=16, cutoff=1e-12)).f
    f32 = free_energy_per_site(0.8, steps=8, spec=TruncationSpec(chi_max=32, cutoff=1e-12)).f
    cauchy = abs(f16 - f32)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and cauchy < 1e-5 and elapsed < 30.0
    return _result(
        "trg_torus_exactness", t0, ok, f"4x4 torus max|dev|={worst:.2e}; |f(16)-f(32)|={cauchy:.2e} at 8 steps"
    )


def check_correlation_length_fit() -> CriterionResult:
    """Fitted <SzSz> decay vs the transfer-matrix length on a gapped state.

    Imaginary-time TEBD on the nearest-neighbor Ising chain, stopped at a
    modest energy tolerance, leaves the chain in exp(K sum SzSz)|+...+>: a
    genuinely gapped state with one correlation channel, so the fitted decay
    and -1/ln|eps2/eps1| measure the same number.
    """
    t0 = time.time()
    n = 32
    rep = find_ground_state(
        "ising_nn",
        n,
        1.0,
        spec=TruncationSpec(chi_max=8, cutoff=1e-12),
        schedule=(0.05,),
        energy_tol=3e-2,
        max_sweeps_per_tau=5000,
    )
    report = correlation_length(rep.state)
    i0 = n // 2 - 5
    xs = np.arange(1, 11)
    cs = [connected_correlation(rep.state, SZ, i0, i0 + int(x)) for x in xs]
    xi_fit, _ = fit_exponential_decay(xs, cs)
    rel = abs(xi_fit - report.xi) / report.xi
    ok = rel < 0.05 and rep.converged
    return _result(
        "correlation_length", t0, ok, f"xi_transfer={report.xi:.6f}, xi_fit={xi_fit:.6f}, rel={rel:.2e}"
    )


def check_mera_trace_optimality() -> CriterionResult:
    """W = V U-dagger beats 1000 Haar unitaries on Re tr(W Gamma), 20 times."""
    t0 = time.time()
    rng = np.random.default_rng(23)
    d = 6
    margin = np.inf
    for _ in range(20):
        gamma = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = mera_update(gamma)
        best = np.real(np.trace(w @ gamma))
        z = rng.standard_normal((1000, d, d)) + 1j * rng.standard_normal((1000, d, d))
        rivals = []
        for zz in z:
            q, r = np.linalg.qr(zz)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # phase-fixed Haar sample
            rivals.append(np.real(np.trace(q @ gamma)))
        margin = min(margin, best - max(rivals))
    return _result("mera_optimality", t0, margin >= -1e-10, f"20 environments: min margin={margin:.3e}")


def check_contraction_oracle() -> CriterionResult:
    """contract == exhaustive nested-loop sums; flop model on the chi^7 case."""
    t0 = time.time()
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(50):
        ra = int(rng.integers(1, 5))
        rb = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(ra, rb) + 1))
        ax_a = list(rng.choice(ra, size=k, replace=False))
        ax_b = list(rng.choice(rb, size=k, replace=False))
        shape_a = [int(rng.integers(2, 4)) for _ in range(ra)]
        shape_b = [int(rng.integers(2, 4)) for _ in range(rb)]
        for p, q in zip(ax_a, ax_b):
            shape_b[q] = shape_a[p]
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        got = contract(DenseTensor.from_ndarray(a), ax_a, DenseTensor.from_ndarray(b), ax_b).to_ndarray()

        free_a = [i for i in range(ra) if i not in ax_a]
        free_b = [i for i in range(rb) if i not in ax_b]
        out_shape = [shape_a[i] for i in free_a] + [shape_b[i] for i in free_b]
        ref = np.zeros(out_shape, dtype=complex)
        for out_idx in np.ndindex(*out_shape):
            acc = 0.0 + 0.0j
            for con_idx in np.ndindex(*[shape_a[i] for i in ax_a]):
                ia = [0] * ra
                ib = [0] * rb
                for pos, i in enumerate(free_a):
                    ia[i] = out_idx[pos]
                for pos, i in enumerate(free_b):
                    ib[i] = out_idx[len(free_a) + pos]
                for pos, (p, q) in enumerate(zip(ax_a, ax_b)):
                    ia[p] = con_idx[pos]
                    ib[q] = con_idx[pos]
                acc += a[tuple(ia)] * b[tuple(ib)]
            ref[out_idx] = acc
        worst = max(worst, float(np.max(np.abs(got - ref))) if ref.size else abs(complex(got) - complex(ref)))

    chi = 3
    flops = contract_flops(DenseTensor.zeros((chi,) * 4), [0, 1], DenseTensor.zeros((chi,) * 5), [3, 4])
    flops_ok = flops == chi**7
    ok = worst < 1e-12 and flops_ok
    return _result(
        "contraction_oracle", t0, ok, f"50 nested-loop checks: max|dev|={worst:.2e}; rank-4x5 flops={flops}=chi^7"
    )


# ---------------------------------------------------------------------------
# registry and runners

CHECKS = {
    "mps_roundtrip": check_mps_roundtrip,
    "svd_examples": check_svd_entanglement_examples,
    "truncation_identity": check_truncation_identity,
    "gauge_invariance": check_gauge_invariance,
    "mpo_kron_oracle": check_mpo_kron_oracle,
    "tebd_ground_energy": check_tebd_heisenberg_energy,
    "trotter_order": check_trotter_order,
    "trg_torus_exactness": check_trg_torus_exactness,
    "correlation_length": check_correlation_length_fit,
    "mera_optimality": check_mera_trace_optimality,
    "contraction_oracle": check_contraction_oracle,
    "ed_iterative": check_ed_iterative,
}

SUITES = {
    "core": ["svd_examples", "truncation_identity", "mera_optimality", "contraction_oracle"],
    "mps": ["mps_roundtrip", "gauge_invariance", "mpo_kron_oracle"],
    "tebd": ["tebd_ground_energy", "trotter_order", "correlation_length"],
    "trg": ["trg_torus_exactness"],
    "ed": ["ed_iterative"],
    "all": list(CHECKS),
}


def run_suite(suite: str = "all", echo=print) -> list[CriterionResult]:
    """Run a named suite, echoing one line per criterion."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for name in SUITES[suite]:
        res = CHECKS[name]()
        if echo is not None:
            echo(res.one_line())
        results.append(res)
    return results


if __name__ == "__main__":  # pragma: no cover - convenience runner
    import sys

    outcome = run_suite(sys.argv[1] if len(sys.argv) > 1 else "all")
    sys.exit(0 if all(r.passed for r in outcome) else 1)
