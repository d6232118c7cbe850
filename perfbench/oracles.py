"""Reference values and correctness gates that share no code with tnkit.

Spin chains use a scipy.sparse Kronecker-sum Hamiltonian (site 0 on the
fastest index, like tnkit, though nothing here depends on that because the
spectrum does not); the 2D Ising model uses Onsager's exact free energy by
numerical quadrature. Each gate takes a CLI result record and the reference
values and returns ``(passed, accuracy_err, detail)``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as sla

_SZ = sp.csr_matrix(np.diag([0.5, -0.5]))
_SP = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # S+
_SM = _SP.T.tocsr()

# Fixed, workload-independent start vector seed for the reference eigensolver.
# A structured start such as the all-ones vector lies in the maximal-spin
# multiplet, which H conserves, and would miss the singlet ground state.
_REF_RNG_SEED = 20191126


def _site(op: sp.csr_matrix, k: int, n: int) -> sp.csr_matrix:
    return sp.kron(
        sp.kron(sp.identity(2 ** (n - k - 1), format="csr"), op, format="csr"),
        sp.identity(2**k, format="csr"),
        format="csr",
    )


def heisenberg_bond(n: int, j: float, i: int) -> sp.csr_matrix:
    """-J S_i . S_{i+1} on an n-site chain, in real arithmetic.

    S^x S^x + S^y S^y = (S^+ S^- + S^- S^+) / 2, so no complex entries.
    """
    zz = _site(_SZ, i, n) @ _site(_SZ, i + 1, n)
    flip = _site(_SP, i, n) @ _site(_SM, i + 1, n) + _site(_SM, i, n) @ _site(_SP, i + 1, n)
    return (-j * (zz + 0.5 * flip)).tocsr()


def heisenberg_hamiltonian(n: int, j: float) -> sp.csr_matrix:
    """H = -J sum_i S_i . S_{i+1} (open chain) as a Kronecker sum."""
    return sum((heisenberg_bond(n, j, i) for i in range(n - 1)), sp.csr_matrix((2**n, 2**n))).tocsr()


def heisenberg_levels(n: int, j: float, k: int) -> list[float]:
    """The k lowest eigenvalues of the open Heisenberg chain, ascending."""
    h = heisenberg_hamiltonian(n, j)
    v0 = np.random.default_rng(_REF_RNG_SEED).standard_normal(h.shape[0])
    vals = sla.eigsh(h, k=k, which="SA", tol=0.0, v0=v0, return_eigenvectors=False)
    return sorted(float(e) for e in vals)


def onsager_lnz(beta: float, j: float = 1.0) -> float:
    """ln Z per spin of the infinite square-lattice Ising model (spins +-1).

    ln Z/N = ln(2 cosh 2K) + (1/pi) int_0^{pi/2} ln[(1 + sqrt(1 - k^2 sin^2 t)) / 2] dt
    with K = beta*J and k = 2 sinh 2K / cosh^2 2K.
    """
    big_k = beta * j
    kappa = 2.0 * math.sinh(2.0 * big_k) / math.cosh(2.0 * big_k) ** 2

    def integrand(t: float) -> float:
        return math.log((1.0 + math.sqrt(max(0.0, 1.0 - (kappa * math.sin(t)) ** 2))) / 2.0)

    integral, _ = scipy.integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14, limit=400)
    return math.log(2.0 * math.cosh(2.0 * big_k)) + integral / math.pi


# ---------------------------------------------------------------------------
# references: computed once per benchmark run, outside the timed region


def reference(cfg: dict) -> dict:
    """Reference values for one workload config (a raw CLI config dict)."""
    command = cfg["command"]
    alg = cfg.get("algorithm", {})
    if command == "tebd" and alg.get("mode") == "ground":
        model = cfg["model"]
        return {"energy": heisenberg_levels(model["n"], model["j"], 1)[0]}
    if command == "ed":
        model = cfg["model"]
        return {"energies": heisenberg_levels(model["n"], model["j"], alg["n_states"])}
    if command == "trg":
        return {"lnz_per_site": [onsager_lnz(b, alg.get("j", 1.0)) for b in alg["beta_grid"]]}
    return {}  # real-time TEBD is gated by norm and truncation bookkeeping only


# ---------------------------------------------------------------------------
# gates


def gate_tebd_ground(cfg: dict, metrics: dict, ref: dict, tol: dict):
    """Converged, and |E - E_ref| within tol["energy"]."""
    err = abs(metrics["energy"] - ref["energy"])
    ok = bool(metrics["converged"]) and err <= tol["energy"]
    return ok, err, f"energy_err={err:.3e} J (tol {tol['energy']:g}), converged={metrics['converged']}"


def gate_tebd_quench(cfg: dict, metrics: dict, ref: dict, tol: dict):
    """Norm never grows, truncation stays small and accounts for the lost norm.

    Each truncated split removes exactly its discarded weight from the norm
    squared, so 1 - norm^2 cannot exceed (number of splits) * max weight.
    """
    norm = metrics["final_norm"]
    dw = metrics["max_discarded_weight"]
    n_splits = cfg["algorithm"]["n_steps"] * (cfg["model"]["n"] - 1)
    loss = 1.0 - norm
    ok = (
        norm <= 1.0 + 1e-12
        and dw <= tol["discarded_weight"]
        and 1.0 - norm**2 <= n_splits * dw + 1e-12
        and loss <= tol["norm_loss"]
    )
    return ok, loss, f"norm_loss={loss:.3e} (tol {tol['norm_loss']:g}), max_discarded_weight={dw:.3e}"


def gate_trg_scan(cfg: dict, metrics: dict, ref: dict, tol: dict):
    """ln Z per spin against Onsager at every beta; reports the error at beta_report.

    A 2^(steps+1)-spin torus deep in the ordered phase carries the two-fold
    ground-state degeneracy, ln 2 / N_spins above the infinite lattice; that
    term is subtracted for betas listed in ``tol["ordered"]``.
    """
    alg = cfg["algorithm"]
    n_spins = 2 ** (alg["steps"] + 1)
    errs = {}
    ok = True
    for beta, got, want in zip(alg["beta_grid"], metrics["lnz_per_site"], ref["lnz_per_site"]):
        shift = math.log(2.0) / n_spins if beta in tol["ordered"] else 0.0
        errs[beta] = abs(got - want - shift)
        ok = ok and errs[beta] <= tol["lnz"][str(beta)]
    err = errs[tol["beta_report"]]
    detail = ", ".join(f"lnz_err(beta={b:g})={e:.3e}" for b, e in errs.items())
    return ok, err, detail


def gate_ed(cfg: dict, metrics: dict, ref: dict, tol: dict):
    """Every requested level within tol["energy"] of the sparse reference.

    The reported figure is floored at the solver tolerance: below it the error
    is rounding noise that moves with the Lanczos start vector (the seed).
    """
    got = metrics["energies"]
    want = ref["energies"]
    err = max(abs(a - b) for a, b in zip(got, want)) if len(got) == len(want) else math.inf
    ok = err <= tol["energy"]
    floor = cfg["algorithm"]["tol"]
    return ok, max(err, floor), f"max level err={err:.3e} J (tol {tol['energy']:g}, reported floor {floor:g})"
