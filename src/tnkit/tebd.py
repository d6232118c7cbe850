"""Time-evolving block decimation for nearest-neighbor spin-1/2 chains.

One evolution step is one *directional sweep*: bond gates applied
sequentially left-to-right (or right-to-left), each followed by a truncated
re-split. A single sweep is a first-order product formula — its one-step
error is O(tau^2) — while two consecutive sweeps in opposite directions form
a symmetric composition, so drivers that alternate direction converge with a
second-order bias in the step size.

Only Hamiltonians that decompose into nearest-neighbor pair terms can be
evolved this way; asking for the longer-range models raises
UnsupportedModel. Imaginary-time evolution renormalizes the state after
every sweep (the gates are not unitary); real-time evolution leaves the norm
alone so truncation loss stays visible to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import UNTRUNCATED, TruncationSpec, eig_hermitian
from .errors import ShapeMismatch, UnsupportedModel
from .mpo import MPO, SM, SP, SZ, build_heisenberg, build_ising_nn, mpo_expectation, two_site_matrix
from .mps import MPS, _gate_pair, _gate_tensor, move_center, norm_squared, product_mps

_UP = np.array([1.0, 0.0])
_DOWN = np.array([0.0, 1.0])
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def pair_hamiltonian(model: str, j: float = 1.0) -> np.ndarray:
    """(4, 4) real two-site term of a nearest-neighbor model (left site fastest)."""
    if model == "ising_nn":
        return -j * two_site_matrix(SZ, SZ)
    if model == "heisenberg":
        return -j * (
            0.5 * (two_site_matrix(SP, SM) + two_site_matrix(SM, SP)) + two_site_matrix(SZ, SZ)
        )
    if model in ("ising_nnn", "exp_decay"):
        raise UnsupportedModel(f"{model!r} has terms beyond nearest neighbors")
    raise UnsupportedModel(f"unknown model {model!r}")


def model_mpo(model: str, n_sites: int, j: float = 1.0) -> MPO:
    """The full-chain MPO matching :func:`pair_hamiltonian`'s convention."""
    if model == "ising_nn":
        return build_ising_nn(n_sites, j)
    if model == "heisenberg":
        return build_heisenberg(n_sites, j)
    raise UnsupportedModel(f"no sweepable MPO for model {model!r}")


def bond_gate(model: str, j: float, step: float, mode: str) -> np.ndarray:
    """Real exp(-step*h) or complex exp(-i*step*h) of the pair term, via its eigenbasis.

    The (4, 4) gate is returned read-only.
    """
    if mode not in ("imaginary", "real"):
        raise ValueError(f"mode must be 'imaginary' or 'real', got {mode!r}")
    res = eig_hermitian(pair_hamiltonian(model, j))
    factor = -step if mode == "imaginary" else -1j * step
    gate = (res.u * np.exp(factor * res.omega)[None, :]) @ res.u.conj().T
    gate.flags.writeable = False
    return gate


def sweep(
    state: MPS,
    gate,
    spec: TruncationSpec = UNTRUNCATED,
    direction: str = "right",
) -> tuple[MPS, float]:
    """Apply one gate per bond in sweep order; returns max discarded weight.

    Equal to successive :func:`~tnkit.mps.apply_two_site_gate` calls: the
    center moves to the first bond once, every bond is updated in place on a
    private site list, and one MPS is built at the end.
    """
    g4 = _gate_tensor(gate, state.phys_dim, direction)
    n = state.n_sites
    bonds = range(n - 1) if direction == "right" else range(n - 2, -1, -1)
    first, last = (0, n - 1) if direction == "right" else (n - 1, 0)
    tensors = list(move_center(state, first).sites)
    worst = 0.0
    for b in bonds:
        worst = max(worst, _gate_pair(tensors, g4, b, spec, direction))
    return MPS(tuple(tensors), center=last, phys_dim=state.phys_dim), worst


def measure_energy(state: MPS, h: MPO) -> float:
    """<H> normalized by the state's norm squared."""
    num = mpo_expectation(state, h).real
    den = _center_norm_squared(state)
    return num / den


def _center_norm_squared(state: MPS) -> float:
    if state.center is None:
        return norm_squared(state)  # no trustworthy gauge; full zipper
    c = state.sites[state.center]
    return float(np.tensordot(c.conj(), c, axes=([0, 1, 2], [0, 1, 2])).real)


def _rescale_center(state: MPS) -> MPS:
    nrm = np.sqrt(_center_norm_squared(state))
    c = state.sites[state.center]
    tensors = list(state.sites)
    tensors[state.center] = c * (1.0 / nrm)
    return MPS(tuple(tensors), center=state.center, phys_dim=state.phys_dim)


def initial_product_state(model: str, n_sites: int) -> MPS:
    """A sensible imaginary-time seed for each model.

    heisenberg: the alternating up/down product state — it lives in the
    magnetization sector of the ground state and is cheap to improve.
    ising_nn: all sites in the symmetric superposition; the pair gates are
    diagonal in the z basis, so an alignment eigenstate would never move.
    """
    if model == "heisenberg":
        kets = [_UP if i % 2 == 0 else _DOWN for i in range(n_sites)]
    elif model == "ising_nn":
        kets = [_PLUS] * n_sites
    else:
        raise UnsupportedModel(f"no default seed for model {model!r}")
    return product_mps(kets)


@dataclass(frozen=True)
class GroundStateReport:
    """Imaginary-time search outcome.

    energy_trace / tau_trace : per-sweep energy and the step size in force.
    converged : every schedule stage met the energy tolerance before its
        sweep budget ran out.
    """

    state: MPS
    energy: float
    energy_trace: np.ndarray
    tau_trace: np.ndarray
    n_sweeps: int
    max_discarded_weight: float
    converged: bool


@dataclass(frozen=True)
class TimeEvolutionReport:
    """Real-time trajectory: per-step clock, energy, and norm (no rescaling)."""

    state: MPS
    times: np.ndarray
    energy_trace: np.ndarray
    norm_trace: np.ndarray
    max_discarded_weight: float


def find_ground_state(
    model: str,
    n_sites: int,
    j: float = 1.0,
    spec: TruncationSpec = UNTRUNCATED,
    schedule: tuple[float, ...] = (0.1, 0.01, 0.001),
    energy_tol: float = 1e-10,
    max_sweeps_per_tau: int = 500,
    initial: MPS | None = None,
) -> GroundStateReport:
    """Anneal toward the ground state with a decreasing step-size schedule.

    Each stage sweeps (alternating direction, renormalizing every sweep)
    until the energy change between same-direction sweeps drops below
    ``energy_tol`` relative to max(1, |E|). Successive stages reuse the
    state, so late, small steps only polish the bias left by earlier ones.
    """
    h = model_mpo(model, n_sites, j)
    state = initial if initial is not None else initial_product_state(model, n_sites)
    if state.n_sites != n_sites or state.phys_dim != 2:
        raise ShapeMismatch("initial state does not match the requested chain")

    # the trace leads with the seed-state energy (tau 0.0, no sweep taken)
    energies: list[float] = [measure_energy(state, h)]
    taus: list[float] = [0.0]
    worst = 0.0
    total_sweeps = 0
    all_converged = True
    for tau in schedule:
        gate = bond_gate(model, j, tau, "imaginary")
        stage_start = len(energies)
        stage_converged = False
        for _ in range(max_sweeps_per_tau):
            direction = "right" if total_sweeps % 2 == 0 else "left"
            state, disc = sweep(state, gate, spec, direction)
            worst = max(worst, disc)
            state = _rescale_center(state)
            energies.append(measure_energy(state, h))
            taus.append(tau)
            total_sweeps += 1
            done = len(energies) - stage_start
            if done >= 3:
                delta = abs(energies[-1] - energies[-3])  # same-direction pair
                if delta <= energy_tol * max(1.0, abs(energies[-1])):
                    stage_converged = True
                    break
        all_converged = all_converged and stage_converged

    return GroundStateReport(
        state=state,
        energy=energies[-1],
        energy_trace=np.array(energies),
        tau_trace=np.array(taus),
        n_sweeps=total_sweeps,
        max_discarded_weight=worst,
        converged=all_converged,
    )


def evolve_real_time(
    state: MPS,
    model: str,
    j: float = 1.0,
    dt: float = 0.05,
    n_steps: int = 1,
    spec: TruncationSpec = UNTRUNCATED,
) -> TimeEvolutionReport:
    """Unitary evolution by ``n_steps`` directional sweeps of exp(-i*dt*h).

    Sweep direction alternates starting rightward. The norm is recorded but
    never rescaled, so ``norm_trace`` exposes cumulative truncation loss.
    """
    h = model_mpo(model, state.n_sites, j)
    gate = bond_gate(model, j, dt, "real")
    times = []
    energies = []
    norms = []
    worst = 0.0
    for step in range(n_steps):
        direction = "right" if step % 2 == 0 else "left"
        state, disc = sweep(state, gate, spec, direction)
        worst = max(worst, disc)
        times.append((step + 1) * dt)
        energies.append(measure_energy(state, h))
        norms.append(np.sqrt(_center_norm_squared(state)))
    return TimeEvolutionReport(
        state=state,
        times=np.array(times),
        energy_trace=np.array(energies),
        norm_trace=np.array(norms),
        max_discarded_weight=worst,
    )
