"""Time-evolving block decimation for nearest-neighbor spin-1/2 chains.

One evolution step is one *directional sweep*: bond gates applied
sequentially left-to-right (or right-to-left), each followed by a truncated
re-split. A single sweep is a first-order product formula — its one-step
error is O(tau^2) — while two consecutive sweeps in opposite directions form
a symmetric composition, so drivers that alternate direction converge with a
second-order bias in the step size.

Only the nearest-neighbor models of :data:`SWEEPABLE` can be evolved this
way, and each bond term is the model's own 2-site MPO, densified; asking for
the longer-range models raises ValidationError. Imaginary-time evolution
renormalizes the state after every sweep (the gates are not unitary; each
is divided by its spectral norm so no sweep overflows); real-time evolution
leaves the norm alone so truncation loss stays visible to the caller.

Sweeps update one writable ``mps._Chain`` in place: a driver run holds one
from its seed to its end, checks each gate once and builds one MPS on return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import UNTRUNCATED, TruncationSpec, eig_hermitian
from .errors import NumericalFailure, ValidationError
from .mpo import MPO, build_model, mpo_to_dense
from .mps import MPS, _Chain, _center_norm_squared, _gate_matrix, _gate_pair, _move, _normalized, _recorded, product_mps
from .tensors import _number

_UP = np.array([1.0, 0.0])
_DOWN = np.array([0.0, 1.0])
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)

SWEEPABLE = ("ising_nn", "heisenberg")  # the mpo.MODELS entries whose terms are all nearest-neighbor


def pair_hamiltonian(model: str, j: float = 1.0) -> np.ndarray:
    """(4, 4) real two-site term of a nearest-neighbor model (left site fastest): its 2-site MPO, densified.

    A C-contiguous copy: the strided view :func:`~tnkit.mpo.mpo_to_dense` returns would change the rounding downstream.
    """
    if model not in SWEEPABLE:
        raise ValidationError(f"{model!r} is not one of the nearest-neighbor models {SWEEPABLE}")
    return np.ascontiguousarray(mpo_to_dense(build_model(model, 2, j=j)))


def bond_gate(model: str, j: float, step: float, mode: str) -> np.ndarray:
    """Real exp(-step*h) or complex exp(-i*step*h) of the pair term, via its eigenbasis.

    The (4, 4) gate is returned read-only.
    """
    if mode not in ("imaginary", "real"):
        raise ValidationError(f"mode must be 'imaginary' or 'real', got {mode!r}")
    step, j = _number(step, "step"), _number(j, "j")
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
    private site list, and one MPS is built at the end. The state keeps its
    charge labels if the gate conserves the charge, and is unlabelled first
    otherwise.
    """
    chain = _Chain(state)
    worst = _sweep(chain, _gate_matrix(gate, chain, direction), spec, direction)
    return chain.freeze(), worst


def _sweep(chain: _Chain, g: np.ndarray, spec: TruncationSpec, direction: str) -> float:
    """:func:`sweep` in place on ``chain`` with a gate matrix from :func:`~tnkit.mps._gate_matrix`."""
    n = len(chain.sites)
    first, bonds = (0, range(n - 1)) if direction == "right" else (n - 1, range(n - 2, -1, -1))
    _move(chain, first)
    worst = 0.0
    for b in bonds:
        worst = max(worst, _gate_pair(chain, g, b, spec, direction))
    return worst


def measure_energy(state: MPS, h: MPO) -> float:
    """<H> / <psi|psi> in any gauge: :func:`~tnkit.mps._normalized` over the MPO's sites.

    The TEBD drivers use :func:`_bond_energy` instead. Raises
    NumericalFailure if the norm squared is 0 or not finite, or if <H> is
    not finite.
    """
    if state.n_sites != h.n_sites or state.phys_dim != h.phys_dim:
        raise ValidationError("state and operator live on different site spaces")
    return _normalized(state, dict(enumerate(h.sites)), what="energy")[0].real


def _bond_energy(state: MPS | _Chain, pair: np.ndarray) -> tuple[float, float]:
    """(<H> / <psi|psi>, <psi|psi>) of a chain centred on an end, H the sum of :func:`pair_hamiltonian` ``pair``.

    All sites but the centre are isometries, so with the centre on site N-1
    one right-to-left pass of a D = 1 environment and one theta per bond give
    <H> = sum_b <h_b>; a chain centred on site 0 is mirrored first.
    NumericalFailure as for :func:`measure_energy`.
    """
    sites, h = state.sites, pair.reshape(2, 2, 2, 2, order="F")  # h over C-order (si, sj), as sites fuse
    if state.center == 0:  # reverse the chain, and the two sites of the pair term
        sites, h = [t.transpose(2, 1, 0) for t in reversed(sites)], h.transpose(1, 0, 3, 2)
    h, env, total = h.reshape(4, 4), np.ones((1, 1)), 0.0  # env: (ket, bra) on the link right of the bond
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite energy is refused below
        for a, b in zip(sites[-2::-1], sites[:0:-1]):
            (l, d, m), r = a.shape, b.shape[2]
            a_mat, b_mat = a.reshape(l * d, m), b.reshape(m, d * r)
            b_env = (b.reshape(m * d, r) @ env).reshape(m, d * r)  # feeds the bond term and the next env
            total += np.vdot(a_mat @ b_mat, h @ (a_mat @ b_env).reshape(l, d * d, r)).real
            env = b_env @ b_mat.conj().T
    nrm2 = _center_norm_squared(state)
    if not np.isfinite(total / nrm2):
        raise NumericalFailure(f"energy is {total / nrm2}")
    return total / nrm2, nrm2


def initial_product_state(model: str, n_sites: int) -> MPS:
    """A sensible imaginary-time seed for each model.

    heisenberg: the alternating up/down (Néel) product state — it lives in
    the magnetization sector of the ground state and is cheap to improve.
    It is labelled by 2·Sz: up is +1 and down -1, and each link carries the
    2·Sz of the sites to its left, so sweeps split in Sz sectors.
    ising_nn: all sites in the symmetric superposition; the pair gates are
    diagonal in the z basis, so an alignment eigenstate would never move.
    Unlabelled.
    """
    n_sites = _number(n_sites, "n_sites", int, ge=1)
    if model == "heisenberg":
        kets = [_UP if i % 2 == 0 else _DOWN for i in range(n_sites)]
        spins = [1 if i % 2 == 0 else -1 for i in range(n_sites)]
        links = np.cumsum([0] + spins)[:, None]  # one index per link
        return _recorded(product_mps(kets).sites, n_sites - 1, links, np.array([1, -1]))
    if model == "ising_nn":
        return product_mps([_PLUS] * n_sites)
    raise ValidationError(f"no default seed for model {model!r}")


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
) -> GroundStateReport:
    """Anneal toward the ground state with a decreasing step-size schedule.

    Starting from :func:`initial_product_state`, each stage sweeps
    (alternating direction, renormalizing every sweep) until the energy
    change between same-direction sweeps drops below ``energy_tol`` relative
    to max(1, |E|). Successive stages reuse the state, so late, small steps
    only polish the bias left by earlier ones. Energies are sums of bond
    terms (:func:`_bond_energy`). Raises NumericalFailure when a stage's
    gate exp(-tau*h) overflows float64 (for the Heisenberg AFM, once tau*|j|
    exceeds about 946) or an energy is not finite; ValidationError unless
    every schedule step and ``energy_tol`` is a finite number > 0.
    """
    _number(max_sweeps_per_tau, "max_sweeps_per_tau", int, ge=0)
    schedule = [_number(tau, "schedule step", gt=0) for tau in schedule]
    energy_tol = _number(energy_tol, "energy_tol", gt=0)
    pair = pair_hamiltonian(model, j)
    chain = _Chain(initial_product_state(model, n_sites))

    # the trace leads with the seed-state energy (tau 0.0, no sweep taken)
    energies: list[float] = [_bond_energy(chain, pair)[0]]
    taus: list[float] = [0.0]
    worst = 0.0
    total_sweeps = 0
    all_converged = True
    for tau in schedule:
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            gate = bond_gate(model, j, tau, "imaginary")
        if not np.all(np.isfinite(gate)):
            raise NumericalFailure(f"imaginary-time gate overflows at tau*|j| = {tau * abs(j):g}")
        gate = gate / np.linalg.norm(gate, 2)  # else a sweep grows by exp(-tau min(h))^(n-1)
        g = _gate_matrix(gate, chain, "right")
        stage_start = len(energies)
        stage_converged = False
        for _ in range(max_sweeps_per_tau):
            direction = "right" if total_sweeps % 2 == 0 else "left"
            worst = max(worst, _sweep(chain, g, spec, direction))
            c = chain.center
            chain.sites[c] = chain.sites[c] * (1.0 / np.sqrt(_center_norm_squared(chain)))
            energies.append(_bond_energy(chain, pair)[0])
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
        state=chain.freeze(),
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
    Energies and norms come from :func:`_bond_energy`.
    """
    _number(n_steps, "n_steps", int, ge=0)
    dt = _number(dt, "dt")
    pair = pair_hamiltonian(model, j)
    chain = _Chain(state)
    g = _gate_matrix(bond_gate(model, j, dt, "real"), chain, "right")
    energies = []
    norms = []
    worst = 0.0
    for step in range(n_steps):
        direction = "right" if step % 2 == 0 else "left"
        worst = max(worst, _sweep(chain, g, spec, direction))
        energy, nrm2 = _bond_energy(chain, pair)
        energies.append(energy)
        norms.append(np.sqrt(nrm2))
    return TimeEvolutionReport(
        state=chain.freeze(),
        times=dt * np.arange(1, n_steps + 1),
        energy_trace=np.array(energies),
        norm_trace=np.array(norms),
        max_discarded_weight=worst,
    )
