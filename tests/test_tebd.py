"""Imaginary- and real-time evolution against exact propagators and ED."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import dense_hamiltonian
from tnkit import (
    TruncationSpec,
    apply_two_site_gate,
    bond_gate,
    build_heisenberg,
    build_ising_nn,
    evolve_real_time,
    find_ground_state,
    initial_product_state,
    measure_energy,
    model_mpo,
    mpo_matvec,
    mps_from_state_vector,
    pair_hamiltonian,
    solve_dense,
    solve_iterative,
    sweep,
    to_state_vector,
)
from tnkit.errors import UnsupportedModel

rng = np.random.default_rng(909)


def test_pair_hamiltonian_matches_two_site_dense():
    np.testing.assert_allclose(pair_hamiltonian("ising_nn", 1.0), dense_hamiltonian("ising_nn", 2, j=1.0), atol=1e-14)
    np.testing.assert_allclose(
        pair_hamiltonian("heisenberg", -1.0), dense_hamiltonian("heisenberg", 2, j=-1.0), atol=1e-14
    )


def test_ising_gate_is_diagonal_with_known_entries():
    tau, j = 0.3, 1.0
    g = bond_gate("ising_nn", j, tau, "imaginary")
    # h = -J SzSz = diag(-J/4, J/4, J/4, -J/4), so exp(-tau h) flips the signs
    lo, hi = np.exp(-tau * j / 4.0), np.exp(tau * j / 4.0)
    np.testing.assert_allclose(g, np.diag([hi, lo, lo, hi]), atol=1e-14)


def test_gate_matches_scipy_expm():
    for model, j in (("ising_nn", 1.0), ("heisenberg", -1.0)):
        h = pair_hamiltonian(model, j)
        np.testing.assert_allclose(
            bond_gate(model, j, 0.17, "imaginary"), expm(-0.17 * h), atol=1e-10
        )
        np.testing.assert_allclose(
            bond_gate(model, j, 0.17, "real"), expm(-0.17j * h), atol=1e-10
        )


def test_gate_mode_is_validated():
    with pytest.raises(ValueError):
        bond_gate("ising_nn", 1.0, 0.1, "sideways")


def test_long_range_models_are_refused():
    for model in ("ising_nnn", "exp_decay", "xyz"):
        with pytest.raises(UnsupportedModel):
            pair_hamiltonian(model)
    with pytest.raises(UnsupportedModel):
        find_ground_state("exp_decay", 6)


def test_initial_states():
    neel = to_state_vector(initial_product_state("heisenberg", 4))
    want = np.zeros(16)
    want[0b1010] = 1.0  # |up down up down>: up at site 0, site 0 is bit 0
    np.testing.assert_allclose(neel, want)
    plus = to_state_vector(initial_product_state("ising_nn", 3))
    np.testing.assert_allclose(plus, np.full(8, 2.0**-1.5), atol=1e-14)


@pytest.mark.parametrize("direction", ["right", "left"])
def test_sweep_equals_successive_gate_applications(direction):
    n = 8
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    state = mps_from_state_vector(psi / np.linalg.norm(psi), 2)
    gate = bond_gate("heisenberg", -1.0, 0.3, "real")
    spec = TruncationSpec(chi_max=4)
    got, worst = sweep(state, gate, spec, direction)

    ref, ref_worst = state, 0.0
    bonds = range(n - 1) if direction == "right" else reversed(range(n - 1))
    for b in bonds:
        ref, disc = apply_two_site_gate(ref, gate, b, spec, direction)
        ref_worst = max(ref_worst, disc)
    assert ref_worst > 0.0  # the spec truncates
    assert worst == pytest.approx(ref_worst, rel=1e-12, abs=0.0)
    assert got.center == ref.center
    np.testing.assert_allclose(to_state_vector(got), to_state_vector(ref), atol=1e-12)


def test_ising_ferromagnet_converges_to_aligned_energy():
    n = 8
    rep = find_ground_state("ising_nn", n, j=1.0, spec=TruncationSpec(chi_max=8))
    assert rep.converged
    assert np.isclose(rep.energy, -(n - 1) / 4.0, atol=1e-6)


def test_heisenberg_matches_exact_diagonalization():
    n = 8
    ref = solve_dense(build_heisenberg(n, j=-1.0), n_states=1).energies[0]
    rep = find_ground_state("heisenberg", n, j=-1.0, spec=TruncationSpec(chi_max=32))
    assert rep.converged
    assert abs(rep.energy - ref) / abs(ref) < 1e-6
    # the trace starts from the seed state's energy and ends at the result
    assert rep.energy_trace[-1] == rep.energy
    assert rep.tau_trace[0] == 0.0
    assert len(rep.energy_trace) == rep.n_sweeps + 1


def test_zero_sweeps_returns_the_seed_state():
    rep = find_ground_state("heisenberg", 4, j=-1.0, max_sweeps_per_tau=0)
    assert not rep.converged
    assert rep.n_sweeps == 0
    # Neel expectation of the AFM chain: 3 bonds x (-J/4) with J = -1
    assert np.isclose(rep.energy, -0.75)
    assert len(rep.energy_trace) == 1


def test_energy_decreases_monotonically_in_imaginary_time():
    rep = find_ground_state("heisenberg", 6, j=-1.0, spec=TruncationSpec(chi_max=16), schedule=(0.1,), energy_tol=1e-8)
    diffs = np.diff(rep.energy_trace)
    assert (diffs < 1e-10).all()


def test_real_time_evolution_conserves_energy_and_norm():
    n = 6
    state = initial_product_state("heisenberg", n)
    rep = evolve_real_time(state, "heisenberg", j=-1.0, dt=0.02, n_steps=30, spec=TruncationSpec(chi_max=32))
    # one trace row per completed step
    np.testing.assert_allclose(rep.times, 0.02 * np.arange(1, 31), atol=1e-12)
    e0 = measure_energy(state, build_heisenberg(n, j=-1.0))
    e = np.asarray(rep.energy_trace)
    assert np.abs(e - e0).max() < 1e-6  # energy is conserved by unitaries
    norms = np.asarray(rep.norm_trace)
    assert np.abs(norms - 1.0).max() < 1e-8
    assert rep.max_discarded_weight < 1e-12


def test_real_time_matches_exact_propagator_for_two_sites():
    # with a single bond there is no Trotter splitting at all: one sweep is
    # the exact propagator, so agreement must hold to round-off
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    state = mps_from_state_vector(psi, 2)
    h = dense_hamiltonian("heisenberg", 2, j=-1.0)
    rep = evolve_real_time(state, "heisenberg", j=-1.0, dt=0.1, n_steps=5)
    np.testing.assert_allclose(to_state_vector(rep.state), expm(-0.5j * h) @ psi, atol=1e-10)


def test_real_time_trotter_error_scales_with_dt():
    n = 4
    psi0 = to_state_vector(initial_product_state("heisenberg", n))
    h = dense_hamiltonian("heisenberg", n, j=-1.0)
    t_final = 0.4
    errs = []
    for dt in (0.1, 0.05, 0.025):
        state = initial_product_state("heisenberg", n)
        rep = evolve_real_time(state, "heisenberg", j=-1.0, dt=dt, n_steps=round(t_final / dt))
        exact = expm(-1j * t_final * h) @ psi0
        errs.append(np.linalg.norm(to_state_vector(rep.state) - exact))
    # halving dt must shrink the error by at least a factor of two
    assert errs[0] / errs[1] > 2.0
    assert errs[1] / errs[2] > 2.0


def test_real_models_stay_real_and_only_real_time_turns_complex():
    # dtypes follow numpy promotion: the Ising and Heisenberg chains are real,
    # so only the -1j*dt of the real-time gate brings complex numbers in
    def dtypes(tensors):
        return {t.dtype for t in tensors}

    f64, c128 = np.dtype(np.float64), np.dtype(np.complex128)
    for model in ("ising_nn", "heisenberg"):
        assert dtypes(model_mpo(model, 6, j=-1.0).sites) == {f64}
        assert dtypes(initial_product_state(model, 6).sites) == {f64}
        assert dtypes([bond_gate(model, -1.0, 0.1, "imaginary")]) == {f64}
        assert dtypes([bond_gate(model, -1.0, 0.1, "real")]) == {c128}
        rep = find_ground_state(model, 4, j=-1.0, spec=TruncationSpec(chi_max=4), schedule=(0.1,))
        assert dtypes(rep.state.sites) == {f64}
        quench = evolve_real_time(initial_product_state(model, 4), model, j=-1.0, dt=0.05, n_steps=2)
        assert dtypes(quench.state.sites) == {c128}
        assert solve_iterative(model_mpo(model, 6, j=-1.0), n_states=2).vectors.dtype == f64
    assert mpo_matvec(build_ising_nn(6, j=1.0), rng.standard_normal(2**6)).dtype == f64


def test_measure_energy_normalizes():
    state = initial_product_state("ising_nn", 4)
    h = build_ising_nn(4, j=1.0)
    assert np.isclose(measure_energy(state, h), 0.0, atol=1e-12)  # |+> has <SzSz> = 0


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
