"""Imaginary- and real-time evolution against exact propagators and ED."""

import numpy as np
import pytest
from scipy.linalg import expm

import tnkit.mps
from conftest import dense_hamiltonian, dense_split
from tnkit import (
    TruncationSpec,
    apply_two_site_gate,
    bond_gate,
    build_heisenberg,
    build_ising_nn,
    correlation_length,
    evolve_real_time,
    find_ground_state,
    MPS,
    initial_product_state,
    measure_energy,
    move_center,
    mpo_matvec,
    mps_from_state_vector,
    norm_squared,
    pair_hamiltonian,
    solve_dense,
    solve_iterative,
    sweep,
    to_state_vector,
)
from tnkit.errors import NumericalFailure, ValidationError
from tnkit.mpo import build_model, mpo_expectation
from tnkit.mps import _Chain
from tnkit.tebd import _bond_energy
from tnkit.verify import off_block_max

rng = np.random.default_rng(909)


def test_pair_hamiltonian_matches_two_site_dense():
    for model in ("ising_nn", "heisenberg"):
        for j in (1.0, -1.0, 0.7, -1.3, 2.5e-3):
            h = pair_hamiltonian(model, j)
            assert h.flags.c_contiguous and h.dtype == np.float64
            np.testing.assert_array_equal(h, dense_hamiltonian(model, 2, j=j))


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
    with pytest.raises(ValidationError, match="mode must be 'imaginary' or 'real', got 'sideways'"):
        bond_gate("ising_nn", 1.0, 0.1, "sideways")


def test_long_range_models_are_refused():
    for model in ("ising_nnn", "exp_decay", "xyz"):
        with pytest.raises(ValidationError, match=f"'{model}' is not one of the nearest-neighbor models"):
            pair_hamiltonian(model)
    with pytest.raises(ValidationError, match="'exp_decay' is not one of the nearest-neighbor models"):
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


def test_drivers_build_no_mps_per_sweep(monkeypatch):
    # a run works on one chain and validates one MPS when it returns, whatever its length
    builds = []
    post_init = MPS.__post_init__
    monkeypatch.setattr(MPS, "__post_init__", lambda self: builds.append(1) or post_init(self))

    def count(run):
        builds.clear()
        return run(), len(builds)

    def ground(max_sweeps):
        return find_ground_state("heisenberg", 6, j=-1.0, schedule=(0.1, 0.01), max_sweeps_per_tau=max_sweeps)

    (short, few), (long, many) = count(lambda: ground(1)), count(lambda: ground(200))
    assert short.n_sweeps == 2 and long.n_sweeps > 300
    assert few == many <= 3  # the seed state (two builds) and the result
    neel = initial_product_state("heisenberg", 6)
    counts = [count(lambda: evolve_real_time(neel, "heisenberg", -1.0, 0.05, n))[1] for n in (1, 200)]
    assert counts == [1, 1]


def test_zero_real_time_steps_return_the_input_state():
    state = move_center(initial_product_state("heisenberg", 6), 2)
    rep = evolve_real_time(state, "heisenberg", -1.0, 0.05, 0)
    assert rep.state.center == state.center == 2
    for got, want in [(rep.state.sites, state.sites), (rep.state.charges, state.charges)]:
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(rep.state.phys_charges, state.phys_charges)
    assert rep.times.size == rep.energy_trace.size == rep.norm_trace.size == 0
    assert rep.max_discarded_weight == 0.0


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
        assert dtypes(build_model(model, 6, j=-1.0).sites) == {f64}
        assert dtypes(initial_product_state(model, 6).sites) == {f64}
        assert dtypes([bond_gate(model, -1.0, 0.1, "imaginary")]) == {f64}
        assert dtypes([bond_gate(model, -1.0, 0.1, "real")]) == {c128}
        rep = find_ground_state(model, 4, j=-1.0, spec=TruncationSpec(chi_max=4), schedule=(0.1,))
        assert dtypes(rep.state.sites) == {f64}
        quench = evolve_real_time(initial_product_state(model, 4), model, j=-1.0, dt=0.05, n_steps=2)
        assert dtypes(quench.state.sites) == {c128}
        assert solve_iterative(build_model(model, 6, j=-1.0), n_states=2).vectors.dtype == f64
    assert mpo_matvec(build_ising_nn(6, j=1.0), rng.standard_normal(2**6)).dtype == f64


def test_measure_energy_normalizes():
    state = initial_product_state("ising_nn", 4)
    h = build_ising_nn(4, j=1.0)
    assert np.isclose(measure_energy(state, h), 0.0, atol=1e-12)  # |+> has <SzSz> = 0


def test_non_finite_energy_is_a_numerical_failure():
    # a coupling near the float limit makes <H> overflow, though every site
    # tensor is finite; a non-finite energy would never meet the convergence
    # test, so the ground search must stop here instead (MPO sites with an
    # infinite entry are refused where they are built)
    h = build_heisenberg(8, j=1.5e308)
    with pytest.raises(NumericalFailure, match="energy"):
        measure_energy(initial_product_state("heisenberg", 8), h)


def sweeps(state, gate, spec, n_sweeps):
    """Alternating sweeps; returns the final state and every sweep's discarded weight."""
    weights = []
    for i in range(n_sweeps):
        state, disc = sweep(state, gate, spec, "right" if i % 2 == 0 else "left")
        weights.append(disc)
    return state, np.array(weights)


@pytest.mark.parametrize("mode", ["real", "imaginary"])
def test_heisenberg_gates_have_exact_zeros_off_their_sz_blocks(mode):
    # so sweeps from the Neel state keep its labels on every step size
    pair_sz = np.array([2, 0, 0, -2])  # fused (si, sj), si fastest: uu, du, ud, dd
    for tau in (0.001, 0.01, 0.05, 0.1, 0.3):
        for j in (-150.0, -1.0, 1.0, 2.7):
            with np.errstate(over="ignore"):
                gate = bond_gate("heisenberg", j, tau, mode)
            assert np.all(gate[pair_sz[:, None] != pair_sz[None, :]] == 0.0), (tau, j)
    state, _ = sweep(initial_product_state("heisenberg", 6), bond_gate("heisenberg", -1.0, 0.1, mode))
    assert state.phys_charges.tolist() == [1, -1]


@pytest.mark.parametrize("mode", ["real", "imaginary"])
def test_sweeps_keep_every_site_inside_its_charge_blocks(mode):
    gate = bond_gate("heisenberg", -1.0, 0.1, mode)
    state, weights = sweeps(initial_product_state("heisenberg", 10), gate, TruncationSpec(chi_max=12), 50)
    assert weights.max() > 0.0  # the cap truncates
    assert any(q.size > 1 and np.any(q != q[0]) for q in state.charges)  # several sectors per link
    assert off_block_max(state) == 0.0


@pytest.mark.parametrize("mode", ["real", "imaginary"])
def test_sector_sweeps_match_a_dense_split(monkeypatch, mode):
    gate = bond_gate("heisenberg", -1.0, 0.1, mode)
    spec = TruncationSpec(cutoff=1e-12)
    neel = initial_product_state("heisenberg", 10)
    got, got_weights = sweeps(neel, gate, spec, 50)
    monkeypatch.setattr(tnkit.mps, "_split", dense_split)
    want, want_weights = sweeps(neel, gate, spec, 50)
    scale = np.sqrt(norm_squared(want))  # imaginary-time gates are not normalized
    np.testing.assert_allclose(to_state_vector(got) / scale, to_state_vector(want) / scale, atol=1e-12)
    np.testing.assert_allclose(got_weights, want_weights, rtol=1e-10, atol=0.0)


def test_unlabelled_sweeps_equal_the_dense_split_bit_for_bit(monkeypatch):
    psi = rng.standard_normal(2**8) + 1j * rng.standard_normal(2**8)
    state = mps_from_state_vector(psi / np.linalg.norm(psi), 2)
    gate = bond_gate("heisenberg", -1.0, 0.3, "real")
    spec = TruncationSpec(chi_max=5, cutoff=1e-12)
    got, got_weights = sweeps(state, gate, spec, 6)
    monkeypatch.setattr(tnkit.mps, "_split", dense_split)
    want, want_weights = sweeps(state, gate, spec, 6)
    np.testing.assert_array_equal(got_weights, want_weights)
    for a, b in zip(got.sites, want.sites):
        np.testing.assert_array_equal(a, b)


def test_correlation_length_reads_the_state_not_its_labels():
    # the transfer matrix pairs the bulk site's two link bases index by index,
    # so a labelled link's charge-sorted layout must not reach it
    gate = bond_gate("heisenberg", -1.0, 0.1, "imaginary")
    state, _ = sweeps(initial_product_state("heisenberg", 10), gate, TruncationSpec(chi_max=12, cutoff=1e-12), 30)
    for m in (state, move_center(state, 9)):  # a labelled move sorts every link it passes by charge
        got, want = correlation_length(m), correlation_length(MPS(m.sites))
        assert got.xi == want.xi and np.isfinite(got.xi)
        np.testing.assert_array_equal(got.transfer_eigs, want.transfer_eigs)



def test_strong_coupling_ground_search_stays_finite():
    # exp(-tau h) grows the state by up to exp(0.075 |J|) per bond at tau = 0.1,
    # which overflows within one 39-bond sweep at |J| = 150 unless the gate is
    # divided by its spectral norm
    n, j = 40, -150.0
    rep = find_ground_state(
        "heisenberg", n, j=j, spec=TruncationSpec(chi_max=8, cutoff=1e-12), schedule=(0.1,), max_sweeps_per_tau=4
    )
    assert np.all(np.isfinite(rep.energy_trace))
    assert np.isclose(rep.energy_trace[0], j * (n - 1) / 4.0)  # the Neel seed
    assert rep.energy < rep.energy_trace[0]


def test_zero_or_nan_norm_is_a_numerical_failure():
    state = initial_product_state("heisenberg", 4)
    h, pair = build_heisenberg(4, j=-1.0), pair_hamiltonian("heisenberg", -1.0)
    for bad in (0.0, 1e200):  # 1e200 overflows the norm; MPS refuses a NaN site itself
        chain = _Chain(state)
        chain.sites[chain.center] = chain.sites[chain.center] * bad
        with pytest.raises(NumericalFailure, match="norm squared"):
            measure_energy(MPS(tuple(chain.sites)), h)
        with pytest.raises(NumericalFailure, match="norm squared"):
            _bond_energy(chain, pair)


def end_centred_states(n=7):
    """Labelled and unlabelled, real and complex, unnormalized states, each centred on site 0 and on site N-1."""
    neel = initial_product_state("heisenberg", n)
    spec = TruncationSpec(chi_max=6)
    imaginary, _ = sweeps(neel, bond_gate("heisenberg", -1.0, 0.2, "imaginary"), spec, 3)
    real_time, _ = sweeps(neel, bond_gate("heisenberg", -1.0, 0.3, "real"), spec, 3)
    states = [imaginary, real_time]
    for dtype in (float, complex):
        psi = rng.standard_normal(2**n).astype(dtype)
        if dtype is complex:
            psi = psi + 1j * rng.standard_normal(2**n)
        m = mps_from_state_vector(psi / np.linalg.norm(psi), 2)
        states.append(MPS(m.sites[:-1] + (1.7 * m.sites[-1],)))
    assert any(np.any(q) for q in imaginary.charges) and imaginary.sites[0].dtype == np.float64
    assert np.iscomplexobj(real_time.sites[0]) and np.iscomplexobj(states[-1].sites[0])
    return [move_center(s, c) for s in states for c in (0, n - 1)]


@pytest.mark.parametrize("model", ["heisenberg", "ising_nn"])
def test_bond_energy_is_the_mpo_energy(model):
    for state in end_centred_states():
        h = build_model(model, state.n_sites, j=-1.3)
        nrm2 = norm_squared(state)
        energy, got_nrm2 = _bond_energy(state, pair_hamiltonian(model, -1.3))
        assert energy == pytest.approx(mpo_expectation(state, h).real / nrm2, rel=1e-12, abs=0.0)
        assert got_nrm2 == pytest.approx(nrm2, rel=1e-12, abs=0.0)


def test_bond_energy_keeps_the_two_sites_of_the_pair_term_apart():
    # a Hermitian pair term that changes when its two sites swap exercises the mirrored pass
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pair = x + x.conj().T
    swap = pair.reshape(2, 2, 2, 2, order="F").transpose(1, 0, 3, 2).reshape(4, 4, order="F")
    assert np.abs(pair - swap).max() > 0.1
    for state in end_centred_states():
        n, psi = state.n_sites, to_state_vector(state)
        ham = sum(np.kron(np.eye(2 ** (n - b - 2)), np.kron(pair, np.eye(2**b))) for b in range(n - 1))
        want = np.vdot(psi, ham @ psi).real / np.vdot(psi, psi).real
        assert _bond_energy(state, pair)[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_non_finite_bond_energy_is_a_numerical_failure():
    pair = pair_hamiltonian("heisenberg", 1.5e308)  # finite, but seven bond terms overflow
    for center in (0, 7):
        with pytest.raises(NumericalFailure, match="energy"):
            _bond_energy(move_center(initial_product_state("heisenberg", 8), center), pair)


def test_small_ground_search_and_quench_keep_their_trajectory():
    # Pinned from the per-sector split with the MPO energy (numpy 2.4, OpenBLAS,
    # x86-64). The splits are bit-identical and the energies only decide when a
    # stage stops, so every count and weight below repeats exactly.
    spec = TruncationSpec(chi_max=16, cutoff=1e-12)
    ground = find_ground_state("heisenberg", 10, j=-1.0, spec=spec, schedule=(0.1, 0.02), energy_tol=1e-9)
    assert ground.converged and ground.n_sweeps == 302
    assert ground.state.bond_dims() == (2, 4, 8, 16, 16, 16, 8, 4, 2)
    assert ground.max_discarded_weight == 2.455508923478024e-10
    want = [-2.25, -2.6589795965954806, -2.9868249289266666, -3.957560385169557, -4.2572275778519995]
    np.testing.assert_allclose(ground.energy_trace[[0, 1, 2, 10, 100]], want, rtol=1e-12, atol=0.0)
    assert ground.energy == pytest.approx(-4.258035150988205, rel=1e-12, abs=0.0)

    quench = evolve_real_time(initial_product_state("heisenberg", 10), "heisenberg", -1.0, 0.05, 40, spec)
    assert quench.state.bond_dims() == (2, 4, 8, 16, 16, 16, 8, 4, 2)
    assert quench.max_discarded_weight == 1.5592852089522985e-09
    assert quench.norm_trace[-1] == 0.9999999978022754
    want = [-2.249999804890783, -2.2499998038981213, -2.2499973844996286, -2.249978214201889]
    np.testing.assert_allclose(quench.energy_trace[[0, 9, 19, 39]], want, rtol=1e-12, atol=0.0)



@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: initial_product_state("ising_nnn", 6), "no default seed for model 'ising_nnn'", id="initial-state"),
        pytest.param(lambda: initial_product_state("ising_nn", True), "n_sites must be an integer >= 1, got True", id="initial-state-bool"),
        pytest.param(lambda: initial_product_state("heisenberg", 2.5), "n_sites must be an integer >= 1, got 2.5", id="initial-state-float"),
        pytest.param(lambda: bond_gate("heisenberg", -1.0, np.nan, "real"), "step must be a finite number, got nan", id="gate-step-nan"),
        pytest.param(lambda: bond_gate("heisenberg", np.inf, 0.1, "imaginary"), "j must be a finite number, got inf", id="gate-j-inf"),
        pytest.param(lambda: bond_gate("heisenberg", -1.0, "0.1", "real"), "step must be a finite number, got '0.1'", id="gate-step-text"),
        pytest.param(lambda: bond_gate("heisenberg", True, 0.1, "real"), "j must be a finite number, got True", id="gate-j-bool"),
        pytest.param(
            lambda: bond_gate("heisenberg", -1.0, 10**400, "real"), f"step must be a finite number, got {10**400}", id="gate-step-huge-int"
        ),
        pytest.param(
            lambda: find_ground_state("heisenberg", 4, j=-1.0, schedule=(-0.1,)),
            "schedule step must be a finite number > 0, got -0.1",
            id="ground-tau-negative",
        ),
        pytest.param(
            lambda: find_ground_state("heisenberg", 4, j=-1.0, energy_tol=np.nan),
            "energy_tol must be a finite number > 0, got nan",
            id="ground-energy-tol-nan",
        ),
        pytest.param(
            lambda: evolve_real_time(initial_product_state("heisenberg", 4), "heisenberg", -1.0, 0.05, -1),
            "n_steps must be an integer >= 0, got -1",
            id="real-time-steps-negative",
        ),
        pytest.param(
            lambda: evolve_real_time(initial_product_state("heisenberg", 4), "heisenberg", -1.0, 0.05, 1.5),
            "n_steps must be an integer >= 0, got 1.5",
            id="real-time-steps-float",
        ),
        pytest.param(
            lambda: evolve_real_time(initial_product_state("heisenberg", 4), "heisenberg", -1.0, True, 1),
            "dt must be a finite number, got True",
            id="real-time-dt-bool",
        ),
        pytest.param(
            lambda: find_ground_state("heisenberg", 4, j=-1.0, max_sweeps_per_tau=-1),
            "max_sweeps_per_tau must be an integer >= 0, got -1",
            id="ground-sweeps-negative",
        ),
        pytest.param(
            lambda: find_ground_state("heisenberg", 4, j=-1.0, max_sweeps_per_tau=2.5),
            "max_sweeps_per_tau must be an integer >= 0, got 2.5",
            id="ground-sweeps-float",
        ),
    ],
)
def test_tebd_guards(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
