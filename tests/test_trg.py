"""Plaquette coarse-graining against enumeration and the analytic solution."""

import itertools

import numpy as np
import pytest
from scipy.integrate import dblquad

from tnkit import TruncationSpec
from tnkit.errors import BadBeta, TooLarge
from tnkit.trg import (
    brute_force_lnz,
    close_torus,
    free_energy_per_site,
    initial_state,
    ising_plaquette_tensor,
    trg_step,
)

EXACT = TruncationSpec(cutoff=1e-24)  # keep everything except true zeros


def onsager_lnz_per_site(beta, j=1.0):
    """Thermodynamic-limit ln(Z)/N for the square lattice (quadrature)."""
    k = beta * j

    def integrand(t1, t2):
        return np.log(np.cosh(2 * k) ** 2 - np.sinh(2 * k) * (np.cos(t1) + np.cos(t2)))

    val, _ = dblquad(integrand, 0.0, np.pi, 0.0, np.pi, epsabs=1e-12)
    return np.log(2.0) + val / (2.0 * np.pi**2)


def test_plaquette_entries():
    beta, j = 0.4, 1.0
    t = ising_plaquette_tensor(beta, j).to_ndarray()
    # T[u,l,d,r] = exp(bJ (su+sd)(sl+sr)) with index 0 <-> spin +1
    for idx in np.ndindex(2, 2, 2, 2):
        su, sl, sd, sr = (1 - 2 * i for i in idx)
        assert np.isclose(t[idx], np.exp(beta * j * (su + sd) * (sl + sr)), atol=1e-14)


def test_plaquette_cyclic_symmetry():
    t = ising_plaquette_tensor(0.7, 1.3).to_ndarray()
    np.testing.assert_allclose(t, np.transpose(t, (1, 2, 3, 0)), atol=1e-14)
    np.testing.assert_allclose(t, np.transpose(t, (2, 3, 0, 1)), atol=1e-14)


def test_bad_beta_rejected():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(BadBeta):
            initial_state(bad)
        with pytest.raises(BadBeta):
            brute_force_lnz(bad, 1.0, 2, 2)


def test_brute_force_hand_checks():
    beta, j = 0.37, 1.2
    k = beta * j
    # 1x2 ring: the wrap-around bond coincides with the direct one
    z12 = 2 * np.exp(2 * k) + 2 * np.exp(-2 * k)
    assert np.isclose(brute_force_lnz(beta, j, 1, 2), np.log(z12), atol=1e-12)
    assert np.isclose(brute_force_lnz(beta, j, 2, 1), np.log(z12), atol=1e-12)
    # 2x2 torus: 8 (doubled) bonds
    z22 = 2 * np.exp(8 * k) + 12 + 2 * np.exp(-8 * k)
    assert np.isclose(brute_force_lnz(beta, j, 2, 2), np.log(z22), atol=1e-12)
    # 3x3 torus: a plain sum over all 512 spin configurations
    z33 = 0.0
    for spins in itertools.product((1, -1), repeat=9):
        s = np.reshape(spins, (3, 3))
        z33 += np.exp(k * np.sum(s * np.roll(s, 1, 0) + s * np.roll(s, 1, 1)))
    assert np.isclose(brute_force_lnz(beta, j, 3, 3), np.log(z33), atol=1e-12)


def test_brute_force_enumeration_cap():
    with pytest.raises(TooLarge):
        brute_force_lnz(0.4, 1.0, 5, 5)


def test_closing_before_any_steps_gives_the_two_spin_ring():
    beta = 0.3
    got = close_torus(initial_state(beta))
    want = np.log(2 * np.exp(4 * beta) + 2 * np.exp(-4 * beta)) / 2.0
    assert np.isclose(got, want, atol=1e-12)


def test_untruncated_steps_reproduce_small_tori_exactly():
    # odd step counts close to square tori: 1 step -> 2x2, 3 steps -> 4x4
    for beta in (0.2, 0.44, 0.8):
        state = initial_state(beta)
        state = trg_step(state, EXACT)
        assert state.step == 1
        np.testing.assert_allclose(close_torus(state), brute_force_lnz(beta, 1.0, 2, 2) / 4.0, atol=1e-10)
        state = trg_step(trg_step(state, EXACT), EXACT)
        np.testing.assert_allclose(close_torus(state), brute_force_lnz(beta, 1.0, 4, 4) / 16.0, atol=1e-10)


def test_report_metadata():
    rep = free_energy_per_site(0.5, 1.0, steps=6, spec=TruncationSpec(chi_max=8, cutoff=1e-12))
    assert (rep.beta, rep.j, rep.steps) == (0.5, 1.0, 6)
    assert len(rep.chi_history) == 6
    assert all(a <= 8 and b <= 8 for a, b in rep.chi_history)
    assert np.isclose(rep.f, -rep.lnz_per_site / 0.5)


def test_free_energy_is_cauchy_in_bond_dimension():
    a = free_energy_per_site(0.8, 1.0, steps=8, spec=TruncationSpec(chi_max=16, cutoff=1e-12))
    b = free_energy_per_site(0.8, 1.0, steps=8, spec=TruncationSpec(chi_max=32, cutoff=1e-12))
    assert abs(a.f - b.f) < 1e-5


def test_ordered_phase_degeneracy_sets_the_finite_size_excess():
    # deep in the ordered phase the torus holds two magnetization sectors,
    # so lnZ/N sits exactly ln(2)/N above the thermodynamic limit
    ons = onsager_lnz_per_site(0.8)
    for steps in (8, 10):
        n_spins = 2 ** (steps + 1)
        rep = free_energy_per_site(0.8, 1.0, steps=steps, spec=TruncationSpec(chi_max=16, cutoff=1e-12))
        np.testing.assert_allclose(rep.lnz_per_site - ons, np.log(2.0) / n_spins, rtol=1e-4)


def test_matches_onsager_solution():
    # the thermodynamic limit is an independent closed-form oracle
    cases = [
        (0.2, 16, 16, 1e-9),  # high temperature: tiny bond entanglement
        (0.8, 16, 16, 1e-4),  # low temperature: two nearly degenerate sectors
        (0.44, 24, 24, 1e-5),  # near-critical: slowest convergence
    ]
    for beta, steps, chi, tol in cases:
        rep = free_energy_per_site(beta, 1.0, steps=steps, spec=TruncationSpec(chi_max=chi, cutoff=1e-12))
        assert abs(rep.lnz_per_site - onsager_lnz_per_site(beta)) < tol


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
