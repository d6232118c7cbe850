"""Plaquette coarse-graining against enumeration and the analytic solution."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad

from tnkit import UNTRUNCATED, DenseTensor, TruncationSpec, truncated_svd
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


def spin_basis_lnz(beta, j, steps, spec):
    """Reference TRG without parity blocks: one full truncated SVD per split.

    Returns (ln Z per spin, chi_history) of the same coarsening written in
    the spin basis, as in the docstring of ``trg_step``.
    """

    def split(mat):
        res = truncated_svd(DenseTensor._wrap(mat), spec)
        root = np.sqrt(res.d)
        return res.u.to_ndarray() * root, root[:, None] * res.v_dag.to_ndarray()

    t = ising_plaquette_tensor(beta, j).to_ndarray()
    log_norm, chis = np.log(np.abs(t).max()) / 2, []
    t = t / np.abs(t).max()
    for step in range(steps):
        cu, cl, cd, cr = t.shape
        s1, s2 = split(t.transpose(2, 1, 0, 3).reshape(cd * cl, cu * cr))
        s3, s4 = split(t.reshape(cu * cl, cd * cr))
        k1, k2 = s1.shape[1], s3.shape[1]
        pieces = (s2.reshape(k1, cu, cr), s4.reshape(k2, cd, cr), s1.reshape(cd, cl, k1), s3.reshape(cu, cl, k2))
        t = np.einsum("dab,lae,ceu,cbr->uldr", *pieces, optimize=True)
        log_norm += np.log(np.abs(t).max()) / 2 ** (step + 2)
        t = t / np.abs(t).max()
        chis.append((k1, k2))
    return log_norm + np.log(np.einsum("abab->", t)) / 2 ** (steps + 1), tuple(chis)


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
    for beta, j in itertools.product((0.2, 0.44, 0.8), (1.0, -1.0)):
        state = initial_state(beta, j)
        state = trg_step(state, EXACT)
        assert state.step == 1
        np.testing.assert_allclose(close_torus(state), brute_force_lnz(beta, j, 2, 2) / 4.0, atol=1e-10)
        state = trg_step(trg_step(state, EXACT), EXACT)
        np.testing.assert_allclose(close_torus(state), brute_force_lnz(beta, j, 4, 4) / 16.0, atol=1e-10)


def test_large_beta_does_not_overflow():
    # exp(4 beta |J|) is inf for beta |J| above ~177; it is peeled off first
    for j in (1.0, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = trg_step(initial_state(200.0, j), EXACT)
            np.testing.assert_allclose(close_torus(state), brute_force_lnz(200.0, j, 2, 2) / 4.0, atol=1e-10)
            rep = free_energy_per_site(200.0, j, steps=3, spec=EXACT)
        np.testing.assert_allclose(rep.lnz_per_site, brute_force_lnz(200.0, j, 4, 4) / 16.0, atol=1e-10)


@pytest.mark.parametrize("j", [1.0, -0.7])
@pytest.mark.parametrize("chi", [8, 32])
@pytest.mark.parametrize("beta", [0.2, 0.44, 0.8])
def test_parity_blocks_match_the_spin_basis_reference(beta, chi, j):
    spec = TruncationSpec(chi_max=chi, cutoff=1e-12)
    rep = free_energy_per_site(beta, j, steps=6, spec=spec)
    lnz, chis = spin_basis_lnz(beta, j, 6, spec)
    assert rep.chi_history == chis
    assert abs(rep.lnz_per_site - lnz) < 1e-12


def test_coarse_tensors_vanish_off_the_even_sectors():
    state = initial_state(0.44, -0.7)
    for _ in range(6):
        t = state.tensor.to_ndarray()
        p_ud, p_lr = state.parity_ud, state.parity_lr
        assert t.shape == (p_ud.size, p_lr.size, p_ud.size, p_lr.size)
        odd = p_ud[:, None, None, None] ^ p_lr[None, :, None, None] ^ p_ud[None, None, :, None] ^ p_lr[None, None, None, :]
        assert np.all(t[odd == 1] == 0.0)
        assert np.any(t[odd == 0] != 0.0)
        state = trg_step(state, TruncationSpec(chi_max=8, cutoff=1e-12))


def test_discarded_weight_per_step():
    assert free_energy_per_site(0.44, 1.0, steps=2, spec=UNTRUNCATED).discarded_weights == ((0.0, 0.0),) * 2
    # EXACT drops only the rounding-level values of rank-deficient split matrices
    exact = free_energy_per_site(0.44, 1.0, steps=3, spec=EXACT)
    assert len(exact.discarded_weights) == 3
    assert max(max(pair) for pair in exact.discarded_weights) < 1e-28
    cut = free_energy_per_site(0.44, 1.0, steps=6, spec=TruncationSpec(chi_max=8, cutoff=1e-12))
    assert len(cut.discarded_weights) == 6
    assert all(w >= 0.0 for pair in cut.discarded_weights for w in pair)
    assert max(max(pair) for pair in cut.discarded_weights) > 0.0


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
