"""MPS construction, gauges, measurements, gates, and correlation analysis.

Dense-vector oracles throughout: every MPS quantity is checked against the
same computation done on the full 2^N state vector.
"""

import numpy as np
import pytest

from conftest import SX, SZ, kron_site
from tnkit import (
    MPS,
    TruncationSpec,
    apply_two_site_gate,
    bond_entropies,
    bond_gate,
    build_heisenberg,
    canonicalize,
    connected_correlation,
    correlation_length,
    eig_hermitian,
    entanglement_entropy,
    expect_local,
    expect_two_site,
    fit_exponential_decay,
    fit_power_law,
    gauge_insert,
    inner_product,
    move_center,
    mps_from_json,
    mps_from_state_vector,
    mps_to_json,
    norm_squared,
    product_mps,
    product_state_vector,
    random_mps,
    svd,
    sweep,
    to_state_vector,
)
from tnkit.errors import BadLength, BadOrder, NotNormalized, Singular


def random_state(rng, n, d=2):
    psi = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return psi / np.linalg.norm(psi)


def test_round_trip_exact(rng):
    for n in (2, 5, 9):
        psi = random_state(rng, n)
        m = mps_from_state_vector(psi, 2)
        assert m.center == n - 1
        np.testing.assert_allclose(to_state_vector(m), psi, atol=1e-12)


def test_untruncated_bond_profile(rng):
    m = mps_from_state_vector(random_state(rng, 8), 2)
    assert m.bond_dims() == (2, 4, 8, 16, 8, 4, 2)


def test_three_level_sites(rng):
    psi = random_state(rng, 4, d=3)
    m = mps_from_state_vector(psi, 3)
    assert m.phys_dim == 3
    np.testing.assert_allclose(to_state_vector(m), psi, atol=1e-12)


def test_bad_inputs_rejected(rng):
    with pytest.raises(BadLength):
        mps_from_state_vector(np.ones(6) / np.sqrt(6.0), 2)
    with pytest.raises(NotNormalized):
        mps_from_state_vector(np.ones(8), 2)


def test_product_state_vector_is_little_endian():
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    # |down, up>: site 0 down -> index 1 of the flat vector
    vec = product_state_vector([down, up])
    np.testing.assert_allclose(vec, [0, 1, 0, 0])


def test_nan_input_is_not_normalized():
    with pytest.raises(NotNormalized):
        product_mps([np.array([1.0, 0.0]), np.array([np.nan, 0.0])])
    with pytest.raises(NotNormalized):
        mps_from_state_vector(np.full(8, np.nan), 2)


def test_sites_and_factors_are_read_only(rng):
    psi = random_state(rng, 5)
    states = [
        product_mps([np.array([1.0, 0.0])] * 4),
        mps_from_state_vector(psi, 2),
        random_mps(5, 2, 3, rng),
        move_center(mps_from_state_vector(psi, 2), 1),
        sweep(mps_from_state_vector(psi, 2), bond_gate("heisenberg", -1.0, 0.1, "imaginary"))[0],
    ]
    res, eig = svd(rng.standard_normal((4, 3))), eig_hermitian(np.diag([1.0, 2.0]))
    arrays = [t for m in states for t in m.sites] + list(build_heisenberg(4).sites)
    for a in arrays + [res.u, res.v_dag, eig.u]:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # the MPS holds a read-only view; the caller's own array is neither copied nor frozen
    site = np.zeros((1, 2, 1))
    site[0, 0, 0] = 1.0
    m = MPS(sites=(site,), center=0, phys_dim=2)
    site[0, 1, 0] = 0.0
    assert np.shares_memory(m.sites[0], site) and not m.sites[0].flags.writeable


def test_product_mps_avoids_the_dense_vector(rng):
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = product_mps([plus] * 40)  # 2^40 would not fit in memory
    assert m.n_sites == 40
    assert m.bond_dims() == (1,) * 39
    assert np.isclose(norm_squared(m), 1.0)
    assert np.isclose(expect_local(m, SX, 20).real, 0.5)
    with pytest.raises(NotNormalized):
        product_mps([np.array([1.0, 1.0])] * 3)


def test_norm_and_inner_product_match_dense(rng):
    psi, phi = random_state(rng, 6), random_state(rng, 6)
    mp, mf = mps_from_state_vector(psi, 2), mps_from_state_vector(phi, 2)
    assert np.isclose(norm_squared(mp), 1.0)
    assert np.isclose(inner_product(mp, mf), np.vdot(psi, phi), atol=1e-12)


def test_move_center_preserves_the_state(rng):
    psi = random_state(rng, 7)
    m = mps_from_state_vector(psi, 2)
    for target in (0, 3, 6, 2):
        m = move_center(m, target)
        assert m.center == target
        np.testing.assert_allclose(to_state_vector(m), psi, atol=1e-10)
    assert move_center(m, 2) is m  # already there: no SVD, no new state


def test_canonicalize_left_right_isometries(rng):
    m = canonicalize(mps_from_state_vector(random_state(rng, 6), 2), 3)
    # sites left of the center are left-isometries, right of it right-isometries
    for s in range(3):
        a = m.sites[s]
        fused = a.reshape(-1, a.shape[2], order="F")
        np.testing.assert_allclose(fused.conj().T @ fused, np.eye(a.shape[2]), atol=1e-12)
    for s in range(4, 6):
        a = m.sites[s]
        fused = a.reshape(a.shape[0], -1, order="F")
        np.testing.assert_allclose(fused @ fused.conj().T, np.eye(a.shape[0]), atol=1e-12)


def test_truncated_compression_improves_with_chi(rng):
    # random states carry near-maximal entanglement, so the fidelity ladder
    # climbs steeply with the bond cap and saturates at 1 when nothing is cut
    psi = random_state(rng, 8)
    m = mps_from_state_vector(psi, 2)
    overlaps = []
    for chi in (2, 4, 8, 16):
        small = canonicalize(m, 0, spec=TruncationSpec(chi_max=chi))
        assert max(small.bond_dims()) <= chi
        overlaps.append(abs(inner_product(small, m)))
    assert overlaps == sorted(overlaps)
    assert overlaps[-1] == pytest.approx(1.0, abs=1e-10)
    assert overlaps[0] < 0.9


def test_expectations_match_dense_oracle(rng):
    n = 6
    psi = random_state(rng, n)
    m = mps_from_state_vector(psi, 2)
    for site in (0, 2, 5):
        ref = np.vdot(psi, kron_site(SZ, site, n) @ psi)
        assert np.isclose(expect_local(m, SZ, site), ref, atol=1e-12)
    ref = np.vdot(psi, kron_site(SX, 1, n) @ kron_site(SX, 4, n) @ psi)
    assert np.isclose(expect_two_site(m, SX, 1, SX, 4), ref, atol=1e-12)
    with pytest.raises(BadOrder):
        expect_two_site(m, SZ, 4, SZ, 4)


def test_expectations_renormalize_unnormalized_states(rng):
    psi = random_state(rng, 5)
    m = mps_from_state_vector(psi, 2)
    scaled = MPS(
        sites=tuple(t * (3.0 if i == m.center else 1.0) for i, t in enumerate(m.sites)),
        center=m.center,
        phys_dim=2,
    )
    ref = np.vdot(psi, kron_site(SZ, 2, 5) @ psi)
    assert np.isclose(expect_local(scaled, SZ, 2), ref, atol=1e-12)


def test_gauge_insert_is_invisible_to_measurements(rng):
    m = random_mps(7, 2, 5, rng)
    ref = [expect_local(m, SZ, s) for s in range(7)]
    ref.append(expect_two_site(m, SZ, 0, SZ, 6))
    for bond in (0, 3, 5):
        chi = m.sites[bond].shape[2]
        x = np.eye(chi) + 0.4 * (rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi)))
        g = gauge_insert(m, bond, x)
        assert g.center is None  # canonical structure intentionally broken
        got = [expect_local(g, SZ, s) for s in range(7)]
        got.append(expect_two_site(g, SZ, 0, SZ, 6))
        np.testing.assert_allclose(got, ref, atol=1e-9)
        np.testing.assert_allclose(to_state_vector(g), to_state_vector(m), atol=1e-9)


def test_gauge_insert_rejects_singular_matrices(rng):
    m = random_mps(5, 2, 4, rng)
    chi = m.sites[2].shape[2]
    x = np.zeros((chi, chi))
    x[0, 0] = 1.0
    with pytest.raises(Singular):
        gauge_insert(m, 2, x)


def test_apply_two_site_gate_matches_dense(rng):
    n = 6
    psi = random_state(rng, n)
    gate = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    for site in (0, 2, 4):
        m = mps_from_state_vector(psi, 2)
        out, lost = apply_two_site_gate(m, gate, site)
        assert lost == 0.0
        assert out.center == site + 1
        full = np.kron(np.eye(2 ** (n - site - 2)), np.kron(gate, np.eye(2**site)))
        np.testing.assert_allclose(to_state_vector(out), full @ psi, atol=1e-12)


def test_gate_truncation_reports_discarded_weight(rng):
    psi = random_state(rng, 8)
    m = canonicalize(mps_from_state_vector(psi, 2), 3)
    gate = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    out, lost = apply_two_site_gate(m, gate, 3, spec=TruncationSpec(chi_max=3))
    full = np.kron(np.eye(2**3), np.kron(gate, np.eye(2**3)))
    err2 = np.linalg.norm(to_state_vector(out) - full @ psi) ** 2
    assert np.isclose(err2, lost, atol=1e-10)


def test_bond_entropies_of_ghz():
    vec = np.zeros(2**6)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    m = mps_from_state_vector(vec, 2)
    np.testing.assert_allclose(bond_entropies(m), np.ones(5), atol=1e-12)


def test_bond_entropies_match_dense_schmidt_spectra(rng):
    n = 6
    psi = random_state(rng, n)
    m = move_center(mps_from_state_vector(psi, 2), 3)
    # bond b cuts sites 0..b (the fast index) from b+1..n-1
    ref = [
        entanglement_entropy(np.linalg.svd(psi.reshape(2 ** (b + 1), -1, order="F"), compute_uv=False))
        for b in range(n - 1)
    ]
    np.testing.assert_allclose(bond_entropies(m), ref, atol=1e-12)


def test_correlation_length_of_hand_built_uniform_mps():
    """A0 = diag(1, 1/e), A1 = offdiag feeds the transfer spectrum (1, 1/e)."""
    chi = 2
    n = 15
    a0 = np.diag([1.0, np.exp(-1.0)])
    a1 = np.zeros((2, 2))
    a1[0, 1] = np.sqrt(1.0 - np.exp(-2.0))
    bulk = np.zeros((chi, 2, chi), dtype=complex)
    bulk[:, 0, :] = a0
    bulk[:, 1, :] = a1
    left = bulk[:1, :, :]
    right = np.zeros((chi, 2, 1), dtype=complex)
    right[0, 0, 0] = 1.0
    right[1, 1, 0] = 1.0
    m = MPS(sites=(left,) + (bulk,) * (n - 2) + (right,), center=None, phys_dim=2)
    rep = correlation_length(m)
    assert np.isclose(rep.xi, 1.0, atol=1e-8)
    mags = np.abs(rep.transfer_eigs)
    assert np.isclose(mags[0] / mags[0], 1.0) and np.isclose(mags[1] / mags[0], np.exp(-1.0), atol=1e-10)


def test_product_state_has_zero_range_flag():
    up = np.array([1.0, 0.0])
    rep = correlation_length(product_mps([up] * 9))
    assert rep.xi == 0.0  # chi = 1: no transfer gap to speak of


def test_connected_correlation_subtracts_disconnected_part(rng):
    psi = random_state(rng, 6)
    m = mps_from_state_vector(psi, 2)
    zi = kron_site(SZ, 1, 6)
    zj = kron_site(SZ, 4, 6)
    ref = np.vdot(psi, zi @ zj @ psi) - np.vdot(psi, zi @ psi) * np.vdot(psi, zj @ psi)
    assert np.isclose(connected_correlation(m, SZ, 1, 4), ref.real, atol=1e-12)


def test_fit_recovers_exponential_and_power_laws():
    xs = np.arange(1, 12)
    xi_fit, log_a = fit_exponential_decay(xs, 0.7 * np.exp(-xs / 2.5))
    assert np.isclose(xi_fit, 2.5) and np.isclose(np.exp(log_a), 0.7)
    gamma_fit, _ = fit_power_law(xs, 1.3 * xs**-1.8)  # gamma quoted positive
    assert np.isclose(gamma_fit, 1.8)
    # alternating-sign data fits through |C|
    xi_fit, _ = fit_exponential_decay(xs, 0.5 * (-1.0) ** xs * np.exp(-xs / 4.0))
    assert np.isclose(xi_fit, 4.0)


def test_json_round_trip(rng):
    m = random_mps(5, 2, 3, rng)
    back = mps_from_json(mps_to_json(m))
    assert back.center == m.center and back.phys_dim == 2
    assert np.isclose(abs(inner_product(back, m)), norm_squared(m), atol=1e-12)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
