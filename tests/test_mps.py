"""MPS construction, gauges, measurements, gates, and correlation analysis.

Dense-vector oracles throughout: every MPS quantity is checked against the
same computation done on the full 2^N state vector.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import tnkit.mps
from conftest import SX, SZ, dense_split, failing_svd, kron_site
from tnkit import (
    DenseTensor,
    MPS,
    UNTRUNCATED,
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
    evolve_real_time,
    expect_local,
    expect_two_site,
    fit_exponential_decay,
    fit_power_law,
    gauge_insert,
    initial_product_state,
    inner_product,
    measure_energy,
    move_center,
    mps_from_json,
    mps_from_state_vector,
    mps_to_json,
    norm_squared,
    product_mps,
    product_state_vector,
    random_mps,
    select_rank,
    svd,
    sweep,
    to_state_vector,
    truncated_svd,
)
from tnkit.decomp import _layout
from tnkit.errors import NumericalFailure, TooLarge, ValidationError
from tnkit.mps import _split
from tnkit.verify import off_block_max


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
    with pytest.raises(ValidationError, match="length 6 is not a power of d=2"):
        mps_from_state_vector(np.ones(6) / np.sqrt(6.0), 2)
    with pytest.raises(ValidationError, match=r"\|psi\| = 2.82.*, expected 1 within"):
        mps_from_state_vector(np.ones(8), 2)


def test_product_state_vector_is_little_endian():
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    # |down, up>: site 0 down -> index 1 of the flat vector
    vec = product_state_vector([down, up])
    np.testing.assert_allclose(vec, [0, 1, 0, 0])


def test_nan_input_is_not_normalized():
    with pytest.raises(ValidationError, match="site 1 ket has norm nan"):
        product_mps([np.array([1.0, 0.0]), np.array([np.nan, 0.0])])
    with pytest.raises(ValidationError, match=r"\|psi\| = nan, expected 1 within"):
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
    m = MPS(sites=(site,))
    site[0, 1, 0] = 0.0
    assert np.shares_memory(m.sites[0], site) and not m.sites[0].flags.writeable


def test_product_mps_avoids_the_dense_vector(rng):
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = product_mps([plus] * 40)  # 2^40 would not fit in memory
    assert m.n_sites == 40
    assert m.bond_dims() == (1,) * 39
    assert np.isclose(norm_squared(m), 1.0)
    assert np.isclose(expect_local(m, SX, 20).real, 0.5)
    with pytest.raises(ValidationError, match="site 0 ket has norm 1.41"):
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
    with pytest.raises(ValidationError, match="need i < j, got i=4, j=4"):
        expect_two_site(m, SZ, 4, SZ, 4)


def test_expectations_renormalize_unnormalized_states(rng):
    psi = random_state(rng, 5)
    m = mps_from_state_vector(psi, 2)
    scaled = MPS(tuple(t * (3.0 if i == m.center else 1.0) for i, t in enumerate(m.sites)))
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
    with pytest.raises(ValidationError, match="gauge matrix is singular or too ill-conditioned"):
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
    m = MPS(sites=(left,) + (bulk,) * (n - 2) + (right,))
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


def test_fits_treat_rounding_noise_as_zero():
    # connected correlations are O(1); values at 1e-14 and below are rounding
    xs = np.arange(1.0, 6.0)
    for fit in (fit_exponential_decay, fit_power_law):
        for noise in (np.zeros(5), 1e-31 * np.exp(-xs), np.array([0.3, 1e-15, -1e-20, 0.0, 1e-14])):
            with pytest.raises(ValidationError, match="need at least two samples above 1e-14 in magnitude to fit a"):
                fit(xs, noise)
    # a noise-level sample among real ones is left out of the fit
    vals = 0.7 * np.exp(-xs / 2.5)
    vals[-1] = 1e-20
    xi_fit, log_a = fit_exponential_decay(xs, vals)
    assert np.isclose(xi_fit, 2.5) and np.isclose(log_a, np.log(0.7))


def test_json_round_trip(rng):
    m = random_mps(5, 2, 3, rng)
    back = mps_from_json(mps_to_json(m))
    assert back.center is None and back.phys_dim == 2
    assert np.isclose(abs(inner_product(back, m)), norm_squared(m), atol=1e-12)


def test_json_text_is_pinned():
    a = np.array([[[1.0, 0.5j], [-0.25, 0.0]]])
    b = np.array([[[2.0], [0.0]], [[1.5], [-1.0j]]])
    text = mps_to_json(MPS((a, b)))
    assert text == (
        '{"phys_dim": 2, "sites": ['
        '{"shape": [1, 2, 2], "data_re": [1.0, -0.25, 0.0, 0.0], "data_im": [0.0, 0.0, 0.5, 0.0]}, '
        '{"shape": [2, 2, 1], "data_re": [2.0, 1.5, 0.0, -0.0], "data_im": [0.0, 0.0, 0.0, -1.0]}]}'
    )
    for got, want in zip(mps_from_json(text).sites, (a, b)):
        np.testing.assert_array_equal(got, want)


def test_json_header_must_match_the_sites(rng):
    obj = json.loads(mps_to_json(random_mps(4, 2, 2, rng)))
    obj["phys_dim"] = 3
    with pytest.raises(ValidationError, match="header phys_dim 3 != site physical extent 2"):
        mps_from_json(json.dumps(obj))


def labelled_matrix(rng, row_q, col_q, dtype=float):
    """Random matrix that vanishes between rows and columns of different charge."""
    mat = rng.standard_normal((row_q.size, col_q.size)).astype(dtype)
    if np.dtype(dtype).kind == "c":
        mat = mat + 1j * rng.standard_normal(mat.shape)
    mat[row_q[:, None] != col_q[None, :]] = 0.0
    return mat


def sector_spectrum(mat, row_q, col_q, q):
    return np.linalg.svd(mat[np.ix_(row_q == q, col_q == q)], compute_uv=False)


@pytest.mark.parametrize("absorb", ["left", "right"])
def test_sector_split_keeps_one_value_per_sector_pair(rng, absorb):
    row_q = rng.integers(-3, 4, 13)
    col_q = rng.integers(-2, 5, 11)
    mat = labelled_matrix(rng, row_q, col_q, complex)
    shared = np.intersect1d(row_q, col_q)
    want = sum(min(np.sum(row_q == q), np.sum(col_q == q)) for q in shared)
    assert want < min(mat.shape)  # a dense SVD would keep more values
    left, right, link_q, kept, lost = _split(mat, row_q, col_q, UNTRUNCATED, absorb)
    assert link_q.size == kept.size == left.shape[1] == right.shape[0] == want
    assert lost == 0.0
    np.testing.assert_allclose(left @ right, mat, atol=1e-12)
    # the link is sorted by charge, each sector holding its own spectrum in descending order
    assert np.all(np.diff(link_q) >= 0)
    for q in shared:
        np.testing.assert_allclose(kept[link_q == q], sector_spectrum(mat, row_q, col_q, q), atol=1e-12)
    assert np.all(left[row_q[:, None] != link_q[None, :]] == 0.0)
    assert np.all(right[link_q[:, None] != col_q[None, :]] == 0.0)


def test_truncated_sector_split_cuts_the_merged_spectrum(rng):
    row_q = rng.integers(-2, 3, 16)
    col_q = rng.integers(-2, 3, 14)
    mat = labelled_matrix(rng, row_q, col_q)
    full = np.linalg.svd(mat, compute_uv=False)
    for spec in (TruncationSpec(chi_max=5), TruncationSpec(cutoff=0.05), TruncationSpec(chi_max=9, cutoff=1e-3)):
        left, right, link_q, kept, lost = _split(mat, row_q, col_q, spec, "right")
        k = kept.size
        assert k == truncated_svd(mat, spec).d.size
        np.testing.assert_allclose(np.sort(kept)[::-1], full[:k], atol=1e-12)
        assert lost == pytest.approx(np.sum(full[k:] ** 2), rel=1e-10)
        for q in np.unique(link_q):  # a prefix of each sector's own spectrum
            ref = sector_spectrum(mat, row_q, col_q, q)
            np.testing.assert_allclose(kept[link_q == q], ref[: np.sum(link_q == q)], atol=1e-12)
        assert np.linalg.norm(mat - left @ right) ** 2 == pytest.approx(lost, rel=1e-9)


def test_an_all_zero_sector_gives_zero_values_not_nan(rng):
    row_q = np.array([0, 1, 0, 1, 1])
    col_q = np.array([1, 0, 1])
    for absorb in ("left", "right"):
        for shape in ((5, 3), (1, 3), (5, 1)):
            r, c = row_q[: shape[0]], col_q[: shape[1]]
            mat = labelled_matrix(rng, r, c)
            mat[r == 1] = 0.0  # the charge-1 sector is identically zero
            left, right, link_q, kept, _ = _split(mat, r, c, UNTRUNCATED, absorb)
            assert np.all(np.isfinite(left)) and np.all(np.isfinite(right)) and np.all(np.isfinite(kept))
            np.testing.assert_allclose(left @ right, mat, atol=1e-12)
            if np.any(r == 1) and np.any(c == 1):
                assert np.any(kept[link_q == 1] == 0.0)


def test_unlabelled_split_is_the_dense_split_bit_for_bit(rng):
    for shape in ((6, 10), (12, 5), (1, 7), (9, 1)):
        for dtype in (float, complex):
            mat = labelled_matrix(rng, np.zeros(shape[0], int), np.zeros(shape[1], int), dtype)
            zeros = np.zeros(shape[0], np.int64), np.zeros(shape[1], np.int64)
            for spec in (UNTRUNCATED, TruncationSpec(chi_max=3), TruncationSpec(cutoff=0.1)):
                for absorb in ("left", "right"):
                    got = _split(mat, *zeros, spec, absorb)
                    want = dense_split(mat, *zeros, spec, absorb)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w)



def per_sector_split(mat, row_q, col_q, spec, absorb):
    """Reference for ``_split``: sort by charge, one ``svd`` per sector, merge, cut, unsort."""
    rows, cols = np.argsort(row_q, kind="stable"), np.argsort(col_q, kind="stable")
    blocked = mat[rows[:, None], cols]
    sectors = []
    for q in np.intersect1d(row_q, col_q):
        r, c = np.flatnonzero(row_q[rows] == q), np.flatnonzero(col_q[cols] == q)
        sectors.append((q, r, c, svd(blocked[np.ix_(r, c)])))
    d = np.concatenate([res.d for *_, res in sectors])
    order = np.argsort(-d, kind="stable")
    k = select_rank(d[order], spec)
    discarded = float(np.sum(d[order[k:]] ** 2))
    keep = np.sort(order[:k])
    kept = d[keep]
    link_q = np.repeat([q for q, *_ in sectors], [res.d.size for *_, res in sectors])[keep]
    u = np.zeros((len(rows), d.size), mat.dtype)
    v = np.zeros((d.size, len(cols)), mat.dtype)
    off = 0
    for _, r, c, res in sectors:
        link = np.arange(off, off + res.d.size)
        u[np.ix_(r, link)] = res.u
        v[np.ix_(link, c)] = res.v_dag
        off += res.d.size
    u, v = u[np.argsort(rows)[:, None], keep], v[keep[:, None], np.argsort(cols)]
    if absorb == "right":
        return u, kept[:, None] * v, link_q, kept, discarded
    return u * kept[None, :], v, link_q, kept, discarded


def assert_same_split(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        np.testing.assert_array_equal(g, w)
    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous


@pytest.mark.parametrize("dtype", [float, complex])
def test_split_equals_one_svd_per_sector_bit_for_bit(rng, dtype):
    # sectors by charge: -1, 0 and 1 are 2x3 (one stacked SVD, 0 all zero),
    # 2 is 1x4, 3 is 3x1; rows of charge 4 and columns of charge 5 have no partners
    row_q = rng.permutation(np.repeat([-1, 0, 1, 2, 3, 4], [2, 2, 2, 1, 3, 1]))
    col_q = rng.permutation(np.repeat([-1, 0, 1, 2, 3, 5], [3, 3, 3, 4, 1, 2]))
    mat = labelled_matrix(rng, row_q, col_q, dtype)
    mat[row_q == 0] = 0.0
    for spec in (UNTRUNCATED, TruncationSpec(chi_max=3), TruncationSpec(cutoff=0.1)):
        for absorb in ("left", "right"):
            got = _split(mat, row_q, col_q, spec, absorb)
            assert_same_split(got, per_sector_split(mat, row_q, col_q, spec, absorb))
            if spec is UNTRUNCATED:
                assert got[3].size == 2 + 2 + 2 + 1 + 1
                np.testing.assert_allclose(got[0] @ got[1], mat, atol=1e-12)


def test_a_block_wide_enough_to_sketch_still_gets_its_full_svd(rng):
    # a flat-spectrum 128x128 sector at chi_max 8, where a sketch of 9 values would err by ~1e-2
    row_q = rng.permutation(np.repeat([0, 1], [128, 3]))
    col_q = rng.permutation(np.repeat([0, 1], [128, 2]))
    mat = labelled_matrix(rng, row_q, col_q)
    for absorb in ("left", "right"):
        got = _split(mat, row_q, col_q, TruncationSpec(chi_max=8), absorb)
        assert_same_split(got, per_sector_split(mat, row_q, col_q, TruncationSpec(chi_max=8), absorb))


def test_split_layouts_are_keyed_by_the_labels_not_the_shape(rng):
    first = np.array([0, 0, 1, 1]), np.array([0, 1, 1])
    second = np.array([1, 0, 1, 0]), np.array([1, 1, 0])  # the same shapes, other labels
    for row_q, col_q in (first, second, first, second):
        mat = labelled_matrix(rng, row_q, col_q)
        got = _split(mat, row_q, col_q, UNTRUNCATED, "right")
        assert_same_split(got, per_sector_split(mat, row_q, col_q, UNTRUNCATED, "right"))
        np.testing.assert_allclose(got[0] @ got[1], mat, atol=1e-12)


def test_the_layout_cache_stays_within_its_bound(rng):
    bound = _layout.cache_info().maxsize
    for i in range(bound + 20):
        row_q, col_q = np.array([0, i, i]), np.array([i, 0])
        _split(labelled_matrix(rng, row_q, col_q), row_q, col_q, UNTRUNCATED, "left")
    assert 0 < _layout.cache_info().currsize <= bound


def test_split_retries_each_sector_when_a_stacked_svd_fails(monkeypatch, rng):
    row_q = rng.permutation(np.repeat([0, 1, 2], [3, 3, 2]))
    col_q = rng.permutation(np.repeat([0, 1, 2], [4, 4, 1]))
    mat = labelled_matrix(rng, row_q, col_q, complex)
    want = _split(mat, row_q, col_q, TruncationSpec(chi_max=5), "left")
    fake = failing_svd(1)
    monkeypatch.setattr(np.linalg, "svd", fake)
    assert_same_split(_split(mat, row_q, col_q, TruncationSpec(chi_max=5), "left"), want)
    assert fake.calls[0] == (2, 3, 4)  # the stacked call that failed, then one call per sector
    monkeypatch.setattr(np.linalg, "svd", failing_svd())
    with pytest.raises(NumericalFailure):
        _split(mat, row_q, col_q, UNTRUNCATED, "left")


def test_charge_labels_are_validated(rng):
    # the center and the labels are recorded by tnkit, never passed in
    sites = random_mps(4, 2, 2, rng).sites
    m = MPS(sites)
    assert m.center is None
    assert [q.tolist() for q in m.charges] == [[0], [0, 0], [0, 0], [0, 0], [0]]
    assert m.phys_charges.tolist() == [0, 0]
    for claim in ({"center": 3}, {"charges": m.charges}, {"phys_charges": np.array([1, -1])}):
        with pytest.raises(TypeError):
            MPS(sites, **claim)
    # replace builds through MPS(sites), so it forgets all three
    neel = initial_product_state("heisenberg", 4)
    assert neel.center == 3 and neel.phys_charges.tolist() == [1, -1]
    forgot = replace(neel, sites=neel.sites)
    assert forgot.center is None and not np.any(forgot.phys_charges)
    assert [q.tolist() for q in forgot.charges] == [[0]] * 5
    for q in forgot.charges + (forgot.phys_charges, neel.phys_charges) + neel.charges:
        assert q.dtype == np.int64 and not q.flags.writeable


def test_neel_labels_are_the_running_sz(rng):
    m = initial_product_state("heisenberg", 5)
    assert m.phys_charges.tolist() == [1, -1]
    assert [q.tolist() for q in m.charges] == [[0], [1], [0], [1], [0], [1]]
    assert off_block_max(m) == 0.0
    # gauge moves keep the labels and the block structure
    for target in (0, 2, 4):
        moved = move_center(m, target)
        assert off_block_max(moved) == 0.0
        np.testing.assert_allclose(to_state_vector(moved), to_state_vector(m), atol=1e-14)


def test_labels_are_dropped_where_the_charge_is_not_conserved(rng):
    n = 6
    neel = initial_product_state("heisenberg", n)
    psi = to_state_vector(neel)

    def unlabelled(m):
        return not any(np.any(q) for q in m.charges) and not np.any(m.phys_charges)

    assert unlabelled(gauge_insert(neel, 2, np.eye(1) * 2.0))
    back = mps_from_json(mps_to_json(neel))
    assert unlabelled(back)
    np.testing.assert_array_equal(to_state_vector(back), psi)

    gate = rng.standard_normal((4, 4))
    for site in (0, 2, 4):
        out, lost = apply_two_site_gate(neel, gate, site)
        assert unlabelled(out) and lost == 0.0
        full = np.kron(np.eye(2 ** (n - site - 2)), np.kron(gate, np.eye(2**site)))
        np.testing.assert_allclose(to_state_vector(out), full @ psi, atol=1e-12)

    # a charge-conserving gate keeps them
    out, _ = apply_two_site_gate(neel, bond_gate("heisenberg", -1.0, 0.3, "real"), 2)
    assert not unlabelled(out) and off_block_max(out) == 0.0



def test_measurements_never_factorize(monkeypatch, rng):
    m = random_mps(7, 2, 5, rng)
    chi = m.sites[3].shape[2]
    g = gauge_insert(m, 3, np.eye(chi) + 0.4 * rng.standard_normal((chi, chi)))
    h = build_heisenberg(7, j=-1.0)
    measurements = {
        "inner_product": lambda: inner_product(m, g),
        "norm_squared": lambda: norm_squared(g),
        "expect_local": lambda: expect_local(g, SZ, 4),
        "expect_two_site": lambda: expect_two_site(g, SX, 1, SZ, 5),
        "connected_correlation": lambda: connected_correlation(g, SZ, 2, 6),
        "measure_energy": lambda: measure_energy(g, h),
    }
    want = {name: measure() for name, measure in measurements.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a measurement factorized the state")

    monkeypatch.setattr("tnkit.mps.block_svd", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for name, measure in measurements.items():
        assert abs(measure() - want[name]) <= 1e-12, name


@pytest.mark.parametrize(
    "measure",
    [
        norm_squared,
        lambda m: expect_local(m, SZ, 0),
        lambda m: expect_two_site(m, SZ, 0, SZ, 3),
        lambda m: connected_correlation(m, SZ, 0, 3),
    ],
    ids=["norm_squared", "expect_local", "expect_two_site", "connected_correlation"],
)
def test_an_overflowing_norm_is_a_numerical_failure(measure):
    # finite entries whose norm squared overflows: no numpy overflow warning
    # comes first, and no inf or NaN comes back
    neel = initial_product_state("heisenberg", 4)
    big = MPS(neel.sites[:1] + (neel.sites[1] * 1e200,) + neel.sites[2:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"norm squared is (inf|nan)"):
            measure(big)


@pytest.mark.parametrize(
    "measure",
    [lambda m: expect_local(m, SZ, 0), lambda m: expect_two_site(m, SZ, 0, SZ, 3), lambda m: connected_correlation(m, SZ, 0, 3)],
    ids=["expect_local", "expect_two_site", "connected_correlation"],
)
def test_a_zero_norm_is_a_numerical_failure(measure):
    neel = initial_product_state("heisenberg", 4)
    zero = MPS(neel.sites[:1] + (neel.sites[1] * 0.0,) + neel.sites[2:])
    assert norm_squared(zero) == 0.0
    with pytest.raises(NumericalFailure, match="norm squared is 0.0; cannot normalize"):
        measure(zero)


def test_connected_correlation_takes_one_norm(monkeypatch, rng):
    m = random_mps(7, 2, 5, rng)
    want = expect_two_site(m, SZ, 2, SZ, 5).real - expect_local(m, SZ, 2).real * expect_local(m, SZ, 5).real
    real, calls = tnkit.mps._sandwich, []

    def counted(bra, ket, ops):
        calls.append(sorted(ops))
        return real(bra, ket, ops)

    monkeypatch.setattr(tnkit.mps, "_sandwich", counted)
    assert connected_correlation(m, SZ, 2, 5) == want
    assert sorted(calls) == [[], [2], [2, 5], [5]]


def test_measurements_hold_in_any_gauge(rng):
    # no site is an isometry, so the state has no orthogonality center
    n, dims = 6, (1, 2, 4, 4, 4, 2, 1)
    shapes = [(dims[s], 2, dims[s + 1]) for s in range(n)]
    m = MPS(tuple(rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for sh in shapes))
    psi = to_state_vector(m)
    nrm2 = np.vdot(psi, psi).real
    for state in (m, mps_from_json(mps_to_json(m))):
        assert state.center is None
        for s in range(n):
            want = np.vdot(psi, kron_site(SZ, s, n) @ psi) / nrm2
            assert abs(expect_local(state, SZ, s) - want) <= 1e-12
        for i, j in ((0, 5), (1, 2), (2, 4), (3, 5)):
            want = np.vdot(psi, kron_site(SX, i, n) @ kron_site(SZ, j, n) @ psi) / nrm2
            assert abs(expect_two_site(state, SX, i, SZ, j) - want) <= 1e-12


def test_a_claimed_center_is_never_read():
    # a file claims center 2 for real sites of which none is an isometry
    rng = np.random.default_rng(0)
    dims = (1, 2, 4, 4, 4, 2, 1)
    sites = tuple(rng.standard_normal((dims[s], 2, dims[s + 1])) for s in range(6))
    text = json.dumps({"phys_dim": 2, "center": 2, "sites": [json.loads(DenseTensor.from_ndarray(t).dump()) for t in sites]})
    loaded, ref = mps_from_json(text), canonicalize(MPS(sites), 0)
    assert loaded.center is None
    psi = to_state_vector(loaded)
    for b, got in enumerate(bond_entropies(loaded)):
        w = np.linalg.svd(psi.reshape(2 ** (b + 1), -1, order="F"), compute_uv=False) ** 2
        w = w[w > 0] / w.sum()
        assert abs(got + np.sum(w * np.log2(w))) <= 1e-12

    def close(a, b):
        return np.linalg.norm(np.asarray(a) - b) <= 1e-12 * np.linalg.norm(b)

    assert close(correlation_length(loaded).xi, correlation_length(ref).xi)
    chi2 = TruncationSpec(chi_max=2)
    gate = bond_gate("heisenberg", -1.0, 0.05, "real")
    (got, got_lost), (want, want_lost) = (apply_two_site_gate(m, gate, 3, chi2) for m in (loaded, ref))
    assert close(to_state_vector(got), to_state_vector(want)) and close(got_lost, want_lost)
    got, want = (evolve_real_time(m, "heisenberg", j=-1.0, dt=0.05, n_steps=2, spec=chi2) for m in (loaded, ref))
    assert close(got.energy_trace, want.energy_trace) and close(got.norm_trace, want.norm_trace)
    assert close(got.max_discarded_weight, want.max_discarded_weight)
    assert close(to_state_vector(got.state), to_state_vector(want.state))


def test_state_vectors_are_peeled_without_the_block_layout_cache(rng):
    before = _layout.cache_info()
    m = mps_from_state_vector(random_state(rng, 9), 2, TruncationSpec(chi_max=6))
    assert max(m.bond_dims()) == 6
    assert _layout.cache_info() == before


def _no_square_site():
    """4 sites with links (2, 4, 2): every site's links differ."""
    return mps_from_state_vector(np.eye(16)[3], 2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda m: MPS(()), ValidationError, "an MPS needs at least one site", id="no-sites"),
        pytest.param(
            lambda m: MPS((np.ones((1, 2)),)),
            ValidationError, "site 0 has rank 2, expected 3", id="site-rank",
        ),
        pytest.param(
            lambda m: MPS((np.ones((1, 2, 1)), np.ones((1, 3, 1)))),
            ValidationError, "site 1 physical extent 3 != 2", id="phys-extent",
        ),
        pytest.param(
            lambda m: MPS((np.ones((1, 2, 2)), np.ones((3, 2, 1)))),
            ValidationError, "link between sites 0 and 1: 2 != 3", id="link-extent",
        ),
        pytest.param(
            lambda m: MPS((np.ones((2, 2, 1)),)),
            ValidationError, "boundary links must have extent 1", id="boundary-extent",
        ),
        pytest.param(
            lambda m: mps_from_state_vector([1.0], 1),
            ValidationError, "phys_dim must be an integer >= 2, got 1", id="from-vector-d1",
        ),
        pytest.param(
            lambda m: mps_from_state_vector([0.6, 0.8], 2.0),
            ValidationError, "phys_dim must be an integer >= 2, got 2.0", id="from-vector-float-d",
        ),
        pytest.param(
            lambda m: random_mps(4, 2, 2.5, np.random.default_rng(0)),
            ValidationError, "chi_max must be an integer >= 1, got 2.5", id="random-chi-float",
        ),
        pytest.param(
            lambda m: random_mps(4, 2, 0, np.random.default_rng(0)),
            ValidationError, "chi_max must be an integer >= 1, got 0", id="random-chi-zero",
        ),
        pytest.param(
            lambda m: random_mps(4, 2.5, 2, np.random.default_rng(0)),
            ValidationError, "phys_dim must be an integer >= 1, got 2.5", id="random-phys-dim-float",
        ),
        pytest.param(
            lambda m: random_mps(True, 2, 2, np.random.default_rng(0)),
            ValidationError, "n_sites must be an integer >= 1, got True", id="random-sites-bool",
        ),
        pytest.param(
            lambda m: MPS(m.sites[:2] + (m.sites[2] * np.nan,) + m.sites[3:]),
            ValidationError, "site 2 must hold finite numbers only", id="site-nan",
        ),
        pytest.param(
            lambda m: MPS(m.sites[:4] + (np.where(m.sites[4] == m.sites[4].flat[0], np.inf, m.sites[4]),)),
            ValidationError, "site 4 must hold finite numbers only", id="site-inf",
        ),
        pytest.param(
            lambda m: to_state_vector(product_mps([[1.0, 0.0]] * 21)),
            TooLarge, r"refusing to densify 21 sites \(cap 20\)", id="densify-21-sites",
        ),
        pytest.param(lambda m: move_center(m, 5), ValidationError, "target 5 out of range", id="move-center-target"),
        pytest.param(
            lambda m: canonicalize(m, -1),
            ValidationError, "target -1 out of range", id="canonicalize-target",
        ),
        pytest.param(lambda m: gauge_insert(m, 4, np.eye(1)), ValidationError, "bond 4 out of range", id="gauge-bond"),
        pytest.param(
            lambda m: gauge_insert(m, 1, np.eye(3)),
            ValidationError, r"gauge matrix must be \(4, 4\), got \(3, 3\)", id="gauge-shape",
        ),
        pytest.param(
            lambda m: inner_product(m, product_mps([[1.0, 0.0]] * 4)),
            ValidationError, "states live on different site spaces", id="inner-sites",
        ),
        pytest.param(
            lambda m: inner_product(m, product_mps([[1.0, 0.0, 0.0]] * 5)),
            ValidationError, "states live on different site spaces", id="inner-phys",
        ),
        pytest.param(lambda m: expect_local(m, SZ, 5), ValidationError, "site 5 out of range", id="local-site"),
        pytest.param(
            lambda m: expect_local(m, np.eye(3), 0),
            ValidationError, r"operator must be \(2, 2\)", id="local-op",
        ),
        pytest.param(
            lambda m: expect_two_site(m, SZ, -1, SZ, 2),
            ValidationError, r"site -1 out of range \[0, 5\)", id="two-site-i",
        ),
        pytest.param(
            lambda m: expect_two_site(m, SZ, 0, SZ, 5),
            ValidationError, r"site 5 out of range \[0, 5\)", id="two-site-j",
        ),
        pytest.param(
            lambda m: expect_two_site(m, np.eye(3), 0, SZ, 1),
            ValidationError, r"op_i must be \(2, 2\)", id="two-site-op-i",
        ),
        pytest.param(
            lambda m: expect_two_site(m, SZ, 0, np.eye(3), 1),
            ValidationError, r"op_j must be \(2, 2\)", id="two-site-op-j",
        ),
        pytest.param(
            lambda m: apply_two_site_gate(m, np.eye(4), 4),
            ValidationError, r"site 4 out of range \[0, 4\)", id="gate-site",
        ),
        pytest.param(
            lambda m: apply_two_site_gate(m, np.eye(2), 0),
            ValidationError, r"gate must be \(4, 4\), got \(2, 2\)", id="gate-shape",
        ),
        pytest.param(
            lambda m: apply_two_site_gate(m, np.eye(4), 0, direction="up"),
            ValidationError, "direction must be 'right' or 'left', got 'up'", id="gate-direction",
        ),
        pytest.param(lambda m: expect_local(m, SZ, 2.0), ValidationError, "site 2.0 is not an integer", id="local-site-float"),
        pytest.param(lambda m: expect_local(m, SZ, True), ValidationError, "site True is not an integer", id="local-site-bool"),
        pytest.param(
            lambda m: expect_two_site(m, SZ, False, SZ, 3), ValidationError, "site False is not an integer", id="two-site-bool",
        ),
        pytest.param(
            lambda m: expect_two_site(m, SZ, 0.5, SZ, 3),
            ValidationError, "site 0.5 is not an integer", id="two-site-float",
        ),
        pytest.param(
            lambda m: connected_correlation(m, SZ, 1.5, 4),
            ValidationError, "site 1.5 is not an integer", id="correlation-float",
        ),
        pytest.param(lambda m: move_center(m, 1.0), ValidationError, "target 1.0 is not an integer", id="move-center-float"),
        pytest.param(lambda m: move_center(m, True), ValidationError, "target True is not an integer", id="move-center-bool"),
        pytest.param(lambda m: canonicalize(m, 2.0), ValidationError, "target 2.0 is not an integer", id="canonicalize-float"),
        pytest.param(lambda m: canonicalize(m, True), ValidationError, "target True is not an integer", id="canonicalize-bool"),
        pytest.param(lambda m: gauge_insert(m, 1.0, np.eye(4)), ValidationError, "bond 1.0 is not an integer", id="gauge-bond-float"),
        pytest.param(lambda m: gauge_insert(m, True, np.eye(4)), ValidationError, "bond True is not an integer", id="gauge-bond-bool"),
        pytest.param(
            lambda m: apply_two_site_gate(m, np.eye(4), 1.0), ValidationError, "site 1.0 is not an integer", id="gate-site-float",
        ),
        pytest.param(
            lambda m: apply_two_site_gate(m, np.eye(4), True), ValidationError, "site True is not an integer", id="gate-site-bool",
        ),
        pytest.param(
            lambda m: expect_local(m, np.full((2, 2), np.nan), 0),
            ValidationError, "operator must hold finite numbers only", id="local-op-nan",
        ),
        pytest.param(
            lambda m: expect_local(m, [[1, 2], [3]], 0),
            ValidationError, r"operator must be \(2, 2\), got a ragged sequence", id="local-op-ragged",
        ),
        pytest.param(
            lambda m: expect_local(m, [["a", "b"], ["c", "d"]], 0),
            ValidationError, "operator must hold finite numbers only", id="local-op-text",
        ),
        pytest.param(
            lambda m: expect_two_site(m, SZ, 0, np.diag([0.5, np.nan]), 1),
            ValidationError, "op_j must hold finite numbers only", id="two-site-op-nan",
        ),
        pytest.param(
            lambda m: gauge_insert(m, 1, np.diag([1.0, 2.0, np.nan, 1.0])),
            ValidationError, "gauge matrix must hold finite numbers only", id="gauge-nan",
        ),
        pytest.param(
            lambda m: apply_two_site_gate(m, np.diag([1.0, np.inf, 1.0, 1.0]), 0),
            ValidationError, "gate must hold finite numbers only", id="gate-inf",
        ),
        pytest.param(
            lambda m: sweep(m, np.diag([1.0, 1.0, -np.inf, 1.0])), ValidationError, "gate must hold finite numbers only", id="sweep-gate-inf",
        ),
        pytest.param(lambda m: mps_from_json(mps_to_json(m)[:-1]), ValidationError, "MPS text is not valid JSON", id="json-malformed"),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"sites": []})),
            ValidationError, "MPS text has no key 'phys_dim'", id="json-no-phys-dim",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"phys_dim": 2})), ValidationError, "MPS text has no key 'sites'", id="json-no-sites",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"phys_dim": 2, "sites": [{"shape": [1, 2, 1], "data_im": [0, 0]}]})),
            ValidationError, "tensor dump has no key 'data_re'", id="json-no-data-re",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"phys_dim": 2, "sites": 5})),
            ValidationError, "MPS text sites must be a list of tensor dumps, got int", id="json-sites-not-a-list",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"phys_dim": 2, "sites": [{"shape": 3, "data_re": [], "data_im": []}]})),
            ValidationError, "tensor dump shape must be a list of integers, got 3", id="json-shape-not-a-list",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"phys_dim": 2, "sites": [{"shape": [1, 2, 1], "data_re": ["1", "0"], "data_im": [0, 0]}]})),
            ValidationError, "tensor dump data must be lists of numbers", id="json-data-numeric-text",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps({"phys_dim": 2, "sites": [{"shape": [1, 2, 1], "data_re": [math.nan, 1], "data_im": [0, 0]}]})),
            ValidationError, r"tensor dump data must be finite within the float range, got \[nan, 1\]", id="json-data-nan",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps(dict(json.loads(mps_to_json(m)), phys_dim="x"))),
            ValidationError, "MPS text phys_dim must be an integer, got 'x'", id="json-phys-dim-text",
        ),
        pytest.param(
            lambda m: mps_from_json(json.dumps(dict(json.loads(mps_to_json(m)), phys_dim=2.5))),
            ValidationError, "MPS text phys_dim must be an integer, got 2.5", id="json-phys-dim-float",
        ),
        pytest.param(
            lambda m: correlation_length(_no_square_site()),
            ValidationError, "no site has matching left/right links", id="transfer-no-square-site",
        ),
    ],
)
def test_mps_guards(rng, call, error, match):
    with pytest.raises(error, match=match):
        call(random_mps(5, 2, 4, rng))


def test_mps_edge_cases_return_their_flags():
    one = mps_from_state_vector([0.6, 0.8j], 2)
    assert one.n_sites == 1 and one.center == 0
    np.testing.assert_array_equal(to_state_vector(one), [0.6, 0.8j])
    ghz = np.zeros(2**7)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    assert correlation_length(mps_from_state_vector(ghz, 2)).xi == np.inf  # degenerate leading pair
    # a left isometry on chi = 2 whose transfer matrix is triangular with spectrum (1, 0, 0, 0)
    bulk = np.zeros((2, 2, 2))
    bulk[0, 0, 0] = bulk[0, 1, 1] = 1.0
    right = np.zeros((2, 2, 1))
    right[0, 0, 0] = right[1, 1, 0] = 1.0
    rep = correlation_length(MPS((bulk[:1],) + (bulk,) * 5 + (right,)))
    assert rep.xi == 0.0 and rep.transfer_eigs.size == 4
    xs = np.arange(1.0, 6.0)
    assert fit_exponential_decay(xs, 0.1 * np.exp(xs / 3.0))[0] == np.inf  # growing data: no decay


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
