"""SVD/eig, truncation rules, entropy, and the polar-style trace optimizer."""

import numpy as np
import pytest

from tnkit import (
    TruncationSpec,
    UNTRUNCATED,
    eig_hermitian,
    entanglement_entropy,
    mera_update,
    select_rank,
    svd,
    truncated_svd,
)
from tnkit.errors import AllZero, NotHermitian, NotSquare

rng = np.random.default_rng(7)


def random_matrix(a, b):
    return rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))


def test_svd_reconstructs_and_sorts():
    m = random_matrix(5, 3)
    res = svd(m)
    u, d, v = res.u, np.asarray(res.d), res.v_dag
    np.testing.assert_allclose(u @ np.diag(d) @ v, m, atol=1e-12)
    assert np.all(np.diff(d) <= 0) and np.all(d >= 0)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(3), atol=1e-12)
    assert res.discarded_weight == 0.0


def test_svd_never_squares_the_matrix():
    """Singular values spanning 14 orders of magnitude survive intact."""
    d_true = np.array([1.0, 1e-7, 1e-14])
    q1, _ = np.linalg.qr(random_matrix(3, 3))
    q2, _ = np.linalg.qr(random_matrix(3, 3))
    m = q1 @ np.diag(d_true) @ q2.conj().T
    res = svd(m)
    # the M·Mdagger route would square 1e-14 below machine epsilon and return
    # ~1e-8 noise for the smallest value; the direct SVD keeps it to a few %
    np.testing.assert_allclose(res.d, d_true, rtol=5e-2, atol=1e-16)


def test_worked_two_spin_spectra():
    rt2 = 1 / np.sqrt(2)
    # (|up,up> + |down,up>)/sqrt2 is a product state: spectrum (1, 0), S = 0
    product = np.array([[rt2, 0.0], [rt2, 0.0]])
    res = svd(product)
    np.testing.assert_allclose(res.d, [1.0, 0.0], atol=1e-14)
    assert entanglement_entropy(res.d) == 0.0
    # Bell pair: (1/sqrt2, 1/sqrt2), S = 1
    bell = np.array([[rt2, 0.0], [0.0, rt2]])
    res = svd(bell)
    np.testing.assert_allclose(res.d, [rt2, rt2], atol=1e-14)
    assert np.isclose(entanglement_entropy(res.d), 1.0)
    # singlet differs only by signs; same maximal entanglement
    singlet = np.array([[0.0, rt2], [-rt2, 0.0]])
    assert np.isclose(entanglement_entropy(svd(singlet).d), 1.0)


def test_entropy_edge_cases():
    assert entanglement_entropy([1.0, 0.0]) == 0.0
    assert not np.signbit(entanglement_entropy([1.0]))  # +0.0, not -0.0
    # unnormalized spectra are normalized first by default
    assert np.isclose(entanglement_entropy([2.0, 2.0]), 1.0)
    with pytest.raises(AllZero):
        entanglement_entropy([0.0, 0.0])
    with pytest.raises(ValueError):
        entanglement_entropy([-1.0, 1.0])


def test_select_rank_cutoff_is_relative_weight():
    d = np.array([1.0, 0.5, 1e-4, 1e-9])
    w = d**2
    rel3 = w[3] / w.sum()
    rel23 = (w[2] + w[3]) / w.sum()
    assert select_rank(d, TruncationSpec(cutoff=rel3 * 1.01)) == 3
    assert select_rank(d, TruncationSpec(cutoff=rel23 * 1.01)) == 2
    assert select_rank(d, TruncationSpec(cutoff=rel23 * 0.99)) == 3
    assert select_rank(d, UNTRUNCATED) == 4
    assert select_rank(d, TruncationSpec(chi_max=2)) == 2
    # chi_max=1 always keeps at least one value
    assert select_rank(d, TruncationSpec(chi_max=1, cutoff=0.9)) == 1


def test_cutoff_zero_keeps_exact_zeros():
    m = np.outer(random_matrix(4, 1), random_matrix(1, 4))  # rank 1
    res = truncated_svd(m, UNTRUNCATED)
    assert len(res.d) == 4  # zeros retained bit-for-bit


def test_truncation_identity_and_discarded_weight():
    m = random_matrix(6, 6)
    m /= np.linalg.norm(m)
    for k in range(1, 7):
        res = truncated_svd(m, TruncationSpec(chi_max=k))
        approx = res.u @ np.diag(res.d) @ res.v_dag
        err2 = np.linalg.norm(m - approx) ** 2
        kept = float(np.sum(np.asarray(res.d) ** 2))
        assert np.isclose(err2, 1.0 - kept, atol=1e-12)
        assert np.isclose(err2, res.discarded_weight, atol=1e-12)


def test_degenerate_boundary_keeps_the_whole_group():
    q1, _ = np.linalg.qr(random_matrix(4, 4))
    q2, _ = np.linalg.qr(random_matrix(4, 4))
    m = q1 @ np.diag([1.0, 0.5, 0.5, 0.1]) @ q2.conj().T
    # a cut through the degenerate pair is widened to include both values
    res = truncated_svd(m, TruncationSpec(chi_max=3, cutoff=(0.5**2 + 0.1**2) / 1.51))
    assert len(res.d) == 3
    # but a hard chi_max=2 cap wins over the keep-both rule
    res = truncated_svd(m, TruncationSpec(chi_max=2))
    assert len(res.d) == 2


def test_eig_hermitian_reconstructs():
    m = random_matrix(5, 5)
    m = m + m.conj().T
    res = eig_hermitian(m)
    u, w = res.u, np.asarray(res.omega)
    np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, m, atol=1e-12)
    assert np.all(np.diff(w) >= -1e-14)  # ascending
    with pytest.raises(NotHermitian):
        eig_hermitian(random_matrix(4, 4))
    with pytest.raises(NotSquare):
        eig_hermitian(random_matrix(4, 3))


def test_mera_update_maximizes_the_trace():
    """W = V U-dagger reaches sum(d_i); no sampled unitary does better."""
    gamma = random_matrix(5, 5)
    w = mera_update(gamma)
    np.testing.assert_allclose(w @ w.conj().T, np.eye(5), atol=1e-12)
    best = np.real(np.trace(w @ gamma))
    assert np.isclose(best, np.linalg.svd(gamma, compute_uv=False).sum(), atol=1e-10)
    for _ in range(200):
        q, r = np.linalg.qr(random_matrix(5, 5))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        assert np.real(np.trace(q @ gamma)) <= best + 1e-10
