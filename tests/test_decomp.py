"""SVD/eig, truncation rules, entropy, and the polar-style trace optimizer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import failing_svd
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
from tnkit import decomp, trg
from tnkit.decomp import block_svd, partial_svd
from tnkit.errors import NumericalFailure, ValidationError

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
    with pytest.raises(ValidationError, match="entropy of an all-zero spectrum is undefined"):
        entanglement_entropy([0.0, 0.0])
    with pytest.raises(ValidationError, match="singular values must be non-negative"):
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


def test_select_rank_on_a_partial_spectrum_matches_the_full_one():
    # the leading chi_max + 1 values plus the total weight fix the rank
    smooth = np.exp(-0.35 * np.arange(60)) * np.linspace(1.0, 0.6, 60)
    paired = smooth.copy()
    paired[[4, 8, 12, 16]] = paired[[3, 7, 11, 15]]  # exactly degenerate pairs across the cuts
    for d in (smooth, paired):
        total = float(np.sum(d**2))
        for chi in range(1, 24):
            for cutoff in (0.0, 1e-12, 1e-8, 1e-5, 1e-3, 3e-2):
                spec = TruncationSpec(chi_max=chi, cutoff=cutoff)
                assert select_rank(d[: chi + 1], spec, total) == select_rank(d, spec)


def test_whole_spectra_are_cut_without_a_total():
    # a cutoff of 1e-24 drops only rounding-level values, here the last two;
    # a total that carries the rounding of a Frobenius norm (a few ulps) would
    # count as unseen tail weight far above that budget and keep them all
    exact = TruncationSpec(cutoff=1e-24)
    d = np.array([1.0, 0.5, 1e-13, 1e-17])
    assert select_rank(d, exact) == 2
    assert select_rank(d, exact, float(np.sum(d**2)) * (1.0 + 4e-16)) == 4


def test_partial_svd_finds_the_leading_triplets():
    q1, _ = np.linalg.qr(random_matrix(120, 120))
    q2, _ = np.linalg.qr(random_matrix(90, 90))
    d_true = np.exp(-0.3 * np.arange(90))
    m = (q1[:, :90] * d_true) @ q2.conj().T
    res = partial_svd(m, 9)
    np.testing.assert_allclose(res.d, d_true[:9], rtol=1e-12)
    np.testing.assert_allclose(res.u.conj().T @ res.u, np.eye(9), atol=1e-12)
    np.testing.assert_allclose(res.v_dag @ res.v_dag.conj().T, np.eye(9), atol=1e-12)
    np.testing.assert_allclose(res.u.conj().T @ m, res.d[:, None] * res.v_dag, atol=1e-12)
    again = partial_svd(m, 9)  # the sketch's generator is seeded inside
    assert np.array_equal(res.u, again.u) and np.array_equal(res.d, again.d)


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



@pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)])
def test_svd_retries_once_on_the_qr_preconditioned_matrix(monkeypatch, shape):
    m = random_matrix(*shape)
    want = svd(m)
    monkeypatch.setattr(np.linalg, "svd", failing_svd(1))
    got = svd(m)
    np.testing.assert_allclose(got.d, want.d, rtol=0.0, atol=1e-12)
    # the factors agree up to the phase of each singular pair, which LAPACK picks
    phase = np.sum(want.u.conj() * got.u, axis=0)
    np.testing.assert_allclose(np.abs(phase), 1.0, atol=1e-12)
    np.testing.assert_allclose(got.u, want.u * phase, atol=1e-12)
    np.testing.assert_allclose(got.v_dag, phase.conj()[:, None] * want.v_dag, atol=1e-12)
    assert got.u.flags.c_contiguous and got.v_dag.flags.c_contiguous
    assert not got.u.flags.writeable and not got.v_dag.flags.writeable


def test_svd_that_never_converges_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", failing_svd())
    with pytest.raises(NumericalFailure, match="did not converge"):
        svd(random_matrix(4, 6))


def sectored_matrix(row_q, col_q, spectra, dtype=float, seed=5):
    """Matrix that vanishes between different charges; sector q has the singular values ``spectra[q]``."""
    r = np.random.default_rng(seed)
    mat = np.zeros((row_q.size, col_q.size), dtype)
    for q, s in spectra.items():
        rows, cols = np.flatnonzero(row_q == q), np.flatnonzero(col_q == q)
        a, b = (r.standard_normal((n, len(s))) for n in (rows.size, cols.size))
        if dtype is complex:
            a, b = a + 1j * r.standard_normal(a.shape), b + 1j * r.standard_normal(b.shape)
        mat[np.ix_(rows, cols)] = (np.linalg.qr(a)[0] * s) @ np.linalg.qr(b)[0].conj().T
    return mat


def sector_reference(mat, row_q, col_q, spec):
    """Full LAPACK SVD of every sector: kept values (by charge, then descending), their charges, the discarded weight."""
    values = [(q, np.linalg.svd(mat[np.ix_(row_q == q, col_q == q)], compute_uv=False)) for q in np.intersect1d(row_q, col_q)]
    d = np.concatenate([s for _, s in values])
    link = np.concatenate([np.full(s.size, q) for q, s in values])
    order = np.argsort(-d, kind="stable")
    k = select_rank(d[order], spec)
    keep = np.sort(order[:k])
    return d[keep], link[keep], float(np.sum(d[order[k:]] ** 2))


def assert_matches_the_reference(mat, row_q, col_q, spec, sketches, monkeypatch):
    calls = []

    def counted_partial_svd(m, rank):
        calls.append(m.shape)
        return partial_svd(m, rank)

    monkeypatch.setattr(decomp, "partial_svd", counted_partial_svd)
    u, d, v, link_q, weight = block_svd(mat, row_q, col_q, spec, partial=True)
    assert calls == sketches
    want_d, want_q, want_weight = sector_reference(mat, row_q, col_q, spec)
    np.testing.assert_allclose(d, want_d, rtol=0.0, atol=1e-12 * want_d.max())
    np.testing.assert_array_equal(link_q, want_q)
    np.testing.assert_allclose(weight, want_weight, rtol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(mat - (u * d) @ v) ** 2, weight, rtol=1e-9)
    assert u.flags.c_contiguous and v.flags.c_contiguous
    assert np.all(u[row_q[:, None] != link_q[None, :]] == 0.0)
    assert np.all(v[link_q[:, None] != col_q[None, :]] == 0.0)


def test_block_svd_adds_the_sketch_residual_to_the_merged_dropped_values(monkeypatch):
    # parity 0 is 64 wide, past the sketch threshold 2 (8 + 17) = 50; parity 1 is 20 wide
    parity = np.random.default_rng(2).permutation(np.repeat([0, 1], [64, 20]))
    spectra = {0: np.exp(-0.5 * np.arange(64)), 1: 0.8 * np.exp(-0.6 * np.arange(20))}
    mat = sectored_matrix(parity, parity, spectra)
    spec = TruncationSpec(chi_max=8, cutoff=1e-12)
    assert_matches_the_reference(mat, parity, parity, spec, [(64, 64)], monkeypatch)


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_svd_sketches_only_the_wide_sector_of_a_rectangular_matrix(monkeypatch, dtype):
    # sectors -1: 3x5, 0: 60x70 (sketched at chi_max 10), 1: 4x4, 2: 2x1; rows of charge 3
    # and columns of charge 5 have no partners
    r = np.random.default_rng(4)
    row_q = r.permutation(np.repeat([-1, 0, 1, 2, 3], [3, 60, 4, 2, 2]))
    col_q = r.permutation(np.repeat([-1, 0, 1, 2, 5], [5, 70, 4, 1, 1]))
    spectra = {-1: [0.9, 0.3, 0.1], 0: 0.95 * np.exp(-0.4 * np.arange(60)), 1: [0.7, 0.5, 0.2, 0.05], 2: [0.6]}
    mat = sectored_matrix(row_q, col_q, spectra, dtype)
    for spec in (TruncationSpec(chi_max=10, cutoff=1e-12), TruncationSpec(chi_max=10, cutoff=1e-3)):
        assert_matches_the_reference(mat, row_q, col_q, spec, [(60, 70)], monkeypatch)
    # the 49 values of 1e-3 the sketch never sees decide this cut: without them it would keep 9
    mat = sectored_matrix(row_q, col_q, {**spectra, 0: np.r_[1.0, np.full(59, 1e-3)]}, dtype)
    assert_matches_the_reference(mat, row_q, col_q, TruncationSpec(chi_max=10, cutoff=1e-5), [(60, 70)], monkeypatch)


def test_block_svd_redoes_a_failed_stacked_call_one_sector_at_a_time(monkeypatch):
    # a split matrix of the fourth TRG step at chi_max 8: two 32x32 parity blocks, under the sketch threshold
    spec = TruncationSpec(chi_max=8, cutoff=1e-12)
    state = trg.initial_state(0.44)
    for _ in range(3):
        state = trg.trg_step(state, spec)
    cu, cl, cd, cr = state.tensor.shape
    mat = state.tensor.reshape(cu * cl, cd * cr)
    pair = (state.parity_ud[:, None] ^ state.parity_lr[None, :]).ravel()
    want = block_svd(mat, pair, pair, spec, partial=True)
    fake = failing_svd(1)
    monkeypatch.setattr(np.linalg, "svd", fake)
    got = block_svd(mat, pair, pair, spec, partial=True)
    assert fake.calls[0] == (2, 32, 32)  # the stacked call that failed, then one call per sector
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    monkeypatch.setattr(np.linalg, "svd", failing_svd())
    with pytest.raises(NumericalFailure):
        block_svd(mat, pair, pair, spec, partial=True)


@pytest.mark.parametrize("partial", [False, True])
def test_block_svd_reads_a_rank_4_array_as_its_fused_matrix(partial):
    # the split matrices of the sixth TRG step at chi_max 32: two 512x512 parity blocks, sketched if partial
    spec = TruncationSpec(chi_max=32, cutoff=1e-12)
    state = trg.initial_state(0.44)
    for _ in range(5):
        state = trg.trg_step(state, spec)
    t = state.tensor
    assert t.shape == (32,) * 4
    pair = (state.parity_ud[:, None] ^ state.parity_lr[None, :]).ravel()
    for view in (t, t.transpose(2, 1, 0, 3)):  # the B and the A split
        want = block_svd(view.reshape(1024, 1024), pair, pair, spec, partial=partial)
        got = block_svd(view, pair, pair, spec, partial=partial)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def rank_4_views(m4):
    """Arrays equal to ``m4`` laid out in memory in different ways, keyed by kind."""
    wide = np.zeros((m4.shape[0], 2 * m4.shape[1], m4.shape[2], 3 * m4.shape[3]), m4.dtype)
    wide[:, ::2, :, ::3] = m4
    flipped = m4[::-1, :, :, ::-1].copy()
    return {
        "c-contiguous": m4.copy(),
        "transposed": np.ascontiguousarray(m4.transpose(2, 1, 0, 3)).transpose(2, 1, 0, 3),
        "negative-stride": flipped[::-1, :, :, ::-1],
        "strided-slice": wide[:, ::2, :, ::3],
        "fortran": np.asfortranarray(m4),
    }


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("kind", ["c-contiguous", "transposed", "negative-stride", "strided-slice", "fortran"])
def test_block_svd_reads_every_rank_4_view_as_its_matrix_copy(kind, partial):
    # rows fuse (6, 14) and columns (12, 7); charge 0 is 60 x 70 (sketched at chi_max 10 if partial)
    r = np.random.default_rng(11)
    row_q = r.permutation(np.repeat([-1, 0, 1, 2], [12, 60, 8, 4]))
    col_q = r.permutation(np.repeat([-1, 0, 1, 3], [5, 70, 8, 1]))
    spectra = {-1: [0.9, 0.3, 0.1], 0: 0.95 * np.exp(-0.4 * np.arange(60)), 1: 0.5 ** np.arange(8)}
    mat = sectored_matrix(row_q, col_q, spectra)
    view = rank_4_views(mat.reshape(6, 14, 12, 7))[kind]
    assert np.array_equal(view.reshape(84, 84), mat)
    spec = TruncationSpec(chi_max=10, cutoff=1e-12)
    want = block_svd(np.ascontiguousarray(mat), row_q, col_q, spec, partial=partial)
    got = block_svd(view, row_q, col_q, spec, partial=partial)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_the_cached_sketch_is_a_read_only_seeded_draw():
    sketch = decomp._sketch(84, 27)
    assert not sketch.flags.writeable
    assert np.array_equal(sketch, np.random.default_rng(0).standard_normal((84, 27)))
    assert decomp._sketch(84, 27) is sketch
    with pytest.raises(ValueError):
        sketch[0, 0] = 1.0


def test_layouts_never_import_numpy_ma():
    # np.intersect1d imports numpy.ma on its first call, 12-17 ms of every run
    code = (
        "import sys\n"
        "from tnkit import TruncationSpec, tebd, trg\n"
        "gate = tebd.bond_gate('heisenberg', -1.0, 0.1, 'imaginary')\n"
        "tebd.sweep(tebd.initial_product_state('heisenberg', 6), gate, TruncationSpec(chi_max=4))\n"
        "trg.trg_step(trg.initial_state(0.44), TruncationSpec(chi_max=4))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(decomp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("op", [svd, lambda m: partial_svd(m, 1), mera_update], ids=["svd", "partial_svd", "mera_update"])
@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["rank1", "rank3"])
def test_matrix_routines_refuse_other_ranks(op, shape):
    with pytest.raises(ValidationError, match=f"rank-2 tensor, got rank {len(shape)}"):
        op(np.ones(shape))


def test_eig_hermitian_reconstructs():
    m = random_matrix(5, 5)
    m = m + m.conj().T
    res = eig_hermitian(m)
    u, w = res.u, np.asarray(res.omega)
    np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, m, atol=1e-12)
    assert np.all(np.diff(w) >= -1e-14)  # ascending
    with pytest.raises(ValidationError, match="matrix deviates from M == M† beyond 1e-10"):
        eig_hermitian(random_matrix(4, 4))
    with pytest.raises(ValidationError, match=r"matrix is \(4, 3\), not square"):
        eig_hermitian(random_matrix(4, 3))


def test_eigh_that_never_converges_is_a_numerical_failure(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalFailure, match="eigh did not converge: Eigenvalues did not converge"):
        eig_hermitian(np.eye(3))


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


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: TruncationSpec(chi_max=0), "chi_max must be an integer >= 1, got 0", id="chi-max-zero"),
        pytest.param(lambda: TruncationSpec(cutoff=-0.1), "cutoff must be a finite number >= 0 and < 1, got -0.1", id="cutoff-negative"),
        pytest.param(lambda: TruncationSpec(cutoff=1.0), "cutoff must be a finite number >= 0 and < 1, got 1.0", id="cutoff-one"),
        pytest.param(lambda: TruncationSpec(cutoff=float("nan")), "cutoff must be a finite number >= 0 and < 1, got nan", id="cutoff-nan"),
        pytest.param(lambda: TruncationSpec(cutoff=False), "cutoff must be a finite number >= 0 and < 1, got False", id="cutoff-bool"),
        pytest.param(lambda: TruncationSpec(cutoff="0.1"), "cutoff must be a finite number >= 0 and < 1, got '0.1'", id="cutoff-text"),
        pytest.param(lambda: mera_update(np.ones((2, 3))), r"environment is \(2, 3\), not square", id="mera-non-square"),
        pytest.param(lambda: TruncationSpec(chi_max=2.5), "chi_max must be an integer >= 1, got 2.5", id="chi-max-float"),
        pytest.param(lambda: TruncationSpec(chi_max=True), "chi_max must be an integer >= 1, got True", id="chi-max-bool"),
        pytest.param(lambda: entanglement_entropy([np.nan, 1.0]), "singular values must be finite", id="entropy-nan"),
        pytest.param(lambda: entanglement_entropy([np.nan, np.nan]), "singular values must be finite", id="entropy-all-nan"),
        pytest.param(lambda: entanglement_entropy([np.inf, 1.0]), "singular values must be finite", id="entropy-inf"),
        pytest.param(lambda: partial_svd(np.eye(40), -3), "rank must be an integer >= 1, got -3", id="partial-rank-negative"),
        pytest.param(lambda: partial_svd(np.eye(40), True), "rank must be an integer >= 1, got True", id="partial-rank-bool"),
        pytest.param(lambda: partial_svd(np.eye(40), 2.5), "rank must be an integer >= 1, got 2.5", id="partial-rank-float"),
        pytest.param(lambda: eig_hermitian([[np.nan, 0], [0, 1]]), "eig_hermitian needs finite numbers only", id="eig-nan"),
        pytest.param(lambda: eig_hermitian([[np.inf, 0], [0, 1]]), "eig_hermitian needs finite numbers only", id="eig-inf"),
        pytest.param(lambda: truncated_svd([[np.nan, 0], [0, 1]], UNTRUNCATED), "truncated_svd needs finite numbers only", id="truncated-nan"),
        pytest.param(
            lambda: truncated_svd([[np.inf, 0], [0, 1]], TruncationSpec(chi_max=1)), "truncated_svd needs finite numbers only", id="truncated-inf"
        ),
    ],
)
def test_decomp_guards(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


def test_an_all_zero_spectrum_keeps_the_cap_whatever_the_cutoff():
    assert select_rank(np.zeros(5), TruncationSpec(cutoff=0.1)) == 5
    assert select_rank(np.zeros(5), TruncationSpec(chi_max=3, cutoff=0.1)) == 3
