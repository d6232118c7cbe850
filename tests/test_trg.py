"""Plaquette coarse-graining against enumeration and the analytic solution."""

import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import dblquad

from tnkit import UNTRUNCATED, TruncationSpec, select_rank, truncated_svd
from tnkit import decomp, trg
from tnkit.errors import NumericalFailure, TooLarge, ValidationError
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
        res = truncated_svd(mat, spec)
        root = np.sqrt(res.d)
        return res.u * root, root[:, None] * res.v_dag

    t = ising_plaquette_tensor(beta, j)
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


def full_split(mat, parity, spec):
    """Reference for trg._split: full LAPACK SVD of both parity blocks.

    Returns the kept values, the parity of each kept link and the discarded
    weight, all in merged descending order.
    """
    values, parities = [], []
    for p in (0, 1):
        idx = np.flatnonzero(parity == p)
        values.append(np.linalg.svd(mat[np.ix_(idx, idx)], compute_uv=False))
        parities.append(np.full(idx.size, p))
    d, par = np.concatenate(values), np.concatenate(parities)
    order = np.argsort(-d, kind="stable")
    k = select_rank(d[order], spec)
    return d[order[:k]], par[order[:k]], float(np.sum(d[order[k:]] ** 2))


def block_matrix(spectra, seed=3):
    """Parity-block-diagonal matrix, parities interleaved, with the given block spectra."""
    r = np.random.default_rng(seed)
    parity = np.arange(sum(len(s) for s in spectra)) % 2
    mat = np.zeros((parity.size, parity.size))
    for p, s in enumerate(spectra):
        idx = np.flatnonzero(parity == p)
        q1, q2 = (np.linalg.qr(r.standard_normal((idx.size, idx.size)))[0] for _ in range(2))
        mat[np.ix_(idx, idx)] = (q1 * s) @ q2.T
    return mat, parity


def dense_coarse_tensor(state, spec):
    """Reference for trg_step's coarse tensor: the same splits, one dense contraction."""
    arr = state.tensor
    cu, cl, cd, cr = arr.shape
    pair = (state.parity_ud[:, None] ^ state.parity_lr[None, :]).ravel()
    s1, s2, _, _ = trg._split(arr.transpose(2, 1, 0, 3).reshape(cd * cl, cu * cr), pair, spec)
    s3, s4, _, _ = trg._split(arr.reshape(cu * cl, cd * cr), pair, spec)
    k1, k2 = s1.shape[1], s3.shape[1]
    p1 = np.tensordot(s2.reshape(k1, cu, cr), s4.reshape(k2, cd, cr), axes=([1], [1]))
    p2 = np.tensordot(s1.reshape(cd, cl, k1), s3.reshape(cu, cl, k2), axes=([0], [0]))
    new = np.tensordot(p1, p2, axes=([1, 3], [2, 0])).transpose(2, 1, 0, 3)
    return new / np.abs(new).max()


def onsager_lnz_per_site(beta, j=1.0):
    """Thermodynamic-limit ln(Z)/N for the square lattice (quadrature)."""
    k = beta * j

    def integrand(t1, t2):
        return np.log(np.cosh(2 * k) ** 2 - np.sinh(2 * k) * (np.cos(t1) + np.cos(t2)))

    val, _ = dblquad(integrand, 0.0, np.pi, 0.0, np.pi, epsabs=1e-12)
    return np.log(2.0) + val / (2.0 * np.pi**2)


def test_plaquette_entries():
    beta, j = 0.4, 1.0
    t = ising_plaquette_tensor(beta, j)
    # T[u,l,d,r] = exp(bJ (su+sd)(sl+sr)) with index 0 <-> spin +1
    for idx in np.ndindex(2, 2, 2, 2):
        su, sl, sd, sr = (1 - 2 * i for i in idx)
        assert np.isclose(t[idx], np.exp(beta * j * (su + sd) * (sl + sr)), atol=1e-14)


def test_plaquette_cyclic_symmetry():
    t = ising_plaquette_tensor(0.7, 1.3)
    np.testing.assert_allclose(t, np.transpose(t, (1, 2, 3, 0)), atol=1e-14)
    np.testing.assert_allclose(t, np.transpose(t, (2, 3, 0, 1)), atol=1e-14)


def test_bad_beta_rejected():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match=f"beta must be a finite number > 0, got {bad}"):
            initial_state(bad)
        with pytest.raises(ValidationError, match=f"beta must be a finite number > 0, got {bad}"):
            brute_force_lnz(bad, 1.0, 2, 2)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: free_energy_per_site(0.44, steps=-3), "steps must be an integer >= 0, got -3", id="steps-negative"),
        pytest.param(lambda: free_energy_per_site(0.44, steps=2.0), "steps must be an integer >= 0, got 2.0", id="steps-float"),
        pytest.param(lambda: brute_force_lnz(0.44, 1.0, -1, 2), "lx must be an integer >= 1, got -1", id="torus-negative"),
        pytest.param(lambda: brute_force_lnz(0.44, 1.0, 2, 0), "ly must be an integer >= 1, got 0", id="torus-zero"),
        pytest.param(lambda: brute_force_lnz(0.44, np.inf, 2, 2), "j must be a finite number, got inf", id="torus-coupling"),
        pytest.param(lambda: brute_force_lnz(0.44, 1.0, 2.0, 2), "lx must be an integer >= 1, got 2.0", id="torus-float"),
        pytest.param(lambda: brute_force_lnz(0.44, 1.0, 2, True), "ly must be an integer >= 1, got True", id="torus-bool"),
        pytest.param(lambda: brute_force_lnz(True, 1.0, 2, 2), "beta must be a finite number > 0, got True", id="torus-beta-bool"),
        pytest.param(lambda: free_energy_per_site(True, steps=1), "beta must be a finite number > 0, got True", id="beta-bool"),
        pytest.param(lambda: free_energy_per_site("0.44", steps=1), "beta must be a finite number > 0, got '0.44'", id="beta-text"),
    ],
)
def test_trg_guards(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


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
        t = state.tensor
        p_ud, p_lr = state.parity_ud, state.parity_lr
        assert t.shape == (p_ud.size, p_lr.size, p_ud.size, p_lr.size)
        odd = p_ud[:, None, None, None] ^ p_lr[None, :, None, None] ^ p_ud[None, None, :, None] ^ p_lr[None, None, None, :]
        assert np.all(t[odd == 1] == 0.0)
        assert np.any(t[odd == 0] != 0.0)
        state = trg_step(state, TruncationSpec(chi_max=8, cutoff=1e-12))


def test_blocked_contraction_matches_the_dense_one():
    spec = TruncationSpec(chi_max=32, cutoff=1e-12)
    state = initial_state(0.44, -0.7)
    for _ in range(6):
        ref = dense_coarse_tensor(state, spec)
        state = trg_step(state, spec)
        t, p_ud, p_lr = state.tensor, state.parity_ud, state.parity_lr
        np.testing.assert_allclose(t, ref, rtol=0.0, atol=1e-12)
        odd = p_ud[:, None, None, None] ^ p_lr[None, :, None, None] ^ p_ud[None, None, :, None] ^ p_lr[None, None, None, :]
        assert np.all(t[odd == 1] == 0.0)
    assert t.shape == (32, 32, 32, 32)


def split_matrix_at_chi_32():
    # at beta = 0.2 the discarded weight is ~3e-12 of ‖M‖²: subtracting the
    # kept weight from the total would leave it only to ~1e-4 relative
    state = initial_state(0.2, 1.0)
    for _ in range(4):
        state = trg_step(state, TruncationSpec(chi_max=32, cutoff=1e-12))
    cu, cl, cd, cr = state.tensor.shape
    pair = (state.parity_ud[:, None] ^ state.parity_lr[None, :]).ravel()
    return state.tensor.reshape(cu * cl, cd * cr), pair


decay = np.exp(-0.5 * np.arange(64))
pair_at_the_cap = np.concatenate([decay[:8], decay[7:63]])  # d[7] == d[8]: chi 8 cuts the pair
rank_deficient = (np.r_[1.0, 0.5, 0.25, np.zeros(61)], np.r_[0.7, 0.1, np.zeros(62)])


@pytest.mark.parametrize("case", ["trg", "decaying", "degenerate", "rank_deficient"])
def test_partial_split_matches_the_full_split(case, monkeypatch):
    spec = TruncationSpec(chi_max=32 if case == "trg" else 8, cutoff=1e-12)
    if case == "trg":
        mat, parity = split_matrix_at_chi_32()
    else:
        spectra = {
            "decaying": (decay, 0.8 * np.exp(-0.6 * np.arange(64))),
            "degenerate": (pair_at_the_cap, 1e-3 * decay),
            "rank_deficient": rank_deficient,
        }[case]
        mat, parity = block_matrix(spectra)
    calls, real_partial_svd = [], decomp.partial_svd

    def counted_partial_svd(m, rank):
        calls.append(rank)
        return real_partial_svd(m, rank)

    monkeypatch.setattr(decomp, "partial_svd", counted_partial_svd)
    left, right, link_parity, weight = trg._split(mat, parity, spec)
    assert calls == [spec.chi_max + 1] * 2  # both blocks took the partial path
    d, par, ref_weight = full_split(mat, parity, spec)
    # an SVD fixes each value only to ~eps of the largest (LAPACK's own values
    # of M and of M^T differ by 7e-12 relative at d = 1e-6 d[0] here)
    np.testing.assert_allclose(np.sum(left**2, axis=0), d, rtol=0.0, atol=1e-12 * d[0])
    np.testing.assert_allclose(np.sum(right**2, axis=1), d, rtol=0.0, atol=1e-12 * d[0])
    np.testing.assert_array_equal(link_parity, par)
    if case == "rank_deficient":
        assert len(d) == 5 and max(weight, ref_weight) < 1e-28
    else:
        np.testing.assert_allclose(weight, ref_weight, rtol=1e-10)
    # the sketch's generator is fixed, so a second run is bit-identical
    again = trg._split(mat, parity, spec)
    for a, b in zip((left, right, link_parity, weight), again):
        np.testing.assert_array_equal(a, b)


def test_a_sketched_scan_keeps_its_trajectory():
    # Pinned from the per-parity-block split that decomp.block_svd replaced
    # (numpy 2.4, OpenBLAS, x86-64). Steps 4-6 sketch both blocks, and step 6
    # cuts the most. Its weight is a sketch residual, whose dot product over
    # 512^2 terms OpenBLAS splits across its threads: it reads ...5012e-06 on
    # one thread and ...5015e-06 on two, on either split.
    rep = free_energy_per_site(0.44, 1.0, steps=6, spec=TruncationSpec(chi_max=32, cutoff=1e-12))
    assert rep.lnz_per_site == 0.9336821779146981
    assert rep.chi_history == ((4, 4), (4, 4), (16, 16), (16, 16), (32, 32), (32, 32))
    assert max(max(pair) for pair in rep.discarded_weights) == pytest.approx(7.659610712225012e-06, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "beta, lnz, weight",
    [(0.2, 0.734530812274664, 1.7046416309863926e-11), (0.44, 0.929956195601104, 0.0004063276366630986), (0.8, 1.6031647917639211, 3.83791284637745e-10)],
)
def test_the_benchmark_scan_keeps_its_trajectory(beta, lnz, weight):
    # perfbench's trg_scan config, pinned on numpy 2.4, OpenBLAS, x86-64. ln Z is the same at one
    # and two BLAS threads; the largest weight at beta 0.2 moves by 1.3e-14 relative between them.
    rep = free_energy_per_site(beta, 1.0, steps=8, spec=TruncationSpec(chi_max=32, cutoff=1e-12))
    assert rep.lnz_per_site == lnz
    assert rep.chi_history == ((4, 4), (4, 4), (16, 16), (16, 16)) + ((32, 32),) * 4
    assert max(max(pair) for pair in rep.discarded_weights) == pytest.approx(weight, rel=5e-14, abs=0.0)


def test_a_step_holds_one_chi4_tensor_at_a_time():
    # each split reads the old tensor in place, and it is dropped before the contraction, whose
    # largest arrays are p2 and the parity blocks gathered from p1 and p2: 2.17 chi^4 doubles. A
    # transposed copy for the A split and the old tensor kept through the contraction read 3.46.
    spec = TruncationSpec(chi_max=32, cutoff=1e-12)
    free_energy_per_site(0.44, 1.0, steps=2, spec=spec)  # the layouts of the small steps
    tracemalloc.start()
    try:
        rep = free_energy_per_site(0.44, 1.0, steps=7, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.chi_history[-1] == (32, 32)
    assert peak < 2.75 * 32**4 * 8


def test_the_driver_and_a_loop_of_public_steps_agree_exactly():
    spec = TruncationSpec(chi_max=16, cutoff=1e-12)
    for beta in (0.2, 0.44, 0.8):
        state, weights = initial_state(beta), []
        for _ in range(6):
            state = trg_step(state, spec)
            weights.append(state.discarded_weight)
        rep = free_energy_per_site(beta, 1.0, steps=6, spec=spec)
        assert rep.lnz_per_site == close_torus(state)
        assert rep.discarded_weights == tuple(weights)


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


def test_oversized_step_is_refused_before_it_allocates(monkeypatch):
    # with no bond cap the third step would build a 65536 x 65536 array (32 GiB)
    with pytest.raises(TooLarge):
        free_energy_per_site(0.44, 1.0, steps=3, spec=TruncationSpec(cutoff=0.0))
    # the cap bounds the largest array of a step: (k1 k2)^2 = 16^4 elements at step 2
    monkeypatch.setattr(trg, "_STEP_ELEMENT_CAP", 16**4)
    assert free_energy_per_site(0.44, 1.0, steps=2, spec=UNTRUNCATED).chi_history[-1] == (16, 16)
    monkeypatch.setattr(trg, "_STEP_ELEMENT_CAP", 16**4 - 1)
    with pytest.raises(TooLarge):
        free_energy_per_site(0.44, 1.0, steps=2, spec=UNTRUNCATED)


def test_a_vanished_or_negative_network_is_a_numerical_failure():
    start = initial_state(0.44)
    with pytest.raises(NumericalFailure, match="coarse tensor vanished"):
        trg_step(replace(start, tensor=np.zeros_like(start.tensor)), UNTRUNCATED)
    with pytest.raises(NumericalFailure, match="non-positive torus trace -1.99"):
        close_torus(replace(start, tensor=-start.tensor))


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



@pytest.mark.parametrize("j", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_coupling_is_rejected(j):
    with pytest.raises(ValidationError, match=f"j must be a finite number, got {j}"):
        initial_state(0.4, j)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
