"""Exact diagonalization: dense reference path and the iterative solver."""

import numpy as np
import pytest

from conftest import SX as REF_SX
from conftest import SY as REF_SY
from conftest import dense_hamiltonian, kron_site
from tnkit import (
    ID2,
    MPO,
    SX,
    SY,
    build_exp_decay,
    build_heisenberg,
    build_ising_nn,
    build_ising_nnn,
    mpo_matvec,
    mpo_to_dense,
    solve_dense,
    solve_iterative,
)
from tnkit.errors import NoConvergence, ShapeMismatch, TooLarge

rng = np.random.default_rng(808)


def test_ising_ground_state_is_doubly_degenerate():
    r = solve_dense(build_ising_nn(4, j=1.0), n_states=2)
    # both fully aligned configurations sit at -(n-1) J / 4
    np.testing.assert_allclose(r.energies, [-0.75, -0.75], atol=1e-12)
    assert r.n_matvecs == 0  # dense route never applies the operator iteratively


def test_two_site_heisenberg_exact_spectrum():
    # singlet at -3J/4, triplet at +J/4 for the antiferromagnet (j = -1 here)
    r = solve_dense(build_heisenberg(2, j=-1.0), n_states=4)
    np.testing.assert_allclose(r.energies, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_dense_matches_brute_force_eigh():
    for model, kw in (
        ("ising_nnn", dict(j1=1.0, j2=0.5)),
        ("heisenberg", dict(j=-1.0)),
        ("exp_decay", dict(j=1.0, xi=2.0)),
    ):
        n = 5
        builders = {
            "ising_nnn": build_ising_nnn,
            "heisenberg": build_heisenberg,
            "exp_decay": build_exp_decay,
        }
        r = solve_dense(builders[model](n, **kw), n_states=3)
        ref = np.linalg.eigvalsh(dense_hamiltonian(model, n, **kw))[:3]
        np.testing.assert_allclose(r.energies, ref, atol=1e-10)


def test_vectors_are_orthonormal_eigenvectors():
    op = build_heisenberg(4, j=-1.0)
    h = dense_hamiltonian("heisenberg", 4, j=-1.0)
    r = solve_dense(op, n_states=3)
    v = r.vectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)
    for k in range(3):
        np.testing.assert_allclose(h @ v[:, k], r.energies[k] * v[:, k], atol=1e-10)


def test_mpo_matvec_agrees_with_dense_matrix():
    n = 6
    h = dense_hamiltonian("heisenberg", n, j=-1.0)
    op = build_heisenberg(n, j=-1.0)
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    np.testing.assert_allclose(mpo_matvec(op, psi), h @ psi, atol=1e-10)


def test_mpo_matvec_rejects_a_wrong_length_vector():
    # a shape error (CLI exit 2 path), not a resource limit (exit 4)
    with pytest.raises(ShapeMismatch):
        mpo_matvec(build_heisenberg(4, j=-1.0), np.ones(2**4 + 1))


def xx_dm_mpo(n, j, dm):
    """H = sum_i J Sx_i Sx_{i+1} + D (Sx_i Sy_{i+1} - Sy_i Sx_{i+1}): complex Hermitian."""
    w = np.zeros((4, 2, 2, 4), dtype=complex)
    w[0, :, :, 0] = w[3, :, :, 3] = ID2
    w[1, :, :, 0] = SX  # pending partners land on the right-hand site
    w[2, :, :, 0] = SY
    w[3, :, :, 1] = j * SX - dm * SY
    w[3, :, :, 2] = dm * SX
    return MPO((w,) * n, left_bvec=np.eye(4)[3], right_bvec=np.eye(4)[0], phys_dim=2)


def xx_dm_dense(n, j, dm):
    def pair(a, b, i):
        return kron_site(a, i, n) @ kron_site(b, i + 1, n)

    return sum(
        j * pair(REF_SX, REF_SX, i) + dm * (pair(REF_SX, REF_SY, i) - pair(REF_SY, REF_SX, i))
        for i in range(n - 1)
    )


def test_iterative_matches_dense_across_models():
    xx_dm = xx_dm_mpo(6, j=1.0, dm=0.7)
    h_xx_dm = xx_dm_dense(6, j=1.0, dm=0.7)
    assert np.abs(h_xx_dm.imag).max() > 0.1  # complex in the computational basis
    np.testing.assert_allclose(mpo_to_dense(xx_dm), h_xx_dm, atol=1e-14)
    cases = [
        (build_ising_nn(6, j=1.0), 2),
        (build_ising_nnn(6, j1=1.0, j2=0.5), 2),
        (build_heisenberg(6, j=-1.0), 2),
        (build_exp_decay(6, xi=1.5, j=1.0), 2),
        (xx_dm, 2),
    ]
    for op, k in cases:
        ref = solve_dense(op, n_states=k)
        got = solve_iterative(op, n_states=k)
        np.testing.assert_allclose(got.energies, ref.energies, atol=1e-8)
        assert got.n_matvecs > 0
    assert np.iscomplexobj(solve_iterative(xx_dm, n_states=2).vectors)  # the complex path ran


def test_iterative_resolves_degenerate_triplet():
    # AFM chain with an even number of sites: first excited states form a
    # degenerate pair that single-vector Lanczos routinely misses
    op = build_heisenberg(8, j=-1.0)
    got = solve_iterative(op, n_states=3)
    np.testing.assert_allclose(
        got.energies,
        [-3.374932598687891, -2.9822404877628843, -2.982240487762884],
        atol=1e-8,
    )


@pytest.mark.parametrize(
    "op, n_states, seed",
    [(build_ising_nnn(7, j1=1.0, j2=0.5), k, 5) for k in (3, 4)]
    + [(build_heisenberg(6, j=1.0), 3, seed) for seed in range(6)],
)
def test_iterative_stays_variational_on_degenerate_spectra(op, n_states, seed):
    # degenerate multiplets make block residuals nearly dependent; a basis
    # that loses orthogonality there yields energies far below the spectrum
    ref = solve_dense(op, n_states=n_states).energies
    got = solve_iterative(op, n_states=n_states, seed=seed)
    np.testing.assert_allclose(got.energies, ref, atol=1e-9, rtol=0)
    assert np.all(got.energies >= ref - 1e-10)
    v = got.vectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n_states), atol=1e-10)


def test_iterative_vectors_satisfy_eigenvalue_equation():
    op = build_ising_nnn(7, j1=0.8, j2=0.3)
    got = solve_iterative(op, n_states=2)
    h = dense_hamiltonian("ising_nnn", 7, j1=0.8, j2=0.3)
    for k in range(2):
        v = got.vectors[:, k]
        np.testing.assert_allclose(h @ v, got.energies[k] * v, atol=1e-7)


def test_iterative_is_deterministic_for_fixed_seed():
    op = build_heisenberg(6, j=-1.0)
    a = solve_iterative(op, n_states=2, seed=123)
    b = solve_iterative(op, n_states=2, seed=123)
    np.testing.assert_array_equal(a.energies, b.energies)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert a.n_matvecs == b.n_matvecs


def test_iterative_raises_when_starved_of_iterations():
    with pytest.raises(NoConvergence):
        solve_iterative(build_heisenberg(10, j=-1.0), n_states=2, max_iter=2)


def test_size_caps():
    with pytest.raises(TooLarge):
        solve_dense(build_ising_nn(20, j=1.0))
    with pytest.raises(TooLarge):
        solve_iterative(build_ising_nn(40, j=1.0))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
