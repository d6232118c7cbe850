"""Exact diagonalization: dense reference path and the iterative solver."""

import numpy as np
import pytest

import tnkit.ed
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
from tnkit.errors import NoConvergence, TooLarge, ValidationError
from tnkit.mpo import MODELS, build_model

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
    with pytest.raises(ValidationError, match=r"shape \(17,\) does not end in 2\^4"):
        mpo_matvec(build_heisenberg(4, j=-1.0), np.ones(2**4 + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(2**6,), (3, 2**6)], ids=["vector", "block"])
def test_mpo_matvec_refuses_non_finite_numbers(bad, shape):
    psi = np.ones(shape)
    psi.flat[5] = bad
    with pytest.raises(ValidationError, match="psi must hold finite numbers only"):
        mpo_matvec(build_heisenberg(6, j=-1.0), psi)


def xx_dm_mpo(n, j, dm):
    """H = sum_i J Sx_i Sx_{i+1} + D (Sx_i Sy_{i+1} - Sy_i Sx_{i+1}): complex Hermitian."""
    w = np.zeros((4, 2, 2, 4), dtype=complex)
    w[0, :, :, 0] = w[3, :, :, 3] = ID2
    w[1, :, :, 0] = SX  # pending partners land on the right-hand site
    w[2, :, :, 0] = SY
    w[3, :, :, 1] = j * SX - dm * SY
    w[3, :, :, 2] = dm * SX
    return MPO((w[3:],) + (w,) * (n - 2) + (w[..., :1],))


def xx_dm_dense(n, j, dm):
    def pair(a, b, i):
        return kron_site(a, i, n) @ kron_site(b, i + 1, n)

    return sum(
        j * pair(REF_SX, REF_SX, i) + dm * (pair(REF_SX, REF_SY, i) - pair(REF_SY, REF_SX, i))
        for i in range(n - 1)
    )


@pytest.mark.parametrize("name", [*MODELS, "xx_dm"])
def test_mpo_matvec_applies_a_vector_or_a_block_of_rows(name):
    if name == "xx_dm":
        op = xx_dm_mpo(6, j=1.0, dm=0.7)
    else:
        params = {k: 1.5 if v is None else v for k, v in MODELS[name][1].items()}
        op = build_model(name, 6, **params)
    h = mpo_to_dense(op)
    block = rng.standard_normal((3, 2**6)) + 1j * rng.standard_normal((3, 2**6))
    one = mpo_matvec(op, block[0])
    assert one.shape == (2**6,)
    np.testing.assert_allclose(one, h @ block[0], atol=1e-10)
    rows = mpo_matvec(op, block)
    assert rows.shape == block.shape
    np.testing.assert_allclose(rows, block @ h.T, atol=1e-10)
    np.testing.assert_allclose(rows, [mpo_matvec(op, v) for v in block], atol=1e-13, rtol=0)
    with pytest.raises(ValidationError, match=r"shape \(3, 63\) does not end in 2\^6"):
        mpo_matvec(op, block[:, 1:])
    assert mpo_matvec(op, block.real).dtype == (np.complex128 if np.iscomplexobj(h) else np.float64)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("name", [*MODELS, "xx_dm"])
def test_mpo_matvec_matches_the_dense_matrix_whatever_the_fold(name, n):
    # n <= 4 folds the whole chain, n = 5 folds all but a single last site;
    # after the 4-site fold, n = 6 applies one pair, 7 a pair and a single
    # site, 8 two pairs, 9 two pairs and a single site, 10 three pairs
    if name == "xx_dm":
        op = xx_dm_mpo(n, j=1.0, dm=0.7)
    else:
        params = {k: 1.5 if v is None else v for k, v in MODELS[name][1].items()}
        op = build_model(name, n, **params)
    h = mpo_to_dense(op)
    real = rng.standard_normal((3, 2**n))
    for block in (real, real + 1j * rng.standard_normal((3, 2**n))):
        np.testing.assert_allclose(mpo_matvec(op, block[0]), h @ block[0], atol=1e-10)
        np.testing.assert_allclose(mpo_matvec(op, block[:1]), block[:1] @ h.T, atol=1e-10)
        rows = mpo_matvec(op, block)
        np.testing.assert_allclose(rows, block @ h.T, atol=1e-10)
        np.testing.assert_allclose(rows, [mpo_matvec(op, v) for v in block], atol=1e-13, rtol=0)


def test_iterative_applies_the_operator_as_mpo_matvec_does(monkeypatch):
    # a solve builds the factors once, and each block gets mpo_matvec's bits
    factors, apply = tnkit.ed._factors, tnkit.ed._apply
    for op in (build_heisenberg(9, j=-1.0), xx_dm_mpo(8, j=1.0, dm=0.7)):
        built, blocks = [], []

        def counted_factors(op):
            built.append(op)
            return factors(op)

        def recorded_apply(f, psi):
            blocks.append((psi.copy(), apply(f, psi)))
            return blocks[-1][1].copy()

        with monkeypatch.context() as patch:
            patch.setattr(tnkit.ed, "_factors", counted_factors)
            patch.setattr(tnkit.ed, "_apply", recorded_apply)
            res = solve_iterative(op, n_states=3, seed=2)
        assert len(built) == 1 and len(blocks) > 2
        assert sum(len(psi) for psi, _ in blocks) == res.n_matvecs
        for psi, got in blocks:
            assert np.array_equal(got, mpo_matvec(op, psi))


def test_complex_iterative_matches_dense_with_orthonormal_vectors():
    op = xx_dm_mpo(8, j=1.0, dm=0.7)
    ref = solve_dense(op, n_states=2)
    got = solve_iterative(op, n_states=2)
    assert np.iscomplexobj(got.vectors)
    np.testing.assert_allclose(got.energies, ref.energies, atol=1e-8)
    v = got.vectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


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


SWEEP_MODELS = {
    "ising_nn": lambda n: build_ising_nn(n, j=1.0),
    "ising_nnn": lambda n: build_ising_nnn(n, j1=1.0, j2=0.5),
    "heisenberg_fm": lambda n: build_heisenberg(n, j=1.0),
    "heisenberg_afm": lambda n: build_heisenberg(n, j=-1.0),
    "exp_decay": lambda n: build_exp_decay(n, xi=2.0, j=1.0),
    "xx_dm": lambda n: xx_dm_mpo(n, j=1.0, dm=0.7),
}


@pytest.mark.parametrize("name", list(SWEEP_MODELS))
def test_iterative_agrees_with_dense_over_sizes_blocks_and_seeds(name):
    # differential sweep: a projection that drops a coupling the recurrence
    # reaches, or a reorthogonalization that misses older blocks, shows as
    # energies off the dense spectrum or vectors that are not orthonormal
    failures, worst = [], 0.0
    for n in range(3, 9):
        op = SWEEP_MODELS[name](n)
        dense = solve_dense(op, n_states=5).energies
        for n_states in (1, 2, 3, 5):
            ref = dense[:n_states]
            for seed in range(4):
                got = solve_iterative(op, n_states=n_states, seed=seed)
                err = float(np.max(np.abs(got.energies - ref)))
                gram = got.vectors.conj().T @ got.vectors
                ortho = float(np.max(np.abs(gram - np.eye(n_states))))
                worst = max(worst, err)
                if err > 1e-9 or np.any(got.energies < ref - 1e-10) or ortho > 1e-10:
                    failures.append((n, n_states, seed, err, ortho))
    assert not failures, f"{len(failures)} of 96 runs fail, max|dE|={worst:.2e}: {failures[:5]}"


def test_iterative_vectors_are_orthonormal_to_rounding():
    # every block takes the full pass, so the Ritz vectors are orthonormal to
    # rounding as built; a basis kept orthogonal only to about sqrt(eps) gave
    # vectors 2.4e-11 from orthonormal on this run
    got = solve_iterative(build_ising_nnn(10, j1=1.0, j2=0.5), n_states=4, seed=1)
    gram = got.vectors.conj().T @ got.vectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-13


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


def test_a_basis_that_cannot_grow_is_no_convergence(monkeypatch):
    # every QR pivot zero: each row of w is dropped and redrawn, and extend gives up after 50 tries
    real_qr, calls = np.linalg.qr, []

    def zero_pivots(a):
        calls.append(a.shape)
        f, r = real_qr(a)
        return f, np.zeros_like(r)

    monkeypatch.setattr(np.linalg, "qr", zero_pivots)
    with pytest.raises(NoConvergence, match="could not extend the Krylov basis"):
        solve_iterative(build_heisenberg(4, j=-1.0), n_states=2)
    assert len(calls) == 50


def test_both_routes_refuse_more_states_than_the_space_holds():
    op = build_heisenberg(2, j=-1.0)
    for solve in (solve_dense, solve_iterative):
        with pytest.raises(TooLarge):
            solve(op, n_states=5)
    assert solve_dense(op, n_states=4).energies.shape == (4,)


def test_size_caps():
    with pytest.raises(TooLarge):
        solve_dense(build_ising_nn(20, j=1.0))
    with pytest.raises(TooLarge):
        solve_iterative(build_ising_nn(40, j=1.0))



def test_iterative_stops_once_the_basis_spans_the_space():
    # tol = 1e-300 is never met, so only the exhausted space ends the loop, after dim matvecs
    op = build_heisenberg(3, j=-1.0)
    res = solve_iterative(op, n_states=2, tol=1e-300, max_iter=400, seed=3)
    assert res.n_matvecs == 8
    np.testing.assert_allclose(res.energies, solve_dense(op, n_states=2).energies, atol=1e-12)


@pytest.mark.parametrize("solve", [solve_dense, solve_iterative], ids=["dense", "iterative"])
@pytest.mark.parametrize("n_states", [-1, 0, True, 1.5], ids=["negative", "zero", "bool", "float"])
def test_ed_guards(solve, n_states):
    with pytest.raises(ValidationError, match=f"n_states must be an integer >= 1, got {n_states!r}"):
        solve(build_model("ising_nn", 4), n_states=n_states)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        pytest.param(dict(tol=np.nan), "tol must be a finite number > 0, got nan", id="tol-nan"),
        pytest.param(dict(tol=np.inf), "tol must be a finite number > 0, got inf", id="tol-inf"),
        pytest.param(dict(tol=-1.0), "tol must be a finite number > 0, got -1.0", id="tol-negative"),
        pytest.param(dict(tol=0.0), "tol must be a finite number > 0, got 0.0", id="tol-zero"),
        pytest.param(dict(tol="1e-10"), "tol must be a finite number > 0, got '1e-10'", id="tol-text"),
        pytest.param(dict(tol=True), "tol must be a finite number > 0, got True", id="tol-bool"),
        pytest.param(dict(tol=10**400), f"tol must be a finite number > 0, got {10**400}", id="tol-huge-int"),
        pytest.param(dict(max_iter=2.5), "max_iter must be an integer >= 1, got 2.5", id="max-iter-float"),
        pytest.param(dict(max_iter=0), "max_iter must be an integer >= 1, got 0", id="max-iter-zero"),
        pytest.param(dict(max_iter=True), "max_iter must be an integer >= 1, got True", id="max-iter-bool"),
    ],
)
def test_iterative_guards(kwargs, match):
    with pytest.raises(ValidationError, match=match):
        solve_iterative(build_model("ising_nn", 4), n_states=2, **kwargs)


def record_extends(monkeypatch) -> list:
    """Patch the full pass to record (rows in the basis array, first row written, rows written) per call."""
    calls, real = [], tnkit.ed._extend

    def recorded(q, k, w, count, rng):
        calls.append((len(q), k, count))
        return real(q, k, w, count, rng)

    monkeypatch.setattr(tnkit.ed, "_extend", recorded)
    return calls


def restarts(calls) -> int:
    """How often the full pass wrote below the rows of the call before, but not a new solve's first block."""
    return sum(0 < b < a for (_, a, _), (_, b, _) in zip(calls, calls[1:]))


def test_benchmark_config_keeps_the_basis_within_its_budget(monkeypatch):
    # perfbench's ed_lanczos config: m = 32 rows (4 MiB of 2^14 float64 rows)
    # plus one block of 2. The basis restarts instead of growing past them,
    # and the energies do not move
    calls = record_extends(monkeypatch)
    got = solve_iterative(build_heisenberg(14, j=-1.0), n_states=2, tol=1e-10, seed=1)
    np.testing.assert_allclose(got.energies, [-6.026724661862168, -5.780492604462411], rtol=0, atol=1e-12)
    assert {rows for rows, _, _ in calls} == {34}
    assert max(k + count for _, k, count in calls) <= 34  # no row index reaches m + p
    assert restarts(calls) >= 1


@pytest.mark.parametrize("name, restarted", [("heisenberg_afm", True), ("ising_nn", False), ("xx_dm", True)])
def test_restarted_solves_match_dense(monkeypatch, name, restarted):
    # with no byte floor the budget is max(32, 16p) + p rows, so these solves
    # restart. ising_nn's Krylov spaces close after a few blocks (its levels
    # are domain-wall counts) and it converges inside the budget: it checks
    # the random refill of a closed block under the small budget
    monkeypatch.setattr(tnkit.ed, "_BASIS_FLOOR", 0)
    calls = record_extends(monkeypatch)
    for n in (6, 7, 8):
        op = SWEEP_MODELS[name](n)
        dense = solve_dense(op, n_states=3).energies
        for n_states in (1, 2, 3):
            for seed in range(2):
                got = solve_iterative(op, n_states=n_states, seed=seed)
                np.testing.assert_allclose(got.energies, dense[:n_states], atol=1e-9, rtol=0)
                v = got.vectors
                np.testing.assert_allclose(v.conj().T @ v, np.eye(n_states), atol=1e-10, rtol=0)
    assert (restarts(calls) > 0) == restarted


@pytest.mark.parametrize("seed", range(4))
def test_a_basis_near_exhaustion_still_takes_the_full_pass(monkeypatch, seed):
    # dim 32 and blocks of 5: the basis grows to the whole space, its last
    # block cut to 2 rows. Every block takes the full pass, so no ghost copy
    # enters the projection, and the exhausted basis gives the dense spectrum
    # with orthonormal vectors
    calls = record_extends(monkeypatch)
    op = build_heisenberg(5, j=-1.0)
    got = solve_iterative(op, n_states=5, seed=seed)
    assert max(k + count for _, k, count in calls) == 32 and calls[-1][2] == 2
    np.testing.assert_allclose(got.energies, solve_dense(op, n_states=5).energies, atol=1e-9, rtol=0)
    np.testing.assert_allclose(got.vectors.conj().T @ got.vectors, np.eye(5), atol=1e-10)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
