"""MPO builders checked element-by-element against dense Hamiltonians."""

import numpy as np
import pytest

from conftest import SZ, dense_hamiltonian, kron_site
from tnkit import (
    MPO,
    build_exp_decay,
    build_heisenberg,
    build_ising_nn,
    build_ising_nnn,
    mpo_expectation,
    mpo_to_dense,
    mps_from_state_vector,
    product_mps,
    two_site_matrix,
)
from tnkit.errors import TooLarge, ValidationError
from tnkit.mpo import build_model

rng = np.random.default_rng(404)


def test_ising_nn_matches_dense_for_many_sizes():
    for n in range(2, 8):
        got = mpo_to_dense(build_ising_nn(n, j=1.3))
        np.testing.assert_allclose(got, dense_hamiltonian("ising_nn", n, j=1.3), atol=1e-12)


def test_ising_nnn_matches_dense():
    for n in (3, 5, 6):
        got = mpo_to_dense(build_ising_nnn(n, j1=0.9, j2=-0.4))
        np.testing.assert_allclose(got, dense_hamiltonian("ising_nnn", n, j1=0.9, j2=-0.4), atol=1e-12)


def test_nnn_with_zero_j2_reduces_to_nn():
    a = mpo_to_dense(build_ising_nnn(6, j1=0.7, j2=0.0))
    b = mpo_to_dense(build_ising_nn(6, j=0.7))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_heisenberg_matches_dense():
    for n in (2, 4, 7):
        got = mpo_to_dense(build_heisenberg(n, j=-1.0))
        np.testing.assert_allclose(got, dense_hamiltonian("heisenberg", n, j=-1.0), atol=1e-12)


def test_exp_decay_matches_dense():
    got = mpo_to_dense(build_exp_decay(7, xi=2.0, j=1.1))
    np.testing.assert_allclose(got, dense_hamiltonian("exp_decay", 7, xi=2.0, j=1.1), atol=1e-12)


def test_exp_decay_coupling_strength_read_off_directly():
    # project out one coupling coefficient: <ZiZj, H> / <ZiZj, ZiZj>
    n, xi, j = 8, 1.5, 0.8
    h = mpo_to_dense(build_exp_decay(n, xi=xi, j=j))
    for i, k in ((0, 1), (2, 5), (0, 7)):
        string = kron_site(SZ, i, n) @ kron_site(SZ, k, n)
        coeff = np.trace(string @ h).real / np.trace(string @ string).real
        assert np.isclose(coeff, -j * np.exp(-abs(i - k) / xi), atol=1e-12)


def test_ising_end_sites_are_the_last_row_and_first_column():
    m = build_ising_nn(4, 1.0)
    w = m.sites[1]
    assert m.sites[0].shape == (1, 2, 2, 3) and m.sites[-1].shape == (3, 2, 2, 1)
    np.testing.assert_array_equal(m.sites[0], w[2:])
    np.testing.assert_array_equal(m.sites[-1], w[..., :1])
    assert all(np.shares_memory(t, w) for t in m.sites)  # views of the one bulk tensor


def test_two_site_matrix_places_left_op_on_fast_index():
    # basis order |s1 s0>: index = s0 + 2*s1, so the LEFT operator acts on
    # the faster (rightmost-in-kron) slot
    got = two_site_matrix(SZ, 2.0 * SZ)
    np.testing.assert_allclose(got, np.kron(2.0 * SZ, SZ))
    assert np.allclose(np.diag(got), [0.5, -0.5, -0.5, 0.5])


def test_expectation_all_up_ising():
    # every ZZ bond contributes -J/4 in |up...up>
    up = np.array([1.0, 0.0])
    m = product_mps([up] * 4)
    val = mpo_expectation(m, build_ising_nn(4, j=1.0))
    assert np.isclose(val, -3.0 / 4.0, atol=1e-12)


def test_expectation_matches_dense_quadratic_form():
    n = 6
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    m = mps_from_state_vector(psi, 2)
    for op, h in (
        (build_heisenberg(n, j=-1.0), dense_hamiltonian("heisenberg", n, j=-1.0)),
        (build_ising_nnn(n, j1=1.0, j2=0.5), dense_hamiltonian("ising_nnn", n, j1=1.0, j2=0.5)),
    ):
        assert np.isclose(mpo_expectation(m, op), np.vdot(psi, h @ psi), atol=1e-10)


def test_expectation_is_a_raw_quadratic_form():
    # no normalization is applied: scaling the state scales the value by |c|^2
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    m = mps_from_state_vector(psi, 2)
    doubled = mps_from_state_vector(psi, 2)
    scaled = type(doubled)(sites=(doubled.sites[0] * 2.0, doubled.sites[1]))
    op = build_ising_nn(2, j=1.0)
    assert np.isclose(mpo_expectation(scaled, op), 4.0 * mpo_expectation(m, op), atol=1e-12)


def test_two_site_ising_is_diagonal():
    h = mpo_to_dense(build_ising_nn(2, j=1.0))
    np.testing.assert_allclose(h, np.diag([-0.25, 0.25, 0.25, -0.25]), atol=1e-14)


def test_dense_cap_counts_basis_states_not_sites():
    # eight 3-state sites span 3^8 = 6561 > 4096 states, though 8 sites are within a 2^12 cap
    site = np.eye(3).reshape(1, 3, 3, 1)
    with pytest.raises(TooLarge):
        mpo_to_dense(MPO((site,) * 8))
    small = mpo_to_dense(MPO((site,) * 7))
    np.testing.assert_array_equal(small, np.eye(3**7))


def test_bad_arguments():
    with pytest.raises(ValidationError, match="xi must be a finite number > 0, got 0.0"):
        build_exp_decay(6, xi=0.0)
    with pytest.raises(ValidationError, match="xi must be a finite number > 0, got -2.0"):
        build_exp_decay(6, xi=-2.0)
    with pytest.raises(ValidationError, match="xi must be a finite number > 0, got True"):
        build_exp_decay(6, xi=True)
    with pytest.raises(ValidationError, match="xi must be a finite number > 0, got '2'"):
        build_exp_decay(6, xi="2")
    with pytest.raises(ValidationError, match="n must be an integer >= 2, got 1"):
        build_ising_nn(1)
    with pytest.raises(ValidationError, match="n must be an integer >= 2, got 0"):
        build_heisenberg(0)
    with pytest.raises(ValidationError, match="n must be an integer >= 2, got 2.5"):
        build_ising_nn(2.5)
    with pytest.raises(ValidationError, match="j must be a finite number, got True"):
        build_heisenberg(4, j=True)
    with pytest.raises(ValidationError, match="j2 must be a finite number, got 'x'"):
        build_ising_nnn(4, j2="x")
    with pytest.raises(ValidationError, match="j must be a finite number, got nan"):
        build_ising_nn(4, j=np.nan)



def _mpo(*shapes):
    return MPO(tuple(np.zeros(sh) for sh in shapes))


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: _mpo((1, 2, 2, 1)), "an MPO needs at least two sites", id="one-site"),
        pytest.param(lambda: _mpo((1, 2, 2, 3), (3, 2, 2)), "site 1 has rank 3, expected 4", id="site-rank"),
        pytest.param(lambda: _mpo((1, 2, 2, 3), (3, 2, 3, 1)), "site 1 physical extent 3 != 2", id="phys-extent"),
        pytest.param(lambda: _mpo((1, 2, 2, 4), (3, 2, 2, 1)), "link between sites 0 and 1: 4 != 3", id="link-extent"),
        pytest.param(lambda: _mpo((3, 2, 2, 3), (3, 2, 2, 1)), "boundary links must have extent 1", id="left-end"),
        pytest.param(lambda: _mpo((1, 2, 2, 3), (3, 2, 2, 3)), "boundary links must have extent 1", id="right-end"),
        pytest.param(
            lambda: MPO((np.full((1, 2, 2, 1), np.inf), np.zeros((1, 2, 2, 1)))),
            "site 0 must hold finite numbers only",
            id="site-inf",
        ),
        pytest.param(
            lambda: MPO((np.zeros((1, 2, 2, 1)), np.full((1, 2, 2, 1), np.nan))),
            "site 1 must hold finite numbers only",
            id="site-nan",
        ),
        pytest.param(
            lambda: build_model("potts", 4), r"unknown model 'potts'; expected one of \('ising_nn'", id="unknown-model"
        ),
        pytest.param(
            lambda: mpo_expectation(product_mps([[1.0, 0.0]] * 5), build_ising_nn(4)),
            "state and operator live on different site spaces",
            id="expectation-sites",
        ),
    ],
)
def test_mpo_guards(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
