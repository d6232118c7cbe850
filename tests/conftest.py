"""Shared fixtures and independent dense oracles.

The spin operators and Kronecker embeddings here are deliberately written
from scratch (plain numpy) rather than imported from tnkit, so that tests
comparing MPO/MPS results against them are genuine cross-checks. The one
exception is ``dense_split``, the reference for the charge-sector split,
which is by definition tnkit's own ``truncated_svd`` of the whole matrix.
"""

import numpy as np
import pytest

from tnkit import truncated_svd

ID2 = np.eye(2)
SZ = np.diag([0.5, -0.5])
SX = np.array([[0.0, 0.5], [0.5, 0.0]])
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]])


def kron_site(op, site, n):
    """Embed a single-site operator; site 0 is the fastest (innermost) index."""
    full = np.eye(1)
    for k in range(n):
        full = np.kron(op if k == site else ID2, full)
    return full


def pair_coupling(op, i, j, n):
    return kron_site(op, i, n) @ kron_site(op, j, n)


def dense_hamiltonian(model, n, **kw):
    """Dense reference Hamiltonian, H = -J * sum(coupling products)."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    if model == "ising_nn":
        for i in range(n - 1):
            h -= kw.get("j", 1.0) * pair_coupling(SZ, i, i + 1, n)
    elif model == "ising_nnn":
        for i in range(n - 1):
            h -= kw.get("j1", 1.0) * pair_coupling(SZ, i, i + 1, n)
        for i in range(n - 2):
            h -= kw.get("j2", 0.5) * pair_coupling(SZ, i, i + 2, n)
    elif model == "exp_decay":
        xi = kw["xi"]
        for i in range(n):
            for j in range(i + 1, n):
                h -= kw.get("j", 1.0) * np.exp(-(j - i) / xi) * pair_coupling(SZ, i, j, n)
    elif model == "heisenberg":
        for i in range(n - 1):
            for op in (SX, SY, SZ):
                h -= kw.get("j", 1.0) * pair_coupling(op, i, i + 1, n)
    else:
        raise ValueError(model)
    return h


def dense_split(mat, row_q, col_q, spec, absorb):
    """Stand-in for tnkit.mps._split that ignores the labels: one truncated SVD of the whole matrix."""
    res = truncated_svd(mat, spec)
    left, right = (res.u, res.d[:, None] * res.v_dag) if absorb == "right" else (res.u * res.d[None, :], res.v_dag)
    return left, right, np.zeros(res.d.size, np.int64), res.d, res.discarded_weight


def failing_svd(failures=None):
    """Stand-in for ``numpy.linalg.svd`` that raises LinAlgError on its first ``failures`` calls (None: on all)."""
    real, calls = np.linalg.svd, []

    def svd(*args, **kwargs):
        calls.append(args[0].shape)
        if failures is None or len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(*args, **kwargs)

    svd.calls = calls
    return svd


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_state(rng):
    def make(n, d=2):
        psi = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        return psi / np.linalg.norm(psi)

    return make
