"""Exact diagonalization of MPO Hamiltonians.

Two routes with very different cost profiles:

* :func:`solve_dense` materializes the full matrix and calls the dense
  Hermitian eigensolver — exact reference values, capped at 4096 basis
  states.
* :func:`solve_iterative` runs block Lanczos as one Rayleigh–Ritz loop:
  each block of matvecs extends one orthonormal basis, and the Ritz pairs
  come from the full projected matrix QᴴHQ. The operator is never
  densified: each matvec threads the MPO link through the state tensor one
  site at a time, so the cost per multiply is O(N * 2^N * D^2 * d) instead
  of O(4^N). Capped at 2^20 basis states. The basis is one array of
  ``(max_iter + n_states) x 2^N`` elements, reserved once; resident memory
  grows only with the rows used, and a reservation the machine cannot make
  raises MemoryError.

Both return energies in ascending order and the matching column
eigenvectors in the package's little-endian basis. Dtypes follow numpy
promotion: arithmetic is complex only if the MPO or the input vector is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import eig_hermitian
from .errors import NoConvergence, ShapeMismatch, TooLarge
from .mpo import MPO, mpo_to_dense

_DENSE_DIM_CAP = 4096
_ITER_DIM_CAP = 2**20


@dataclass(frozen=True)
class EDResult:
    """energies : ascending; vectors : (dim, k) columns; n_matvecs : work done."""

    energies: np.ndarray
    vectors: np.ndarray
    n_matvecs: int


def mpo_matvec(op: MPO, psi: np.ndarray) -> np.ndarray:
    """Apply an MPO to a dense vector without building the dense matrix.

    The state is viewed as a rank-N tensor (site 0 fastest); the MPO link
    index is threaded left to right, contracting one site tensor per step.
    """
    n = op.n_sites
    d = op.phys_dim
    dim = d**n
    psi = np.asarray(psi).reshape(-1)
    if psi.size != dim:
        raise ShapeMismatch(f"vector length {psi.size} != {d}^{n}")
    x = psi.reshape((d,) * n, order="F")
    # y axes: (link a, out_0..out_{k-1}, in_k..in_{n-1})
    y = op.left_bvec[(slice(None),) + (None,) * n] * x[None]
    for k in range(n):
        w = op.sites[k]  # (a, out, in, b)
        z = np.tensordot(y, w, axes=([0, 1 + k], [0, 2]))
        y = np.moveaxis(z, [-1, -2], [0, 1 + k])
    out = np.tensordot(op.right_bvec, y, axes=([0], [0]))
    return out.ravel(order="F")


def solve_dense(op: MPO, n_states: int = 1) -> EDResult:
    """Full spectrum route: densify the MPO and diagonalize."""
    dim = op.phys_dim**op.n_sites
    if dim > _DENSE_DIM_CAP:
        raise TooLarge(f"dense route needs dim <= {_DENSE_DIM_CAP}, got {dim}")
    n_states = min(n_states, dim)
    res = eig_hermitian(mpo_to_dense(op))
    return EDResult(
        energies=res.omega[:n_states].copy(),
        vectors=res.u[:, :n_states].copy(),
        n_matvecs=0,
    )


def solve_iterative(
    op: MPO,
    n_states: int = 1,
    tol: float = 1e-10,
    max_iter: int = 400,
    seed: int = 7,
) -> EDResult:
    """Lowest eigenpairs by block Lanczos with full reorthogonalization.

    The block size equals ``n_states``, so degenerate levels are resolved up
    to that multiplicity (a single-vector iteration provably cannot see more
    than one copy per starting vector). Each block of matvecs extends one
    orthonormal basis, and the Ritz pairs come from the full projected matrix
    QᴴHQ (Rayleigh–Ritz), so no eigenvalue estimate can fall below the
    spectrum. Rank loss inside a block — an exhausted invariant subspace — is
    repaired with random directions orthogonal to everything built so far.
    Random directions are real (generic for complex Hermitian H too).
    Deterministic for a fixed ``seed``. Raises NoConvergence if the residuals
    have not dropped below ``tol`` after ``max_iter`` matvecs.
    """
    dim = op.phys_dim**op.n_sites
    if dim > _ITER_DIM_CAP:
        raise TooLarge(f"iterative route needs dim <= {_ITER_DIM_CAP}, got {dim}")
    if n_states > dim:
        raise TooLarge(f"asked for {n_states} states in a {dim}-dim space")
    rng = np.random.default_rng(seed)
    p = n_states
    dtype = np.result_type(
        np.float64, op.left_bvec, op.right_bvec, *op.sites
    )
    # basis vectors are rows; the pages of rows never written are never mapped
    q = np.empty((min(dim, max_iter + p), dim), dtype=dtype)
    proj = np.zeros((q.shape[0], q.shape[0]), dtype=dtype)

    def extend(w: np.ndarray, k: int, count: int) -> None:
        """Store ``count`` rows orthonormal to ``q[:k]`` in ``q[k : k + count]``.

        The rows of ``w`` are projected out of the basis and orthonormalized
        by QR. A pivot below 1/sqrt(2) of its row's norm before the projection
        means cancellation, which amplifies the rounding left along the basis,
        so the normalized rows are projected again (Daniel, Gragg, Kaufman
        and Stewart, Math. Comp. 30, 772 (1976)). Rows with nothing left are
        dropped, and the shortfall is drawn at random.
        """
        end = k + count
        for _attempt in range(50):
            if k == end:
                return
            if len(w) == 0:
                w = rng.standard_normal((end - k, dim))
            size = np.linalg.norm(w, axis=1)
            w = w - (w @ q[:k].conj().T) @ q[:k]
            f, r = np.linalg.qr(w.T)
            pivot = np.abs(np.diagonal(r))
            live = pivot > 1e-13 * size
            if np.all(live) and np.all(pivot >= np.sqrt(0.5) * size):
                n_new = min(len(w), end - k)
                q[k : k + n_new] = f.T[:n_new]
                k += n_new
                w = w[:0]
            else:
                w = f.T[live]
        raise NoConvergence("could not extend the Krylov basis")

    extend(rng.standard_normal((p, dim)), 0, p)
    start, k, n_matvecs = 0, p, 0
    while True:
        w = np.stack([mpo_matvec(op, v) for v in q[start:k]])
        n_matvecs += k - start
        c = w @ q[:k].conj().T  # first reorthogonalization pass
        w -= c @ q[:k]
        proj[start:k, :k] = c.conj()  # rows of QᴴHQ; eigh reads the lower triangle
        theta, s = np.linalg.eigh(proj[:k, :k])

        # true residual norms: |H y - theta y| = |s_block^T w| for Ritz vectors y
        resid = np.linalg.norm(s[start:k, :p].T @ w, axis=1)
        if np.all(resid <= tol * np.maximum(1.0, np.abs(theta[:p]))):
            break
        p_next = min(k - start, dim - k)
        if p_next == 0:
            break  # basis spans the whole space; the projection is exact
        if n_matvecs >= max_iter:
            raise NoConvergence(
                f"block Lanczos did not reach tol={tol} within {max_iter} matvecs"
            )
        extend(w, k, p_next)
        start, k = k, k + p_next

    vectors = q[:k].T @ s[:, :p]
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return EDResult(energies=theta[:p].copy(), vectors=vectors, n_matvecs=n_matvecs)
