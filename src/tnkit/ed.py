"""Exact diagonalization of MPO Hamiltonians.

Two routes with very different cost profiles:

* :func:`solve_dense` materializes the full matrix and calls the dense
  Hermitian eigensolver — exact reference values, capped at 4096 basis
  states.
* :func:`solve_iterative` runs a Lanczos iteration with full
  reorthogonalization. The operator is never densified: each matvec threads
  the MPO link through the state tensor one site at a time, so the cost per
  multiply is O(N * 2^N * D^2 * d) instead of O(4^N). Capped at 2^20 basis
  states.

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
from .tensors import DenseTensor

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
        w = op.sites[k].to_ndarray()  # (a, out, in, b)
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
    res = eig_hermitian(DenseTensor._wrap(mpo_to_dense(op)))
    return EDResult(
        energies=res.omega[:n_states].copy(),
        vectors=res.u.to_ndarray()[:, :n_states].copy(),
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
    than one copy per starting vector). Deterministic for a fixed ``seed``.
    Rank loss inside a block — an exhausted invariant subspace — is repaired
    by injecting fresh random directions orthogonal to everything built so
    far. Random directions are real (generic for complex Hermitian H too).
    Raises NoConvergence if the residuals have not dropped below ``tol``
    after ``max_iter`` matvecs.
    """
    dim = op.phys_dim**op.n_sites
    if dim > _ITER_DIM_CAP:
        raise TooLarge(f"iterative route needs dim <= {_ITER_DIM_CAP}, got {dim}")
    if n_states > dim:
        raise TooLarge(f"asked for {n_states} states in a {dim}-dim space")
    rng = np.random.default_rng(seed)
    p = n_states

    def orthogonalize(w: np.ndarray, against: np.ndarray) -> np.ndarray:
        for _ in range(2):
            w = w - against @ (against.conj().T @ w)
        return w

    def fresh_columns(against: np.ndarray, count: int) -> np.ndarray:
        if count <= 0:
            return np.zeros((dim, 0))
        cols = []
        for _ in range(count):
            for _attempt in range(50):
                v = rng.standard_normal(dim)
                v = orthogonalize(v[:, None], against).ravel()
                for c in cols:
                    v -= np.vdot(c, v) * c
                nrm = np.linalg.norm(v)
                if nrm > 1e-8:
                    cols.append(v / nrm)
                    break
            else:
                raise NoConvergence("could not generate a fresh Krylov direction")
        return np.stack(cols, axis=1)

    basis = fresh_columns(np.zeros((dim, 0)), p)
    sizes = [p]  # block widths; the last may shrink near dim
    a_blocks: list[np.ndarray] = []
    b_blocks: list[np.ndarray] = []  # b_blocks[j] couples block j and j+1
    n_matvecs = 0

    while True:
        pj = sizes[-1]
        x = basis[:, -pj:]
        w = np.stack([mpo_matvec(op, x[:, i]) for i in range(pj)], axis=1)
        n_matvecs += pj
        a_blocks.append(x.conj().T @ w)
        w = orthogonalize(w, basis)

        # projected block-tridiagonal matrix and its Ritz pairs
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total = offsets[-1]
        tri = np.zeros((total, total), dtype=np.result_type(*a_blocks, *b_blocks))
        for jj, ab in enumerate(a_blocks):
            tri[offsets[jj] : offsets[jj + 1], offsets[jj] : offsets[jj + 1]] = ab
        for jj, bb in enumerate(b_blocks):
            tri[offsets[jj + 1] : offsets[jj + 2], offsets[jj] : offsets[jj + 1]] = bb
            tri[offsets[jj] : offsets[jj + 1], offsets[jj + 1] : offsets[jj + 2]] = (
                bb.conj().T
            )
        theta, s = np.linalg.eigh(tri)
        scale = max(1.0, float(np.abs(theta).max()))

        # next-block candidate: orthonormal span of the new residual block,
        # with dead directions (an exhausted invariant subspace) replaced by
        # fresh random ones so degenerate copies can still surface
        p_next = min(p, dim - total)
        q, r = np.linalg.qr(w)
        live = np.abs(np.diag(r)) > 1e-13 * scale
        if not np.all(live) and p_next > 0:
            kept = q[:, live]
            refill = fresh_columns(
                np.concatenate([basis, kept], axis=1),
                max(0, min(p_next, pj) - int(live.sum())),
            )
            q = np.concatenate([kept, refill], axis=1)
        q = q[:, :p_next] if p_next < q.shape[1] else q
        b = q.conj().T @ w  # exact coupling: col(w) lies in span(q) (+ basis)

        if total >= n_states:
            # true residual norms: |H v - theta v| = |w s_bottom| = |b s_bottom|
            resid = np.linalg.norm(b @ s[-pj:, :n_states], axis=0)
            if np.all(resid <= tol * np.maximum(1.0, np.abs(theta[:n_states]))):
                break
        if p_next == 0:
            break  # basis spans the whole space; the projection is exact
        if n_matvecs >= max_iter:
            raise NoConvergence(
                f"block Lanczos did not reach tol={tol} within {max_iter} matvecs"
            )
        b_blocks.append(b)
        basis = np.concatenate([basis, q], axis=1)
        sizes.append(q.shape[1])

    k = min(n_states, theta.shape[0])
    vectors = basis[:, : theta.shape[0]] @ s[:, :k]
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    return EDResult(energies=theta[:k].copy(), vectors=vectors, n_matvecs=n_matvecs)
