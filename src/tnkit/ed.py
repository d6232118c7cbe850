"""Exact diagonalization of MPO Hamiltonians.

Two routes with very different cost profiles:

* :func:`solve_dense` materializes the full matrix and calls the dense
  Hermitian eigensolver — exact reference values, at most 4096 basis states.
* :func:`solve_iterative` runs thick-restart block Lanczos as one
  Rayleigh–Ritz loop: each block of matvecs extends one basis, and the Ritz
  pairs come from the projection of H on it. A new block is projected onto
  the current and the previous block (H maps each block into the blocks up
  to the next one), then takes one full pass against the whole basis, so
  the basis stays orthonormal to rounding. The basis holds at most m + p
  rows, p = ``n_states`` and m = max(32, 16p, the rows 4 MiB hold); when it
  is full, the m/2 lowest Ritz vectors are kept and the residual block
  continues from them. The operator is never densified: :func:`mpo_matvec`
  applies it to the whole block in one pass: the leading sites are folded
  into one GEMM, then one matrix product per remaining pair of sites on a
  state that is never transposed or copied, so the cost per vector is
  O(N * 2^N * D^2 * d^2 / 2) instead of O(4^N). A solve fuses the sites
  once and reuses them for every block. Capped at 2^20 basis states. The
  basis is one array of ``min(2^N, m + p) x 2^N`` elements, reserved once,
  so ``max_iter`` bounds the work and not the memory; a reservation the
  machine cannot make raises MemoryError.

Both return energies in ascending order and the matching column
eigenvectors in the package's little-endian basis. Dtypes follow numpy
promotion: arithmetic is complex only if the MPO or the input vector is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import eig_hermitian
from .errors import NoConvergence, TooLarge, ValidationError
from .mpo import MPO, mpo_to_dense
from .tensors import _number

_ITER_DIM_CAP = 2**20
# Leading sites are fused until their physical extent reaches this: below it
# numpy's batched matmul loops over tiny per-entry products, past it each site
# runs near GEMM rate, and the fused operator's D·d^k multiply-adds per
# amplitude would outgrow those of the sites it replaces.
_FOLD_EXTENT = 16
# A Lanczos basis smaller than this many bytes is never restarted.
_BASIS_FLOOR = 4 * 2**20


@dataclass(frozen=True)
class EDResult:
    """energies : ascending; vectors : (dim, k) columns; n_matvecs : work done."""

    energies: np.ndarray
    vectors: np.ndarray
    n_matvecs: int


def mpo_matvec(op: MPO, psi: np.ndarray) -> np.ndarray:
    """Apply an MPO to a vector, or to each row of a ``(p, d^N)`` block.

    The result has the shape of ``psi``; ValidationError unless ``psi`` is
    1-D or 2-D with a last axis d^N long, and holds finite numbers only. The
    leading sites, up to a fused physical extent of 16 (the whole chain if
    it is shorter), are contracted into one site, which starts from the
    first site's extent-1 left link, and applied as one 2-D GEMM
    ``psi.reshape(-1, d^k) @ M``. Its result is already the loop's C-order
    layout ``(row · sites still to apply · i_j, a, sites applied)``: site 0
    is the fastest index, so the next site's input sits just above the MPO
    link ``a``. The remaining sites are fused two at a time (an odd last one
    stays single), and each pair is one broadcast ``np.matmul`` of its
    ``(b·d^2, d^2·a)`` matrix; the product reshapes into the next pair's
    layout, so past the first product the state is never transposed or
    copied, and the last site's right link has extent 1, so nothing is
    folded in at the end. The cost per vector is O(D d^(k+N)) for the lead
    and O(N D^2 d^(N+2) / 2) for the pairs: at d = 2 a pair makes the
    multiply-adds of the two sites it replaces, in one pass instead of two.
    """
    dim = op.phys_dim**op.n_sites
    psi = np.asarray(psi)
    if psi.ndim not in (1, 2) or psi.shape[-1] != dim:
        raise ValidationError(f"shape {psi.shape} does not end in {op.phys_dim}^{op.n_sites}")
    if psi.dtype.kind not in "biufc" or not np.isfinite(psi).all():
        raise ValidationError("psi must hold finite numbers only")
    return _apply(_factors(op), psi)


def _fuse(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sites ``w`` (a, o, i, b) then ``v`` (b, o', i', c) as one (a, o'·o, i'·i, c) site, ``v``'s indices the slower."""
    a, o, i, _ = w.shape
    _, o2, i2, c = v.shape
    return np.tensordot(w, v, axes=(3, 0)).transpose(0, 3, 1, 4, 2, 5).reshape(a, o2 * o, i2 * i, c)


def _factors(op: MPO) -> list[tuple[np.ndarray, int]]:
    """The matrices :func:`_apply` multiplies by, each with its right link extent ``b``.

    First the lead, sites fused up to a physical extent of ``_FOLD_EXTENT``,
    as an ``(i, b·o)`` matrix; then each later pair of sites, and an odd last
    one, as a ``(b·o, i·a)`` matrix.
    """
    sites = op.sites
    lead, k = sites[0], 1
    while k < len(sites) and lead.shape[2] < _FOLD_EXTENT:
        lead, k = _fuse(lead, sites[k]), k + 1
    _, o, i, b = lead.shape
    factors = [(lead[0].transpose(1, 2, 0).reshape(i, b * o), b)]
    for j in range(k, len(sites), 2):
        w = _fuse(*sites[j : j + 2]) if j + 1 < len(sites) else sites[j]
        a, o, i, b = w.shape
        factors.append((w.transpose(3, 1, 2, 0).reshape(b * o, i * a), b))
    return factors


def _apply(factors: list[tuple[np.ndarray, int]], psi: np.ndarray) -> np.ndarray:
    """:func:`mpo_matvec` of a checked ``psi``, from the operator's :func:`_factors`."""
    (lead, b), *later = factors
    y = (psi.reshape(-1, lead.shape[0]) @ lead).reshape(-1, b, lead.shape[1] // b)  # (rest, b, o)
    for m, b in later:
        y = np.matmul(m, y.reshape(-1, m.shape[1], y.shape[2]))  # (rest, b·o, applied)
        y = y.reshape(-1, b, m.shape[0] // b * y.shape[2])
    return y.reshape(psi.shape)


def _check_state_count(n_states, dim: int) -> None:
    """ValidationError unless ``n_states`` is an integer >= 1; TooLarge if it exceeds ``dim``."""
    if _number(n_states, "n_states", int, ge=1) > dim:
        raise TooLarge(f"asked for {n_states} states in a {dim}-dim space")


def solve_dense(op: MPO, n_states: int = 1) -> EDResult:
    """Full spectrum route: densify the MPO and diagonalize; TooLarge if n_states > dim."""
    dim = op.phys_dim**op.n_sites
    _check_state_count(n_states, dim)
    res = eig_hermitian(mpo_to_dense(op))
    return EDResult(
        energies=res.omega[:n_states].copy(),
        vectors=res.u[:, :n_states].copy(),
        n_matvecs=0,
    )


def _extend(q: np.ndarray, k: int, w: np.ndarray, count: int, rng) -> None:
    """Store ``count`` rows orthonormal to ``q[:k]`` in ``q[k : k + count]``: the full pass.

    The rows of ``w`` are projected out of the whole basis and orthonormalized
    by QR. A pivot below 1/sqrt(2) of its row's norm before the projection
    means cancellation, which amplifies the rounding left along the basis, so
    the normalized rows are projected again (Daniel, Gragg, Kaufman and
    Stewart, Math. Comp. 30, 772 (1976)). Rows with nothing left are dropped,
    and the shortfall is drawn at random from ``rng``.
    """
    end, dim = k + count, q.shape[1]
    for _attempt in range(50):
        if k == end:
            return
        if len(w) == 0:
            w = rng.standard_normal((end - k, dim))
        size = np.linalg.norm(w, axis=1)
        w = w - (q[:k] @ w.conj().T).conj().T @ q[:k]
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


def solve_iterative(
    op: MPO,
    n_states: int = 1,
    tol: float = 1e-10,
    max_iter: int = 400,
    seed: int = 7,
) -> EDResult:
    """Lowest eigenpairs by thick-restart block Lanczos.

    The block size equals ``n_states``, so degenerate levels are resolved up
    to that multiplicity (a single-vector iteration provably cannot see more
    than one copy per starting vector). Each block of matvecs extends one
    orthonormal basis, and the Ritz pairs come from the projection QᴴHQ
    (Rayleigh–Ritz). H times a block lies in the blocks up to the next one (a
    random refill only adds directions there), so the first pass projects a
    new block onto itself and the previous one only. Every block then takes
    the full pass of :func:`_extend` against the whole basis, which also
    repairs rank loss — an exhausted invariant subspace — with random
    directions, real ones (generic for complex Hermitian H too).

    The basis holds at most m + p rows, with p = ``n_states`` and m =
    max(32, 16p, the rows of 4 MiB), so a basis under 4 MiB never restarts.
    When the next block would not fit, the ``m // 2`` lowest Ritz vectors
    become the first rows, the projection becomes diag(θ) there, and the
    residual block continues from them; its first pass projects onto every
    kept row, which H couples it to (Wu and Simon, SIAM J. Matrix Anal. Appl.
    22, 602 (2000)). So ``max_iter`` bounds the work and not the memory; a
    restart drops Krylov directions, and a slowly converging, degenerate
    spectrum can take more matvecs than an unrestarted basis would.

    Each block costs one :func:`mpo_matvec` pass, on operator factors fused
    once per solve, and ``n_matvecs`` counts vectors. Deterministic for a
    fixed ``seed``. ValidationError unless ``tol`` is finite and > 0 and
    ``max_iter`` is an integer >= 1. Raises NoConvergence if the residuals
    have not dropped below ``tol`` after ``max_iter`` matvecs.
    """
    dim = op.phys_dim**op.n_sites
    if dim > _ITER_DIM_CAP:
        raise TooLarge(f"iterative route needs dim <= {_ITER_DIM_CAP}, got {dim}")
    _check_state_count(n_states, dim)
    _number(max_iter, "max_iter", int, ge=1)
    _number(tol, "tol", gt=0)
    rng = np.random.default_rng(seed)
    p = n_states
    dtype = np.result_type(np.float64, *op.sites)
    # the budget: m + p rows, m at least what _BASIS_FLOOR bytes hold, so a small basis never restarts
    m = max(32, 16 * p, _BASIS_FLOOR // (np.dtype(dtype).itemsize * dim))
    keep = m // 2
    # basis vectors are rows; the pages of rows never written are never mapped
    q = np.empty((min(dim, m + p), dim), dtype=dtype)
    proj = np.zeros((len(q), len(q)), dtype=dtype)

    _extend(q, 0, rng.standard_normal((p, dim)), p, rng)
    prev, start, k, n_matvecs = 0, 0, p, 0
    factors = _factors(op)
    while True:
        w = _apply(factors, q[start:k])
        n_matvecs += k - start
        # first pass, onto this block and the previous one (every kept row
        # after a restart): QᴴHQ vanishes elsewhere. The basis on the left
        # conjugates w instead of a copy of the basis.
        c = (q[prev:k] @ w.conj().T).conj().T
        w -= c @ q[prev:k]
        proj[start:k, prev:k] = c.conj()  # eigh reads the lower triangle
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
        if k + p_next > len(q):  # thick restart: the lowest Ritz vectors, on which H is diag(theta)
            for j in range(0, dim, 4096):  # in column slices, so no copy of the kept rows is made
                q[:keep, j : j + 4096] = s[:, :keep].T @ q[:k, j : j + 4096]
            proj[:k, :k] = 0
            proj[:keep, :keep] = np.diag(theta[:keep])
            start, k = 0, keep
        _extend(q, k, w, p_next, rng)
        prev, start, k = start, k, k + p_next

    return EDResult(energies=theta[:p].copy(), vectors=q[:k].T @ s[:, :p], n_matvecs=n_matvecs)
