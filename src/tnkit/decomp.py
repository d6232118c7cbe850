"""Matrix decompositions, truncation, and entanglement measures.

SVD and Hermitian eigendecomposition are the workhorses behind every MPS/TRG
routine here. They take matrices as numpy arrays, return their factors as
read-only ndarrays, and are computed by LAPACK; the SVD is *never* obtained by
forming M·M† (that squares the condition number and loses half the digits of
the small singular values — the M·M† route survives only as a test oracle).
:func:`partial_svd` finds only the ``k`` largest values, by a randomized
range finder (Halko, Martinsson and Tropp, arXiv:0909.4061) at O(n^2 k) cost.

Truncation keeps the ``k`` largest singular values subject to a bond cap and a
relative discarded-weight cutoff. For a normalized matrix the truncation error
satisfies ``|M - M_k|_F^2 = 1 - delta`` where ``delta`` is the retained weight
``sum_{i<=k} lambda_i^2``.

:func:`block_svd` is the one block-sparse SVD, for MPS charges and TRG parities:
a matrix that vanishes between rows and columns of different charge is split one
sector at a time and cut on the merged spectrum (Singh, Pfeifer and Vidal, arXiv:1008.4774).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalFailure, ValidationError
from .tensors import _number

_ZERO_CLAMP = 1e-14  # relative to the largest singular value
_HERMITIAN_TOL = 1e-10
_DEGENERACY_TOL = 1e-12  # relative to the largest value; see TruncationSpec.cutoff
SKETCH_OVERSAMPLING = 16  # extra sketch columns beyond the wanted rank
_POWER_ITERATIONS = 2
_GATHER_ROWS = 32  # rows of a sector gathered per flat take


@dataclass(frozen=True)
class TruncationSpec:
    """How to cut a singular-value spectrum.

    chi_max : hard cap on the number of kept values, an int >= 1 (None = unlimited).
    cutoff : maximum *relative* discarded weight sum(dropped lambda^2) /
        sum(all lambda^2); 0 disables weight-based truncation entirely. A
        cut by weight moves past values within 1e-12 (relative to the
        largest) of the last kept one while ``chi_max`` leaves room.
    """

    chi_max: int | None = None
    cutoff: float = 0.0

    def __post_init__(self) -> None:
        if self.chi_max is not None:
            _number(self.chi_max, "chi_max", int, ge=1)
        _number(self.cutoff, "cutoff", ge=0, lt=1)


#: keep everything — the identity truncation
UNTRUNCATED = TruncationSpec()


@dataclass(frozen=True)
class SVDResult:
    """M = U diag(d) V† with d sorted in descending order.

    ``u`` is (a, k) with orthonormal columns, ``v_dag`` is (k, b) with
    orthonormal rows (both read-only), and ``discarded_weight`` is the
    absolute dropped weight sum of lambda^2 over the values not kept (0 for a
    full SVD).
    """

    u: np.ndarray
    d: np.ndarray
    v_dag: np.ndarray
    discarded_weight: float


@dataclass(frozen=True)
class EigResult:
    """M = U diag(omega) U† with omega real and ascending; ``u`` is read-only."""

    u: np.ndarray
    omega: np.ndarray


def _as_matrix(m, op: str, finite: bool = False) -> np.ndarray:
    """``m`` as an array; ValidationError naming ``op`` unless it is a matrix, and, with ``finite``, of finite numbers."""
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValidationError(f"{op} needs a rank-2 tensor, got rank {arr.ndim}")
    if finite and (arr.dtype.kind not in "biufc" or not np.isfinite(arr).all()):
        raise ValidationError(f"{op} needs finite numbers only")
    return arr


def svd(m) -> SVDResult:
    """Full thin SVD of a matrix; never forms M·M†.

    If LAPACK does not converge, it is retried once on R of M = QR (of M† if
    M is wide), as Drmač and Veselić precondition their Jacobi SVD, before
    NumericalFailure.
    """
    arr = _as_matrix(m, "svd")
    try:
        u, s, vdag = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError:
        wide = arr.shape[0] < arr.shape[1]
        q, r = np.linalg.qr(arr.conj().T if wide else arr)
        try:
            u, s, vdag = np.linalg.svd(r)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"svd did not converge, nor after a QR preconditioning: {exc}") from exc
        u, vdag = (vdag.conj().T.copy(), (q @ u).conj().T.copy()) if wide else (q @ u, vdag)  # M† = Q U D V†
    u.flags.writeable = vdag.flags.writeable = False
    return SVDResult(u=u, d=s, v_dag=vdag, discarded_weight=0.0)


@lru_cache(maxsize=8)
def _sketch(n: int, r: int) -> np.ndarray:
    """The read-only (n, r) Gaussian sketch of :func:`partial_svd`, drawn from ``default_rng(0)`` once per shape."""
    sketch = np.random.default_rng(0).standard_normal((n, r))
    sketch.flags.writeable = False
    return sketch


def partial_svd(m, rank: int) -> SVDResult:
    """The ``rank`` largest singular triplets, from a seeded Gaussian sketch.

    ``rank + SKETCH_OVERSAMPLING`` sketch columns are refined by q =
    ``_POWER_ITERATIONS`` QR-orthonormalized power iterations, so the value
    errors fall as (d[rank + SKETCH_OVERSAMPLING] / d[i])^(2q + 1). The sketch
    is drawn from ``default_rng(0)`` once per shape and cached read-only, so
    equal inputs give bit-identical results; ``discarded_weight`` is 0 (never computed).
    ValidationError unless ``rank`` is an integer >= 1.
    """
    arr = _as_matrix(m, "partial_svd")
    rank = _number(rank, "rank", int, ge=1)
    q = np.linalg.qr(arr @ _sketch(arr.shape[1], rank + SKETCH_OVERSAMPLING))[0]
    for _ in range(_POWER_ITERATIONS):
        q = np.linalg.qr(arr @ np.linalg.qr(arr.conj().T @ q)[0])[0]
    small = svd(q.conj().T @ arr)
    u = q @ small.u[:, :rank]
    u.flags.writeable = False
    return SVDResult(u=u, d=small.d[:rank], v_dag=small.v_dag[:rank], discarded_weight=0.0)


def select_rank(d: np.ndarray, spec: TruncationSpec, total: float | None = None) -> int:
    """Number of singular values kept from the descending spectrum ``d``.

    Given ``total`` = ‖M‖²_F, ``d`` may be M's leading values: the unseen
    weight ``total - sum(d^2)`` counts as discarded, and the rank is that of
    the whole spectrum if ``d`` holds more than ``chi_max`` values. Leave
    ``total`` out for a whole spectrum, whose rounding would count as tail.
    """
    m = d.shape[0]
    cap = m if spec.chi_max is None else min(spec.chi_max, m)
    if spec.cutoff == 0.0:
        return cap
    weights = d.astype(np.float64) ** 2
    seen = float(weights.sum())
    total = seen if total is None else total
    if total == 0.0:
        return cap
    # smallest k whose discarded tail is within the budget
    tail = np.concatenate([np.cumsum(weights[::-1])[::-1][1:], [0.0]]) + max(total - seen, 0.0)
    k = int(np.searchsorted(-tail, -spec.cutoff * total) + 1)
    k = min(max(k, 1), cap)
    # keep degenerate partners together when the cap allows
    boundary_tol = _DEGENERACY_TOL * float(d[0])
    while k < cap and d[k - 1] - d[k] <= boundary_tol:
        k += 1
    return k


def truncated_svd(m, spec: TruncationSpec) -> SVDResult:
    """SVD keeping the largest values allowed by ``spec``.

    With ``chi_max >= min(a, b)`` and ``cutoff == 0`` this reproduces
    :func:`svd` exactly. The reported ``discarded_weight`` is absolute, i.e.
    the plain sum of the dropped lambda^2. ValidationError unless ``m`` is a
    matrix of finite numbers.
    """
    full = svd(_as_matrix(m, "truncated_svd", finite=True))
    k = select_rank(full.d, spec)
    if k == full.d.shape[0]:
        return full
    return SVDResult(
        u=full.u[:, :k],
        d=full.d[:k],
        v_dag=full.v_dag[:k, :],
        discarded_weight=float(np.sum(full.d[k:] ** 2)),
    )


@lru_cache(maxsize=32)  # label pairs whose layout is kept: about one sweep's worth
def _layout(row_key: bytes, col_key: bytes, sketch: int | None) -> tuple[np.ndarray, list[tuple], list[tuple]]:
    """Link charges in link order, and the indices of each sector shape, from int64 label bytes.

    Per shape (m, n): row indices (g, m, 1), column indices (g, 1, n) and
    link positions (g, r) of its g sectors; r = min(m, n) in the first list,
    and ``sketch`` in the second, for min(m, n) >= 2 (sketch + SKETCH_OVERSAMPLING).
    """
    row_q, col_q = np.frombuffer(row_key, np.int64), np.frombuffer(col_key, np.int64)
    # a row or column without partners is zero; np.intersect1d would import numpy.ma
    charges = np.array(sorted(set(row_q.tolist()) & set(col_q.tolist())), np.int64)
    sectors = [(np.flatnonzero(row_q == q), np.flatnonzero(col_q == q)) for q in charges]
    sizes = [min(r.size, c.size) for r, c in sectors]
    sizes = [sketch if sketch and 2 * (sketch + SKETCH_OVERSAMPLING) <= n else n for n in sizes]
    starts = np.cumsum([0] + sizes)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, (r, c) in enumerate(sectors):
        by_shape.setdefault((r.size, c.size), []).append(i)
    exact, sketched = [], []
    for shape, idx in by_shape.items():
        (exact if sizes[idx[0]] == min(shape) else sketched).append(
            (
                np.stack([sectors[i][0] for i in idx])[:, :, None],
                np.stack([sectors[i][1] for i in idx])[:, None, :],
                starts[idx][:, None] + np.arange(sizes[idx[0]]),
            )
        )
    return np.repeat(charges, sizes), exact, sketched


def _gather(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``mat[rows, cols]`` for rows (g, m, 1) and columns (g, 1, n).

    A rank-4 ``mat`` fuses axes (0, 1) into the rows and (2, 3) into the
    columns. It is raveled with its axes in memory order, a view of a dense
    array (a transposed one too) and a copy of any other, and each sector is
    read from that by one flat ``take`` per ``_GATHER_ROWS`` rows.
    """
    if mat.ndim == 2:
        return mat[rows, cols]
    order = np.argsort([-abs(s) for s in mat.strides], kind="stable")  # outermost axis first
    flat = mat.transpose(order).reshape(-1)
    step = np.empty(4, np.int64)  # of each axis of ``mat`` in ``flat``
    step[order] = [math.prod(np.take(mat.shape, order[k + 1 :])) for k in range(4)]
    r0, r1 = divmod(rows, mat.shape[1])
    c0, c1 = divmod(cols, mat.shape[3])
    row_pos, col_pos = r0 * step[0] + r1 * step[1], c0 * step[2] + c1 * step[3]
    out = np.empty(np.broadcast_shapes(rows.shape, cols.shape), mat.dtype)
    for block, r, c in zip(out, row_pos, col_pos):
        for i in range(0, len(block), _GATHER_ROWS):  # a whole sector's positions would take as much memory as the sector
            flat.take(r[i : i + _GATHER_ROWS] + c, out=block[i : i + _GATHER_ROWS], mode="clip")  # "raise" would buffer ``out``
    return out


def _each(blocks: np.ndarray, decompose) -> list[np.ndarray]:
    """``decompose`` applied to each matrix of a stack, its factors stacked as ``numpy.linalg.svd`` returns them."""
    res = [decompose(b) for b in blocks]
    return [np.stack([getattr(r, f) for r in res]) for f in ("u", "d", "v_dag")]


def block_svd(
    mat: np.ndarray, row_q, col_q, spec: TruncationSpec, partial: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Truncated SVD of a matrix that vanishes between rows and columns of different charge.

    ``mat`` is a matrix, or a rank-4 array read as the matrix whose rows fuse
    its first two axes and whose columns its last two (as ``reshape`` would,
    but each sector gathered by flat positions from a dense view's memory, a
    transposed one too, with no copy of ``mat``). ``row_q`` and ``col_q`` are
    the integer charges of the rows and columns.
    Each sector (the rows and columns of one charge) is decomposed on its
    own, sectors of equal shape in one stacked ``numpy.linalg.svd`` call laid
    out by :func:`_layout`, and the merged spectrum is cut by
    :func:`select_rank` as one SVD's would be. If LAPACK does not converge,
    each sector is redone by :func:`svd`, which retries on a QR-preconditioned
    matrix before NumericalFailure. With ``partial`` and a ``chi_max``, a
    sector at least 2 (chi_max + 17) wide gets only its chi_max + 1 largest
    values from :func:`partial_svd`, whose sketch for each sector shape is
    drawn once per process, and its residual ‖B - U_k S_k V_k†‖²_F
    counts as discarded; ‖M‖²_F is then summed over the sectors, since M
    vanishes off them.

    Returns (u, kept values, v_dag, link charges, absolute discarded weight),
    both factors C-contiguous, the link ordered by charge, then by descending
    value. With one charge and no sketch this is :func:`truncated_svd`, bit
    for bit.
    """
    sketch = spec.chi_max + 1 if partial and spec.chi_max is not None else None
    link_q, exact, sketched = _layout(np.asarray(row_q, np.int64).tobytes(), np.asarray(col_q, np.int64).tobytes(), sketch)
    n_rows, n_cols = math.prod(mat.shape[: mat.ndim // 2]), math.prod(mat.shape[mat.ndim // 2 :])
    blocks = [_gather(mat, rows, cols) for rows, cols, _ in exact]
    try:
        factors = [np.linalg.svd(b, full_matrices=False) for b in blocks]
    except np.linalg.LinAlgError:
        factors = [_each(b, svd) for b in blocks]
    if sketched:
        wide = [_gather(mat, rows, cols) for rows, cols, _ in sketched]
        factors += [_each(b, lambda m: partial_svd(m, sketch)) for b in wide]
    d = np.empty(link_q.size, mat.real.dtype)
    u = np.zeros((n_rows, link_q.size), mat.dtype)  # the untruncated factors
    v = np.zeros((link_q.size, n_cols), mat.dtype)
    for (rows, cols, pos), (bu, bd, bv) in zip(exact + sketched, factors):
        d[pos] = bd
        u[rows, pos[:, None, :]] = bu
        v[pos[:, :, None], cols] = bv
    order = np.argsort(-d, kind="stable")
    k = select_rank(d[order], spec, sum(float(np.vdot(b, b).real) for b in blocks + wide) if sketched else None)
    # every sector's kept values are a prefix of it, so sorted indices give the link order
    keep = np.sort(order[:k])
    counted, residuals = d, []  # values whose squares count as discarded once cut
    if sketched:
        counted = d.copy()
        for (*_, pos), b, (bu, bd, bv) in zip(sketched, wide, factors[len(exact) :]):
            counted[pos] = 0.0  # a sketched sector's residual stands for all its dropped values
            for m, mu, md, mv, p in zip(b, bu, bd, bv, pos):
                n = np.count_nonzero(np.isin(p, keep, assume_unique=True))
                r = (mu[:, :n] * md[:n]) @ mv[:n]
                np.subtract(m, r, out=r)  # B - U_k S_k V_k† in place
                residuals.append(float(np.vdot(r, r).real))
                del r  # before the next sector's is formed
    discarded = float(np.sum(counted[order[k:]] ** 2)) + sum(residuals)
    if k < d.size:
        u, v = u.take(keep, axis=1), v.take(keep, axis=0)
    return u, d[keep], v, link_q[keep], discarded


def eig_hermitian(m) -> EigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending; ValidationError unless its numbers are finite."""
    arr = _as_matrix(m, "eig_hermitian", finite=True)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix is {arr.shape}, not square")
    scale = max(1.0, float(np.abs(arr).max()))
    if float(np.abs(arr - arr.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValidationError("matrix deviates from M == M† beyond 1e-10 (relative)")
    herm = 0.5 * (arr + arr.conj().T)
    try:
        omega, u = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigh did not converge: {exc}") from exc
    u.flags.writeable = False
    return EigResult(u=u, omega=omega)


def entanglement_entropy(d) -> float:
    """Von Neumann entropy (base 2) of a singular-value spectrum.

    The weights rho_i = lambda_i^2 are normalized to sum to one. Values below
    1e-14 of the largest are clamped to zero first, and zero weights
    contribute nothing (0·log 0 = 0). A product state, e.g. spectrum (1, 0),
    gives S = 0; a maximally entangled pair such as (1/sqrt2, 1/sqrt2) gives
    S = 1.
    """
    lam = np.asarray(d, dtype=np.float64).reshape(-1)
    if lam.size == 0 or not np.any(lam):
        raise ValidationError("entropy of an all-zero spectrum is undefined")
    if not np.all(np.isfinite(lam)):
        raise ValidationError("singular values must be finite")
    if np.any(lam < 0):
        raise ValidationError("singular values must be non-negative")
    lam = np.where(lam < _ZERO_CLAMP * lam.max(), 0.0, lam)
    rho = lam**2 / np.sum(lam**2)
    nz = rho[rho > 0.0]
    return float(-(nz * np.log2(nz)).sum() + 0.0)  # +0.0 avoids returning -0.0


def mera_update(gamma) -> np.ndarray:
    """Unitary W maximizing Re Tr(W Gamma), namely W = V U†.

    With Gamma = U D V†, the optimum satisfies Tr(W Gamma) = sum_i d_i (the
    trace of the singular spectrum); no other unitary does better.
    """
    arr = _as_matrix(gamma, "mera_update")
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"environment is {arr.shape}, not square")
    res = svd(arr)
    return res.v_dag.conj().T @ res.u.conj().T
