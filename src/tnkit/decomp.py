"""Matrix decompositions, truncation, and entanglement measures.

SVD and Hermitian eigendecomposition are the workhorses behind every MPS/TRG
routine here. They take matrices as numpy arrays, return their factors as
read-only ndarrays, and are computed by LAPACK; the SVD is *never* obtained by
forming M·M† (that squares the condition number and loses half the digits of
the small singular values — the M·M† route survives only as a test oracle).

Truncation keeps the ``k`` largest singular values subject to a bond cap and a
relative discarded-weight cutoff. For a normalized matrix the truncation error
satisfies ``|M - M_k|_F^2 = 1 - delta`` where ``delta`` is the retained weight
``sum_{i<=k} lambda_i^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, NotHermitian, NotSquare, NumericalFailure, RankUnsupported

_ZERO_CLAMP = 1e-14  # relative to the largest singular value
_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class TruncationSpec:
    """How to cut a singular-value spectrum.

    chi_max : hard cap on the number of kept values (None = unlimited).
    cutoff : maximum *relative* discarded weight sum(dropped lambda^2) /
        sum(all lambda^2); 0 disables weight-based truncation entirely.
    degeneracy_tol : if the values on either side of the cut differ by less
        than this (relative to the largest value), the cut is moved past the
        degenerate group when chi_max allows; otherwise it stays deterministic.
    """

    chi_max: int | None = None
    cutoff: float = 0.0
    degeneracy_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.chi_max is not None and self.chi_max < 1:
            raise ValueError(f"chi_max must be >= 1, got {self.chi_max}")
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError(f"cutoff must lie in [0, 1), got {self.cutoff}")
        if self.degeneracy_tol < 0.0:
            raise ValueError("degeneracy_tol must be non-negative")


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


def _as_matrix(m, op: str) -> np.ndarray:
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise RankUnsupported(f"{op} needs a rank-2 tensor, got rank {arr.ndim}")
    return arr


def svd(m) -> SVDResult:
    """Full thin SVD of a matrix; never forms M·M†."""
    arr = _as_matrix(m, "svd")
    try:
        u, s, vdag = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise NumericalFailure(f"svd did not converge: {exc}") from exc
    u.flags.writeable = vdag.flags.writeable = False
    return SVDResult(u=u, d=s, v_dag=vdag, discarded_weight=0.0)


def select_rank(d: np.ndarray, spec: TruncationSpec) -> int:
    """Number of singular values kept from the descending spectrum ``d``."""
    m = d.shape[0]
    cap = m if spec.chi_max is None else min(spec.chi_max, m)
    if spec.cutoff == 0.0:
        return cap
    weights = d.astype(np.float64) ** 2
    total = float(weights.sum())
    if total == 0.0:
        return cap
    # smallest k whose discarded tail is within the budget
    tail = np.concatenate([np.cumsum(weights[::-1])[::-1][1:], [0.0]])
    k = int(np.searchsorted(-tail, -spec.cutoff * total) + 1)
    k = min(max(k, 1), cap)
    # keep degenerate partners together when the cap allows
    boundary_tol = spec.degeneracy_tol * float(d[0])
    while k < cap and d[k - 1] - d[k] <= boundary_tol:
        k += 1
    return k


def truncated_svd(m, spec: TruncationSpec) -> SVDResult:
    """SVD keeping the largest values allowed by ``spec``.

    With ``chi_max >= min(a, b)`` and ``cutoff == 0`` this reproduces
    :func:`svd` exactly. The reported ``discarded_weight`` is absolute, i.e.
    the plain sum of the dropped lambda^2.
    """
    full = svd(m)
    k = select_rank(full.d, spec)
    if k == full.d.shape[0]:
        return full
    return SVDResult(
        u=full.u[:, :k],
        d=full.d[:k],
        v_dag=full.v_dag[:k, :],
        discarded_weight=float(np.sum(full.d[k:] ** 2)),
    )


def eig_hermitian(m) -> EigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    arr = _as_matrix(m, "eig_hermitian")
    if arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"matrix is {arr.shape}, not square")
    scale = max(1.0, float(np.abs(arr).max()))
    if float(np.abs(arr - arr.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise NotHermitian("matrix deviates from M == M† beyond 1e-10 (relative)")
    herm = 0.5 * (arr + arr.conj().T)
    try:
        omega, u = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigh did not converge: {exc}") from exc
    u.flags.writeable = False
    return EigResult(u=u, omega=omega)


def entanglement_entropy(d, normalize: bool = True) -> float:
    """Von Neumann entropy (base 2) of a singular-value spectrum.

    The weights are rho_i = lambda_i^2, normalized to sum to one when
    ``normalize`` is set. Values below 1e-14 of the largest are clamped to
    zero first, and zero weights contribute nothing (0·log 0 = 0). A product
    state, e.g. spectrum (1, 0), gives S = 0; a maximally entangled pair such
    as (1/sqrt2, 1/sqrt2) gives S = 1.
    """
    lam = np.asarray(d, dtype=np.float64).reshape(-1)
    if lam.size == 0 or not np.any(lam):
        raise AllZero("entropy of an all-zero spectrum is undefined")
    if np.any(lam < 0):
        raise ValueError("singular values must be non-negative")
    lam = np.where(lam < _ZERO_CLAMP * lam.max(), 0.0, lam)
    rho = lam**2
    if normalize:
        rho = rho / rho.sum()
    nz = rho[rho > 0.0]
    return float(-(nz * np.log2(nz)).sum() + 0.0)  # +0.0 avoids returning -0.0


def mera_update(gamma) -> np.ndarray:
    """Unitary W maximizing Re Tr(W Gamma), namely W = V U†.

    With Gamma = U D V†, the optimum satisfies Tr(W Gamma) = sum_i d_i (the
    trace of the singular spectrum); no other unitary does better.
    """
    arr = _as_matrix(gamma, "mera_update")
    if arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"environment is {arr.shape}, not square")
    res = svd(arr)
    return res.v_dag.conj().T @ res.u.conj().T
