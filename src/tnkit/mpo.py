"""Matrix product operators for 1D spin-1/2 chains.

Site tensors are rank-4 read-only numpy arrays with axes ``(left link, phys
out, phys in, right link)``, contracted with numpy directly. An operator is
stored as one tensor per site plus two boundary vectors; the
translation-invariant builders below use the same bulk tensor everywhere,
with the boundary vectors selecting the standard triangular block
structure's last row on the left and first column on the right.

Hamiltonian sign convention: every builder produces ``H = -J * sum(...)`` of
spin-product terms, so positive couplings favor alignment (for the Ising
chain, the all-up product state at energy -(N-1)J/4).

Dense conversions target the package-wide little-endian basis: site 0 is the
fastest index of the 2^N-dimensional space, so a product of single-site
operators densifies as ``kron(op_last, ..., kron(op_1, op_0))``.

Dtypes follow numpy promotion: every builder here returns a real float64
MPO (the Heisenberg exchange is written with S+ and S-), and an MPO is
complex only when a complex block such as ``SY`` goes into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadXi, ExtentMismatch, ShapeMismatch, TooFewSites, TooLarge
from .tensors import _read_only

# spin-1/2 operator library (factor 1/2 included); only SY is complex
ID2 = np.eye(2)
SX = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
SY = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # raising, SX + i SY
SM = np.array([[0.0, 0.0], [1.0, 0.0]])  # lowering, SX - i SY

_DENSE_SITE_CAP = 12  # mpo_to_dense builds a 2^N x 2^N matrix


def two_site_matrix(op_left: np.ndarray, op_right: np.ndarray) -> np.ndarray:
    """(d^2, d^2) matrix of op_left (x) op_right on a fused site pair.

    In the fused basis the left site is the faster index, so the left factor
    sits in the *inner* Kronecker slot.
    """
    return np.kron(np.asarray(op_right), np.asarray(op_left))


@dataclass(frozen=True)
class MPO:
    """Immutable matrix product operator.

    sites : rank-4 arrays, axes (left, phys out, phys in, right), each
        stored as a read-only view of the array passed in.
    left_bvec / right_bvec : boundary vectors contracted onto the first
        site's left link and the last site's right link.
    phys_dim : shared physical extent.
    """

    sites: tuple[np.ndarray, ...]
    left_bvec: np.ndarray
    right_bvec: np.ndarray
    phys_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(_read_only(t) for t in self.sites))
        if len(self.sites) < 2:
            raise TooFewSites("an MPO needs at least two sites")
        for i, t in enumerate(self.sites):
            if t.ndim != 4:
                raise ShapeMismatch(f"site {i} has rank {t.ndim}, expected 4")
            if t.shape[1] != self.phys_dim or t.shape[2] != self.phys_dim:
                raise ShapeMismatch(f"site {i} physical extents != {self.phys_dim}")
            if i + 1 < len(self.sites) and t.shape[3] != self.sites[i + 1].shape[0]:
                raise ExtentMismatch(f"link between sites {i} and {i + 1} mismatched")
        if self.left_bvec.shape != (self.sites[0].shape[0],):
            raise ExtentMismatch("left boundary vector does not match first link")
        if self.right_bvec.shape != (self.sites[-1].shape[3],):
            raise ExtentMismatch("right boundary vector does not match last link")

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def _uniform_mpo(blocks: dict[tuple[int, int], np.ndarray], dim: int, n: int) -> MPO:
    """Assemble a translation-invariant MPO from a block matrix (promoted dtype)."""
    if n < 2:
        raise TooFewSites(f"need at least 2 sites, got {n}")
    w = np.zeros((dim, 2, 2, dim), dtype=np.result_type(*blocks.values()))
    for (row, col), mat in blocks.items():
        w[row, :, :, col] = mat
    left = np.zeros(dim)
    left[dim - 1] = 1.0
    right = np.zeros(dim)
    right[0] = 1.0
    return MPO(sites=(w,) * n, left_bvec=left, right_bvec=right, phys_dim=2)


def build_ising_nn(n: int, j: float = 1.0) -> MPO:
    """H = -J sum_i Sz_i Sz_{i+1} on an open chain (bond dimension 3)."""
    blocks = {
        (0, 0): ID2,
        (1, 0): SZ,
        (2, 1): -j * SZ,
        (2, 2): ID2,
    }
    return _uniform_mpo(blocks, 3, n)


def build_ising_nnn(n: int, j1: float = 1.0, j2: float = 0.5) -> MPO:
    """H = -J1 sum Sz_i Sz_{i+1} - J2 sum Sz_i Sz_{i+2} (bond dimension 4).

    The extra channel carries a pending Sz across one identity step before
    it lands, producing the next-nearest-neighbor term.
    """
    blocks = {
        (0, 0): ID2,
        (1, 0): SZ,
        (2, 1): ID2,
        (3, 1): -j1 * SZ,
        (3, 2): -j2 * SZ,
        (3, 3): ID2,
    }
    return _uniform_mpo(blocks, 4, n)


def build_exp_decay(n: int, xi: float, j: float = 1.0) -> MPO:
    """H = -J sum_{i<k} exp(-(k-i)/xi) Sz_i Sz_k (bond dimension 3).

    A single geometric channel with ratio kappa = exp(-1/xi) reproduces the
    exponential profile exactly; the emission entry carries one factor of
    kappa so the nearest-neighbor coefficient is exp(-1/xi) rather than 1.
    """
    if not (xi > 0.0) or not math.isfinite(xi):
        raise BadXi(f"decay length must be positive and finite, got {xi}")
    kappa = math.exp(-1.0 / xi)
    blocks = {
        (0, 0): ID2,
        (1, 0): SZ,
        (1, 1): kappa * ID2,
        (2, 1): -j * kappa * SZ,
        (2, 2): ID2,
    }
    return _uniform_mpo(blocks, 3, n)


def build_heisenberg(n: int, j: float = 1.0) -> MPO:
    """H = -J sum_i S_i . S_{i+1} (bond dimension 5, real).

    The exchange is written as SxSx + SySy = (S+S- + S-S+) / 2, so the
    tensors stay real. With j < 0 this is the antiferromagnet; e.g. two
    sites at j = -1 have ground energy -3/4 (the singlet).
    """
    blocks = {
        (0, 0): ID2,
        (1, 0): SP,
        (2, 0): SM,
        (3, 0): SZ,
        (4, 1): -0.5 * j * SM,
        (4, 2): -0.5 * j * SP,
        (4, 3): -j * SZ,
        (4, 4): ID2,
    }
    return _uniform_mpo(blocks, 5, n)


def mpo_to_dense(op: MPO) -> np.ndarray:
    """Contract an MPO into its dense (d^N, d^N) matrix (little-endian basis).

    Guarded to N <= 12 sites; beyond that the matrix alone needs gigabytes.
    """
    n = op.n_sites
    if n > _DENSE_SITE_CAP:
        raise TooLarge(f"refusing to densify {n} sites (cap {_DENSE_SITE_CAP})")
    d = op.phys_dim
    acc = op.left_bvec.reshape(1, 1, -1)
    dim = 1
    for t in op.sites:
        step = np.tensordot(acc, t, axes=([2], [0]))  # (out, in, o, i, link)
        step = step.transpose(0, 2, 1, 3, 4)  # (out, o, in, i, link)
        dim *= d
        acc = step.reshape(dim, dim, step.shape[4], order="F")
    return np.tensordot(acc, op.right_bvec, axes=([2], [0]))


def mpo_expectation(state, op: MPO) -> complex:
    """Raw (unnormalized) <psi| H |psi> by a single left-to-right zipper.

    Cost is O(N chi^2 D d (chi + D d)) — never builds the dense operator.
    The caller divides by the state's norm squared when a normalized value
    is wanted; energy drivers do this explicitly.
    """
    if state.n_sites != op.n_sites or state.phys_dim != op.phys_dim:
        raise ShapeMismatch("state and operator live on different site spaces")
    env = op.left_bvec.reshape(1, -1, 1)  # (bra, a, ket)
    for a, w in zip(state.sites, op.sites):
        t1 = np.tensordot(env, a, axes=([2], [0]))  # (bra, a, phys in, ket')
        t2 = np.tensordot(t1, w, axes=([1, 2], [0, 2]))  # (bra, ket', o, b)
        t3 = np.tensordot(t2, a.conj(), axes=([0, 2], [0, 1]))  # (ket', b, bra')
        env = t3.transpose(2, 1, 0)
    out = np.tensordot(env, op.right_bvec, axes=([1], [0]))  # (bra, ket) both extent 1
    return complex(out.item())
