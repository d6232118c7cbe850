"""Matrix product operators for 1D spin-1/2 chains.

Site tensors are rank-4 read-only numpy arrays with axes ``(left link, phys
out, phys in, right link)``, contracted with numpy directly. As for an MPS,
both chain ends carry dummy links of extent 1. The translation-invariant
builders below use one bulk tensor W of the standard triangular block
structure: the first site is W's last row, the last site its first column,
and every other site W itself, all views of the one array.

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

from .errors import TooLarge, ValidationError
from .mps import _chain_sites, _sandwich
from .tensors import _array, _number

# spin-1/2 operator library (factor 1/2 included); only SY is complex
ID2 = np.eye(2)
SX = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
SY = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # raising, SX + i SY
SM = np.array([[0.0, 0.0], [1.0, 0.0]])  # lowering, SX - i SY

_DENSE_DIM_CAP = 4096  # mpo_to_dense builds a d^N x d^N matrix: 12 spin-1/2 sites


def two_site_matrix(op_left: np.ndarray, op_right: np.ndarray) -> np.ndarray:
    """(d^2, d^2) matrix of op_left (x) op_right on a fused site pair.

    In the fused basis the left site is the faster index, so the left factor
    sits in the *inner* Kronecker slot.
    """
    return np.kron(_array(op_right, "op_right", 2), _array(op_left, "op_left", 2))


@dataclass(frozen=True)
class MPO:
    """Immutable matrix product operator.

    sites : at least two rank-4 arrays, axes (left, phys out, phys in,
        right), each stored as a read-only view of the array passed in; the
        first site's left link and the last site's right link have extent 1.
    phys_dim : (property) the physical extent, read off the first site.
    """

    sites: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.sites) < 2:
            raise ValidationError("an MPO needs at least two sites")
        object.__setattr__(self, "sites", _chain_sites(self.sites, 4))

    @property
    def phys_dim(self) -> int:
        return self.sites[0].shape[1]

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def _uniform_mpo(blocks: dict[tuple[int, int], np.ndarray], dim: int, n: int) -> MPO:
    """Translation-invariant MPO of a block matrix W (promoted dtype): last row, W, ..., W, first column."""
    n = _number(n, "n", int, ge=2)
    w = np.zeros((dim, 2, 2, dim), dtype=np.result_type(*blocks.values()))
    for (row, col), mat in blocks.items():
        w[row, :, :, col] = mat
    return MPO((w[dim - 1 :],) + (w,) * (n - 2) + (w[..., :1],))


def build_ising_nn(n: int, j: float = 1.0) -> MPO:
    """H = -J sum_i Sz_i Sz_{i+1} on an open chain (bond dimension 3)."""
    j = _number(j, "j")
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
    j1, j2 = _number(j1, "j1"), _number(j2, "j2")
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
    j, xi = _number(j, "j"), _number(xi, "xi", gt=0)
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
    j = _number(j, "j")
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


#: model name -> (builder, {float parameter: default}); a None default means required
MODELS = {
    "ising_nn": (build_ising_nn, {"j": 1.0}),
    "ising_nnn": (build_ising_nnn, {"j1": 1.0, "j2": 0.5}),
    "exp_decay": (build_exp_decay, {"j": 1.0, "xi": None}),
    "heisenberg": (build_heisenberg, {"j": 1.0}),
}


def build_model(model: str, n: int, **params: float) -> MPO:
    """The ``n``-site MPO of a :data:`MODELS` entry, e.g. ``build_model("exp_decay", 8, xi=2.0)``."""
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; expected one of {tuple(MODELS)}")
    return MODELS[model][0](n, **params)


def mpo_to_dense(op: MPO) -> np.ndarray:
    """Contract an MPO into its dense (d^N, d^N) matrix (little-endian basis).

    Guarded to d^N <= 4096; beyond 12 spin-1/2 sites the matrix alone needs gigabytes.
    """
    n = op.n_sites
    d = op.phys_dim
    if d**n > _DENSE_DIM_CAP:
        raise TooLarge(f"refusing to densify {n} sites of extent {d} (dimension cap {_DENSE_DIM_CAP})")
    acc = np.ones((1, 1, 1))  # (out, in, link)
    dim = 1
    for t in op.sites:
        step = np.tensordot(acc, t, axes=([2], [0]))  # (out, in, o, i, link)
        step = step.transpose(0, 2, 1, 3, 4)  # (out, o, in, i, link)
        dim *= d
        acc = step.reshape(dim, dim, step.shape[4], order="F")
    return acc[:, :, 0]


def mpo_expectation(state, op: MPO) -> complex:
    """Raw (unnormalized) <psi| H |psi> by the zipper :func:`~tnkit.mps._sandwich`.

    Cost is O(N chi^2 D d (chi + D d)) — never builds the dense operator. The
    caller divides by the state's norm squared when a normalized value is
    wanted; energy drivers do this explicitly.
    """
    if state.n_sites != op.n_sites or state.phys_dim != op.phys_dim:
        raise ValidationError("state and operator live on different site spaces")
    return _sandwich(state, state, dict(enumerate(op.sites)))
