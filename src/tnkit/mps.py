"""Matrix product states: construction, gauge moves, and measurements.

Site tensors are rank-3 read-only numpy arrays with axes ``(left link,
physical, right link)``; both chain ends carry dummy links of extent 1. The
algorithms below call numpy on them directly. A state built from a vector is
in mixed-canonical form: every site left of the orthogonality ``center`` is a
left isometry, every site right of it a right isometry, so local
measurements reduce to a three-tensor contraction at the center.

Flat state vectors use the package-wide linearization: site 0 is the fastest
index, i.e. ``psi[s0 + d*(s1 + d*(s2 + ...))]``. Construction peels one site
per SVD: reshape to ``(chi_prev * d, rest)``, factor, keep U as the site,
push ``D·V†`` rightward; the finished state has its center on the last site.

Operations never mutate: each returns a fresh :class:`MPS`, and every site
an :class:`MPS` holds is a read-only view. Operators and gates are passed in
as arrays and shape-checked once, where they enter. ``gauge_insert``
deliberately breaks canonical structure (it is a test hook for gauge
invariance), so the state it returns carries ``center=None`` and
measurements on it re-canonicalize first. ``mps_to_json`` writes each site
in :meth:`~tnkit.tensors.DenseTensor.dump` form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .decomp import UNTRUNCATED, SVDResult, TruncationSpec, entanglement_entropy, truncated_svd
from .errors import (
    BadLength,
    BadOrder,
    BondTooSmall,
    ExtentMismatch,
    NotNormalized,
    ShapeMismatch,
    Singular,
    TooLarge,
)
from .tensors import DenseTensor, _inexact, _read_only

_DENSE_SITE_CAP = 20  # to_state_vector guard: d**N grows fast


@dataclass(frozen=True)
class MPS:
    """Immutable matrix product state.

    sites : tuple of rank-3 arrays, axes (left, physical, right). Each is
        stored as a read-only view; the array passed in is neither copied
        nor frozen.
    center : index of the orthogonality center, or None when the gauge has
        been deliberately broken and no canonical structure can be assumed.
    phys_dim : shared physical extent d of every site.
    """

    sites: tuple[np.ndarray, ...]
    center: int | None
    phys_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(_read_only(t) for t in self.sites))
        if not self.sites:
            raise BadLength("an MPS needs at least one site")
        for i, t in enumerate(self.sites):
            if t.ndim != 3:
                raise ShapeMismatch(f"site {i} has rank {t.ndim}, expected 3")
            if t.shape[1] != self.phys_dim:
                raise ShapeMismatch(
                    f"site {i} physical extent {t.shape[1]} != {self.phys_dim}"
                )
            if i + 1 < len(self.sites) and t.shape[2] != self.sites[i + 1].shape[0]:
                raise ExtentMismatch(
                    f"link between sites {i} and {i + 1}: "
                    f"{t.shape[2]} != {self.sites[i + 1].shape[0]}"
                )
        if self.sites[0].shape[0] != 1 or self.sites[-1].shape[2] != 1:
            raise ExtentMismatch("boundary links must have extent 1")
        if self.center is not None and not 0 <= self.center < len(self.sites):
            raise ValueError(f"center {self.center} out of range")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def bond_dims(self) -> tuple[int, ...]:
        """Extents of the N-1 internal links."""
        return tuple(t.shape[2] for t in self.sites[:-1])

    def norm(self) -> float:
        return math.sqrt(max(norm_squared(self), 0.0))


def _scalar(t: np.ndarray) -> complex:
    return complex(t.item())


def _split(
    mat: np.ndarray, spec: TruncationSpec, absorb: str
) -> tuple[np.ndarray, np.ndarray, SVDResult]:
    """Truncated SVD ``mat ~ left . right`` with the singular values absorbed
    into the ``absorb`` ("left" or "right") factor.

    The SVD result is returned too, for its spectrum and discarded weight.
    """
    res = truncated_svd(mat, spec)
    if absorb == "right":
        return res.u, res.d[:, None] * res.v_dag, res
    return res.u * res.d[None, :], res.v_dag, res


# ---------------------------------------------------------------------------
# construction and densification
# ---------------------------------------------------------------------------


def mps_from_state_vector(
    psi,
    phys_dim: int,
    spec: TruncationSpec = UNTRUNCATED,
    norm_tol: float = 1e-8,
) -> MPS:
    """Factor a normalized state vector into an MPS by repeated SVD.

    The vector's length must be ``phys_dim**N`` for some N >= 1 and its norm
    must be 1 within ``norm_tol``. Truncation (if any) is applied at every
    internal link; without truncation the link extents follow the exact
    profile d, d^2, ..., capped by the distance to the nearer chain end. The
    returned state has its center at site N-1.
    """
    if phys_dim < 2:
        raise BadLength(f"physical dimension must be >= 2, got {phys_dim}")
    flat = _inexact(np.array(psi)).reshape(-1)
    n = round(math.log(flat.size, phys_dim)) if flat.size > 1 else 1
    if phys_dim**n != flat.size:
        raise BadLength(f"length {flat.size} is not a power of d={phys_dim}")
    nrm = float(np.linalg.norm(flat))
    if not abs(nrm - 1.0) <= norm_tol:  # NaN fails this too
        raise NotNormalized(f"|psi| = {nrm}, expected 1 within {norm_tol}")

    d = phys_dim
    if n == 1:
        return MPS(sites=(flat.reshape(1, d, 1),), center=0, phys_dim=d)

    sites: list[np.ndarray] = []
    lind = 1
    rest = d ** (n - 1)
    m = flat.reshape(d, rest, order="F")
    for i in range(n - 1):
        u, dv, _ = _split(m, spec, "right")
        k = u.shape[1]
        sites.append(u.reshape(lind, d, k, order="F"))
        if i == n - 2:
            sites.append(dv.reshape(k, d, 1, order="F"))
        else:
            lind = k
            rest //= d
            m = dv.reshape(k * d, rest, order="F")
    return MPS(sites=tuple(sites), center=n - 1, phys_dim=d)


def to_state_vector(m: MPS) -> np.ndarray:
    """Contract the chain back into a flat dense vector (site 0 fastest)."""
    if m.n_sites > _DENSE_SITE_CAP:
        raise TooLarge(f"refusing to densify {m.n_sites} sites (cap {_DENSE_SITE_CAP})")
    acc = m.sites[0]  # (1, d, chi)
    dim = m.phys_dim
    for t in m.sites[1:]:
        acc = np.tensordot(acc, t, axes=([2], [0]))  # (1, fused, d, chi)
        dim *= m.phys_dim
        acc = acc.reshape(1, dim, acc.shape[3], order="F")
    return acc.flatten(order="F")


def product_state_vector(site_vectors) -> np.ndarray:
    """Dense vector of a product state from per-site kets (site 0 fastest)."""
    out = _inexact(np.asarray(site_vectors[0])).reshape(-1)
    for v in site_vectors[1:]:
        # earlier sites vary fastest, so the new site becomes the slow index
        out = np.kron(_inexact(np.asarray(v)).reshape(-1), out)
    return out


def product_mps(site_vectors, norm_tol: float = 1e-8) -> MPS:
    """Bond-dimension-1 MPS of a product state (no dense intermediate).

    Each ket must be normalized within ``norm_tol``; with every site tensor
    an isometry the state is canonical about any site, recorded here as the
    last one.
    """
    sites = []
    for i, v in enumerate(site_vectors):
        ket = _inexact(np.array(v)).reshape(-1)
        nrm = float(np.linalg.norm(ket))
        if not abs(nrm - 1.0) <= norm_tol:  # NaN fails this too
            raise NotNormalized(f"site {i} ket has norm {nrm}")
        sites.append(ket.reshape(1, ket.size, 1))
    if not sites:
        raise BadLength("a product state needs at least one site")
    return MPS(tuple(sites), center=len(sites) - 1, phys_dim=sites[0].shape[1])


def random_mps(n_sites: int, phys_dim: int, chi_max: int, rng) -> MPS:
    """Normalized random MPS with links capped at ``chi_max``."""
    dims = [1]
    for i in range(1, n_sites):
        dims.append(min(chi_max, phys_dim ** i, phys_dim ** (n_sites - i)))
    dims.append(1)
    sites = []
    for i in range(n_sites):
        shape = (dims[i], phys_dim, dims[i + 1])
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sites.append(data)
    m = canonicalize(MPS(tuple(sites), center=None, phys_dim=phys_dim), n_sites - 1)
    c = m.sites[m.center]
    nrm = math.sqrt(_scalar(np.tensordot(c.conj(), c, axes=([0, 1, 2], [0, 1, 2]))).real)
    scaled = c * (1.0 / nrm)
    return replace(m, sites=m.sites[: m.center] + (scaled,) + m.sites[m.center + 1 :])


# ---------------------------------------------------------------------------
# gauge moves
# ---------------------------------------------------------------------------


def _shift_right(tensors: list[np.ndarray], c: int, spec: TruncationSpec) -> np.ndarray:
    """Left-normalize site c, absorbing D·V† into site c+1; returns the kept spectrum."""
    l, d, r = tensors[c].shape
    u, dv, res = _split(tensors[c].reshape(l * d, r, order="F"), spec, "right")
    tensors[c] = u.reshape(l, d, u.shape[1], order="F")
    tensors[c + 1] = np.tensordot(dv, tensors[c + 1], axes=([1], [0]))
    return res.d


def _shift_left(tensors: list[np.ndarray], c: int, spec: TruncationSpec) -> None:
    """Right-normalize site c, absorbing U·D into site c-1."""
    l, d, r = tensors[c].shape
    ud, vdag, _ = _split(tensors[c].reshape(l, d * r, order="F"), spec, "left")
    tensors[c] = vdag.reshape(vdag.shape[0], d, r, order="F")
    tensors[c - 1] = np.tensordot(tensors[c - 1], ud, axes=([2], [0]))


def move_center(m: MPS, target: int, spec: TruncationSpec = UNTRUNCATED) -> MPS:
    """Move the orthogonality center to ``target`` by successive SVDs.

    A state with ``center=None`` is canonicalized instead, and a state whose
    center is already ``target`` is returned as it is.
    """
    if not 0 <= target < m.n_sites:
        raise ValueError(f"target {target} out of range")
    if m.center is None:
        return canonicalize(m, target, spec)
    if m.center == target:
        return m
    tensors = list(m.sites)
    for c in range(m.center, target):
        _shift_right(tensors, c, spec)
    for c in range(m.center, target, -1):
        _shift_left(tensors, c, spec)
    return MPS(tuple(tensors), center=target, phys_dim=m.phys_dim)


def canonicalize(m: MPS, target: int, spec: TruncationSpec = UNTRUNCATED) -> MPS:
    """Restore mixed-canonical form with the center at ``target``.

    Makes no assumption about the input gauge: one full left-to-right pass
    followed by a right-to-left pass down to ``target``.
    """
    if not 0 <= target < m.n_sites:
        raise ValueError(f"target {target} out of range")
    tensors = list(m.sites)
    for c in range(m.n_sites - 1):
        _shift_right(tensors, c, spec)
    for c in range(m.n_sites - 1, target, -1):
        _shift_left(tensors, c, spec)
    return MPS(tuple(tensors), center=target, phys_dim=m.phys_dim)


def gauge_insert(m: MPS, bond: int, x) -> MPS:
    """Insert X·X^-1 on an internal link (gauge transformation).

    ``bond`` b joins sites b and b+1; ``x`` must be a square matrix matching
    the link extent and numerically invertible. The represented state is
    unchanged, but the canonical structure is destroyed, so the result
    carries ``center=None``.
    """
    if not 0 <= bond < m.n_sites - 1:
        raise ValueError(f"bond {bond} out of range")
    chi = m.sites[bond].shape[2]
    x = np.asarray(x)
    if x.shape != (chi, chi):
        raise ShapeMismatch(f"gauge matrix must be ({chi}, {chi}), got {x.shape}")
    svals = np.linalg.svd(x, compute_uv=False)
    if svals[-1] <= 0.0 or svals[0] / svals[-1] > 1e12:
        raise Singular("gauge matrix is singular or too ill-conditioned")
    tensors = list(m.sites)
    tensors[bond] = np.tensordot(tensors[bond], x, axes=([2], [0]))
    tensors[bond + 1] = np.tensordot(np.linalg.inv(x), tensors[bond + 1], axes=([1], [0]))
    return MPS(tuple(tensors), center=None, phys_dim=m.phys_dim)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def inner_product(a: MPS, b: MPS) -> complex:
    """Zipper overlap <a|b>, O(N * d * chi^3)."""
    if a.n_sites != b.n_sites or a.phys_dim != b.phys_dim:
        raise ShapeMismatch("states live on different site spaces")
    env = np.ones((1, 1))  # (bra link, ket link)
    for ta, tb in zip(a.sites, b.sites):
        t1 = np.tensordot(env, ta.conj(), axes=([0], [0]))  # (ket, phys, bra')
        env = np.tensordot(t1, tb, axes=([0, 1], [0, 1]))  # (bra', ket')
    return _scalar(env)


def norm_squared(m: MPS) -> float:
    return inner_product(m, m).real


def expect_local(m: MPS, op, site: int) -> complex:
    """<psi| O_site |psi> / <psi|psi> via the center three-tensor contraction."""
    if not 0 <= site < m.n_sites:
        raise ValueError(f"site {site} out of range")
    op = np.asarray(op)
    if op.shape != (m.phys_dim, m.phys_dim):
        raise ShapeMismatch(f"operator must be ({m.phys_dim}, {m.phys_dim})")
    mc = move_center(m, site)
    a = mc.sites[site]
    t1 = np.tensordot(op, a, axes=([1], [1])).transpose(1, 0, 2)  # (l, phys', r)
    num = _scalar(np.tensordot(a.conj(), t1, axes=([0, 1, 2], [0, 1, 2])))
    den = _scalar(np.tensordot(a.conj(), a, axes=([0, 1, 2], [0, 1, 2]))).real
    return num / den


def expect_two_site(m: MPS, op_i, i: int, op_j, j: int) -> complex:
    """Normalized <O_i O_j> for i < j, zippered between the two sites."""
    if not (0 <= i < m.n_sites and 0 <= j < m.n_sites):
        raise ValueError(f"sites ({i}, {j}) out of range")
    if i >= j:
        raise BadOrder(f"need i < j, got i={i}, j={j}")
    d = m.phys_dim
    op_i, op_j = np.asarray(op_i), np.asarray(op_j)
    for name, op in (("op_i", op_i), ("op_j", op_j)):
        if op.shape != (d, d):
            raise ShapeMismatch(f"{name} must be ({d}, {d})")
    mc = move_center(m, i)
    a = mc.sites[i]
    t1 = np.tensordot(op_i, a, axes=([1], [1])).transpose(1, 0, 2)  # (l, phys', r)
    env = np.tensordot(a.conj(), t1, axes=([0, 1], [0, 1]))  # (bra r, ket r)
    for k in range(i + 1, j):
        t = np.tensordot(env, mc.sites[k], axes=([1], [0]))  # (bra, phys, ket)
        env = np.tensordot(mc.sites[k].conj(), t, axes=([0, 1], [0, 1]))
    aj = mc.sites[j]
    t = np.tensordot(env, aj, axes=([1], [0]))  # (bra, phys, ket r)
    t2 = np.tensordot(op_j, t, axes=([1], [1])).transpose(1, 0, 2)  # (bra, phys', ket r)
    num = _scalar(np.tensordot(aj.conj(), t2, axes=([0, 1, 2], [0, 1, 2])))
    den = _scalar(np.tensordot(a.conj(), a, axes=([0, 1, 2], [0, 1, 2]))).real
    return num / den


def apply_two_site_gate(
    m: MPS,
    gate,
    site: int,
    spec: TruncationSpec = UNTRUNCATED,
    direction: str = "right",
) -> tuple[MPS, float]:
    """Apply a two-site gate on (site, site+1) and re-split with truncation.

    ``gate`` is a (d^2, d^2) matrix over the fused pair basis (left site
    fastest). The pair is contracted into a theta tensor, the gate applied,
    and theta refactored by truncated SVD. ``direction="right"`` leaves the
    center on site+1 (forward sweeps), ``"left"`` on site (backward sweeps).
    Returns the new state and the absolute discarded weight of the split.
    """
    if not 0 <= site < m.n_sites - 1:
        raise ValueError(f"gate needs sites ({site}, {site + 1}) in range")
    g4 = _gate_tensor(gate, m.phys_dim, direction)
    tensors = list(move_center(m, site if direction == "right" else site + 1).sites)
    disc = _gate_pair(tensors, g4, site, spec, direction)
    center = site + 1 if direction == "right" else site
    return MPS(tuple(tensors), center=center, phys_dim=m.phys_dim), disc


def _gate_tensor(gate, d: int, direction: str) -> np.ndarray:
    """Check a (d^2, d^2) gate and a sweep direction; the gate as (si', sj', si, sj)."""
    gate = np.asarray(gate)
    if gate.shape != (d * d, d * d):
        raise ShapeMismatch(f"gate must be ({d * d}, {d * d}), got {gate.shape}")
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
    return gate.reshape(d, d, d, d, order="F")


def _gate_pair(
    tensors: list[np.ndarray], g4: np.ndarray, site: int, spec: TruncationSpec, direction: str
) -> float:
    """Gate sites (site, site+1) of ``tensors`` in place; returns the discarded weight.

    The center must already be on the pair; the split leaves it on the
    ``direction`` side.
    """
    a, b = tensors[site], tensors[site + 1]
    l, d, r = a.shape[0], a.shape[1], b.shape[2]
    theta = np.tensordot(a, b, axes=([2], [0]))  # (l, si, sj, r)
    theta = np.tensordot(g4, theta, axes=([2, 3], [1, 2])).transpose(2, 0, 1, 3)
    left, right, res = _split(theta.reshape(l * d, d * r, order="F"), spec, direction)
    k = res.d.shape[0]
    tensors[site] = left.reshape(l, d, k, order="F")
    tensors[site + 1] = right.reshape(k, d, r, order="F")
    return res.discarded_weight


def bond_entropies(m: MPS, normalize: bool = True) -> list[float]:
    """Entanglement entropy across each of the N-1 internal links.

    Each spectrum comes from the SVD that moves the center one bond right.
    """
    tensors = list(move_center(m, 0).sites)
    return [
        entanglement_entropy(_shift_right(tensors, b, UNTRUNCATED), normalize=normalize)
        for b in range(m.n_sites - 1)
    ]


# ---------------------------------------------------------------------------
# correlation length
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationReport:
    """Transfer-matrix spectrum of the bulk site tensor.

    xi : correlation length in lattice units, -1/ln|eps2/eps1|; 0.0 flags a
        zero-range (chi = 1) state, inf a degenerate leading pair
        (long-range order).
    transfer_eigs : eigenvalues sorted by descending modulus.
    fit_exponent : optional decay exponent filled in by fitting drivers.
    """

    xi: float
    transfer_eigs: np.ndarray
    fit_exponent: float | None = None


def correlation_length(m: MPS) -> CorrelationReport:
    """Correlation length from the mid-chain transfer matrix.

    The chain is brought to right-end center so the bulk tensor is a left
    isometry, then E[(bra l, ket l), (bra r, ket r)] = sum_s conj(A) A is
    diagonalized. A square bulk tensor is required; for a chi=1 (product)
    state the report is flagged zero-range instead of raising.
    """
    mc = move_center(m, m.n_sites - 1)
    mid = m.n_sites // 2
    # prefer the mid-chain tensor; fall back to the nearest square one
    order = sorted(range(m.n_sites), key=lambda s: (abs(s - mid), s))
    site = next(
        (s for s in order if mc.sites[s].shape[0] == mc.sites[s].shape[2]), None
    )
    if site is None:
        raise ShapeMismatch("no site has matching left/right links to build a transfer matrix")
    a = mc.sites[site]
    chi = a.shape[0]
    if chi == 1:
        return CorrelationReport(xi=0.0, transfer_eigs=np.array([1.0 + 0.0j]))
    t = np.tensordot(a.conj(), a, axes=([1], [1]))  # (bra l, bra r, ket l, ket r)
    e = t.transpose(0, 2, 1, 3)  # (bra l, ket l, bra r, ket r)
    mat = e.reshape(chi * chi, chi * chi, order="F")
    eigs = np.linalg.eigvals(mat)
    eigs = eigs[np.argsort(-np.abs(eigs))]
    mags = np.abs(eigs)
    if mags[0] == 0.0:
        raise BondTooSmall("transfer matrix is identically zero")
    ratio = mags[1] / mags[0]
    if ratio >= 1.0 - 1e-12:
        xi = math.inf
    elif ratio == 0.0:
        xi = 0.0
    else:
        xi = -1.0 / math.log(ratio)
    return CorrelationReport(xi=xi, transfer_eigs=eigs)


def connected_correlation(m: MPS, op, i: int, j: int) -> float:
    """<O_i O_j> - <O_i><O_j> (real part)."""
    raw = expect_two_site(m, op, i, op, j).real
    return raw - expect_local(m, op, i).real * expect_local(m, op, j).real


def fit_exponential_decay(xs, values) -> tuple[float, float]:
    """Least-squares fit of |values| ~ A * exp(-x / xi).

    Returns (xi, log A). Zero entries are excluded; at least two usable
    points are required.
    """
    xs = np.asarray(xs, dtype=np.float64)
    vals = np.abs(np.asarray(values, dtype=np.float64))
    keep = vals > 0.0
    if keep.sum() < 2:
        raise ValueError("need at least two non-zero samples to fit a decay rate")
    slope, intercept = np.polyfit(xs[keep], np.log(vals[keep]), 1)
    if slope >= 0.0:
        return math.inf, float(intercept)
    return -1.0 / float(slope), float(intercept)


def fit_power_law(xs, values) -> tuple[float, float]:
    """Least-squares fit of |values| ~ A * x^(-gamma); returns (gamma, log A)."""
    xs = np.asarray(xs, dtype=np.float64)
    vals = np.abs(np.asarray(values, dtype=np.float64))
    keep = (vals > 0.0) & (xs > 0.0)
    if keep.sum() < 2:
        raise ValueError("need at least two non-zero samples to fit a power law")
    slope, intercept = np.polyfit(np.log(xs[keep]), np.log(vals[keep]), 1)
    return -float(slope), float(intercept)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mps_to_json(m: MPS) -> str:
    """JSON form: per-site tensor dumps plus {center, phys_dim}."""
    return json.dumps(
        {
            "phys_dim": m.phys_dim,
            "center": m.center,
            "sites": [json.loads(DenseTensor.from_ndarray(t).dump()) for t in m.sites],
        }
    )


def mps_from_json(text: str) -> MPS:
    obj = json.loads(text)
    sites = tuple(DenseTensor.load(json.dumps(site)).to_ndarray() for site in obj["sites"])
    return MPS(sites=sites, center=obj["center"], phys_dim=int(obj["phys_dim"]))
