"""Matrix product states: construction, gauge moves, and measurements.

Site tensors are rank-3 read-only numpy arrays with axes ``(left link,
physical, right link)``; both chain ends carry dummy links of extent 1. The
algorithms below call numpy on them directly. tnkit records the
orthogonality ``center`` of every state it makes: every site left of it is a
left isometry, every site right of it a right isometry. A state built from
its sites alone, ``MPS(sites)``, has ``center=None``, and the first gauge
move canonicalizes it. Measurements read no gauge: every overlap, norm and
expectation value, an MPO's too, is one zipper of the chain with its
conjugate, :func:`_sandwich`, with each operator as an MPO site; no SVD.

Flat state vectors use the package-wide linearization: site 0 is the fastest
index, i.e. ``psi[s0 + d*(s1 + d*(s2 + ...))]``. Construction peels one site
per SVD: reshape to ``(chi_prev * d, rest)``, factor, keep U as the site,
push ``D·V†`` rightward; the finished state has its center on the last site.

Charges. An :class:`MPS` carries one integer charge per index of each of its
N+1 links (``charges``, the boundary links included) and one per physical
index (``phys_charges``); site i is nonzero only where ``charges[i][l] +
phys_charges[s] == charges[i + 1][r]``, so a link's charge is the total
charge of the sites to its left. Like the center, the labels are recorded by
tnkit on the states it makes, never passed in. Every SVD of a gauge move or
a two-site gate is :func:`~tnkit.decomp.block_svd` in these charge sectors,
never sketched, so each sector of a kept link is a contiguous range. Storage
and contractions stay dense. An unlabelled state has every charge 0: one
sector, the plain truncated SVD, which ``mps_from_state_vector`` calls
directly. ``tebd.initial_product_state`` labels the Heisenberg Néel state
by 2·Sz; every other constructor here, ``MPS(sites)`` included, returns an
unlabelled state. Labels are dropped wherever the charge is not known to be
conserved: ``gauge_insert`` and ``mps_from_json`` return ``MPS(sites)``, and
a gate with a nonzero entry between pair states of different total charge
unlabels the state before it acts. ``correlation_length`` drops them too,
so its transfer matrix sees both links in descending Schmidt-value order.

Operations never mutate: each returns a fresh :class:`MPS`, and every site
an :class:`MPS` holds is a read-only view. Every array passed in is checked
once, where it enters, by :func:`~tnkit.tensors._array`: operators, gates and
gauge matrices, state vectors and kets, the samples of the fits, and each site
of an MPS or MPO, whose links :func:`_chain_sites` then matches; site and bond
indices by :func:`~tnkit.tensors._index`, and counts by
:func:`~tnkit.tensors._number`. ``gauge_insert``
deliberately breaks canonical structure (it is a test hook for gauge
invariance). ``mps_to_json`` writes each site in
:meth:`~tnkit.tensors.DenseTensor.dump` form, and no center or labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import UNTRUNCATED, TruncationSpec, block_svd, entanglement_entropy, truncated_svd
from .errors import NumericalFailure, TooLarge, ValidationError
from .tensors import _array, _fields, _from_record, _index, _is_integer, _json_object, _number, _to_record

_DENSE_SITE_CAP = 20  # to_state_vector guard: d**N grows fast
_NORM_TOL = 1e-8  # how far from 1 an input vector's norm may be
_FIT_ZERO = 1e-14  # correlation magnitudes at or below this are rounding noise


@dataclass(frozen=True)
class MPS:
    """Immutable matrix product state; the public constructor is ``MPS(sites)``.

    sites : tuple of rank-3 arrays, axes (left, physical, right). Each is
        stored as a read-only view; the array passed in is neither copied
        nor frozen.
    center : the orthogonality center recorded by the tnkit operation that
        made the state; None for ``MPS(sites)``, whose gauge is not known.
    charges, phys_charges : read-only int64 labels, one per index of each of
        the N+1 links and one per physical index, recorded like ``center``;
        all zero for ``MPS(sites)``, and so after ``dataclasses.replace``.
    phys_dim : (property) the physical extent d, read off the first site.
    """

    sites: tuple[np.ndarray, ...]
    center: int | None = field(init=False, default=None)
    charges: tuple[np.ndarray, ...] = field(init=False)
    phys_charges: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValidationError("an MPS needs at least one site")
        object.__setattr__(self, "sites", _chain_sites(self.sites, 3))
        extents = [1] + [t.shape[2] for t in self.sites]
        object.__setattr__(self, "charges", tuple(_labels(np.zeros(e, np.int64)) for e in extents))
        object.__setattr__(self, "phys_charges", _labels(np.zeros(self.phys_dim, np.int64)))

    @property
    def phys_dim(self) -> int:
        return self.sites[0].shape[1]

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def bond_dims(self) -> tuple[int, ...]:
        """Extents of the N-1 internal links."""
        return tuple(t.shape[2] for t in self.sites[:-1])

    def norm(self) -> float:
        return math.sqrt(max(norm_squared(self), 0.0))


def _chain_sites(sites, rank: int) -> tuple[np.ndarray, ...]:
    """Read-only views of the sites of an :class:`MPS` (``rank`` 3) or :class:`~tnkit.mpo.MPO` (4).

    ValidationError unless each is a rank-``rank`` array of finite numbers (:func:`~tnkit.tensors._array`)
    with the first site's physical extent on every axis between its links, links matching its
    neighbors', and extent-1 links at both ends.
    """
    sites = tuple(_array(t, f"site {i}", rank).view() for i, t in enumerate(sites))
    for i, t in enumerate(sites):
        t.flags.writeable = False  # the view only; the caller's array stays writeable
        for e in t.shape[1:-1]:
            if e != sites[0].shape[1]:
                raise ValidationError(f"site {i} physical extent {e} != {sites[0].shape[1]}")
        if i + 1 < len(sites) and t.shape[-1] != sites[i + 1].shape[0]:
            raise ValidationError(f"link between sites {i} and {i + 1}: {t.shape[-1]} != {sites[i + 1].shape[0]}")
    if sites[0].shape[0] != 1 or sites[-1].shape[-1] != 1:
        raise ValidationError("boundary links must have extent 1")
    return sites


def _recorded(sites, center: int, charges=None, phys_charges=None) -> MPS:
    """``MPS(sites)`` with the center, and the labels if given, that the calling tnkit operation made."""
    m = MPS(tuple(sites))
    object.__setattr__(m, "center", center)
    if charges is not None:
        object.__setattr__(m, "charges", tuple(_labels(q) for q in charges))
        object.__setattr__(m, "phys_charges", _labels(phys_charges))
    return m


def _labels(q) -> np.ndarray:
    """A read-only int64 view of ``q``."""
    arr = np.asarray(q, np.int64).view()
    arr.flags.writeable = False
    return arr


def _split(
    mat: np.ndarray, row_q: np.ndarray, col_q: np.ndarray, spec: TruncationSpec, absorb: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """``mat ~ left . right`` by :func:`~tnkit.decomp.block_svd`, never sketched.

    The values go into the ``absorb`` ("left" or "right") factor. Returns (left,
    right, link charges, kept values in link order, absolute discarded weight).
    """
    u, kept, v, link_q, discarded = block_svd(mat, row_q, col_q, spec)
    if absorb == "right":
        return u, kept[:, None] * v, link_q, kept, discarded
    return u * kept[None, :], v, link_q, kept, discarded


# ---------------------------------------------------------------------------
# construction and densification
# ---------------------------------------------------------------------------


def mps_from_state_vector(
    psi,
    phys_dim: int,
    spec: TruncationSpec = UNTRUNCATED,
) -> MPS:
    """Factor a normalized state vector into an MPS by repeated SVD.

    The vector's length must be ``phys_dim**N`` for some N >= 1 and its norm
    must be 1 within 1e-8. Truncation (if any) is applied at every
    internal link; without truncation the link extents follow the exact
    profile d, d^2, ..., capped by the distance to the nearer chain end. The
    returned state has its center at site N-1.
    """
    _number(phys_dim, "phys_dim", int, ge=2)
    flat = _array(psi, "psi").flatten()
    n = round(math.log(flat.size, phys_dim)) if flat.size > 1 else 1
    if phys_dim**n != flat.size:
        raise ValidationError(f"length {flat.size} is not a power of d={phys_dim}")
    nrm = float(np.linalg.norm(flat))
    if not abs(nrm - 1.0) <= _NORM_TOL:  # NaN fails this too
        raise ValidationError(f"|psi| = {nrm}, expected 1 within {_NORM_TOL}")

    d, sites = phys_dim, []
    m = flat.reshape(1, -1)  # (link, rest of the chain)
    for _ in range(n - 1):
        res = truncated_svd(m.reshape(m.shape[0] * d, -1, order="F"), spec)
        sites.append(res.u.reshape(m.shape[0], d, -1, order="F"))
        m = res.d[:, None] * res.v_dag
    sites.append(m.reshape(m.shape[0], d, 1, order="F"))
    return _recorded(sites, n - 1)


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
    out, *later = (_array(v, f"site {i} ket").reshape(-1) for i, v in enumerate(site_vectors))
    for v in later:
        # earlier sites vary fastest, so the new site becomes the slow index
        out = np.kron(v, out)
    return out


def product_mps(site_vectors) -> MPS:
    """Bond-dimension-1 MPS of a product state (no dense intermediate).

    Each ket must be normalized within 1e-8; with every site tensor
    an isometry the state is canonical about any site, recorded here as the
    last one.
    """
    sites = []
    for i, v in enumerate(site_vectors):
        ket = _array(v, f"site {i} ket").flatten()
        nrm = float(np.linalg.norm(ket))
        if not abs(nrm - 1.0) <= _NORM_TOL:  # NaN fails this too
            raise ValidationError(f"site {i} ket has norm {nrm}")
        sites.append(ket.reshape(1, ket.size, 1))
    return _recorded(sites, len(sites) - 1)


def random_mps(n_sites: int, phys_dim: int, chi_max: int, rng) -> MPS:
    """Normalized random MPS with links capped at ``chi_max``; all three counts are integers >= 1."""
    n_sites, phys_dim = _number(n_sites, "n_sites", int, ge=1), _number(phys_dim, "phys_dim", int, ge=1)
    _number(chi_max, "chi_max", int, ge=1)
    dims = [min(chi_max, phys_dim**i, phys_dim ** (n_sites - i)) for i in range(n_sites + 1)]  # 1 at both ends
    shapes = [(dims[i], phys_dim, dims[i + 1]) for i in range(n_sites)]
    chain = _Chain(MPS(tuple(rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)))
    _move(chain, n_sites - 1)
    chain.sites[-1] = chain.sites[-1] * (1.0 / math.sqrt(_center_norm_squared(chain)))
    return chain.freeze()


# ---------------------------------------------------------------------------
# gauge moves
# ---------------------------------------------------------------------------


class _Chain:
    """Writable lists of an MPS's sites and link charges, and its center, for moves and gates in place."""

    def __init__(self, m: MPS) -> None:
        self.sites = list(m.sites)
        self.charges = list(m.charges)
        self.phys_charges = m.phys_charges
        self.center = m.center

    def row_charges(self, link: int) -> np.ndarray:
        """Charges of the C-order fused (link index, physical) rows."""
        return (self.charges[link][:, None] + self.phys_charges[None, :]).ravel()

    def col_charges(self, link: int) -> np.ndarray:
        """Charges of the C-order fused (physical, link index) columns."""
        return (self.charges[link][None, :] - self.phys_charges[:, None]).ravel()

    def freeze(self) -> MPS:
        return _recorded(self.sites, self.center, self.charges, self.phys_charges)


def _shift_right(chain: _Chain, c: int, spec: TruncationSpec) -> np.ndarray:
    """Left-normalize site c, absorbing D·V† into site c+1; returns the kept spectrum."""
    l, d, r = chain.sites[c].shape
    mat = chain.sites[c].reshape(l * d, r)
    u, dv, q, kept, _ = _split(mat, chain.row_charges(c), chain.charges[c + 1], spec, "right")
    chain.sites[c] = u.reshape(l, d, q.size)
    chain.sites[c + 1] = np.tensordot(dv, chain.sites[c + 1], axes=([1], [0]))
    chain.charges[c + 1] = q
    chain.center = c + 1
    return kept


def _shift_left(chain: _Chain, c: int, spec: TruncationSpec) -> None:
    """Right-normalize site c, absorbing U·D into site c-1."""
    l, d, r = chain.sites[c].shape
    mat = chain.sites[c].reshape(l, d * r)
    ud, vdag, q, *_ = _split(mat, chain.charges[c], chain.col_charges(c + 1), spec, "left")
    chain.sites[c] = vdag.reshape(q.size, d, r)
    chain.sites[c - 1] = np.tensordot(chain.sites[c - 1], ud, axes=([2], [0]))
    chain.charges[c] = q
    chain.center = c - 1


def _move(chain: _Chain, target: int, spec: TruncationSpec = UNTRUNCATED) -> None:
    """Move the chain's center to ``target`` in place; with ``center=None``, after a full left-to-right pass."""
    if chain.center is None:
        chain.center = 0
        _move(chain, len(chain.sites) - 1, spec)
    for c in range(chain.center, target):
        _shift_right(chain, c, spec)
    for c in range(chain.center, target, -1):
        _shift_left(chain, c, spec)


def move_center(m: MPS, target: int) -> MPS:
    """Move the orthogonality center to ``target`` by successive untruncated SVDs.

    A state with ``center=None`` is canonicalized instead, and a state whose
    center is already ``target`` is returned as it is.
    """
    target = _index(target, m.n_sites, "target")
    if m.center == target:
        return m
    chain = _Chain(m)
    _move(chain, target)
    return chain.freeze()


def canonicalize(m: MPS, target: int, spec: TruncationSpec = UNTRUNCATED) -> MPS:
    """Restore mixed-canonical form with the center at ``target``.

    Makes no assumption about the input gauge: one full left-to-right pass
    followed by a right-to-left pass down to ``target``.
    """
    target = _index(target, m.n_sites, "target")
    chain = _Chain(m)
    chain.center = None
    _move(chain, target, spec)
    return chain.freeze()


def gauge_insert(m: MPS, bond: int, x) -> MPS:
    """Insert X·X^-1 on an internal link (gauge transformation).

    ``bond`` b joins sites b and b+1; ``x`` must be a square matrix matching
    the link extent and numerically invertible. The represented state is
    unchanged, but the canonical structure is destroyed and X mixes charge
    sectors, so the result is ``MPS(sites)``: ``center=None`` and unlabelled.
    """
    bond = _index(bond, m.n_sites - 1, "bond")
    chi = m.sites[bond].shape[2]
    x = _array(x, "gauge matrix", shape=(chi, chi))
    svals = np.linalg.svd(x, compute_uv=False)
    if svals[-1] <= 0.0 or svals[0] / svals[-1] > 1e12:
        raise ValidationError("gauge matrix is singular or too ill-conditioned")
    tensors = list(m.sites)
    tensors[bond] = np.tensordot(tensors[bond], x, axes=([2], [0]))
    tensors[bond + 1] = np.tensordot(np.linalg.inv(x), tensors[bond + 1], axes=([1], [0]))
    return MPS(tuple(tensors))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def _sandwich(bra: MPS, ket: MPS, ops: dict[int, np.ndarray]) -> complex:
    """<bra| W |ket> by one left-to-right zipper in any gauge, O(N chi^2 D d (chi + D d)).

    ``ops`` maps a site to a ``(D, d, d, D')`` tensor in MPO axis order, e.g. a
    one-site O as ``O[None, :, :, None]``; any other site is the identity on an
    extent-1 link. The environment is C-ordered (ket, W link, bra): three matrix
    products per site, two on identity sites, none with a transposed copy.
    """
    env = np.ones((1, 1, 1))  # (ket, a, bra)
    for s, (ta, tb) in enumerate(zip(bra.sites, ket.sites)):
        k, d, k2 = tb.shape
        t = env.reshape(-1, ta.shape[0]) @ ta.conj().reshape(ta.shape[0], -1)  # (ket, a, o, bra')
        if s in ops:
            w = ops[s]
            da, db = w.shape[0], w.shape[3]
            wm = w.transpose(2, 3, 0, 1).reshape(d * db, da * d)  # (i, b) x (a, o)
            t = wm @ t.reshape(k, da * d, -1)  # (ket, i, b, bra')
        env = tb.reshape(k * d, k2).T @ t.reshape(k * d, -1)  # (ket', b, bra')
    return complex(env.item())


def inner_product(a: MPS, b: MPS) -> complex:
    """Zipper overlap <a|b>, O(N * d * chi^3)."""
    if a.n_sites != b.n_sites or a.phys_dim != b.phys_dim:
        raise ValidationError("states live on different site spaces")
    return _sandwich(a, b, {})


def norm_squared(m: MPS) -> float:
    """<psi|psi> by the zipper; NumericalFailure if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        nrm2 = inner_product(m, m).real
    if not math.isfinite(nrm2):
        raise NumericalFailure(f"state norm squared is {nrm2}")
    return nrm2


def expect_local(m: MPS, op, site: int) -> complex:
    """<psi| O_site |psi> / <psi|psi>, each a zipper over the whole chain; any gauge."""
    site = _index(site, m.n_sites, "site")
    op = _array(op, "operator", shape=(m.phys_dim, m.phys_dim))
    return _normalized(m, {site: op[None, :, :, None]})[0]


def expect_two_site(m: MPS, op_i, i: int, op_j, j: int) -> complex:
    """<psi| O_i O_j |psi> / <psi|psi> for i < j, each a zipper over the whole chain; any gauge."""
    return _normalized(m, _two_site_ops(m, op_i, i, op_j, j))[0]


def _normalized(m: MPS, *ops: dict[int, np.ndarray], what: str = "expectation values") -> list[complex]:
    """<psi| W |psi> / <psi|psi> for each of ``ops``, one norm for all; NumericalFailure unless each is finite.

    The norm squared must be positive and finite (:func:`_normalizable`); a refusal of the values names ``what``.
    """
    nrm2 = _normalizable(norm_squared(m))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        values = [_sandwich(m, m, o) / nrm2 for o in ops]
    if not np.isfinite(values).all():
        raise NumericalFailure(f"{what} not finite: {values}")
    return values


def _center_norm_squared(state: MPS | _Chain) -> float:
    """<psi|psi> of a state whose sites off its center are isometries, from the center site alone."""
    c = state.sites[state.center]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        return _normalizable(float(np.tensordot(c.conj(), c, axes=([0, 1, 2], [0, 1, 2])).real))


def _normalizable(nrm2: float) -> float:
    """``nrm2``, or NumericalFailure unless it is positive and finite."""
    if not (0.0 < nrm2 < np.inf):
        raise NumericalFailure(f"state norm squared is {nrm2}; cannot normalize")
    return nrm2


def _two_site_ops(m: MPS, op_i, i: int, op_j, j: int) -> dict[int, np.ndarray]:
    """``{i: op_i, j: op_j}`` as :func:`_sandwich` tensors, once the sites and operators are checked for ``m``."""
    i, j = _index(i, m.n_sites, "site"), _index(j, m.n_sites, "site")
    if i >= j:
        raise ValidationError(f"need i < j, got i={i}, j={j}")
    d = m.phys_dim
    op_i, op_j = _array(op_i, "op_i", shape=(d, d)), _array(op_j, "op_j", shape=(d, d))
    return {i: op_i[None, :, :, None], j: op_j[None, :, :, None]}


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
    site = _index(site, m.n_sites - 1, "site")
    chain = _Chain(m)
    g = _gate_matrix(gate, chain, direction)
    _move(chain, site if direction == "right" else site + 1)
    disc = _gate_pair(chain, g, site, spec, direction)
    return chain.freeze(), disc


def _gate_matrix(gate, chain: _Chain, direction: str) -> np.ndarray:
    """Check a (d^2, d^2) gate and a sweep direction for ``chain``.

    Returns the gate as a matrix over the C-order fused pair (si, sj), sj fastest. A gate
    with a nonzero entry between pair states of different total charge unlabels the chain.
    """
    d = chain.sites[0].shape[1]
    gate = _array(gate, "gate", shape=(d * d, d * d))
    if direction not in ("right", "left"):
        raise ValidationError(f"direction must be 'right' or 'left', got {direction!r}")
    pair_q = (chain.phys_charges[:, None] + chain.phys_charges[None, :]).ravel(order="F")
    if np.any(gate[pair_q[:, None] != pair_q[None, :]]):
        chain.charges = [np.zeros_like(q) for q in chain.charges]
        chain.phys_charges = np.zeros_like(chain.phys_charges)
    return gate.reshape(d, d, d, d, order="F").reshape(d * d, d * d)


def _gate_pair(chain: _Chain, gate: np.ndarray, site: int, spec: TruncationSpec, direction: str) -> float:
    """Gate sites (site, site+1) of ``chain`` in place; returns the discarded weight.

    ``gate`` is a matrix from :func:`_gate_matrix`. The center must already
    be on the pair; the split leaves it on the ``direction`` side.
    """
    a, b = chain.sites[site], chain.sites[site + 1]
    l, d, r = a.shape[0], a.shape[1], b.shape[2]
    theta = a.reshape(l * d, -1) @ b.reshape(-1, d * r)  # (l, si, sj, r)
    mat = (gate @ theta.reshape(l, d * d, r)).reshape(l * d, d * r)
    left, right, q, _, disc = _split(mat, chain.row_charges(site), chain.col_charges(site + 2), spec, direction)
    chain.sites[site] = left.reshape(l, d, q.size)
    chain.sites[site + 1] = right.reshape(q.size, d, r)
    chain.charges[site + 1] = q
    chain.center = site + 1 if direction == "right" else site
    return disc


def bond_entropies(m: MPS) -> list[float]:
    """Entanglement entropy across each of the N-1 internal links.

    Each spectrum comes from the SVD that moves the center one bond right.
    """
    chain = _Chain(move_center(m, 0))
    return [entanglement_entropy(_shift_right(chain, b, UNTRUNCATED)) for b in range(m.n_sites - 1)]


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
    """

    xi: float
    transfer_eigs: np.ndarray


def correlation_length(m: MPS) -> CorrelationReport:
    """Correlation length from the mid-chain transfer matrix.

    The chain is brought to right-end center so the bulk tensor is a left
    isometry, then E[(bra l, ket l), (bra r, ket r)] = sum_s conj(A) A is
    diagonalized. A square bulk tensor is required; for a chi=1 (product)
    state the report is flagged zero-range instead of raising.

    E pairs the bulk tensor's left and right link bases index by index, so
    both links must be laid out alike: ``MPS(m.sites)``, with no labels and
    no center, is canonicalized to site 0 and swept back with dense splits,
    which leaves every link in descending Schmidt-value order whatever gauge
    and order it came in. On a chain that is not translation-invariant the
    pairing is still a convention: the phase of each Schmidt vector, and the
    basis inside a degenerate multiplet, are the SVD's choice.
    """
    mc = move_center(move_center(MPS(m.sites), 0), m.n_sites - 1)
    mid = m.n_sites // 2
    # prefer the mid-chain tensor; fall back to the nearest square one
    order = sorted(range(m.n_sites), key=lambda s: (abs(s - mid), s))
    site = next(
        (s for s in order if mc.sites[s].shape[0] == mc.sites[s].shape[2]), None
    )
    if site is None:
        raise ValidationError("no site has matching left/right links to build a transfer matrix")
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
    ratio = mags[1] / mags[0]
    if ratio >= 1.0 - 1e-12:
        xi = math.inf
    elif ratio == 0.0:
        xi = 0.0
    else:
        xi = -1.0 / math.log(ratio)
    return CorrelationReport(xi=xi, transfer_eigs=eigs)


def connected_correlation(m: MPS, op, i: int, j: int) -> float:
    """<O_i O_j> - <O_i><O_j> (real part): three zippers, each divided by one norm_squared."""
    ops = _two_site_ops(m, op, i, op, j)
    raw, o_i, o_j = (v.real for v in _normalized(m, ops, {i: ops[i]}, {j: ops[j]}))
    return raw - o_i * o_j


def fit_exponential_decay(xs, values) -> tuple[float, float]:
    """Least-squares fit of |values| ~ A * exp(-x / xi); returns (xi, log A), xi inf for no decay.

    Entries with |value| <= 1e-14 (rounding noise) are excluded; ValidationError if fewer than two remain.
    """
    slope, intercept = _log_fit(xs, values, False, "a decay rate")
    return (math.inf if slope >= 0.0 else -1.0 / slope), intercept


def fit_power_law(xs, values) -> tuple[float, float]:
    """Least-squares fit of |values| ~ A * x^(-gamma); returns (gamma, log A).

    Excludes x <= 0 and |value| <= 1e-14; ValidationError if fewer than two points remain.
    """
    slope, intercept = _log_fit(xs, values, True, "a power law")
    return -slope, intercept


def _log_fit(xs, values, log_x: bool, what: str) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line of ln|value| against x, or ln x if ``log_x``.

    Samples with |value| <= ``_FIT_ZERO``, and with x <= 0 if ``log_x``, are left out;
    ValidationError, naming the fit ``what``, if fewer than two remain.
    """
    xs = np.asarray(_array(xs, "xs"), np.float64)
    vals = np.abs(np.asarray(_array(values, "values"), np.float64))
    keep = (vals > _FIT_ZERO) & (xs > 0.0 if log_x else True)
    if keep.sum() < 2:
        raise ValidationError(f"need at least two samples above {_FIT_ZERO:g} in magnitude to fit {what}")
    slope, intercept = np.polyfit(np.log(xs[keep]) if log_x else xs[keep], np.log(vals[keep]), 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mps_to_json(m: MPS) -> str:
    """JSON form: per-site tensor dumps plus ``phys_dim``; no center and no labels."""
    return json.dumps({"phys_dim": m.phys_dim, "sites": [_to_record(t) for t in m.sites]})


def mps_from_json(text: str) -> MPS:
    """``MPS(sites)`` from :func:`mps_to_json` text, ignoring the ``center`` key of older files.

    ValidationError if the text is not JSON, or its integer ``phys_dim`` or its
    list of tensor dumps ``sites`` is missing, malformed or disagrees with the other.
    """
    phys_dim, sites = _fields(_json_object(text, "MPS text"), "MPS text", "phys_dim", "sites")
    if not _is_integer(phys_dim):
        raise ValidationError(f"MPS text phys_dim must be an integer, got {phys_dim!r}")
    if not isinstance(sites, list):
        raise ValidationError(f"MPS text sites must be a list of tensor dumps, got {type(sites).__name__}")
    m = MPS(tuple(_from_record(site).to_ndarray() for site in sites))
    if m.phys_dim != phys_dim:
        raise ValidationError(f"header phys_dim {phys_dim} != site physical extent {m.phys_dim}")
    return m
