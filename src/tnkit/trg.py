"""Tensor renormalization for the 2D classical Ising model on a torus.

The partition function is written as a checkerboard network: one rank-4
tensor per black face of the spin lattice, indices (u, l, d, r) running over
the four corner spins, carrying the Boltzmann weight of that face's four
bonds. Each tensor therefore accounts for two spins, and diagonally adjacent
faces share one spin index, so the tensors tile a 45-degree-rotated square
lattice with the usual rule: r joins the right neighbor's l, u joins the
upper neighbor's d.

The network runs in the Z2 parity basis. The starting tensor is rotated by
the Hadamard matrix H = [[1, 1], [1, -1]]/sqrt(2) on all four legs, so index 0
is the spin-flip-even and index 1 the odd combination of the two spin states.
H is symmetric and H^2 = 1, so every bond between two rotated legs (and the
self-traced legs of the torus closure) still carries the identity: Z and the
torus trace are unchanged. Since the weights are invariant under flipping all
spins, the rotated tensor vanishes unless the parities of its four legs add
up to even; the odd entries are set to exactly zero.

One coarsening step splits every tensor by SVD — (d,l)|(u,r) on one
sublattice, (u,l)|(d,r) on the other, absorbing sqrt of the singular values
into both halves — and contracts the four corner pieces around every other
plaquette into a new tensor. The new legs are the SVD link indices and point
along the diagonals, so the coarse network is again a square lattice of the
same kind with half as many tensors (each covering twice the spins).

Because the tensor is parity-even, each split matrix is block-diagonal once
its rows and columns are grouped by parity, and ``decomp.block_svd`` splits
it one parity block at a time, cut on the merged spectrum: the kept values,
the cutoff and the degeneracy rule are those of the full SVD. With a bond cap
chi_max, a block at least 2 (chi_max + 17) wide yields only its chi_max + 1
largest values, from ``decomp.partial_svd`` at O(n^2 chi) instead of O(n^3)
(Halko, Martinsson and Tropp, arXiv:0909.4061). Each kept link inherits its
block's parity, so the coarse tensor is parity-even again, its odd entries
stay exactly zero, and the final contraction runs as one product per parity.

Running tensors are kept normalized to unit max-entry; the peeled-off scale
factors accumulate directly into ln(Z) per spin. Closing the network as a
one-tensor torus (self-tracing u with d and l with r) after k steps yields
the exact partition function of a 2^(k+1)-spin periodic patch; odd k
corresponds to the axis-aligned L x L torus with L = 2^((k+1)/2), which is
what the brute-force reference below enumerates.

A step is a split phase, then a contract phase, and holds one chi^4 array
at a time beside arrays of half that size: the splits hold the old tensor and
its parity blocks, each block copied out of the tensor's memory by flat
positions, a few rows at a time (the A split reads the (d, l, u, r) view, which
needs no copy of the tensor); :func:`free_energy_per_site` then drops it; the
contraction drops each corner piece once contracted and holds p1, then p2,
with the parity blocks gathered from them in the same way, then the per-parity
products, which one flat assignment per parity writes into the coarse tensor.
The traced peak is about 2.2 chi^4 doubles at chi 32 (18 MB, beta 0.44). A
caller of :func:`trg_step` that keeps ``state`` keeps its tensor.

All tensors are plain real float64 numpy arrays; no complex arithmetic ever
enters. A step refuses with TooLarge, before it contracts, when the largest
array it would build holds more than 100^4 elements (800 MB), the size of a
step at bond dimension 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomp import TruncationSpec, _gather, block_svd
from .errors import NumericalFailure, TooLarge
from .tensors import _number

_BRUTE_SPIN_CAP = 20
_STEP_ELEMENT_CAP = 100**4
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_SPIN_PARITY = np.array([0, 1], dtype=np.int8)  # of the Hadamard-rotated spin index


def _plaquette_exponent(beta: float, j: float) -> np.ndarray:
    """bJ(su+sd)(sl+sr) over the 16 corner-spin configurations of a face."""
    beta, j = _number(beta, "beta", gt=0), _number(j, "j")
    s = np.array([1.0, -1.0])
    pair_sum = np.add.outer(s, s)  # [u, d] -> su + sd, and likewise for l, r
    return beta * j * pair_sum[:, None, :, None] * pair_sum[None, :, None, :]


def ising_plaquette_tensor(beta: float, j: float = 1.0) -> np.ndarray:
    """Boltzmann weight of one face: T[u,l,d,r] = exp(bJ(su+sd)(sl+sr)).

    Index 0 is spin +1, index 1 is spin -1. The exponent regroups the four
    boundary-bond terms su*sl + sl*sd + sd*sr + sr*su, which makes the
    invariance under cyclic leg rotation explicit.
    """
    return np.exp(_plaquette_exponent(beta, j))


@dataclass(frozen=True)
class TRGState:
    """Coarse tensor plus the scale and parity bookkeeping.

    tensor : current rank-4 tensor in the parity basis, normalized to unit
        max entry; exactly zero wherever its four leg parities add up to odd.
    log_norm_per_site : accumulated ln of peeled scale factors, per spin.
    step : number of coarsening steps taken so far.
    parity_ud, parity_lr : Z2 parity (0 even, 1 odd) of each index of the
        u/d legs and of the l/r legs.
    discarded_weight : absolute weight (sum of dropped lambda^2) cut from the
        A split and the B split by the step that made this tensor, in units
        of the normalized tensor it split; (0, 0) for the starting tensor.
    """

    tensor: np.ndarray
    log_norm_per_site: float
    step: int
    parity_ud: np.ndarray
    parity_lr: np.ndarray
    discarded_weight: tuple[float, float] = (0.0, 0.0)

    @property
    def sites_per_tensor(self) -> int:
        return 2 ** (self.step + 1)


def initial_state(beta: float, j: float = 1.0) -> TRGState:
    """Normalized starting network, in the parity basis.

    The largest exponent 4b|J| is taken out before exponentiating, so the
    weights stay finite at any beta; it goes straight into the log norm.
    """
    expo = _plaquette_exponent(beta, j)
    peak = float(expo.max())
    h = _HADAMARD
    rotated = np.einsum("ia,jb,kc,ld,abcd->ijkl", h, h, h, h, np.exp(expo - peak))
    rotated[np.indices(rotated.shape).sum(axis=0) % 2 == 1] = 0.0  # index 1 is odd on every leg
    c = float(np.abs(rotated).max())
    return TRGState(
        tensor=rotated / c,
        log_norm_per_site=(peak + math.log(c)) / 2.0,
        step=0,
        parity_ud=_SPIN_PARITY,
        parity_lr=_SPIN_PARITY,
    )


def _split(mat: np.ndarray, parity: np.ndarray, spec: TruncationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``mat ~ (U sqrt(d)) . (sqrt(d) V†)`` by :func:`~tnkit.decomp.block_svd`, wide blocks sketched.

    ``mat`` is a matrix, or a rank-4 array whose axes (0, 1) are the rows and
    (2, 3) the columns. ``parity`` labels the rows and, identically, the
    columns. Returns both factors, the parity of each kept link and the
    absolute discarded weight, the link in merged descending order of d (ties
    by parity, then position).
    """
    u, d, v, link_parity, discarded = block_svd(mat, parity, parity, spec, partial=True)
    order = np.argsort(-d, kind="stable")
    root = np.sqrt(d[order])
    return u[:, order] * root, root[:, None] * v[order], link_parity[order], discarded


@dataclass(frozen=True)
class _Split:
    """The split phase of a step: the four corner pieces and the old network's bookkeeping, not its tensor.

    pieces : S1[d,l,m], S2[m,u,r], S3[u,l,m], S4[m,d,r] (see :func:`trg_step`); the
        contract phase empties the list, so each piece dies once it is contracted.
    parity_ud, parity_lr : parities of the A-split and B-split links.
    inner_parity : parities of the old l/r legs, which the contraction sums over.
    """

    pieces: list[np.ndarray]
    parity_ud: np.ndarray
    parity_lr: np.ndarray
    inner_parity: np.ndarray
    log_norm_per_site: float
    step: int
    discarded_weight: tuple[float, float]


def _split_phase(state: TRGState, spec: TruncationSpec) -> _Split:
    """Both splits of ``state.tensor``; the result holds no reference to it."""
    arr = state.tensor
    cu, cl, cd, cr = arr.shape
    pair_parity = (state.parity_ud[:, None] ^ state.parity_lr[None, :]).ravel()
    # both splits gather their blocks from the tensor's memory; the A split reads the (d, l, u, r) view
    s1, s2, p_ud, w1 = _split(arr.transpose(2, 1, 0, 3), pair_parity, spec)
    s3, s4, p_lr, w2 = _split(arr, pair_parity, spec)
    k1, k2 = p_ud.size, p_lr.size
    pieces = [s1.reshape(cd, cl, k1), s2.reshape(k1, cu, cr), s3.reshape(cu, cl, k2), s4.reshape(k2, cd, cr)]
    return _Split(pieces, p_ud, p_lr, state.parity_lr, state.log_norm_per_site, state.step, (w1, w2))


def _contract_phase(split: _Split) -> TRGState:
    """The normalized coarse tensor of :func:`trg_step` from its split phase."""
    s1, s2, s3, s4 = split.pieces
    p_ud, p_lr = split.parity_ud, split.parity_lr
    k1, k2, cl, cr = p_ud.size, p_lr.size, s1.shape[1], s2.shape[2]
    largest = k1 * k2 * max(cr * cr, cl * cl, k1 * k2)  # of p1, p2 and new below
    if largest > _STEP_ELEMENT_CAP:
        raise TooLarge(f"TRG step would build {largest} elements (cap {_STEP_ELEMENT_CAP})")
    split.pieces.clear()

    # fused pairs d' k2 + l', alias u' k2 + r', and b cl + e of each parity; p1, p2 are freed once gathered
    pair = (p_ud[:, None] ^ p_lr[None, :]).ravel()
    inner = (split.inner_parity[:, None] ^ split.inner_parity[None, :]).ravel()
    sectors = [(np.flatnonzero(pair == q), np.flatnonzero(inner == q)) for q in (0, 1)]
    p1 = np.tensordot(s2, s4, axes=([1], [1])).transpose(0, 2, 1, 3)  # (d', l', b, e)
    del s2, s4
    m1 = [_gather(p1, rows[None, :, None], cols[None, None, :])[0] for rows, cols in sectors]
    del p1
    p2 = np.tensordot(s1, s3, axes=([0], [0])).transpose(2, 0, 1, 3)  # (b, e, u', r')
    del s1, s3
    m2 = [_gather(p2, cols[None, :, None], rows[None, None, :])[0] for rows, cols in sectors]
    del p2
    products = [a @ b for a, b in zip(m1, m2)]  # rows (d', l'), columns (u', r')
    del m1, m2  # before the coarse tensor is allocated
    new = np.zeros(k1 * k2 * k1 * k2)  # (u', l', d', r'), raveled
    for (rows, _), prod in zip(sectors, products):
        d, l = divmod(rows, k2)  # of the rows (d', l'), and as (u', r') of the columns
        new[(l * k1 * k2 + d * k2)[:, None] + (d * k2 * k1 * k2 + l)[None, :]] = prod  # at u' k2 k1 k2 + l' k1 k2 + d' k2 + r'
    new = new.reshape(k1, k2, k1, k2)
    c = float(max(new.max(), -new.min()))
    if c == 0.0:
        raise NumericalFailure("coarse tensor vanished; cannot renormalize")
    new /= c
    return TRGState(
        tensor=new,
        log_norm_per_site=split.log_norm_per_site + math.log(c) / 2 ** (split.step + 2),
        step=split.step + 1,
        parity_ud=p_ud,
        parity_lr=p_lr,
        discarded_weight=split.discarded_weight,
    )


def trg_step(state: TRGState, spec: TruncationSpec) -> TRGState:
    """One exact-rewrite coarsening step (truncated per ``spec``).

    Sublattice A splits as (d,l)|(u,r) into S1[d,l,m], S2[m,u,r]; sublattice
    B as (u,l)|(d,r) into S3[u,l,m], S4[m,d,r]. Around a plaquette whose SW,
    SE, NE, NW corners hold S2, S3, S1, S4 respectively, the contraction
    over the four old edges

        T'[u,l,d,r] = sum_{a,b,c,e} S2[d,a,b] S4[l,a,e] S1[c,e,u] S3[c,b,r]

    produces the coarse tensor; u/d inherit the A-split link, l/r the
    B-split link, so the result is again a valid (u,l,d,r) network tensor.
    Both splits pair one u/d leg with one l/r leg on each side, so one
    parity vector labels the rows and the columns of both split matrices.
    The last contraction, over (b, e), is a matrix product (d,l)|(u,r) that is
    block-diagonal by parity: one product per parity, odd entries never written.
    Raises TooLarge, before contracting, if the largest array the step
    builds would hold more than 100^4 elements.
    """
    return _contract_phase(_split_phase(state, spec))


def close_torus(state: TRGState) -> float:
    """ln(Z) per spin of the one-tensor torus closure of the current network."""
    tr = float(np.einsum("abab->", state.tensor))
    if tr <= 0.0:
        raise NumericalFailure(f"non-positive torus trace {tr}")
    return state.log_norm_per_site + math.log(tr) / state.sites_per_tensor


@dataclass(frozen=True)
class TRGReport:
    """Outcome of a coarsening run.

    lnz_per_site : ln of the partition function per spin at closure.
    f : free energy per spin, -lnz_per_site / beta.
    chi_history : (A-split rank, B-split rank) per step.
    discarded_weights : (A-split, B-split) absolute discarded weight per step,
        each in units of the normalized tensor that step split.
    """

    beta: float
    j: float
    steps: int
    lnz_per_site: float
    f: float
    chi_history: tuple[tuple[int, int], ...]
    discarded_weights: tuple[tuple[float, float], ...]


def free_energy_per_site(
    beta: float,
    j: float = 1.0,
    steps: int = 8,
    spec: TruncationSpec = TruncationSpec(chi_max=16, cutoff=1e-12),
) -> TRGReport:
    """Run ``steps`` (an int >= 0) coarsening steps and close the torus.

    With no effective truncation (rank never capped) this is the exact
    partition function of the 2^(steps+1)-spin periodic patch; with a finite
    chi_max it approximates the thermodynamic limit as steps grow.
    """
    _number(steps, "steps", int, ge=0)
    state = initial_state(beta, j)
    chis: list[tuple[int, int]] = []
    weights: list[tuple[float, float]] = []
    for _ in range(steps):
        split = _split_phase(state, spec)
        del state  # the old tensor dies before the contraction builds the new one
        state = _contract_phase(split)
        chis.append((state.parity_ud.size, state.parity_lr.size))
        weights.append(state.discarded_weight)
    lnz = close_torus(state)
    return TRGReport(
        beta=beta,
        j=j,
        steps=steps,
        lnz_per_site=lnz,
        f=-lnz / beta,
        chi_history=tuple(chis),
        discarded_weights=tuple(weights),
    )


def brute_force_lnz(beta: float, j: float, lx: int, ly: int) -> float:
    """ln(Z) of the lx x ly torus by exhaustive enumeration (<= 20 spins).

    Extent-1 directions contribute no bonds; extent-2 directions produce
    doubled bonds (the wrap-around coincides with the direct neighbor), so
    e.g. the 1x2 torus has Z = 2 exp(2 b J) + 2 exp(-2 b J). Configurations
    are binned by their total bond alignment, then summed in log space.
    """
    beta, j = _number(beta, "beta", gt=0), _number(j, "j")
    lx, ly = _number(lx, "lx", int, ge=1), _number(ly, "ly", int, ge=1)
    n = lx * ly
    if n > _BRUTE_SPIN_CAP:
        raise TooLarge(f"{n} spins exceeds the enumeration cap {_BRUTE_SPIN_CAP}")
    bonds: list[tuple[int, int]] = []
    for y in range(ly):
        for x in range(lx):
            site = x + lx * y
            if lx > 1:
                bonds.append((site, (x + 1) % lx + lx * y))
            if ly > 1:
                bonds.append((site, x + lx * ((y + 1) % ly)))
    n_bonds = len(bonds)
    # bit k of a configuration is spin k (0 -> +1), so s_a s_b = 1 - 2 (b_a xor b_b)
    configs = np.arange(1 << n)
    total = np.zeros_like(configs)
    for a, b in bonds:
        total += 1 - 2 * (((configs >> a) ^ (configs >> b)) & 1)
    counts = np.bincount(total + n_bonds, minlength=2 * n_bonds + 1)
    totals = np.arange(-n_bonds, n_bonds + 1, dtype=np.float64)
    keep = counts > 0
    logs = beta * j * totals[keep] + np.log(counts[keep].astype(np.float64))
    peak = logs.max()
    return float(peak + math.log(np.exp(logs - peak).sum()))
