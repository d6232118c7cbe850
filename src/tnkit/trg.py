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
its rows and columns are grouped by parity. Each step therefore computes the
SVDs of the even and the odd block, merges the two spectra in descending
order and cuts the merged spectrum with ``decomp.select_rank``: the kept
values, the cutoff and the degeneracy rule are those of the full SVD, at
about a quarter of its cost. Each kept link inherits its block's parity, so
the coarse tensor is parity-even again and its odd entries stay exactly zero.

Running tensors are kept normalized to unit max-entry; the peeled-off scale
factors accumulate directly into ln(Z) per spin. Closing the network as a
one-tensor torus (self-tracing u with d and l with r) after k steps yields
the exact partition function of a 2^(k+1)-spin periodic patch; odd k
corresponds to the axis-aligned L x L torus with L = 2^((k+1)/2), which is
what the brute-force reference below enumerates.

All tensors are plain real float64 numpy arrays; no complex arithmetic ever
enters. A step refuses with TooLarge, before it contracts, when the largest
array it would build holds more than 100^4 elements (800 MB), the size of a
step at bond dimension 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomp import TruncationSpec, select_rank, svd
from .errors import BadBeta, NumericalFailure, TooLarge

_BRUTE_SPIN_CAP = 20
_STEP_ELEMENT_CAP = 100**4
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_SPIN_PARITY = np.array([0, 1], dtype=np.int8)  # of the Hadamard-rotated spin index


def _plaquette_exponent(beta: float, j: float) -> np.ndarray:
    """bJ(su+sd)(sl+sr) over the 16 corner-spin configurations of a face."""
    if not (beta > 0.0) or not math.isfinite(beta):
        raise BadBeta(f"inverse temperature must be positive and finite, got {beta}")
    if not math.isfinite(j):
        raise BadBeta(f"coupling must be finite, got {j}")
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


def _split(
    mat: np.ndarray, parity: np.ndarray, spec: TruncationSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Truncated SVD split of a parity-block-diagonal square matrix.

    ``parity`` labels the rows and, identically, the columns; ``mat`` is zero
    between rows and columns of different parity. Returns the left piece
    U sqrt(d), the right piece sqrt(d) V†, the parity of each kept link, and
    the absolute discarded weight.
    """
    sectors = []
    for p in (0, 1):
        idx = np.flatnonzero(parity == p)
        if idx.size:
            sectors.append((p, idx, svd(mat[np.ix_(idx, idx)])))
    d = np.concatenate([res.d for _, _, res in sectors])
    order = np.argsort(-d, kind="stable")
    k = select_rank(d[order], spec)
    kept = order[:k]
    left = np.zeros((mat.shape[0], k))
    right = np.zeros((k, mat.shape[1]))
    link_parity = np.empty(k, dtype=np.int8)
    offset = 0
    for p, idx, res in sectors:
        n = res.d.shape[0]
        slot = np.flatnonzero((kept >= offset) & (kept < offset + n))
        local = kept[slot] - offset
        root = np.sqrt(res.d[local])
        left[np.ix_(idx, slot)] = res.u[:, local] * root[None, :]
        right[np.ix_(slot, idx)] = root[:, None] * res.v_dag[local, :]
        link_parity[slot] = p
        offset += n
    return left, right, link_parity, float(np.sum(d[order[k:]] ** 2))


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
    Raises TooLarge, before contracting, if the largest array the step
    builds would hold more than 100^4 elements.
    """
    arr = state.tensor
    cu, cl, cd, cr = arr.shape
    pair_parity = (state.parity_ud[:, None] ^ state.parity_lr[None, :]).ravel()
    # no name holds a split matrix, so each is freed before the contraction below
    s1, s2, p_ud, w1 = _split(arr.transpose(2, 1, 0, 3).reshape(cd * cl, cu * cr), pair_parity, spec)
    k1 = s1.shape[1]
    s1 = s1.reshape(cd, cl, k1)
    s2 = s2.reshape(k1, cu, cr)
    s3, s4, p_lr, w2 = _split(arr.reshape(cu * cl, cd * cr), pair_parity, spec)
    k2 = s3.shape[1]
    largest = k1 * k2 * max(cr * cr, cl * cl, k1 * k2)  # of p1, p2 and new below
    if largest > _STEP_ELEMENT_CAP:
        raise TooLarge(f"TRG step would build {largest} elements (cap {_STEP_ELEMENT_CAP})")
    s3 = s3.reshape(cu, cl, k2)
    s4 = s4.reshape(k2, cd, cr)

    p1 = np.tensordot(s2, s4, axes=([1], [1]))  # (d', b, l', e)
    p2 = np.tensordot(s1, s3, axes=([0], [0]))  # (e, u', b, r')
    new = np.tensordot(p1, p2, axes=([1, 3], [2, 0]))  # (d', l', u', r')
    new = new.transpose(2, 1, 0, 3)

    c = float(np.abs(new).max())
    if c == 0.0:
        raise NumericalFailure("coarse tensor vanished; cannot renormalize")
    spt_new = 2 * state.sites_per_tensor
    return TRGState(
        tensor=new / c,
        log_norm_per_site=state.log_norm_per_site + math.log(c) / spt_new,
        step=state.step + 1,
        parity_ud=p_ud,
        parity_lr=p_lr,
        discarded_weight=(w1, w2),
    )


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
    """Run ``steps`` coarsening steps and close the torus.

    With no effective truncation (rank never capped) this is the exact
    partition function of the 2^(steps+1)-spin periodic patch; with a finite
    chi_max it approximates the thermodynamic limit as steps grow.
    """
    state = initial_state(beta, j)
    chis: list[tuple[int, int]] = []
    weights: list[tuple[float, float]] = []
    for _ in range(steps):
        state = trg_step(state, spec)
        t = state.tensor
        chis.append((t.shape[0], t.shape[1]))
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
    if not (beta > 0.0) or not math.isfinite(beta):
        raise BadBeta(f"inverse temperature must be positive and finite, got {beta}")
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
