"""Tensor renormalization for the 2D classical Ising model on a torus.

The partition function is written as a checkerboard network: one rank-4
tensor per black face of the spin lattice, indices (u, l, d, r) running over
the four corner spins, carrying the Boltzmann weight of that face's four
bonds. Each tensor therefore accounts for two spins, and diagonally adjacent
faces share one spin index, so the tensors tile a 45-degree-rotated square
lattice with the usual rule: r joins the right neighbor's l, u joins the
upper neighbor's d.

One coarsening step splits every tensor by SVD — (d,l)|(u,r) on one
sublattice, (u,l)|(d,r) on the other, absorbing sqrt of the singular values
into both halves — and contracts the four corner pieces around every other
plaquette into a new tensor. The new legs are the SVD link indices and point
along the diagonals, so the coarse network is again a square lattice of the
same kind with half as many tensors (each covering twice the spins).

Running tensors are kept normalized to unit max-entry; the peeled-off scale
factors accumulate directly into ln(Z) per spin. Closing the network as a
one-tensor torus (self-tracing u with d and l with r) after k steps yields
the exact partition function of a 2^(k+1)-spin periodic patch; odd k
corresponds to the axis-aligned L x L torus with L = 2^((k+1)/2), which is
what the brute-force reference below enumerates.

All tensors stay real float64: the weights are positive, so no complex
arithmetic ever enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomp import TruncationSpec, truncated_svd
from .errors import BadBeta, NumericalFailure, TooLarge
from .tensors import DenseTensor

_BRUTE_SPIN_CAP = 20


def ising_plaquette_tensor(beta: float, j: float = 1.0) -> DenseTensor:
    """Boltzmann weight of one face: T[u,l,d,r] = exp(bJ(su+sd)(sl+sr)).

    Index 0 is spin +1, index 1 is spin -1. The exponent regroups the four
    boundary-bond terms su*sl + sl*sd + sd*sr + sr*su, which makes the
    invariance under cyclic leg rotation explicit.
    """
    if not (beta > 0.0) or not math.isfinite(beta):
        raise BadBeta(f"inverse temperature must be positive and finite, got {beta}")
    if not math.isfinite(j):
        raise BadBeta(f"coupling must be finite, got {j}")
    s = np.array([1.0, -1.0])
    pair_sum = np.add.outer(s, s)  # [u, d] -> su + sd, and likewise for l, r
    t = np.exp(beta * j * pair_sum[:, None, :, None] * pair_sum[None, :, None, :])
    return DenseTensor._wrap(t)


@dataclass(frozen=True)
class TRGState:
    """Coarse tensor plus the scale bookkeeping.

    tensor : current rank-4 tensor, normalized to unit max entry.
    log_norm_per_site : accumulated ln of peeled scale factors, per spin.
    step : number of coarsening steps taken so far.
    """

    tensor: DenseTensor
    log_norm_per_site: float
    step: int

    @property
    def sites_per_tensor(self) -> int:
        return 2 ** (self.step + 1)


def initial_state(beta: float, j: float = 1.0) -> TRGState:
    """Normalized starting network for the given temperature and coupling."""
    raw = ising_plaquette_tensor(beta, j).to_ndarray()
    c = float(np.abs(raw).max())
    return TRGState(
        tensor=DenseTensor._wrap(raw / c),
        log_norm_per_site=math.log(c) / 2.0,
        step=0,
    )


def _split(mat: np.ndarray, spec: TruncationSpec) -> tuple[np.ndarray, np.ndarray]:
    """SVD split with sqrt(d) absorbed into both halves."""
    res = truncated_svd(DenseTensor._wrap(mat), spec)
    root = np.sqrt(res.d)
    return res.u.to_ndarray() * root[None, :], root[:, None] * res.v_dag.to_ndarray()


def trg_step(state: TRGState, spec: TruncationSpec) -> TRGState:
    """One exact-rewrite coarsening step (truncated per ``spec``).

    Sublattice A splits as (d,l)|(u,r) into S1[d,l,m], S2[m,u,r]; sublattice
    B as (u,l)|(d,r) into S3[u,l,m], S4[m,d,r]. Around a plaquette whose SW,
    SE, NE, NW corners hold S2, S3, S1, S4 respectively, the contraction
    over the four old edges

        T'[u,l,d,r] = sum_{a,b,c,e} S2[d,a,b] S4[l,a,e] S1[c,e,u] S3[c,b,r]

    produces the coarse tensor; u/d inherit the A-split link, l/r the
    B-split link, so the result is again a valid (u,l,d,r) network tensor.
    """
    arr = state.tensor.to_ndarray()
    cu, cl, cd, cr = arr.shape
    m1 = arr.transpose(2, 1, 0, 3).reshape(cd * cl, cu * cr)
    s1, s2 = _split(m1, spec)
    k1 = s1.shape[1]
    s1 = s1.reshape(cd, cl, k1)
    s2 = s2.reshape(k1, cu, cr)
    m2 = arr.reshape(cu * cl, cd * cr)
    s3, s4 = _split(m2, spec)
    k2 = s3.shape[1]
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
        tensor=DenseTensor._wrap(new / c),
        log_norm_per_site=state.log_norm_per_site + math.log(c) / spt_new,
        step=state.step + 1,
    )


def close_torus(state: TRGState) -> float:
    """ln(Z) per spin of the one-tensor torus closure of the current network."""
    tr = float(np.einsum("abab->", state.tensor.to_ndarray()))
    if tr <= 0.0:
        raise NumericalFailure(f"non-positive torus trace {tr}")
    return state.log_norm_per_site + math.log(tr) / state.sites_per_tensor


@dataclass(frozen=True)
class TRGReport:
    """Outcome of a coarsening run.

    lnz_per_site : ln of the partition function per spin at closure.
    f : free energy per spin, -lnz_per_site / beta.
    chi_history : (A-split rank, B-split rank) per step.
    """

    beta: float
    j: float
    steps: int
    lnz_per_site: float
    f: float
    chi_history: tuple[tuple[int, int], ...]


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
    for _ in range(steps):
        state = trg_step(state, spec)
        t = state.tensor
        chis.append((t.shape[0], t.shape[1]))
    lnz = close_torus(state)
    return TRGReport(
        beta=beta,
        j=j,
        steps=steps,
        lnz_per_site=lnz,
        f=-lnz / beta,
        chi_history=tuple(chis),
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
