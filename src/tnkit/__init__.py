"""Tensor-network toolkit: dense tensors, MPS/MPO, TEBD, and TRG.

Conventions that hold package-wide:

* MPS and MPO site tensors, gates and SVD/eig factors are read-only numpy
  arrays of any inexact dtype, and the algorithms call numpy on them
  directly. :class:`DenseTensor` with ``reshape``, ``permute``, ``contract``
  and ``contract_flops`` is the validated tutorial API of the four basic
  operations. Wherever a tensor meets a flat vector, the first index is the
  fastest.
* Many-site state vectors put site 0 on the fastest index (little-endian).
* Truncation is controlled everywhere by one :class:`TruncationSpec`.
"""

from .decomp import (
    UNTRUNCATED,
    EigResult,
    SVDResult,
    TruncationSpec,
    eig_hermitian,
    entanglement_entropy,
    mera_update,
    select_rank,
    svd,
    truncated_svd,
)
from .ed import EDResult, mpo_matvec, solve_dense, solve_iterative
from .errors import NoConvergence, NumericalFailure, TnkitError, TooLarge, ValidationError
from .mpo import (
    ID2,
    MPO,
    SM,
    SP,
    SX,
    SY,
    SZ,
    build_exp_decay,
    build_heisenberg,
    build_ising_nn,
    build_ising_nnn,
    mpo_expectation,
    mpo_to_dense,
    two_site_matrix,
)
from .mps import (
    MPS,
    CorrelationReport,
    apply_two_site_gate,
    bond_entropies,
    canonicalize,
    connected_correlation,
    correlation_length,
    expect_local,
    expect_two_site,
    fit_exponential_decay,
    fit_power_law,
    gauge_insert,
    inner_product,
    move_center,
    mps_from_json,
    mps_from_state_vector,
    mps_to_json,
    norm_squared,
    product_mps,
    product_state_vector,
    random_mps,
    to_state_vector,
)
from .tebd import (
    GroundStateReport,
    TimeEvolutionReport,
    bond_gate,
    evolve_real_time,
    find_ground_state,
    initial_product_state,
    measure_energy,
    pair_hamiltonian,
    sweep,
)
from .tensors import (
    DenseTensor,
    contract,
    contract_flops,
    permute,
    reshape,
)
from .trg import (
    TRGReport,
    TRGState,
    brute_force_lnz,
    close_torus,
    free_energy_per_site,
    initial_state,
    ising_plaquette_tensor,
    trg_step,
)

__version__ = "0.1.0"
