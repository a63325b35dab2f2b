"""Rotation-twirl channels on qubit registers.

The package is organized bottom-up:

- ``linalg``: dense complex linear algebra, norms, Haar sampling
- ``repkit``: total-angular-momentum bookkeeping for N qubits (dimensions,
  coupling paths, the change of basis to coupled form, rotation matrices)
- ``workspace``: the truncated direct-sum space used for encoding
- ``channel``: the rotation-averaging (twirl) channel, exact and by quadrature
- ``privacy``: distinguishability experiments on random encoding subspaces
- ``capacity``: closed-form channel-capacity bounds
- ``cli``: a reproducible command-line driver emitting canonical JSON/CSV
"""

from framecrypt.linalg import (
    haar_unitary,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)
from framecrypt.repkit import (
    SchurTransform,
    dim_irrep,
    dim_multiplicity,
    schur_transform,
    wigner_d,
)
from framecrypt.workspace import WorkingSpace, asymptotic_k, build_working_space, embed_state
from framecrypt.channel import (
    BlockState,
    QuadratureSpec,
    reduced_map_f,
    reference_states,
    twirl,
    twirl_block,
    twirl_oracle,
)
from framecrypt.privacy import (
    ConcentrationReport,
    PrivacyParams,
    build_eps_net,
    concentration_experiment,
    estimate_max_f,
    f_eval,
    haar_moment_check,
    helstrom_distinguish,
    lipschitz_check,
    mean_f_experiment,
    sample_subspace,
    theorem1_experiment,
)
from framecrypt.capacity import (
    c_perfect_asymptotic,
    classical_capacity_upper,
    min_delta_for_advantage,
    q_perfect,
    rank_pi_prime,
    thm1_dim_bound,
)

__version__ = "0.1.0"
