"""Desk-scale numerical laboratory for the SK spin glass.

Exact Gibbs observables by full enumeration, TAP and cavity-TAP residuals,
the replica-symmetric fixed point and AT criterion, Ito decompositions along
Brownian coupling paths, the deformed-GOE resolvent form of the correlation
matrix, and disorder-ensemble scaling experiments.
"""

from .dynamics import (
    ItoCheckConfig,
    ito_decomposition_residual,
    ito_decomposition_trace,
)
from .ensemble import EXPERIMENTS, EnsembleConfig, EnsembleStats, fit_power_law, run_ensemble
from .errors import (
    BranchError,
    EnsembleSampleError,
    NonConvergenceError,
    NumericalError,
    SingularOperatorError,
)
from .gibbs import (
    GibbsTables,
    coupling_derivative_residual,
    gibbs_tables,
    key_identity_residual,
    magnetizations,
    susceptibility_fd,
    triple_correlation,
)
from .model import (
    CouplingMatrix,
    CouplingPath,
    ModelParams,
    sample_couplings,
    sample_path,
    substream_seed,
)
from .spectral import (
    DeformedOperator,
    build_deformed,
    resolvent_error,
    s_prime_at_e0,
    self_consistent_s,
    spectral_margin,
)
from .tap import (
    ResidualReport,
    at_value,
    f_map,
    htap1_residuals,
    htap2_residual,
    predicted_mij_sq,
    solve_q,
    tap1_residuals,
    tap2_residual,
)

__version__ = "0.1.0"
