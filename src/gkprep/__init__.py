"""Logical error rates of square-lattice GKP repetition codes.

Analytic (quadrature) and Monte Carlo engines for the failure probability
of n-qubit GKP repetition codes under biased Gaussian displacement noise
with finitely squeezed ancilla qubits, plus Wigner-function evaluation of
the underlying states.
"""

from .analysis import (
    AmbiguousCrossingError,
    CrossingQuery,
    CrossingResult,
    CurveTable,
    OptimalBias,
    SweepSpec,
    critical_ancilla_spread,
    optimal_bias,
    run_sweep,
)
from .distributions import (
    DegenerateDistributionError,
    GaussianDisplacement,
    NoiseParams,
    ResidualDistribution,
    intrinsic_density,
    pauli_rate_ideal,
    pauli_rate_physical,
    pauli_rate_physical_report,
    residual_cdf,
)
from .lattice import (
    SQRT_PI,
    TruncationBudget,
    TruncationError,
    Zone,
    ZoneKind,
    classify_zone,
)
from .montecarlo import (
    Mode,
    ShotConfig,
    ShotOverrides,
    ShotRecord,
    TallyResult,
    run_shot,
    run_tally,
    sample_residual,
)
from .repetition import (
    CodeSize,
    FailureBreakdown,
    QuadratureConfig,
    QuadratureError,
    classical_failure,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    success_product,
)
from .wigner import (
    GkpEnvelope,
    GridSpec,
    PhaseSpaceGrid,
    grid_to_binary,
    grid_to_csv,
    read_binary_grid,
    wavefunction,
    wigner_after_gdc,
    wigner_physical_zero,
)

__all__ = [
    "AmbiguousCrossingError",
    "CodeSize",
    "CrossingQuery",
    "CrossingResult",
    "CurveTable",
    "DegenerateDistributionError",
    "FailureBreakdown",
    "GaussianDisplacement",
    "GkpEnvelope",
    "GridSpec",
    "Mode",
    "NoiseParams",
    "OptimalBias",
    "PhaseSpaceGrid",
    "QuadratureConfig",
    "QuadratureError",
    "ResidualDistribution",
    "SQRT_PI",
    "ShotConfig",
    "ShotOverrides",
    "ShotRecord",
    "SweepSpec",
    "TallyResult",
    "TruncationBudget",
    "TruncationError",
    "Zone",
    "ZoneKind",
    "classical_failure",
    "classify_zone",
    "critical_ancilla_spread",
    "failure_rate",
    "failure_rate_no_gkp_ec",
    "grid_to_binary",
    "grid_to_csv",
    "intrinsic_density",
    "optimal_bias",
    "overall_failure_biased",
    "pauli_rate_ideal",
    "pauli_rate_physical",
    "pauli_rate_physical_report",
    "read_binary_grid",
    "residual_cdf",
    "run_shot",
    "run_sweep",
    "run_tally",
    "sample_residual",
    "success_product",
    "wavefunction",
    "wigner_after_gdc",
    "wigner_physical_zero",
]

__version__ = "0.1.0"
