"""Logical error rates of square-lattice GKP repetition codes.

Analytic (quadrature) and Monte Carlo engines for the failure probability
of n-qubit GKP repetition codes under biased Gaussian displacement noise
with finitely squeezed ancilla qubits, plus Wigner-function evaluation of
the underlying states.

The package namespace holds the names the README documents; everything
else is imported from its submodule (``gkprep.analysis``,
``gkprep.distributions``, ``gkprep.lattice``, ``gkprep.montecarlo``,
``gkprep.quadrature``, ``gkprep.repetition``, ``gkprep.wigner``).
"""

from .analysis import CrossingQuery, critical_ancilla_spread
from .distributions import GaussianDisplacement, NoiseParams
from .montecarlo import ShotConfig, run_tally
from .repetition import (
    CodeSize,
    FailureBreakdown,
    QuadratureConfig,
    QuadratureError,
    failure_rate,
    overall_failure_biased,
    pauli_rate_physical,
)
from .wigner import read_binary_grid

__all__ = [
    "CodeSize",
    "CrossingQuery",
    "FailureBreakdown",
    "GaussianDisplacement",
    "NoiseParams",
    "QuadratureConfig",
    "QuadratureError",
    "ShotConfig",
    "critical_ancilla_spread",
    "failure_rate",
    "overall_failure_biased",
    "pauli_rate_physical",
    "read_binary_grid",
    "run_tally",
]

__version__ = "0.1.0"
