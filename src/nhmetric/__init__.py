"""Quantum-metric detection of critical points in non-Hermitian lattice models.

The package locates localization transitions, mobility edges and
many-body phase transitions by computing the quantum metric (fidelity
susceptibility) of self-normalized right eigenstates, and cross-validates
the detected critical points against analytic boundaries, localization
diagnostics and Pfaffian order parameters.
"""

__version__ = "0.1.0"

from .cluster_ising import (
    ClusterSpec,
    CorrelatorTable,
    EdOracleResult,
    GapPair,
    OrderParameters,
    build_cluster_chain,
    correlator_elements,
    ed_oracle,
    gaps,
    ground_state_metric,
    order_parameters,
    string_correlation,
    two_spin_correlation,
)
from .linalg import (
    EigenSystem,
    FitResult,
    eig_right,
    fit_linear,
    match_states,
    pfaffian,
)
from .metric import (
    MetricRequest,
    MetricValue,
    metric_diagonal,
    metric_spectrum,
)
from .mixed_ising import MixedSpec, build_mixed, magnetization
from .quasiperiodic import (
    FIBONACCI_SIZES,
    GOLDEN_BETA,
    Gaa1Spec,
    Gaa2Spec,
    build_gaa1,
    build_gaa2,
    fractal_dimension,
    gaa1_critical_v1,
    gaa2_mobility_edge,
    participation_ratio,
)
from .sweep import (
    AxisSpec,
    CriticalPoint,
    FssResult,
    SweepConfig,
    SweepRecord,
    detect_peaks,
    export_records,
    finite_size_scaling,
    load_records,
    run_sweep,
)

__all__ = [
    "AxisSpec",
    "ClusterSpec",
    "CorrelatorTable",
    "CriticalPoint",
    "EdOracleResult",
    "EigenSystem",
    "FIBONACCI_SIZES",
    "FitResult",
    "FssResult",
    "Gaa1Spec",
    "Gaa2Spec",
    "GapPair",
    "GOLDEN_BETA",
    "MetricRequest",
    "MetricValue",
    "MixedSpec",
    "OrderParameters",
    "SweepConfig",
    "SweepRecord",
    "build_cluster_chain",
    "build_gaa1",
    "build_gaa2",
    "build_mixed",
    "correlator_elements",
    "detect_peaks",
    "ed_oracle",
    "eig_right",
    "export_records",
    "finite_size_scaling",
    "fit_linear",
    "fractal_dimension",
    "gaa1_critical_v1",
    "gaa2_mobility_edge",
    "gaps",
    "ground_state_metric",
    "load_records",
    "magnetization",
    "match_states",
    "metric_diagonal",
    "metric_spectrum",
    "order_parameters",
    "participation_ratio",
    "pfaffian",
    "run_sweep",
    "string_correlation",
    "two_spin_correlation",
]
