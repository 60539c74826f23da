"""ringform: deterministic ring-swarm simulation and analysis.

Distributed chain-cardinality estimation on cut ring segments, the
self-organized polygon formation law driven by those estimates, and the
spectral toolkit that verifies the stability conditions and
closed-form readouts both rest on.
"""

__version__ = "0.1.0"

from .core import DivergenceError, SwarmState, make_generator, uniform_box
from .estimation import (
    EstimateTrace,
    EstimatorConfig,
    run_estimation,
    steady_velocity_ratio,
    step_estimator,
)
from .formation import (
    FormationConfig,
    FormationTrace,
    PipelineEstimationError,
    PipelineResult,
    predicted_equilibrium,
    relative_distance_errors,
    run_formation,
    run_pipeline,
    step_formation,
)
from .harness import (
    ScenarioReport,
    SensitivityCurve,
    SweepResult,
    auto_stop_window,
    scaled_params,
    scenario_report,
    sensitivity_curves,
    sweep_convergence,
)
from .spectral import (
    EstimationParams,
    SystemMatrices,
    build_cascade_matrix,
    build_estimator_matrix,
    build_formation_matrix,
    build_lagged_estimator_matrix,
    build_lagged_formation_matrix,
    chain_equilibrium,
    chain_modes,
    readout_determinant,
    readout_matrix,
    spectral_radius,
    spectral_report,
    stability_bound,
    stability_limit,
    steady_gain,
    steady_gain_recursive,
    steady_ratio_closed,
)
from .topology import (
    ChainSegment,
    PolygonSpec,
    RingTopology,
    cut_ring,
    validate_polygon_closure,
)
