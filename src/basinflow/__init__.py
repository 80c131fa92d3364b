"""basinflow: watershed nutrient-flow reconstruction and estimation.

Rebuilds an explicit, mass-conserving flow network from watershed
topology (land segments draining through a dendritic river network into
an estuary) and estimates every nutrient flow from uncertain aggregate
datasets by solving a sparse equality-constrained weighted least-squares
program.
"""

from .core_net import (
    BufferKind,
    BufferSpec,
    Capabilities,
    CapabilityClass,
    CapabilitySpec,
    IncidenceMatrices,
    Operand,
    build_incidence,
    default_operands,
    place_index,
    state_transition,
)
from .topology import (
    WatershedNetwork,
    derive_connectivity_from_names,
    instantiate_capabilities,
    load_network,
    validate_routing,
)
from .measurement import (
    MeasurementConstraint,
    MeasurementSystem,
    assemble_accept_constraints,
    assemble_eos_constraints,
    assemble_eot_constraints,
    assemble_stream_to_tide,
    assemble_transport_relations,
    compute_delivery_model,
    compute_weights,
    expand_constraints,
    interoutlet_delivery_factor,
    outlet_delivery_factor,
    stack_systems,
    weighted_delivery_factor,
)
from .synthetic import generate_synthetic
from .estimator import (
    EstimationProblem,
    Solution,
    assemble_problem,
    dense_oracle_solve,
    residual_report,
    solve,
)
from .report import (
    FitReport,
    build_fit_report,
    export_results,
    median_relative_error,
    nrmse,
    r_squared,
    relative_error,
)

__version__ = "0.1.0"

__all__ = [
    "BufferKind", "BufferSpec", "Capabilities", "CapabilityClass", "CapabilitySpec",
    "IncidenceMatrices", "Operand", "build_incidence", "default_operands",
    "place_index", "state_transition",
    "WatershedNetwork", "derive_connectivity_from_names",
    "instantiate_capabilities", "load_network", "validate_routing",
    "MeasurementConstraint", "MeasurementSystem",
    "assemble_accept_constraints", "assemble_eos_constraints",
    "assemble_eot_constraints", "assemble_stream_to_tide",
    "assemble_transport_relations",
    "compute_delivery_model", "compute_weights", "expand_constraints",
    "interoutlet_delivery_factor", "outlet_delivery_factor",
    "stack_systems", "weighted_delivery_factor",
    "generate_synthetic",
    "EstimationProblem", "Solution", "assemble_problem",
    "dense_oracle_solve", "residual_report", "solve",
    "FitReport", "build_fit_report", "export_results",
    "median_relative_error", "nrmse", "r_squared", "relative_error",
]
