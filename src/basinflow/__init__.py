"""basinflow: watershed nutrient-flow reconstruction and estimation.

Rebuilds an explicit, mass-conserving flow network from watershed
topology (land segments draining through a dendritic river network into
an estuary) and estimates every nutrient flow from uncertain aggregate
datasets by solving a sparse equality-constrained weighted least-squares
program.
"""

import os
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# OpenBLAS reads this once, when numpy's and scipy's copies load.  A run's
# only BLAS work is SuperLU's small kernels, and idle workers spin against
# the Python glue: on 2 CPUs one thread took a fresh 1500-outlet `estimate`
# from 1.08 to 0.81 s (BENCH_27.json).  A caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy

# Run on first use, not by scipy.sparse's array-API shim: 0.16 s, 10 MB per
# start-up.  Bound on numpy like a submodule, or numpy's __getattr__ recurses.
LAZY_MODULES = ("numpy.f2py", "numpy.testing", "numpy.ma", "numpy.polynomial")
for _name in LAZY_MODULES:
    if _name not in sys.modules and (_spec := find_spec(_name)):
        _spec.loader = LazyLoader(_spec.loader)
        sys.modules[_name] = _module = module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        setattr(numpy, _name.rpartition(".")[2], _module)

from .core_net import (
    Capabilities,
    CapabilityClass,
    CapabilitySpec,
    build_incidence,
)
from .topology import (
    WatershedNetwork,
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
    assemble_system,
    assemble_transport_relations,
    compute_delivery_model,
    compute_weights,
    expand_constraints,
    stack_systems,
)
from .synthetic import generate_synthetic
from .estimator import (
    EstimationProblem,
    Solution,
    assemble_problem,
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
    "Capabilities", "CapabilityClass", "CapabilitySpec",
    "build_incidence",
    "WatershedNetwork", "instantiate_capabilities", "load_network",
    "validate_routing",
    "MeasurementConstraint", "MeasurementSystem",
    "assemble_accept_constraints", "assemble_eos_constraints",
    "assemble_eot_constraints", "assemble_stream_to_tide",
    "assemble_system", "assemble_transport_relations",
    "compute_delivery_model", "compute_weights", "expand_constraints",
    "stack_systems",
    "generate_synthetic",
    "EstimationProblem", "Solution", "assemble_problem",
    "residual_report", "solve",
    "FitReport", "build_fit_report", "export_results",
    "median_relative_error", "nrmse", "r_squared", "relative_error",
]
