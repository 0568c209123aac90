"""Anytime-feasible alpha-fair bandwidth allocation over partitioned networks."""

from .fairness import (
    FairnessError,
    FairnessObjective,
    Moduli,
    PenaltyState,
    adapt_penalty,
    bottleneck_capacities,
    default_objective,
    moduli,
    optimal_lambda,
    prox_values,
    utility,
)
from .model import (
    Instance,
    Link,
    ModelError,
    Partition,
    Route,
    balanced_assignment,
    build_partition,
    generate_random,
    is_feasible,
    link_loads,
    load_instance,
    save_instance,
    single_domain,
    validate,
)
from .projections import (
    BatchedLinkProjector,
    DykstraError,
    ProjectionError,
    project_capped_simplex,
    project_polyhedron,
)
from .solvers import (
    ALGORITHMS,
    ConsensusIndex,
    SolveResult,
    SolverConfig,
    SolverError,
    cadmm_step,
    fair_optimum,
    fdadmm_round,
    initial_state,
    lagr_step,
    reference_solution,
    solve,
)
from .trace import TraceRow, read_trace, relative_gap, violated_percentage, write_trace

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
