"""Consensus-based Nash equilibrium seeking for multi-coalition games on
interference graphs: a game model over symbolic costs, the seeking dynamics
and their integrator, an independent stationary-point oracle, trajectory
diagnostics, and cost accounting."""

from .analysis import (
    BlockTransform,
    CostReport,
    build_block_transforms,
    consensus_residual,
    cost_accounting,
    deviation_bounds,
    lyapunov_value,
    solve_lyapunov,
)
from .dynamics import (
    IntegrateParams,
    Seeker,
    SeekerState,
    Trajectory,
)
from .expr import (
    DomainError,
    Expression,
    MissingVariableError,
    ParseError,
    differentiate,
    evaluate,
    free_variables,
    parse,
    render,
)
from .game import (
    Coalition,
    FlowAgent,
    Game,
    GameError,
    build_congestion_game,
    coalition_cost,
    infer_interference_graph,
    pseudo_gradient,
)
from .graphs import (
    Graph,
    GraphError,
    interference_to_k_graph,
    is_connected,
    laplacian,
    max_triangle_free_spanning_subgraph,
    orthonormal_complement,
    validate_containment,
)
from .oracle import (
    MonotonicityReport,
    NashProbeReport,
    StationaryReport,
    check_monotonicity,
    gradient_check,
    solve_stationary,
    verify_nash,
)
from .scenario import Scenario, ScenarioError, available_presets, load_scenario

__version__ = "0.1.0"
