"""Networked nonlinear opinion dynamics: simulation, bifurcation analysis,
and adaptive control of pitchfork-organized collective decision-making."""

from .bifurcation import (
    Branch,
    ContinuationProblem,
    Equilibrium,
    Lift,
    SingularPoint,
    ata_problem,
    branch_switch,
    continue_branch,
    jacobian,
    model_problem,
    normalized_problem,
    quotient_problem,
    reduced3_problem,
    ubar_star,
    us_star_hat,
    ustar_numeric,
    ustar_series,
    y_s,
    ystar_root,
    ystar_series,
)
from .dynamics import (
    Decision,
    DecisionConfig,
    beta_vector,
    classify_decision,
    group_opinion,
    normalized_field,
    reduced3_field,
)
from .graphs import (
    Graph,
    PopulationSpec,
    complete_graph,
    directed_ring,
    is_strongly_connected,
    lambda2,
    path_graph,
    three_population_graph,
)
from .solver import (
    EstimatorRun,
    EventHit,
    IntegratorConfig,
    SolverError,
    Trajectory,
    integrate,
    integrate_nonsmooth,
    integrate_to_equilibrium,
)

__version__ = "0.1.0"
