"""netxform: synthesis of time-varying local interaction weights that make a
network compute a global linear transformation of its initial state."""

from .graph import (Graph, InputError, build_graph, complete_graph, cycle_graph,
                    graph_from_json_dict, is_connected, laplacian, path_graph,
                    star_graph)
from .lie_algebra import (AlgebraElement, FeasibilityReport, IndexField,
                          bracket, bracket_general, check_feasible,
                          generated_algebra_dimension)
from .dynamics import (TransitionTrajectory, WeightSchedule, constant_schedule,
                       determinant, expm, integrate_transition,
                       liouville_residual, propagate_state, simulation_steps,
                       solve_linear)
from .optimal_control import (BvpProblem, ExtremalSolution, Solution,
                              cost, extremal_rhs, homotopy_singularity_scan,
                              shoot, solve_bvp, solve_with_waypoints,
                              weights_from_costate)
from .scenarios import (agreement_error, densification_target, run_densify,
                        run_swap, swap_target)

__version__ = "0.1.0"
