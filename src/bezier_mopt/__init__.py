"""Multi-objective optimization by iterative Bezier-simplex fitting.

Builds a parametric hypersurface approximating the Pareto set of a
differentiable multi-objective problem: each iteration samples scalarization
weights uniformly on the probability simplex, advances the corresponding
surface points with a single-objective step rule, and refits the control
points by least squares. Ships the benchmark problems, the MSE/GD/IGD
evaluation metrics, an empirical stability-diagnostics suite, and a CLI
harness (`bezier-mopt`).
"""

__version__ = "0.1.0"

from .bezier import (BezierSimplex, SingularFitError, design_matrix,
                     fit_least_squares, load_model, save_model)
from .diagnostics import (generalization_gap_experiment, perturbation_experiment,
                          run_baseline, score_model, stability_summary)
from .metrics import PointSet, UnsupportedMetricError, gd, igd, loss, mse
from .problems import (Problem, ScalarizedObjective, get_problem, scalarize,
                       scaled_med, scaled_med_pareto, skew_mmed, skew_mmmd,
                       skew_mmmd_default)
from .simplex import (MultiIndexSet, bernstein_vector, enumerate_multi_indices,
                      sample_uniform_simplex, triangular_lattice, weight_vector)
from .solver import (ConfigError, RunRecord, SolverAbort, SolverConfig, derive_seed,
                     gradient_step_rule, run_generic, run_surface_gd, run_surface_gd_trials)
from .sweep import SweepResult, pareto_set_sweep

__all__ = [
    "BezierSimplex", "ConfigError", "MultiIndexSet", "PointSet", "Problem", "RunRecord",
    "ScalarizedObjective", "SingularFitError", "SolverAbort", "SolverConfig",
    "SweepResult", "UnsupportedMetricError", "__version__",
    "bernstein_vector", "derive_seed", "design_matrix",
    "enumerate_multi_indices", "fit_least_squares", "gd",
    "generalization_gap_experiment", "get_problem", "gradient_step_rule",
    "igd", "load_model", "loss", "mse", "pareto_set_sweep",
    "perturbation_experiment", "run_baseline", "run_generic", "run_surface_gd",
    "run_surface_gd_trials", "sample_uniform_simplex", "save_model", "scalarize",
    "scaled_med", "scaled_med_pareto", "score_model", "skew_mmed", "skew_mmmd",
    "skew_mmmd_default", "stability_summary", "triangular_lattice",
    "weight_vector",
]
