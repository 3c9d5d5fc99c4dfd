"""Kaniadakis deformed exponentials, algebra, and decay-equation solvers."""

from .core import (
    Kappa,
    adaptive_quadrature,
    differential_weight,
    from_kappa_number,
    kappa_exp,
    kappa_integral,
    kappa_ln,
    kappa_product,
    kappa_product_identity,
    kappa_sum,
    to_kappa_number,
)
from .errors import ConvergenceError, DomainError, FloorError
from .harness import (
    ConvergenceReport,
    ErrorReport,
    asymptote_check,
    convergence_order,
    error_table,
    picard_vs_series,
    series_error_curve,
)
from .ode import (
    DecayProblem,
    LogisticProblem,
    SolutionTrace,
    ab2_solve,
    analytic_trace,
    closed_form_decay,
    euler_solve,
    logistic_closed_form,
    logistic_residual,
    quadrature_decay,
    residual_decay,
    rk4_solve,
    slope_field,
    substitution_decay,
)
from .series import (
    PowerSeries,
    decay_series_solution,
    evaluate_series,
    exp_kappa_taylor,
    ln_kappa_shifted_taylor,
    picard_iterate,
    sqrt_weight_series,
)

__version__ = "0.1.0"
