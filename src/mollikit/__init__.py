"""Boundary-preserving variable-step mollification on uniform grids.

The smoothing radius shrinks toward the boundary (and toward optional
interior zero sets), so smoothed fields keep their boundary and interior
trace values while becoming smooth where the radius is positive.
"""

from .analysis import (InvariantViolation, StudyReport, convergence_study, counterexample_run,
                       l1_operator_norm_report, norm, trace_check, weak_l1_check)
from .eta import (CertificationError, EtaProfile, ModulusOfContinuity,
                  build_whitney_eta, bv_step_eta, calibrated_eta,
                  estimate_modulus, quadratic_eta, regularized_distance)
from .feasible import (ConstraintSpec, convergence_factor, density_study,
                       feasible_smooth, membership)
from .grid import (Domain, ScalarField, VectorField, distance_field, domain_from_json,
                   gradient_central, read_field_csv, write_field_csv)
from .kernels import Kernel, kernel_from_json, make_kernel, unit_ball_volume
from .mollify import (MollifierConfig, composite_profile, modified_config, mollify,
                      mollify_at_points, mollify_composite, mollify_gradient,
                      mollify_with_report, pointwise_gradient_bound_check, psi_field)

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "ConstraintSpec", "Domain", "EtaProfile",
    "InvariantViolation", "Kernel", "ModulusOfContinuity", "MollifierConfig",
    "ScalarField", "StudyReport", "VectorField", "build_whitney_eta",
    "bv_step_eta", "calibrated_eta", "composite_profile", "convergence_factor",
    "convergence_study", "counterexample_run", "density_study", "distance_field",
    "domain_from_json", "estimate_modulus", "feasible_smooth", "gradient_central",
    "kernel_from_json", "l1_operator_norm_report", "make_kernel", "membership", "modified_config", "mollify", "mollify_at_points",
    "mollify_composite", "mollify_gradient", "mollify_with_report", "norm",
    "pointwise_gradient_bound_check", "psi_field", "quadratic_eta",
    "read_field_csv", "regularized_distance", "trace_check", "unit_ball_volume",
    "weak_l1_check", "write_field_csv",
]
