"""Operator-valued asymmetric metrics with executable numerics.

The package provides:

* concrete algebra realizations (2x2 matrices, sampled functions, scalars)
  with positivity, partial orders, and the resolvent inverse;
* a fixed catalog of asymmetric metrics (matrix-valued, function-valued and
  scalar) with empirical axiom checking;
* forward/backward convergence classification for sequences;
* contraction-certificate verification and scalar coefficient search;
* Picard fixed-point solving with geometric a-priori error envelopes;
* a discretized integral-equation application on (0, 1].
"""

from __future__ import annotations

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    AlgebraError,
    NormKind,
    NotPositive,
    NotSelfAdjoint,
    OrderKind,
    PreconditionNormTooLarge,
    QuasifixError,
    RealizationMismatch,
    ResolventInaccurate,
    add,
    adjoint,
    diag2,
    element_from_json,
    element_to_json,
    inverse_one_minus,
    is_positive,
    leq,
    mat2,
    mul,
    norm,
    sampled,
    scalar,
)
from .contraction import (
    CertificateInvalid,
    CoefficientNormTooLarge,
    ContractionCertificate,
    NotInCommutant,
    Regime,
    search_scalar_coefficient,
    verify,
    verify_orbital_type,
)
from .convergence import (
    ConvergenceVerdict,
    Verdict,
    WindowTooLarge,
    classify,
    orbital_lsc_check,
)
from .maps import MapSpec, from_table, linear_quarter, piecewise_quarter
from .metrics import (
    AxiomReport,
    DomainMismatch,
    MetricSpec,
    check_axioms,
    distance_norm,
    eval_metric,
    mat2_split,
    mat2_split_scaled,
    mult_op,
    periodic_fn,
    reversed_metric,
    scalar_backward_one,
    scalar_forward_one,
)
from .solver import (
    OrbitTrace,
    RateNotLessThanOne,
    SolverConfig,
    SolverReport,
    apriori_envelope,
    picard_solve,
    uniqueness_probe,
)
