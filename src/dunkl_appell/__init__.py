"""Dunkl-Appell positive linear operators: primitives, evaluation engine,
closed-form moments and quantitative error-bound verification."""

from .appell import AppellFamily, WeightSequence
from .bounds import (
    BoundInputs,
    BoundPoint,
    BoundReport,
    ModulusEstimate,
    VerifyParams,
    modulus1,
    modulus2,
    theorem2_bound,
    theorem3_bound,
    theorem4_bound,
    verify,
)
from .dunkl import (
    DunklContext,
    ExpEvaluation,
    dunkl_exp,
    dunkl_exp_neg_ratio,
    theta,
)
from .engine import (
    CentralMoments,
    OperatorSpec,
    QFunctionals,
    apply,
    central_moments,
    central_moments_series,
    moments_closed,
    q_functionals,
)
from .errors import (
    ConfigurationError,
    DomainError,
    DunklApproxError,
    EvaluationError,
    NormalizationError,
    NotAppellGeneratorError,
    RangeError,
    TranscriptionError,
    TruncationFailureError,
)
from .functions import BUILTIN_REGISTRY, FunctionEntry, lookup
from .series import PowerSeries, exp_series

__version__ = "0.1.0"

__all__ = [
    "AppellFamily",
    "BoundInputs",
    "BoundPoint",
    "BoundReport",
    "BUILTIN_REGISTRY",
    "CentralMoments",
    "ConfigurationError",
    "DomainError",
    "DunklApproxError",
    "DunklContext",
    "EvaluationError",
    "ExpEvaluation",
    "FunctionEntry",
    "ModulusEstimate",
    "NormalizationError",
    "NotAppellGeneratorError",
    "OperatorSpec",
    "PowerSeries",
    "QFunctionals",
    "RangeError",
    "TranscriptionError",
    "TruncationFailureError",
    "VerifyParams",
    "WeightSequence",
    "apply",
    "central_moments",
    "central_moments_series",
    "dunkl_exp",
    "dunkl_exp_neg_ratio",
    "exp_series",
    "lookup",
    "modulus1",
    "modulus2",
    "moments_closed",
    "q_functionals",
    "theorem2_bound",
    "theorem3_bound",
    "theorem4_bound",
    "theta",
    "verify",
]
