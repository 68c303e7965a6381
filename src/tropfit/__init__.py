"""tropfit: max-plus (tropical) regression.

Fits Puiseux polynomials and rational functions (ratios of two such
polynomials) to sampled data, minimizing the tropical Chebyshev-type
distance.  In the max-plus semifield the fitted functions are convex and
difference-of-convex piecewise-linear functions; the max-times semifield is
supported through its log/exp isomorphism.

Max-plus values are plain floats and vectors and matrices are float64 numpy
arrays; the tropical zero ``ZERO`` is -inf and the unit ``ONE`` is 0.
"""

from .linalg import (
    INFINITE,
    ONE,
    ZERO,
    ApproxSolution,
    TwoSidedSolution,
    alternating_solve,
    best_approx_solve,
    distance,
    matvec,
)
from .puiseux import (
    PolyMinimum,
    PuiseuxPoly,
    PuiseuxRational,
    eval_poly,
    eval_rational,
    min_poly,
)
from .clustering import (
    ExponentResult,
    Partition,
    PartitionBlock,
    SampleSet,
    agglomerate,
    error_polynomials,
)
from .fitting import (
    FitConfig,
    PolyFit,
    RationalFit,
    fit_polynomial,
    fit_rational,
)
from .report import FitReport, load_samples

__all__ = [
    "ONE",
    "ZERO",
    "INFINITE",
    "ApproxSolution",
    "TwoSidedSolution",
    "PolyMinimum",
    "PuiseuxPoly",
    "PuiseuxRational",
    "ExponentResult",
    "Partition",
    "PartitionBlock",
    "SampleSet",
    "FitConfig",
    "PolyFit",
    "RationalFit",
    "FitReport",
    "matvec",
    "distance",
    "best_approx_solve",
    "alternating_solve",
    "eval_poly",
    "eval_rational",
    "min_poly",
    "error_polynomials",
    "agglomerate",
    "fit_polynomial",
    "fit_rational",
    "load_samples",
]

__version__ = "0.1.0"
