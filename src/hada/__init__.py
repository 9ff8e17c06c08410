"""Exact Hadamard products of points, lines and finite point sets in
projective space over the rationals.

All arithmetic is exact: coordinates are primitive integer vectors,
products and classifications are computed in closed form, and every
rank, kernel and regularity invariant comes from fraction-free integer
elimination in ``hada._elim``.
"""

from .errors import (
    ArrangementError,
    DimensionMismatch,
    GridConditionError,
    HadaError,
    InstanceError,
    MembershipError,
    SamplingError,
    StratumError,
    UnsupportedShapeError,
)
from .forms import HomogeneousForm, monomials
from .ideals import (
    CIVerdict,
    GeneratorProfile,
    HilbertProfile,
    ci_verdict,
    degree_bounded_ideal,
    generator_profile,
    hf_product_check,
    hilbert_function,
    hilbert_profile,
)
from .plane import (
    CollinearityReport,
    GridResult,
    IncidenceReport,
    LineArrangement,
    PointLineOutcome,
    collinear_set_line_product,
    generic_collinear_sample,
    grid_product_p2,
    line_through,
    point_line_product_p2,
    product_collinearity_check,
    two_point_line_incidence,
)
from .projective import (
    UNDEFINED,
    Hyperplane,
    LinearSubspace,
    PointSet,
    ProjPoint,
    Undefined,
    coordinate_hyperplane,
    hadamard_points,
    hyperplane_product,
    pairwise_products,
    point_hyperplane_product,
)
from .space import (
    GridResult3,
    Line3,
    Quadric3,
    RankCertificate,
    RulingReport,
    generic_plane_pair,
    generic_skew_sample,
    grid_product_p3,
    line_intersection,
    point_line_product_p3,
    quadric_through,
    rank_condition,
    ruling_check,
    variety_product_interpolate,
)

__version__ = "0.1.0"
