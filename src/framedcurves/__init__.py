"""Framed space curves in constant-curvature geometries.

Frames of curves in Euclidean, spherical and hyperbolic space, contact-order
(type vector) detection on exact and floating paths, hyperplane-envelope
meshes with their singular loci, discriminant normal forms, and bifurcation
scans of one-parameter families.
"""

from .errors import (
    ChartError,
    ConfigError,
    DegeneracyError,
    DimensionMismatch,
    DomainError,
    FiniteTypeError,
    FramedCurveError,
    IntegrationError,
)
from .spaceform import SpaceForm
from .curves import BasePointCurve, PolynomialCurve, monomial_curve
from .jets import (
    DEFAULT_RANK_TOL,
    TypeDetection,
    codim_adapted,
    codim_osculating,
    detect_type,
    detect_type_report,
    dual_type,
    enumerate_generic_types,
    exact_rank_profile,
    float_rank_profile,
    schubert_number,
    validate_type_vector,
)
from .frames import (
    CurvatureData,
    FrameField,
    dual_coefficient_jets,
    gram_defect,
    gram_schmidt_signed,
    integrate_structure_equation,
    reorthonormalize,
    structure_matrix,
    structure_poly_matrix,
)
from .flags import (
    FlagCurve,
    c_integrality_residual,
    c_lift_monomial,
    d_integrality_residual,
    dual_curve_from_clift,
    flag_from_curve,
    type_from_diagonal_orders,
)
from .envelope import (
    EnvelopeMesh,
    HyperplaneFamily,
    NormalFormFamily,
    Polyline,
    discriminant_mesh,
    envelope_mesh,
    export_obj,
    export_polylines,
    hyperplane_family,
    singular_locus,
)
from .classify import (
    CLASS_BY_DUAL_TYPE,
    CUSPIDAL_BEAKS,
    CUSPIDAL_BUTTERFLY,
    CUSPIDAL_EDGE,
    DEGENERATE,
    EVENT_CSV_HEADER,
    FULL_FOLDED_UMBRELLA,
    REGULAR,
    SWALLOWTAIL,
    BifurcationEvent,
    CurvatureFamily,
    DiagonalFamily,
    ScanResult,
    SingularityClass,
    Stratum,
    class_of,
    classify_osculating_scan,
    consistency_check,
    export_events_csv,
    scan_family,
    unresolved,
)
from .ratpoly import Poly, poly_det
from .config import DEFAULTS, RunConfig
from .examples import (
    BUILTINS,
    builtin_adapted_examples,
    builtin_clift_examples,
    circle_curve,
    cylinder_point,
    great_circle_curve,
    helix_curve,
    helix_developable_point,
    helix_frenet_field,
    radial_circle_field,
    violation_witnesses,
)
from .acceptance import run_all

__version__ = "0.1.0"
