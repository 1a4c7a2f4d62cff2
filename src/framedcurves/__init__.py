"""Framed space curves in constant-curvature geometries.

Frames of curves in Euclidean, spherical and hyperbolic space, contact-order
(type vector) detection on exact and floating paths, hyperplane-envelope
meshes with their singular loci, discriminant normal forms, and bifurcation
scans of one-parameter families.
"""

from .errors import (
    CapabilityError,
    ChartError,
    ConfigError,
    DegeneracyError,
    DimensionMismatch,
    DomainError,
    FiniteTypeError,
    FramedCurveError,
    IntegrationError,
)
from .spaceform import (
    AmbientForm,
    Hyperplane,
    SpaceForm,
    hyperplane_eval,
    inner_product,
    model_residual,
    normalize_to_model,
    random_isometry,
    space_form,
    tangent_residual,
    transform_hyperplane,
)
from .curves import (
    ClosedFormCurve,
    PolynomialCurve,
    SampledCurve,
    circle_curve,
    great_circle_curve,
    helix_curve,
    monomial_curve,
)
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
    DualCurve,
    Frame,
    FrameField,
    dual_coefficient_jets,
    frame_dual,
    frame_field_from_function,
    gram_defect,
    gram_schmidt_signed,
    integrate_structure_equation,
    legendre_residuals,
    osculating_frame,
    osculating_frame_field,
    reorthonormalize,
    structure_matrix,
    structure_poly_matrix,
)
from .flags import (
    DiagonalData,
    FlagCurve,
    c_integral_reconstruct,
    c_integrality_residual,
    c_lift_monomial,
    d_integrality_residual,
    dual_curve_from_clift,
    flag_from_curve,
    flag_from_frame,
    flag_segments,
    projection_curve,
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
    classify_point,
    consistency_check,
    export_events_csv,
    scan_family,
    unresolved,
)
from .ratpoly import Poly, poly_det, polish_root, real_roots_in_window
from .config import DEFAULTS, RunConfig
from .examples import (
    builtin_adapted_examples,
    builtin_clift_examples,
    builtin_field,
    cylinder_point,
    helix_developable_point,
    helix_frenet_field,
    radial_circle_field,
    violation_witnesses,
)
from .acceptance import run_all

__version__ = "0.1.0"
