"""Moebius-invariant geometry of circles, pencils and loxodromes."""

from .cycles import (
    Cycle,
    CycleKind,
    ExtendedPoint,
    MoebiusMap,
    PencilKind,
    apply_to_cycle,
    apply_to_point,
    canonicalize,
    center_radius,
    classify,
    classify_pencil,
    from_circle,
    from_line,
    intersect,
    is_orthogonal,
    map_to_zero_one_inf,
    normalized_product,
    passes,
    point_of,
    product,
    self_product,
    zero_radius_at,
)
from .errors import MoebloxError
from .loxodrome import (
    BRANCH_SWAP,
    Loxodrome,
    LoxodromeTriple,
    MembershipReport,
    SlsParameter,
    apply_map,
    contains_point,
    contains_point_oracle,
    diagonal_flow,
    equivalent,
    intersection_angle,
    lambda_from_triple,
    sample_curve,
    standard_map,
    standard_triple,
    tangent_check,
    tangent_line_at,
    validate_triple,
)
from .numerics import (
    DEFAULT_TOLERANCES,
    Tolerances,
    clamped_acos,
    clamped_acosh,
    congruent_mod,
)
from .pencils import orthogonal_cycle_through, zero_radius_members
from .render import RenderConfig, render_scene
from .scene import Scene, SceneObject, load_scene, parse_scene

__version__ = "0.1.0"
