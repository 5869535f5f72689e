"""Worst-case dilation of Delaunay triangulations: constructions and measurement."""

from .geom import Circle, Point2, Sign, dist, incircle, orient2d, tangent_points
from .triangulation import (
    PointSet,
    Triangulation,
    ValidityReport,
    delaunay,
    is_valid_delaunay,
    make_unique_delaunay,
    perturb,
    stability_check,
)
from .dilation import (
    DilationReport,
    EuclideanGraph,
    graph_from_triangulation,
    max_dilation,
    pair_dilation,
    shortest_path,
)
from .constructions import (
    ChewSpec,
    ConstructionOutput,
    ThreeCircleSpec,
    TwoSemicircleSpec,
    arc_beats_detour,
    balance_alpha,
    closed_form_t,
    generate_chew,
    generate_three_circle,
    generate_two_semicircle,
    path_lengths_limit,
    shield_position,
    sweep_d,
)
from .experiments import (
    Gaussian,
    Mixture,
    PlantSpec,
    TrendResult,
    UniformDisk,
    UniformSquare,
    dilation_trend,
    invariance_check,
    plant,
    sample,
)

__version__ = "0.1.0"
