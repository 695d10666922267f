"""Exact 2D Delaunay/Voronoi meshes with a proximity and visibility
relation algebra, and a suite runner that machine-checks the library's
claim catalog on generated or user-supplied meshes."""

from .complexes import (
    MeshMismatchError,
    RelationReport,
    SubComplex,
    boundary,
    check_cech_axioms,
    closure,
    far,
    interior,
    invisible,
    near,
    strongly_far,
    strongly_invisible,
    strongly_near,
    strongly_visible,
    visible,
)
from .geometry import (
    DegenerateInputError,
    Point2,
    Polygon,
    circumcenter,
    convex_hull,
    incircle,
    is_convex_polygon,
    orient2d,
)
from .mesh import (
    Mesh,
    MeshError,
    SiteSet,
    Triangle,
    VoronoiRegion,
    is_delaunay_edge,
    is_delaunay_triangle,
    triangulate,
    voronoi,
)
from .regions import (
    NeighborhoodMap,
    Region,
    RegionError,
    RegionTraceError,
    audit_delaunay_characterizations,
    build_region,
    leader_topology,
    region_convexity,
    regions_proximal,
)
from .visibility import (
    ConstraintSet,
    audit_segment_visibility,
    segment_visible,
)

__version__ = "0.1.0"
