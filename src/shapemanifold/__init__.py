"""Shape design over a reduced geometry manifold.

Morph triangulated geometries with a free-form-deformation lattice,
compress the resulting shape family to its intrinsic coordinates with an
orthonormal (SVD-based) basis, fit a feasible region around the training
cloud, and interpolate solver outputs over the reduced coordinates for
real-time prediction and optimization.
"""

from . import artifacts, cli, config
from .errors import ShapeManifoldError
from .ffd import (
    FfdConfig,
    MapEntry,
    default_config,
    displacement_jacobian,
    morph,
)
from .manifold import (
    FeasiblePolygon,
    ReducedSpace,
    build_geometry_pod,
    build_reduced_space,
    decode,
    detect_dependencies,
    fit_feasible_polygon,
    linear_fit,
    sample_ffd_params,
    sample_reduced,
)
from .mesh import (
    FacetSoup,
    TriMesh,
    default_weld_tolerance,
    flatten,
    read_stl,
    unflatten,
    weld,
    write_stl,
)
from .optimize import OptProblem, OptResult, minimize
from .pod import (
    PodBasis,
    TruncationRule,
    assemble,
    compute_pod,
    decay_report,
    reconstruct,
    truncate,
)
from .rom import (
    Interpolator,
    RomModel,
    SolutionDatabase,
    build_rom,
    fit_interpolator,
    loo_error,
    predict,
)
from .solver import SolutionSnapshot, StubConfig, evaluate

__version__ = "0.1.0"
