"""innerlab: numerics for inner functions, circle entropy geometry, and
the Gauss curvature equation on the unit disk."""

__version__ = "0.1.0"

from .backend import backend_name  # noqa: F401
from .bc_sets import (  # noqa: F401
    BCSet,
    StarSpec,
    hyperbolic_dist_to_star,
    star_area_integral,
    star_contains,
)
from .measures import (  # noqa: F401
    DiskMeasure,
    diffuse_family,
    max_star_mass,
    theta_for,
)
from .inner import (  # noqa: F401
    InnerFunctionRep,
    circle_entropy_quadrature,
    critical_points,
    green,
    jensen_entropy,
    log_abs_inner,
)
from .roberts import RobertsDecomposition, RobertsParams, decompose, verify  # noqa: F401
from .gce import (  # noqa: F401
    GridFunction,
    PolarGrid,
    check_fund3,
    diffuse_experiment,
    harmonic_extension,
    nearly_maximal,
    perron_hull_r,
    radial_solution,
    solve_dirichlet,
    u_max,
)
from .outer import OuterSpec, subdivide  # noqa: F401
from .bergman import (  # noqa: F401
    BergmanSpaceSpec,
    distance_to_one,
    h2_norm_and_lp,
)
