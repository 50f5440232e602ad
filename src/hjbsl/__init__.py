"""Semi-Lagrangian solver for HJB equations with oblique and mixed
Dirichlet boundary conditions on bounded domains."""

from .errors import (
    BadParams,
    ConfigError,
    HJBError,
    LocationFailure,
    NoConvergence,
    NoCrossing,
    NotOnBoundary,
    OutOfLayer,
    OutsideDomain,
    OutsideTube,
    RegularityViolation,
    TooLarge,
    Unstable,
)
from .geometry import (
    Disk,
    Domain,
    FunctionField,
    Interval,
    NormalField,
    ObliqueField,
    ObliqueProjection,
    RectWithHole,
    RotatedNormalField,
    layer_distance,
    oblique_projection,
)
from .mesh import (
    Mesh,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_with_hole_mesh,
    read_mesh,
    write_mesh,
)
from .markov import (
    TransitionLaw,
    estimate_sojourn,
    policy_cost,
    transition_law,
)
from .problems import (
    Benchmark,
    get_benchmark,
    make_test1,
    make_test2,
    make_test3,
    unit_circle_controls,
)
from .scheme import (
    Problem,
    SchemeParams,
    ValueFunction,
    apply_S,
    consistency_residual,
    sweep,
)

__version__ = "0.1.0"
