"""Guiding-vector-field path following for constant-speed unicycles.

Implicit planar paths, the guiding field and its steering law, LOS/NGL
baseline controllers, a deterministic RK4 simulator with termination events,
and the critical-point / invariant-set analysis toolbox.
"""

from .analysis import (
    Classification,
    CriticalPoint,
    CriticalPointSearch,
    ViabilityReport,
    classify_critical_point,
    critical_error_threshold,
    find_critical_points,
    in_invariant_set,
    viability_check,
)
from .controllers import (
    AmbiguousProjectionError,
    ControlSample,
    Direction,
    GuidanceInfeasibleError,
    LosParams,
    NglParams,
    Projection,
    gvf_control,
    project_to_path,
)
from .field import (
    DegeneracyError,
    GvfParams,
    GvfSample,
    guiding_field,
    heading_error,
    rotation_rate,
)
from .paths import (
    ERROR_MAPS,
    PATH_KINDS,
    ArctanPower,
    CassiniPath,
    CirclePath,
    ContourNotFoundError,
    EllipsePath,
    ErrorMap,
    IdentityMap,
    LinePath,
    PathError,
    PolynomialPath,
    RationalSignPower,
    check_derivatives,
)
from .sim import (
    Pose,
    StopPolicy,
    TerminationEvent,
    TerminationKind,
    TraceLabel,
    TraceMode,
    Trajectory,
    simulate,
    simulate_gvf_batch,
    trace_batch,
)
from .util import PADDED_WORKSPACE, WORKSPACE, Region, wrap_angle

__version__ = "0.1.0"
