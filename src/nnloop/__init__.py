"""Certification toolkit for neural-network-controlled setpoint tracking.

Pipeline: plant + integrator augmentation -> network steady state -> local
sector bounds -> LMI assembly -> interior-point solve with independent
certification -> ellipsoidal region-of-attraction sets -> simulation with an
optional reference governor.
"""

from .closed_loop import (
    Trajectory,
    govern,
    simulate,
    simulate_with_governor,
    step,
)
from .errors import (
    DimensionMismatch,
    GovernorInfeasible,
    NNLoopError,
    NonPositiveD,
    NonPositiveGamma,
    SingularAa,
    SingularGain,
    StarOutsideBox,
)
from .lmi import (
    LMISystem,
    Selectors,
    build_global,
    build_local_fixed,
    build_local_range,
    build_selectors,
    ref_sensitivity,
)
from .network import (
    Activation,
    FeedForwardNN,
    LayerTrace,
    forward,
    io_maps,
    load_nn,
    save_nn,
    steady_forward,
)
from .plant import (
    AugmentedPlant,
    Plant,
    SteadyState,
    SteadyStateMap,
    augment,
    build_pendulum,
    load_plant,
    save_plant,
    steady_state,
    steady_state_map,
)
from .roa import (
    AdmissibleRefs,
    Ellipsoid,
    JointEllipsoid,
    admissible_references,
    boundary_polyline,
    contains,
    joint_contains,
    joint_ellipsoid_for,
    schur_row_check,
    slice_at,
)
from .sdp import (
    SDPSolution,
    certify,
    solve,
    solve_certified,
)
from .sectors import (
    BoundBox,
    SectorBounds,
    global_sectors,
    local_sectors,
    propagate_box,
)

__version__ = "0.1.0"
