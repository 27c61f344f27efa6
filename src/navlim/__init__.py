"""navlim: accuracy limits of cooperative network navigation.

Agents cooperating in space (inter-node ranging) and time (intra-node
velocity measurements) admit closed-form accuracy limits via equivalent
Fisher information. This package assembles those information matrices,
runs the carry-over recursion that propagates past information forward,
verifies the geometric decompositions of carry-over information, and drives
Monte-Carlo scenario studies from a CLI.
"""

from .blockfim import (
    ChainBlocks,
    SingularBlockError,
    block_diag,
    eliminate_block,
    eliminate_hmm_chain,
)
from .geom2d import (
    Eigen2,
    Ellipse,
    eigen2,
    info_ellipse,
    r_cross,
    r_dir,
    rotation,
    unit_vector,
)
from .models import (
    GeometryError,
    MobilityModel,
    RangeModel,
    Scenario,
    ScenarioGeometry,
    VelocityModel,
    range_intensity_from_sigmas,
    range_intensity_via_reduction,
    spatial_block,
    temporal_block,
    velocity_intensities,
)
from .navinfo import (
    AxesCouplingSplit,
    BayesianEfim,
    JointEfim,
    WeightedSplit,
    assemble_position_efim,
    axes_coupling_closed_form,
    bayesian_efim,
    block_spebs,
    carry_over_step,
    decompose_axes_coupling,
    decompose_weighted_sum,
    independent_params_efim,
    individual_efims,
    marginal_efim,
    position_coords,
    spatial_step_matrix,
    speb,
    speb_with_rank,
    temporal_step_blocks,
)
from .simkit import (
    ALL_MODES,
    AuditError,
    ConfigError,
    CoopMode,
    ScenarioConfig,
    SpebRow,
    SpebTable,
    SweepNumericalError,
    generate_scenario,
    persist,
    sweep_nodes,
    sweep_time,
)

__version__ = "0.1.0"
