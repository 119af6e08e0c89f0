"""Lumped-capacitance channel model for electro-quasistatic body-coupled links.

The package computes every capacitance of a wearable-device body channel
from geometry and position, evaluates the closed-form voltage transfer
functions, cross-checks them against an independent nodal circuit solver,
extracts body capacitance from synthetic resonance sweeps, and runs
parameter sweeps through a CLI with CSV output.
"""

import types

from .config import (
    ConfigError,
    EqsRegimeWarning,
    ParsedConfig,
    ScenarioConfig,
    SideConfig,
    SweepSpec,
    build_scenario,
    load_config_file,
)
from .constants import (
    COUPLED_COUPLING_F,
    DECOUPLING_DISTANCE_M,
    DISTANT_COUPLING_F,
    EPSILON_0,
    EQS_MAX_FREQUENCY_HZ,
)
from .geometry import (
    DeviceGeometry,
    calibrate_coupling_constant,
    coupling_capacitance,
    ground_to_body_capacitance,
    plate_to_plate_capacitance,
    return_path_capacitance,
)
from .network import (
    CapNetwork,
    SingularNetworkError,
    TransferSolution,
    build_channel_network,
    solve_transfer,
    well_posedness_check,
)
from .profiles import ShadowingProfile, shadowing_factor
from .resonance import (
    BoundaryPeakError,
    DielectricTable,
    FlatSweepError,
    FrequencySweep,
    ResonanceCircuit,
    UnresolvedPeakError,
    body_capacitance_lookup,
    capacitance_from_resonance,
    default_frequency_grid,
    extract_body_capacitance,
    find_resonant_frequency,
    lc_response,
)
from .sweep import (
    SweepResult,
    SweepStepError,
    emit_csv,
    read_sweep_csv,
    run_sweep,
)
from .transfer import (
    ChannelScenario,
    DegenerateScenarioError,
    GeometricProvenance,
    TransferReport,
    body_potential_ratio,
    compare_closed_forms,
    extract_return_path,
    full_transfer,
    geometric_transfer,
    ratio_to_db,
    regime_flags,
    relative_error,
    rx_transfer_distant,
    simplified_transfer,
)

__version__ = "0.1.0"

# The imports above are the one list of public names; the submodules they
# bind as package attributes are not exported.
__all__ = sorted(
    (name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)),
    key=str.lower,
)
