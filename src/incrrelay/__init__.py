"""Distance-relay characteristics from incremental phasor quantities."""

from importlib import resources

from .admittance import FAULT_TYPES, FaultSpec
from .characteristics import (
    Characteristic,
    contains,
    convex_hull,
    exact_sampled,
    grid_corners4,
    grid_dense,
    grid_paper22,
    grid_perimeter,
    hull_characteristic,
    parallelogram,
)
from .incremental import OmegaCache, build_omega_map, remote_current
from .loops import apparent_impedance, incremental_apparent_impedance, loop_quantities
from .network import (
    Bus,
    BusRole,
    Line,
    NetworkModel,
    parse_network,
    phase_impedance,
    serialize_network,
)
from .phasors import MeasurementWindow, Phasor3, incremental, zero_sequence
from .simulator import (
    ScenarioResult,
    ScenarioStack,
    simulate,
    simulate_many,
    verify_grid,
    verify_pipeline,
)

__all__ = [
    "FAULT_TYPES",
    "FaultSpec",
    "Characteristic",
    "contains",
    "convex_hull",
    "exact_sampled",
    "grid_corners4",
    "grid_dense",
    "grid_paper22",
    "grid_perimeter",
    "hull_characteristic",
    "parallelogram",
    "OmegaCache",
    "build_omega_map",
    "remote_current",
    "apparent_impedance",
    "incremental_apparent_impedance",
    "loop_quantities",
    "Bus",
    "BusRole",
    "Line",
    "NetworkModel",
    "parse_network",
    "phase_impedance",
    "serialize_network",
    "MeasurementWindow",
    "Phasor3",
    "incremental",
    "zero_sequence",
    "ScenarioResult",
    "ScenarioStack",
    "simulate",
    "simulate_many",
    "verify_grid",
    "verify_pipeline",
    "fourbus_path",
]

__version__ = "0.1.0"


def fourbus_path() -> str:
    """Filesystem path of the bundled four-bus example network."""
    return str(resources.files("incrrelay.data").joinpath("fourbus.yaml"))
