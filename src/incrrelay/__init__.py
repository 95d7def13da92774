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
from .incremental import OmegaCache
from .loops import loop_quantities
from .network import Bus, BusRole, Line, NetworkModel, parse_network, phase_impedance
from .phasors import MeasurementWindow, Phasor3
from .simulator import ScenarioResult, ScenarioStack, simulate, simulate_many
from .verify import verify_grid

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
    "loop_quantities",
    "Bus",
    "BusRole",
    "Line",
    "NetworkModel",
    "parse_network",
    "phase_impedance",
    "MeasurementWindow",
    "Phasor3",
    "ScenarioResult",
    "ScenarioStack",
    "simulate",
    "simulate_many",
    "verify_grid",
    "fourbus_path",
]

__version__ = "0.1.0"


def fourbus_path() -> str:
    """Filesystem path of the bundled four-bus example network."""
    return str(resources.files("incrrelay.data").joinpath("fourbus.yaml"))
