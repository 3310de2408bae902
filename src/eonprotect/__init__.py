"""Availability-aware dynamic RSA with protection for flex-grid optical networks."""

from .availability import (
    ProtectedPath,
    ava_dcyc_update,
    ava_dsbpss_update,
    link_availability,
    monte_carlo_availability,
    parallel_availability,
)
from .dcycles import DCycle, DCycleSet
from .dsbpss import BackupPath, BackupRegistry
from .metrics import (
    MetricsReport,
    bandwidth_blocking_probability,
    blocking_probability,
    capacity_used_for_protection,
    restorability,
    spectrum_utilization,
)
from .rsa import (
    CandidatePath,
    LightpathRequest,
    NoProtection,
    ProvisionResult,
    candidate_paths,
    rsacs_with_protection,
)
from .sim import Scenario, Simulation, generate_arrivals, inject_single_failures, run
from .spectrum import (
    SlotBlock,
    SpectrumBitmap,
    allocate,
    demand_to_slots,
    first_fit,
    is_feasible,
    release,
)
from .topology import (
    JitteredAvailability,
    Link,
    NetworkGraph,
    UniformAvailability,
    build_nsfnet,
    load_topology,
    remove_links,
)

__version__ = "0.1.0"
