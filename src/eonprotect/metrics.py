"""The five performance metrics, computed from run counters.

All counters refer to the post-warm-up window.  Spectrum figures are
slot-seconds; shared backup slots and cycle slots count once however many
working paths they protect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ZeroArrivalsError(Exception):
    pass


class ZeroDemandError(Exception):
    pass


@dataclass
class MetricsReport:
    arrived: int = 0
    blocked: int = 0
    slots_requested: int = 0
    slots_blocked: int = 0
    slot_time_used: float = 0.0
    slot_time_capacity: float = 0.0
    protection_slot_time: float = 0.0
    protected_count: int = 0
    needing_protection: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.blocked > self.arrived:
            raise ValueError("blocked exceeds arrived")
        if self.slots_blocked > self.slots_requested:
            raise ValueError("slots blocked exceeds slots requested")
        if self.protected_count > self.needing_protection:
            raise ValueError("protected exceeds paths needing protection")
        if self.needing_protection > self.arrived - self.blocked:
            raise ValueError("paths needing protection exceed accepted arrivals")
        for name in (
            "arrived", "blocked", "slots_requested", "slots_blocked",
            "slot_time_used", "slot_time_capacity", "protection_slot_time",
            "protected_count", "needing_protection",
        ):
            value = getattr(self, name)
            # NaN passes the sign check below; NaN or inf would reach the metrics.
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is not finite")
            if value < 0:
                raise ValueError(f"{name} is negative")


def blocking_probability(r: MetricsReport) -> float:
    """Blocked connections over arrived connections."""
    if r.arrived == 0:
        raise ZeroArrivalsError("no arrivals in the measured window")
    return r.blocked / r.arrived


def bandwidth_blocking_probability(r: MetricsReport) -> float:
    """Blocked slot demand over total slot demand (guard slots included)."""
    if r.slots_requested == 0:
        raise ZeroDemandError("no slot demand in the measured window")
    return r.slots_blocked / r.slots_requested


def spectrum_utilization(r: MetricsReport) -> float:
    """Time-averaged fraction of busy slots, working plus protection."""
    if r.slot_time_capacity == 0:
        return 0.0
    return r.slot_time_used / r.slot_time_capacity


def capacity_used_for_protection(r: MetricsReport) -> float:
    """Total protection slot-seconds, shared slots counted once."""
    return r.protection_slot_time


def restorability(r: MetricsReport) -> float | None:
    """Protected over protection-needing paths; None when nothing needed it."""
    if r.needing_protection == 0:
        return None
    return r.protected_count / r.needing_protection
