"""Availability and reliability math for paths and protected systems.

All functions are pure.  A path is a series system (product of link
availabilities); redundant backups compose in parallel; a path whose
individual links carry dedicated backups is a series-parallel system.
The Monte-Carlo estimator is an independent oracle used by the tests: it
draws link up/down states and evaluates the structure function directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def structure_series(x: list[int]) -> int:
    """Structure function of a series system: 1 iff every link is up."""
    if not x:
        raise ValueError("state vector must be nonempty")
    for xi in x:
        if xi not in (0, 1):
            raise ValueError(f"state indicator must be 0 or 1, got {xi}")
    return int(all(x))


def link_availability(mttf_h: float, mttr_h: float) -> float:
    """Steady-state availability of a repairable link, MTTF/(MTTF+MTTR)."""
    if mttf_h <= 0:
        raise ValueError("mttf_h must be positive")
    if mttr_h < 0:
        raise ValueError("mttr_h must be non-negative")
    return mttf_h / (mttf_h + mttr_h)


def series_availability(links: list[float]) -> float:
    """Product over the links; empty product is 1 by convention."""
    return math.prod(links)


def parallel_availability(paths: list[float]) -> float:
    """1 - product of branch unavailabilities."""
    if not paths:
        raise ValueError("parallel system needs at least one branch")
    return 1.0 - math.prod(1.0 - a for a in paths)


def series_parallel_availability(
    protected: list[tuple[float, float]],
    unprotected: list[float],
) -> float:
    """Series path where some links carry a dedicated backup route.

    ``protected`` holds (link availability, backup availability) pairs; each
    contributes 1-(1-A)(1-A'), unprotected links contribute A directly.
    """
    out = 1.0
    for a, a_backup in protected:
        out *= 1.0 - (1.0 - a) * (1.0 - a_backup)
    for a in unprotected:
        out *= a
    return out


def ava_dsbpss_update(a_pp: float, a_bp: float) -> float:
    """Path availability after stacking one more shared backup path."""
    return 1.0 - (1.0 - a_pp) * (1.0 - a_bp)


def ava_dcyc_update(a_pp: float, a_l: float, a_bp: float) -> tuple[float, float]:
    """Path availability after protecting one constituent link by a cycle.

    The link's factor a_l in the path product is replaced by the protected
    value a_pl = 1-(1-a_l)(1-a_bp).  Returns (new path availability, a_pl).
    """
    if a_l <= 0:
        raise ZeroDivisionError("protected link availability must be positive")
    a_pl = 1.0 - (1.0 - a_l) * (1.0 - a_bp)
    return a_pp * a_pl / a_l, a_pl


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSystem:
    links: tuple[float, ...]

    def component_availabilities(self) -> tuple[float, ...]:
        return self.links

    def evaluate(self, up: np.ndarray) -> np.ndarray:
        return up.all(axis=1)


@dataclass(frozen=True)
class ParallelSystem:
    """Branches are series chains; the system is up if any branch is up."""

    branches: tuple[tuple[float, ...], ...]

    def component_availabilities(self) -> tuple[float, ...]:
        return tuple(a for branch in self.branches for a in branch)

    def evaluate(self, up: np.ndarray) -> np.ndarray:
        out = np.zeros(up.shape[0], dtype=bool)
        i = 0
        for branch in self.branches:
            out |= up[:, i : i + len(branch)].all(axis=1)
            i += len(branch)
        return out


@dataclass(frozen=True)
class SeriesParallelSystem:
    """Series chain where some links have a single-component backup in parallel."""

    protected: tuple[tuple[float, float], ...]
    unprotected: tuple[float, ...]

    def component_availabilities(self) -> tuple[float, ...]:
        flat = [a for pair in self.protected for a in pair]
        return tuple(flat) + self.unprotected

    def evaluate(self, up: np.ndarray) -> np.ndarray:
        out = np.ones(up.shape[0], dtype=bool)
        for j in range(len(self.protected)):
            out &= up[:, 2 * j] | up[:, 2 * j + 1]
        base = 2 * len(self.protected)
        if self.unprotected:
            out &= up[:, base:].all(axis=1)
        return out


def monte_carlo_availability(
    system,
    samples: int,
    seed: int = 0,
    chunk: int = 200_000,
) -> tuple[float, float]:
    """Estimate system availability by sampling independent link states.

    Returns (estimate, standard error).  ``system`` is any object exposing
    ``component_availabilities()`` and a vectorized ``evaluate(up_matrix)``.
    States are drawn ``chunk`` samples at a time.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    avails = np.asarray(system.component_availabilities(), dtype=float)
    rng = np.random.default_rng(seed)
    successes = 0
    remaining = samples
    while remaining > 0:
        n = min(chunk, remaining)
        up = rng.random((n, avails.size)) < avails
        successes += int(system.evaluate(up).sum())
        remaining -= n
    p = successes / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr
