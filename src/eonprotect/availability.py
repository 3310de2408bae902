"""Availability math for paths and what protects them.

All functions are pure.  A working path is a series system: its
availability is the product of its link availabilities (``rsa`` takes it
in path order).  Protection lifts it by two recurrences: one more shared
backup in parallel (``ava_dsbpss_update``), and one link in parallel with
a cycle's backup (``ava_dcyc_update``), whose two arcs for a straddler
combine by ``parallel_availability``.

``ProtectedPath`` holds what a mode's ``options`` (see ``rsa.NoProtection``)
say protects a path, and ``monte_carlo_availability`` samples it: it draws
independent component states and evaluates the structure function directly.
It is the oracle the tests hold the recurrences to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def link_availability(mttf_h: float, mttr_h: float) -> float:
    """Steady-state availability of a repairable link, MTTF/(MTTF+MTTR)."""
    if mttf_h <= 0:
        raise ValueError("mttf_h must be positive")
    if mttr_h < 0:
        raise ValueError("mttr_h must be non-negative")
    return mttf_h / (mttf_h + mttr_h)


def parallel_availability(paths: list[float]) -> float:
    """1 - product of branch unavailabilities."""
    if not paths:
        raise ValueError("parallel system needs at least one branch")
    return 1.0 - math.prod(1.0 - a for a in paths)


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


def _positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class ProtectedPath:
    """A working path and the options that protect it, as a structure.

    ``avail`` holds each component's availability by position; ``wp`` and
    each option's ``covers`` and ``needs`` are masks over those positions,
    as a mode's ``options`` gives them (``pack`` is not read).  The path is
    up when each of its links is up or covered by an option whose needed
    links are all up.
    """

    avail: tuple[float, ...]
    wp: int
    options: tuple[tuple[int, int, int], ...]

    def component_availabilities(self) -> tuple[float, ...]:
        return self.avail

    def evaluate(self, up: np.ndarray) -> np.ndarray:
        usable = [
            (covers, up[:, _positions(needs)].all(axis=1))
            for covers, needs, _ in self.options
        ]
        out = np.ones(up.shape[0], dtype=bool)
        for pos in _positions(self.wp):
            link = up[:, pos].copy()
            for covers, works in usable:
                if covers >> pos & 1:
                    link |= works
            out &= link
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
