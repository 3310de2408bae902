"""Discrete-event engine: dynamic traffic, provisioning and teardown.

One Simulation owns one network instance and is strictly single-threaded.
Arrivals are Poisson (per-node offered load in Erlang by default), holding
times exponential, endpoints uniform over ordered vertex pairs, and rates
uniform integers in [1, B] Gbps.  Metrics only count arrivals at or after
three mean holding times, when the system has warmed up.

The arrivals are a time-ordered list of requests, read in order with an
index.  They are drawn up front as numpy columns (inter-arrival and holding
times, rates, sources, destination offsets) and built in bulk from chunked
Python lists, so the run loop builds nothing.  The heap holds only the
departures of live connections, as (departure time, connection number,
conn id).  An arrival goes before a departure at the same time, and
departures at the same time leave in the order their connections arrived.

The scenario's mode picks one protection object (``rsa.NoProtection``
states its protocol): ``BackupRegistry`` for ``dsbpss``, ``DCycleSet`` for
``dcycles`` and ``NoProtection`` for ``none``.  The engine protects and
releases through it, and fault injection reads its ``options``, so the
engine never branches on the mode.

Busy slots are integrated as counters, never recounted from the links: the
working slots of live connections plus the protection's ``reserved``, which
it keeps exact as it reserves and frees.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .dcycles import DCycleSet
from .dsbpss import BackupRegistry
from .metrics import MetricsReport
from .rsa import MODES, LightpathRequest, NoProtection, ProvisionResult, rsacs_with_protection
from .spectrum import demand_to_slots, release
from .topology import (
    JitteredAvailability,
    NetworkGraph,
    UniformAvailability,
    build_nsfnet,
    load_topology,
)

WARMUP_HOLDING_MULTIPLE = 3.0
# Rows of the drawn columns turned into requests at a time.
ARRIVAL_CHUNK = 4096


@dataclass
class Scenario:
    load_erlang: float
    a_th: float
    mode: str = "none"
    avg_link_availability: float = 0.999
    n_requests: int = 100_000
    seed: int = 1
    mean_holding_s: float = 10.0
    b_max_gbps: float = 100.0
    slot_ghz: float = 12.5
    guard_ghz: float = 10.0
    k: int = 5
    slot_count: int = 320
    load_per_node: bool = True
    jitter_availability: bool = True
    topology_text: str | None = None  # None selects the bundled NSFNET

    def __post_init__(self) -> None:
        # Counts, bit widths and seeds: a float or bool here would change the
        # path search silently or fail deep inside numpy or a shift.
        for name in ("n_requests", "seed", "k", "slot_count"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        # A truthy string such as "false" would keep the default behaviour.
        for name in ("load_per_node", "jitter_availability"):
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} must be a bool, not {getattr(self, name)!r}")
        if self.topology_text is not None and not isinstance(self.topology_text, str):
            raise ValueError(f"topology_text must be a str or None, not {self.topology_text!r}")
        # A bool would run as 0 or 1, and a string would fail the range
        # checks below with a TypeError.
        for name in (
            "load_erlang", "a_th", "avg_link_availability", "mean_holding_s",
            "b_max_gbps", "slot_ghz", "guard_ghz",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be an int or a float, not {value!r}")
        for name in ("load_erlang", "mean_holding_s", "b_max_gbps", "slot_ghz", "guard_ghz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not self.load_erlang > 0 or not self.mean_holding_s > 0:
            raise ValueError("load_erlang and mean_holding_s must be positive")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        # np.random.SeedSequence takes non-negative integers only.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("a_th", "avg_link_availability"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} {getattr(self, name)!r} must lie in (0, 1]")
        if self.jitter_availability:
            try:
                JitteredAvailability(self.avg_link_availability)
            except ValueError as exc:
                raise ValueError(f"avg_link_availability: {exc}") from exc
        for name in ("k", "slot_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # Rates are drawn as int64 from the integers 1..int(b_max_gbps).
        if not 1 <= self.b_max_gbps < 2**63:
            raise ValueError("b_max_gbps must be >= 1 and below 2**63")
        if not self.slot_ghz > 0 or not self.guard_ghz >= 0:
            raise ValueError("slot_ghz must be positive and guard_ghz non-negative")

    def seeds(self) -> tuple[int, int]:
        """Independent (traffic, availability) seeds derived from the run seed."""
        traffic, avail = np.random.SeedSequence(self.seed).spawn(2)
        return (
            int(traffic.generate_state(1)[0]),
            int(avail.generate_state(1)[0]),
        )

    def build_graph(self) -> NetworkGraph:
        _, avail_seed = self.seeds()
        if self.jitter_availability:
            policy = JitteredAvailability(self.avg_link_availability, seed=avail_seed)
        else:
            policy = UniformAvailability(self.avg_link_availability)
        if self.topology_text is None:
            return build_nsfnet(self.slot_count, policy)
        return load_topology(self.topology_text, self.slot_count, policy)

    def arrival_rate(self, n_vertices: int) -> float:
        mu = 1.0 / self.mean_holding_s
        scale = n_vertices if self.load_per_node else 1
        return self.load_erlang * mu * scale


def generate_arrivals(sc: Scenario, g: NetworkGraph) -> list[LightpathRequest]:
    """The full, seed-determined arrival stream for a scenario, in time order.

    Five numpy columns are drawn in a fixed order, then turned into requests
    ARRIVAL_CHUNK rows at a time, through Python lists, so no full-length
    column list is ever held beside the requests.  The slot count of each
    rate is worked out once per call.
    """
    traffic_seed, _ = sc.seeds()
    rng = np.random.default_rng(traffic_seed)
    n = sc.n_requests
    vertices = g.vertices
    n_vertices = len(vertices)
    lam = sc.arrival_rate(n_vertices)
    inter = rng.exponential(1.0 / lam, size=n)
    holding = rng.exponential(sc.mean_holding_s, size=n)
    rates = rng.integers(1, int(sc.b_max_gbps) + 1, size=n)
    src = rng.integers(0, n_vertices, size=n)
    dst_off = rng.integers(1, n_vertices, size=n)
    times = np.cumsum(inter)
    k = sc.k
    slots_of: dict[int, int] = {}
    requests = []
    for lo in range(0, n, ARRIVAL_CHUNK):
        rows = slice(lo, lo + ARRIVAL_CHUNK)
        for t, h, rate, s, off in zip(
            times[rows].tolist(), holding[rows].tolist(), rates[rows].tolist(),
            src[rows].tolist(), dst_off[rows].tolist(),
        ):
            slots = slots_of.get(rate)
            if slots is None:
                slots = slots_of[rate] = demand_to_slots(float(rate), sc.slot_ghz, sc.guard_ghz)
            requests.append(LightpathRequest(
                vertices[s], vertices[(s + off) % n_vertices], slots, k, t, h
            ))
    return requests


class Connection:
    """A live connection: its id, its request and what provisioning gave it.

    A slotted record with a plain ``__init__``, built once per accepted
    arrival.
    """

    __slots__ = ("id", "request", "result")

    def __init__(self, id: str, request: LightpathRequest, result: ProvisionResult) -> None:
        self.id = id
        self.request = request
        self.result = result


@dataclass
class RestorationReport:
    """Outcome of exhaustive single-link fault injection on a paused run."""

    per_link: dict[str, tuple[int, int]] = field(default_factory=dict)
    conflicts: int = 0


class Simulation:
    """One seeded run; call run() for the whole thing or pause mid-stream."""

    def __init__(self, sc: Scenario):
        self.scenario = sc
        self.graph = sc.build_graph()
        self.registry = BackupRegistry()
        self.cycles = DCycleSet()
        self.protection = {
            "none": NoProtection(), "dsbpss": self.registry, "dcycles": self.cycles,
        }[sc.mode]
        self.live: dict[str, Connection] = {}
        self.report = MetricsReport()
        self._arrivals = generate_arrivals(sc, self.graph)
        # (departure time, connection number, conn id) of each live connection
        self._departures: list[tuple[float, int, str]] = []
        self._warm = WARMUP_HOLDING_MULTIPLE * sc.mean_holding_s
        self._now = 0.0
        # Working slots of the live connections, summed over their links.
        self._working_busy = 0
        self._arrivals_done = 0
        self._conn_counter = 0

    def _integrate_to(self, t: float) -> None:
        lo = max(self._now, self._warm)
        if t > lo:
            dt = t - lo
            reserved = self.protection.reserved
            self.report.slot_time_used += (self._working_busy + reserved) * dt
            self.report.protection_slot_time += reserved * dt
        self._now = t

    def run(self, max_arrivals: int | None = None) -> MetricsReport:
        """Process events; optionally pause after a number of arrivals."""
        arrivals, departures = self._arrivals, self._departures
        i = self._arrivals_done
        n = len(arrivals)
        # The next arrival's time, read once per arrival.
        next_s = arrivals[i].arrival_s if i < n else None
        while max_arrivals is None or i < max_arrivals:
            if i < n and (not departures or next_s <= departures[0][0]):
                self._integrate_to(next_s)
                self._handle_arrival(arrivals[i])
                self._arrivals_done = i = i + 1
                next_s = arrivals[i].arrival_s if i < n else None
            elif departures:
                t, _, conn_id = heapq.heappop(departures)
                self._integrate_to(t)
                self._handle_departure(conn_id)
            else:
                break
        window = max(self._now - self._warm, 0.0)
        self.report.slot_time_capacity = (
            self.scenario.slot_count * len(self.graph.links) * window
        )
        self.report.validate()
        return self.report

    def _handle_arrival(self, lr: LightpathRequest) -> None:
        # Each field read once: a read on the namedtuple is not cheap.
        slots, arrival_s, holding_s = lr.slots_needed, lr.arrival_s, lr.holding_s
        counted = arrival_s >= self._warm
        self._conn_counter += 1
        conn_id = f"c{self._conn_counter}"
        result = rsacs_with_protection(
            self.graph, lr, self.scenario.a_th, self.protection, conn_id
        )
        if counted:
            self.report.arrived += 1
            self.report.slots_requested += slots
        if result.blocked:
            if counted:
                self.report.blocked += 1
                self.report.slots_blocked += slots
            return
        working = slots * result.path.hops
        self._working_busy += working
        if counted and result.needs_protection:
            self.report.needing_protection += 1
            if result.protected:
                self.report.protected_count += 1
        self.live[conn_id] = Connection(conn_id, lr, result)
        departure = (arrival_s + holding_s, self._conn_counter, conn_id)
        heapq.heappush(self._departures, departure)

    def _handle_departure(self, conn_id: str) -> None:
        conn = self.live.pop(conn_id)
        result = conn.result
        links = self.graph.link_index().links
        release(links, dict.fromkeys(result.path.link_indices, result.block.mask()))
        working = conn.request.slots_needed * result.path.hops
        self._working_busy -= working
        self.protection.release(self.graph, conn_id, result)


def run(sc: Scenario) -> MetricsReport:
    """Run one scenario to completion."""
    return Simulation(sc).run()


def inject_single_failures(sim: Simulation) -> RestorationReport:
    """Fail each link in turn and audit what protects the paths it carries.

    Each live working path's options (``sim.protection.options``) are read
    once.  When link f fails, every live path crossing f is restored by its
    first option that covers f and does not need f, or counted unrestored.
    ``held`` packs the slots of the options taken for f so far; a pack names
    each (link, slot) at most once, so the conflicts are the bits each taken
    pack finds already held.  The options come from the live results and
    cycle blocks, never from the backup registry's claims, so this checks
    the claims independently.
    """
    g = sim.graph
    paths = []
    for conn in sim.live.values():
        wp = 0
        for li in conn.result.path.link_indices:
            wp |= 1 << li
        paths.append((wp, sim.protection.options(g, conn.result)))
    position = g.link_index().position
    report = RestorationReport()
    for fid in sorted(g.links):
        bit = 1 << position[fid]
        held = restored = unrestored = 0
        for wp, options in paths:
            if not wp & bit:
                continue
            for covers, needs, pack in options:
                if covers & bit and not needs & bit:
                    restored += 1
                    report.conflicts += (held & pack).bit_count()
                    held |= pack
                    break
            else:
                unrestored += 1
        report.per_link[fid] = (restored, unrestored)
    return report
