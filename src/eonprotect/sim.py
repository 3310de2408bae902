"""Discrete-event engine: dynamic traffic, provisioning and teardown.

One Simulation owns one network instance and is strictly single-threaded.
Arrivals are Poisson (per-node offered load in Erlang by default), holding
times exponential, endpoints uniform over ordered vertex pairs, and rates
uniform integers in [1, B] Gbps.  Metrics only count arrivals at or after
three mean holding times, when the system has warmed up.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import dcycles, dsbpss
from .dcycles import DCycleSet
from .dsbpss import BackupRegistry
from .metrics import MetricsReport
from .rsa import LightpathRequest, ProvisionResult, rsacs_with_protection
from .spectrum import demand_to_slots, release
from .topology import (
    JitteredAvailability,
    NetworkGraph,
    UniformAvailability,
    build_nsfnet,
    load_topology,
)

WARMUP_HOLDING_MULTIPLE = 3.0


@dataclass(frozen=True)
class Event:
    time_s: float
    kind: str  # "arrival" | "departure"
    request: LightpathRequest | None = None
    conn_id: str | None = None


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
    topology_text: str | None = None  # None selects the built-in NSFNET

    def __post_init__(self) -> None:
        if self.load_erlang <= 0 or self.mean_holding_s <= 0:
            raise ValueError("load and holding time must be positive")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.mode not in ("none", "dsbpss", "dcycles"):
            raise ValueError(f"unknown mode {self.mode!r}")

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


def generate_arrivals(sc: Scenario, g: NetworkGraph) -> list[Event]:
    """The full, seed-determined arrival stream for a scenario."""
    traffic_seed, _ = sc.seeds()
    rng = np.random.default_rng(traffic_seed)
    n = sc.n_requests
    lam = sc.arrival_rate(len(g.vertices))
    inter = rng.exponential(1.0 / lam, size=n)
    holding = rng.exponential(sc.mean_holding_s, size=n)
    rates = rng.integers(1, int(sc.b_max_gbps) + 1, size=n)
    src = rng.integers(0, len(g.vertices), size=n)
    dst_off = rng.integers(1, len(g.vertices), size=n)
    times = np.cumsum(inter)
    vertices = g.vertices
    events = []
    for i in range(n):
        s = vertices[src[i]]
        d = vertices[(src[i] + dst_off[i]) % len(vertices)]
        slots = demand_to_slots(float(rates[i]), sc.slot_ghz, sc.guard_ghz)
        events.append(
            Event(
                float(times[i]), "arrival",
                LightpathRequest(
                    s, d, slots, k=sc.k,
                    arrival_s=float(times[i]), holding_s=float(holding[i]),
                    rate_gbps=float(rates[i]),
                ),
            )
        )
    return events


@dataclass
class Connection:
    id: str
    request: LightpathRequest
    result: ProvisionResult


@dataclass
class RestorationReport:
    """Outcome of exhaustive single-link fault injection on a paused run."""

    per_link: dict[str, tuple[int, int]] = field(default_factory=dict)
    conflicts: int = 0

    @property
    def restored(self) -> int:
        return sum(r for r, _ in self.per_link.values())

    @property
    def unrestored(self) -> int:
        return sum(u for _, u in self.per_link.values())


class Simulation:
    """One seeded run; call run() for the whole thing or pause mid-stream."""

    def __init__(self, sc: Scenario):
        self.scenario = sc
        self.graph = sc.build_graph()
        self.registry = BackupRegistry()
        self.cycles = DCycleSet()
        self.live: dict[str, Connection] = {}
        self.report = MetricsReport()
        self._events: list[tuple[float, int, Event]] = []
        self._seq = 0
        for ev in generate_arrivals(sc, self.graph):
            self._push(ev)
        self._warm = WARMUP_HOLDING_MULTIPLE * sc.mean_holding_s
        self._now = 0.0
        # Busy slots over all links: working paths add and remove their own
        # share; after protection code ran, the next integration recounts.
        self._busy = 0
        self._recount = True
        self._working_busy = 0
        self._arrivals_done = 0
        self._conn_counter = 0

    def _push(self, ev: Event) -> None:
        heapq.heappush(self._events, (ev.time_s, self._seq, ev))
        self._seq += 1

    def _integrate_to(self, t: float) -> None:
        lo = max(self._now, self._warm)
        if t > lo:
            if self._recount:
                self._busy = self.graph.busy_slot_count()
                self._recount = False
            dt = t - lo
            self.report.slot_time_used += self._busy * dt
            self.report.protection_slot_time += (self._busy - self._working_busy) * dt
        self._now = t

    def run(self, max_arrivals: int | None = None) -> MetricsReport:
        """Process events; optionally pause after a number of arrivals."""
        while self._events:
            if max_arrivals is not None and self._arrivals_done >= max_arrivals:
                break
            _, _, ev = heapq.heappop(self._events)
            self._integrate_to(ev.time_s)
            if ev.kind == "arrival":
                self._handle_arrival(ev)
                self._arrivals_done += 1
            else:
                self._handle_departure(ev)
        window = max(self._now - self._warm, 0.0)
        self.report.slot_time_capacity = (
            self.scenario.slot_count * len(self.graph.links) * window
        )
        self.report.validate()
        return self.report

    def _handle_arrival(self, ev: Event) -> None:
        lr = ev.request
        counted = ev.time_s >= self._warm
        self._conn_counter += 1
        conn_id = f"c{self._conn_counter}"
        result = rsacs_with_protection(
            self.graph, lr, self.scenario.a_th, self.scenario.mode,
            conn_id, self.registry, self.cycles,
        )
        if counted:
            self.report.arrived += 1
            self.report.slots_requested += lr.slots_needed
        if result.blocked:
            if counted:
                self.report.blocked += 1
                self.report.slots_blocked += lr.slots_needed
            return
        working = lr.slots_needed * result.path.hops
        self._working_busy += working
        self._busy += working
        self._recount |= result.needs_protection
        if counted and result.needs_protection:
            self.report.needing_protection += 1
            if result.protected:
                self.report.protected_count += 1
        self.live[conn_id] = Connection(conn_id, lr, result)
        self._push(Event(ev.time_s + lr.holding_s, "departure", conn_id=conn_id))

    def _handle_departure(self, ev: Event) -> None:
        conn = self.live.pop(ev.conn_id)
        result = conn.result
        release([link.bitmap for link in result.path.links], result.block)
        working = conn.request.slots_needed * result.path.hops
        self._working_busy -= working
        self._busy -= working
        if result.backup_paths:
            dsbpss.release_wp(self.registry, conn.id, self.graph)
            self._recount = True
        if result.protected_links:
            dcycles.release_wp(self.cycles, conn.id, result.protected_links, self.graph)
            self._recount = True


def run(sc: Scenario) -> MetricsReport:
    """Run one scenario to completion."""
    return Simulation(sc).run()


def inject_single_failures(sim: Simulation) -> RestorationReport:
    """Fail each link in turn and audit the reserved recoveries.

    For every live working path crossing the failed link, checks that a
    reserved recovery route avoiding the link exists (a backup path, or the
    protecting cycle's arcs) and that no reserved slot is claimed by two
    simultaneously affected paths.
    """
    report = RestorationReport()
    for fid in sorted(sim.graph.links):
        affected = [
            conn for conn in sim.live.values()
            if any(link.id == fid for link in conn.result.path.links)
        ]
        claims: dict[tuple[str, int], str] = {}
        restored = unrestored = 0
        for conn in affected:
            recovery = _recovery_slots(sim, conn, fid)
            if recovery is None:
                unrestored += 1
                continue
            restored += 1
            for key in recovery:
                if key in claims and claims[key] != conn.id:
                    report.conflicts += 1
                claims[key] = conn.id
        report.per_link[fid] = (restored, unrestored)
    return report


def _recovery_slots(
    sim: Simulation, conn: Connection, failed_link: str
) -> list[tuple[str, int]] | None:
    """Reserved (link, slot) pairs the connection would occupy after the failure."""
    result = conn.result
    if result.backup_paths:
        for bp in result.backup_paths:
            if failed_link not in bp.link_ids():
                return [
                    (link.id, s)
                    for link in bp.links
                    for s in range(bp.block.start, bp.block.end)
                ]
        return None
    if result.protected_links:
        for cid, lid in result.protected_links:
            if lid != failed_link:
                continue
            cycle = sim.cycles.cycles[cid]
            failed = sim.graph.links[failed_link]
            slots = []
            for arc in cycle.arcs(failed, sim.graph):
                for link in arc:
                    block = cycle.blocks[link.id]
                    slots.extend((link.id, s) for s in range(block.start, block.end))
            return slots
        return None
    return None
