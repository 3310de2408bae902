"""Checking pass: replay one round and check it against independent computations.

Nothing here reads ``ShareGroup`` or other bookkeeping internals.  Link
availabilities come from each link's MTTF/MTTR, paths from a depth-first
search over a snapshot of the link bitmaps taken just before each
provisioning call, and reservations from public state
(``Simulation.live[*].result`` and ``Simulation.cycles``).

Per-arrival problems make that arrival fail.  Problems with the state at a
pause point or at the end of the run make the whole run incorrect.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from eonprotect import dcycles, rsa
from eonprotect.metrics import MetricsReport
from eonprotect.sim import Simulation, inject_single_failures

from spans import replaced, wrap_function

REL_TOL = 1e-12
MAX_MESSAGES = 5


def link_availability(link) -> float:
    return link.mttf_h / (link.mttf_h + link.mttr_h)


def has_run(bits: int, need: int) -> bool:
    """True iff ``bits`` holds ``need`` consecutive set bits."""
    return "1" * need in format(bits, "b")


def block_mask(block) -> int:
    return ((1 << block.length) - 1) << block.start


class PathOracle:
    """Simple paths over a snapshot of the link bitmaps, by depth-first search."""

    def __init__(self, g) -> None:
        self.adjacency: dict[str, list[tuple[str, str]]] = defaultdict(list)
        self.ends: dict[str, frozenset[str]] = {}
        for lid, link in g.links.items():
            self.adjacency[link.u].append((link.v, lid))
            self.adjacency[link.v].append((link.u, lid))
            self.ends[lid] = frozenset((link.u, link.v))
        self.avail = {lid: link_availability(link) for lid, link in g.links.items()}
        self.full = (1 << g.slot_count) - 1

    def path_availability(self, link_ids) -> float:
        return math.prod(self.avail[lid] for lid in link_ids)

    def feasible_paths(self, snap: dict[str, int], s: str, d: str, need: int, max_hops: int):
        """Yield the link ids of every simple s-d path of at most ``max_hops``
        links whose common free slots hold a run of ``need``."""
        visited = {s}
        links: list[str] = []

        def walk(u: str, bits: int):
            if len(links) == max_hops:
                return
            for v, lid in self.adjacency[u]:
                if v in visited:
                    continue
                common = bits & snap[lid]
                if not has_run(common, need):
                    continue
                links.append(lid)
                if v == d:
                    yield list(links)
                else:
                    visited.add(v)
                    yield from walk(v, common)
                    visited.discard(v)
                links.pop()

        yield from walk(s, self.full)

    def is_simple_path(self, vertices, link_ids, s: str, d: str) -> bool:
        return (
            len(vertices) == len(link_ids) + 1
            and vertices[0] == s
            and vertices[-1] == d
            and len(set(vertices)) == len(vertices)
            and all(
                self.ends.get(lid) == frozenset(pair)
                for lid, pair in zip(link_ids, zip(vertices, vertices[1:]))
            )
        )

    def cycle_arcs(self, order: tuple[str, ...], lid: str) -> list[list[str]] | None:
        """Link ids of the backup arcs a cycle through ``order`` offers for link ``lid``."""
        ring = [self._link_id(a, b) for a, b in zip(order, order[1:] + order[:1])]
        if None in ring or len(set(order)) != len(order) or len(order) < 3:
            return None
        if lid in ring:
            return [[x for x in ring if x != lid]]
        u, v = self.ends[lid]
        if u not in order or v not in order:
            return None
        i, j = sorted((order.index(u), order.index(v)))
        return [ring[i:j], ring[j:] + ring[:i]]

    def _link_id(self, a: str, b: str) -> str | None:
        for v, lid in self.adjacency[a]:
            if v == b:
                return lid
        return None


def check_provision(oracle, snap, lr, a_th: float, result, picks) -> list[str]:
    """Problems with one provisioning outcome; ``picks`` are the cycles chosen
    during the call as (cycle id, vertex order) at the moment of choice."""
    if result.blocked:
        for _ in oracle.feasible_paths(snap, lr.s, lr.d, lr.slots_needed, len(oracle.adjacency)):
            return ["blocked although a feasible path exists"]
        return []
    problems = []
    path = result.path
    lids = [link.id for link in path.links]
    if not oracle.is_simple_path(path.vertices, lids, lr.s, lr.d):
        problems.append(f"working path {path.vertices} is not a simple s-d path")
        return problems
    block = result.block
    if block.length != lr.slots_needed or any(
        snap[lid] & block_mask(block) != block_mask(block) for lid in lids
    ):
        problems.append(f"working block {block} was not free on every link")
    a_wp = oracle.path_availability(lids)
    if not math.isclose(path.availability, a_wp, rel_tol=REL_TOL):
        problems.append(f"working availability {path.availability} != product {a_wp}")
    for shorter in oracle.feasible_paths(snap, lr.s, lr.d, lr.slots_needed, len(lids) - 1):
        if oracle.path_availability(shorter) >= a_wp:
            problems.append(f"feasible path {shorter} has fewer hops and availability >= chosen")
            break
    if result.needs_protection != (a_wp < a_th):
        problems.append("needs_protection disagrees with the threshold")
    if result.backup_paths:
        a_pp = _backup_recurrence(oracle, lr, a_wp, lids, result.backup_paths, problems)
    elif result.protected_links:
        a_pp = _cycle_recurrence(oracle, a_wp, result.protected_links, picks, problems)
    else:
        if result.protected or result.a_pp_max != result.a_p_max:
            problems.append("unprotected path reports protection")
        return problems
    if not math.isclose(a_pp, result.a_pp_max, rel_tol=REL_TOL):
        problems.append(f"recurrence {a_pp} != reported a_pp_max {result.a_pp_max}")
    if not result.protected or not (a_pp >= a_th or math.isclose(a_pp, a_th, rel_tol=REL_TOL)):
        problems.append(f"protected availability {a_pp} below A_th {a_th}")
    return problems


def _backup_recurrence(oracle, lr, a_wp, wp_lids, backups, problems) -> float:
    a_pp = a_wp
    for bp in backups:
        bp_lids = [link.id for link in bp.links]
        if not oracle.is_simple_path(bp.vertices, bp_lids, lr.s, lr.d):
            problems.append(f"backup {bp.id} is not a simple s-d path")
        if set(bp_lids) & set(wp_lids):
            problems.append(f"backup {bp.id} shares a link with its working path")
        if bp.block.length != lr.slots_needed:
            problems.append(f"backup {bp.id} block has the wrong width")
        a_bp = oracle.path_availability(bp_lids)
        a_pp = 1.0 - (1.0 - a_pp) * (1.0 - a_bp)
    return a_pp


def _cycle_recurrence(oracle, a_wp, protected_links, picks, problems) -> float:
    a_pp = a_wp
    if [cid for cid, _ in protected_links] != [cid for cid, _ in picks]:
        problems.append("protected links do not match the cycles chosen")
        return math.nan
    for (_, lid), (_, order) in zip(protected_links, picks):
        arcs = oracle.cycle_arcs(order, lid)
        if arcs is None:
            problems.append(f"cycle {order} cannot protect link {lid}")
            return math.nan
        arc_avails = [oracle.path_availability(arc) for arc in arcs]
        a_bp = arc_avails[0] if len(arcs) == 1 else 1.0 - math.prod(1.0 - a for a in arc_avails)
        a_l = oracle.avail[lid]
        a_pl = 1.0 - (1.0 - a_l) * (1.0 - a_bp)
        a_pp = a_pp * a_pl / a_l
    return a_pp


def backup_claims(sim: Simulation) -> dict[tuple[str, int], set[str]]:
    """Live working paths claiming each reserved backup (link, slot) pair."""
    claims: dict[tuple[str, int], set[str]] = defaultdict(set)
    for conn in sim.live.values():
        for bp in conn.result.backup_paths:
            for link in bp.links:
                for slot in range(bp.block.start, bp.block.start + bp.block.length):
                    claims[(link.id, slot)].add(conn.id)
    return claims


def check_state(sim: Simulation) -> list[str]:
    """Spectrum ledger, overlap, sharing and restoration checks on a paused run."""
    problems = []
    working: dict[str, int] = defaultdict(int)
    backup: dict[str, int] = defaultdict(int)
    cycle_bits: dict[str, int] = defaultdict(int)
    wp_links = {}
    for conn in sim.live.values():
        result = conn.result
        mask = block_mask(result.block)
        wp_links[conn.id] = frozenset(link.id for link in result.path.links)
        for lid in wp_links[conn.id]:
            if working[lid] & mask:
                problems.append(f"working blocks overlap on {lid}")
            working[lid] |= mask
        for bp in result.backup_paths:
            for link in bp.links:
                backup[link.id] |= block_mask(bp.block)
    for cycle in sim.cycles.cycles.values():
        for lid, block in cycle.blocks.items():
            if cycle_bits[lid] & block_mask(block):
                problems.append(f"cycle blocks overlap on {lid}")
            cycle_bits[lid] |= block_mask(block)
    full = (1 << sim.graph.slot_count) - 1
    for lid, link in sim.graph.links.items():
        busy = full & ~link.bitmap.bits
        if busy != working[lid] | backup[lid] | cycle_bits[lid]:
            problems.append(f"busy bits on {lid} differ from the live reservations")
        if working[lid] & (backup[lid] | cycle_bits[lid]):
            problems.append(f"a working block overlaps a reservation on {lid}")
    for sharers in {frozenset(wps) for wps in backup_claims(sim).values() if len(wps) > 1}:
        ordered = sorted(sharers)
        for i, a in enumerate(ordered):
            if any(wp_links[a] & wp_links[b] for b in ordered[i + 1:]):
                problems.append(f"working paths sharing a backup slot share a link: {ordered}")
                break
    conflicts = inject_single_failures(sim).conflicts
    if conflicts:
        problems.append(f"single-failure injection reports {conflicts} conflicts")
    return problems


def check_end(sim: Simulation) -> list[str]:
    problems = []
    full = (1 << sim.graph.slot_count) - 1
    if any(link.bitmap.bits != full for link in sim.graph.links.values()):
        problems.append("spectrum left busy at the end of the run")
    if not sim.registry.is_empty():
        problems.append("backup registry not empty at the end of the run")
    if not sim.cycles.is_empty():
        problems.append("cycle set not empty at the end of the run")
    if sim.live:
        problems.append("live connections left at the end of the run")
    return problems


@dataclass
class CheckOutcome:
    report: MetricsReport
    arrivals: int = 0
    failed_arrivals: int = 0
    arrival_problems: list[str] = field(default_factory=list)
    state_problems: list[str] = field(default_factory=list)


def checking_run(sc, pause_points: int) -> CheckOutcome:
    """Run ``sc`` once with every arrival checked and the state checked at
    ``pause_points`` evenly spaced arrival counts and at the end."""
    sim = Simulation(sc)
    oracle = PathOracle(sim.graph)
    out = CheckOutcome(report=sim.report)
    picks: list[tuple[int, tuple[str, ...]]] = []

    def checking(provision):
        def checked(g, lr, a_th, *args, **kwargs):
            snap = {lid: link.bitmap.bits for lid, link in g.links.items()}
            picks.clear()
            result = provision(g, lr, a_th, *args, **kwargs)
            out.arrivals += 1
            problems = check_provision(oracle, snap, lr, a_th, result, picks)
            if problems:
                out.failed_arrivals += 1
                if len(out.arrival_problems) < MAX_MESSAGES:
                    out.arrival_problems.append(f"{lr.s}->{lr.d} at {lr.arrival_s:.3f}s: {problems[0]}")
            return result

        return checked

    def picking(find):
        def picked(*args, **kwargs):
            cycle = find(*args, **kwargs)
            if cycle is not None:
                picks.append((cycle.id, tuple(cycle.vertex_order)))
            return cycle

        return picked

    targets = wrap_function(rsa.rsacs_with_protection, checking)
    targets += wrap_function(dcycles.check_cycles, picking)
    targets += wrap_function(dcycles.find_cycle_for, picking)
    with replaced(targets):
        for i in range(1, pause_points + 1):
            done = sc.n_requests * i // pause_points
            sim.run(max_arrivals=done)
            out.state_problems += [f"after {done} arrivals: {p}" for p in check_state(sim)]
        out.report = sim.run()
    out.state_problems += check_end(sim)
    return out
