"""Dynamic protection cycles for link protection.

A cycle reserves a slot block on each of its links.  A working link lying
on the cycle is protected by the complementary arc; a straddling link
(chord between two cycle vertices) is protected by either arc, so the two
arcs jointly carry twice the cycle capacity for it.  Cycles are created,
extended and dismantled as traffic comes and goes; distinct protected
working links may share one cycle's slots because only one of them can fail
at a time.

Cycle slot blocks are chosen first fit on each link separately, so they
need not line up across links.  A restored arc then changes slot offset at
every cycle node where its neighbouring blocks differ: the model assumes
spectrum conversion at each such node, not only at the failed link's end
nodes (ROADMAP item 7 makes one block hold around the ring).

Cycle ids come from a counter and are never reused, and a rollback restores
an extended cycle in place, so ``DCycleSet.cycles`` iterates in id order
without sorting.  ``check_cycles`` walks it once and stops at the first
straddling cycle that admits the link.  A departing working path hands back
the (cycle id, link id) entries it was granted; only those are deleted, and
only the cycles they leave empty are freed.  A failed protection attempt is
undone by ``_release``, the same deletion without ``release_wp``'s grant
check, plus the saved rings of the cycles it extended.

A cycle's ring is held once, as the keys of its ``blocks`` in order.
``_set_ring`` is the only code that writes cycle blocks to the links: it
builds, extends, restores and frees every ring, through the checked
``spectrum.allocate`` and ``release``, so a block written onto taken slots
or freed where a slot is already free raises.

Each cycle carries two derived maps, both tied to its ring:

- ``covers``, the coverage map: every graph link with both endpoints on the
  cycle, mapped to ``ON_CYCLE`` or ``STRADDLING``.  ``check_cycles`` makes
  one lookup in it per cycle.  ``_set_ring`` rebuilds it with the ring.
- the arc cache: the backup availability the cycle offers each link it was
  asked about.  ``_set_ring`` clears it with the ring.  Link
  availabilities are fixed for a run, so an entry stays exact until the
  ring changes.

``DCycleSet.reserved`` counts the slots held by all cycle blocks.
``_set_ring`` moves it with every block it reserves or frees, so it always
equals the sum of the live cycles' block lengths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .availability import ava_dcyc_update, parallel_availability
from .rsa import CandidatePath, LightpathRequest, candidate_paths, select_best
from .spectrum import SlotBlock, allocate, first_fit, is_feasible, release
from .topology import Link, NetworkGraph


ON_CYCLE = 1
STRADDLING = 2


def coverage(
    g: NetworkGraph, vertex_order: tuple[str, ...], ring: dict[str, SlotBlock]
) -> dict[str, int]:
    """Every link of ``g`` with both endpoints on the cycle: ON_CYCLE if it
    is a key of the ring's blocks, else STRADDLING."""
    on = set(vertex_order)
    covers = {}
    for vx in vertex_order:
        for lid in g.adjacency[vx]:
            if g.links[lid].other(vx) in on:
                covers[lid] = ON_CYCLE if lid in ring else STRADDLING
    return covers


@dataclass
class DCycle:
    """One protection cycle: an ordered closed walk of distinct vertices.

    ``blocks`` is the ring: its key t is the link joining vertex t and
    vertex t+1 mod n of ``vertex_order``.  ``_set_ring`` writes both,
    through ``spectrum.allocate`` and ``release``.
    """

    id: int
    vertex_order: tuple[str, ...]
    blocks: dict[str, SlotBlock]
    capacity_slots: int
    # link id -> ON_CYCLE or STRADDLING, as ``coverage`` builds it
    covers: dict[str, int]
    # protected working link -> id of the working path it belongs to
    protected: dict[str, str] = field(default_factory=dict)
    # link id -> backup_availability(link); valid until the ring changes
    arc_avail: dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    def arcs(self, link: Link, g: NetworkGraph) -> list[list[Link]]:
        """Backup routes around the cycle between the link's endpoints.

        One arc (the complement) for an on-cycle link, both arcs for a
        straddler.
        """
        if link.id in self.blocks:
            return [[g.links[lid] for lid in self.blocks if lid != link.id]]
        order = self.vertex_order
        i, j = sorted((order.index(link.u), order.index(link.v)))
        ring = tuple(self.blocks)
        return [
            [g.links[lid] for lid in ring[i:j]],
            [g.links[lid] for lid in ring[j:] + ring[:i]],
        ]

    def backup_availability(self, link: Link, g: NetworkGraph) -> float:
        a_bp = self.arc_avail.get(link.id)
        if a_bp is None:
            arcs = self.arcs(link, g)
            arc_avails = [math.prod(l.availability for l in arc) for arc in arcs]
            if len(arc_avails) == 1:
                a_bp = arc_avails[0]
            else:
                a_bp = parallel_availability(arc_avails)
            self.arc_avail[link.id] = a_bp
        return a_bp


class UnknownGrantError(Exception):
    """A released (cycle id, link id) entry is missing or held by another WP."""


class DCycleSet:
    """Live cycles by id.

    The protection of mode ``dcycles`` (protocol: ``rsa.NoProtection``).
    Ids only grow and are never reused, and ``_rollback`` restores a cycle
    in place, so dict order is id order.
    """

    def __init__(self) -> None:
        self.cycles: dict[int, DCycle] = {}
        # slots held by the blocks of all live cycles
        self.reserved = 0
        self._cid = itertools.count(1)

    def is_empty(self) -> bool:
        return not self.cycles

    # The module-level functions are looked up at call time, so a wrapper
    # set on the module sees every call.
    def protect(self, g, lr, result, wp_id, a_th) -> None:
        granted, result.a_pp_max = provision_cycles(g, lr, result.path, self, wp_id, a_th)
        result.protected_links = granted or []

    def release(self, g, wp_id, result) -> None:
        if result.protected_links:
            release_wp(self, wp_id, result.protected_links, g)

    def options(self, g, result) -> list[tuple[int, int, int]]:
        """One option per arc of the cycle of each grant, in grant order,
        covering the granted link and packing the arc's cycle blocks.

        A straddler whose demand is above the cycle's capacity needs both
        arcs at once, so its two arcs make one option.
        """
        position = g.link_index().position
        width = g.slot_count
        options = []
        for cid, lid in result.protected_links:
            cycle = self.cycles[cid]
            arcs = cycle.arcs(g.links[lid], g)
            if result.block.length > cycle.capacity_slots:
                arcs = [[link for arc in arcs for link in arc]]
            for arc in arcs:
                needs = pack = 0
                for link in arc:
                    pos = position[link.id]
                    needs |= 1 << pos
                    pack |= cycle.blocks[link.id].mask() << pos * width
                options.append((1 << position[lid], needs, pack))
        return options


def check_cycles(
    cs: DCycleSet, link: Link, demand: int
) -> DCycle | None:
    """An existing cycle able to protect ``link``, straddling preferred.

    The first admitting straddler in id order wins, else the first
    admitting cycle that carries the link.  A cycle admits a link it does
    not protect yet if the demand fits its capacity, or twice its capacity
    for a straddler.
    """
    lid = link.id
    on_cycle = None
    for cycle in cs.cycles.values():
        kind = cycle.covers.get(lid)
        if kind is None or lid in cycle.protected:
            continue
        if kind == STRADDLING:
            if demand <= 2 * cycle.capacity_slots:
                return cycle
        elif on_cycle is None and demand <= cycle.capacity_slots:
            on_cycle = cycle
    return on_cycle


def _ring(g: NetworkGraph, vertex_order: list[str]) -> tuple[str, ...]:
    """Link ids around a closed walk; entry t joins vertex t and vertex t+1 mod n."""
    return tuple(
        g.link_between(a, b).id
        for a, b in zip(vertex_order, vertex_order[1:] + vertex_order[:1])
    )


def _set_ring(
    g: NetworkGraph,
    cs: DCycleSet,
    cycle: DCycle,
    vertex_order: tuple[str, ...] | list[str],
    blocks: dict[str, SlotBlock],
) -> None:
    """Give ``cycle`` a new ring; the only writer of cycle blocks.

    ``blocks`` maps the ring's link ids, in ring order, to their slot blocks.
    Blocks the cycle holds and ``blocks`` lacks are freed by
    ``spectrum.release``, new ones are reserved by ``spectrum.allocate``,
    and ``cs.reserved`` moves with both.  The coverage map is rebuilt and
    the arc cache cleared.  A conflicting write raises with the ring part
    written; only a corrupted ledger gets there.
    """
    held = cycle.blocks
    for lid, block in held.items():
        if blocks.get(lid) != block:
            release([g.links[lid].bitmap], block)
            cs.reserved -= block.length
    for lid, block in blocks.items():
        if held.get(lid) != block:
            allocate([g.links[lid].bitmap], block)
            cs.reserved += block.length
    cycle.vertex_order = tuple(vertex_order)
    cycle.blocks = blocks
    cycle.covers = coverage(g, cycle.vertex_order, blocks)
    cycle.arc_avail = {}


def _try_extend(
    g: NetworkGraph, link: Link, demand: int, cs: DCycleSet, extended: list
) -> DCycle | None:
    """Insert ``link`` into an existing cycle through one off-cycle vertex.

    If one endpoint u lies on a cycle and the other endpoint v connects to a
    cycle neighbour w of u, the cycle edge u-w is replaced by u-v-w; the
    link becomes on-cycle and the displaced edge becomes a straddler.  The
    replaced ring (vertex order, blocks) is appended to ``extended`` for
    ``_rollback``.
    """
    for cycle in cs.cycles.values():
        if link.id in cycle.covers:
            continue
        order = cycle.vertex_order
        u, v = link.u, link.v
        if v in order:
            u, v = v, u
        if u not in order:
            continue
        cap = cycle.capacity_slots
        if demand > cap or not is_feasible(link.bitmap, cap):
            continue
        n = len(order)
        ui = order.index(u)
        for wi in ((ui - 1) % n, (ui + 1) % n):
            bridge = g.link_between(v, order[wi])
            if bridge is None or not is_feasible(bridge.bitmap, cap):
                continue
            # Every protected link must stay on-cycle or straddling: the
            # displaced edge keeps both endpoints on the cycle, so it does.
            extended.append((cycle, order, cycle.blocks))
            new_order = list(order)
            new_order.insert(ui if wi == (ui - 1) % n else ui + 1, v)
            blocks = {
                lid: cycle.blocks.get(lid) or first_fit(g.links[lid].bitmap, cap)
                for lid in _ring(g, new_order)
            }
            _set_ring(g, cs, cycle, new_order, blocks)
            return cycle
    return None


def _build_cycle(
    cs: DCycleSet,
    g: NetworkGraph,
    vertex_order: list[str],
    capacity: int,
) -> DCycle:
    blocks = {
        lid: first_fit(g.links[lid].bitmap, capacity) for lid in _ring(g, vertex_order)
    }
    cycle = DCycle(next(cs._cid), (), {}, capacity, {})
    _set_ring(g, cs, cycle, vertex_order, blocks)
    cs.cycles[cycle.id] = cycle
    return cycle


def find_cycle_for(
    g: NetworkGraph,
    link: Link,
    demand: int,
    cs: DCycleSet,
    k: int,
    extended: list,
) -> DCycle | None:
    """Create protection for a link no existing cycle can cover.

    Tries, in order: extending an existing cycle through the link, a new
    cycle with the link straddling (two disjoint alternate routes), and a
    new on-cycle arrangement (one alternate route plus spare slots on the
    link itself).  An extension's replaced ring goes to ``extended``.
    """
    cycle = _try_extend(g, link, demand, cs, extended)
    if cycle is not None:
        return cycle

    index = g.link_index()
    bits = index.free_bits()
    bits[index.position[link.id]] = 0
    alternates = candidate_paths(g, link.u, link.v, demand, k, bits)
    if not alternates:
        return None
    p1 = select_best(alternates)

    # The second route avoids every link at p1's interior vertices, p1's own
    # links among them (p1 avoids ``link``, so it has two hops or more).
    for vx in p1.vertices[1:-1]:
        for _, _, li in index.neighbors[vx]:
            bits[li] = 0
    disjoint = candidate_paths(g, link.u, link.v, demand, k, bits)
    if disjoint:
        p2 = select_best(disjoint)
        order = list(p1.vertices) + list(reversed(p2.vertices[1:-1]))
        return _build_cycle(cs, g, order, demand)

    if is_feasible(link.bitmap, demand):
        return _build_cycle(cs, g, list(p1.vertices), demand)
    return None


def _rollback(g: NetworkGraph, cs: DCycleSet, granted: list, extended: list) -> None:
    """Undo a failed ``provision_cycles`` call.

    ``_release`` drops the call's grants and frees every cycle built in the
    call, since such a cycle holds only those grants; it skips the grant
    check of ``release_wp``, which times departures only.  Then, newest
    first, ``_set_ring`` gives each extended cycle still live its replaced
    ring back in place, which frees the blocks the extension reserved and
    reserves the displaced block again.  A cycle built and then extended in
    the call is gone by then and is skipped.
    """
    _release(cs, granted, g)
    for cycle, vertex_order, blocks in reversed(extended):
        if cs.cycles.get(cycle.id) is cycle:
            _set_ring(g, cs, cycle, vertex_order, blocks)


def provision_cycles(
    g: NetworkGraph,
    lr: LightpathRequest,
    best_path: CandidatePath,
    cs: DCycleSet,
    wp_id: str,
    a_th: float,
) -> tuple[list[tuple[int, str]] | None, float]:
    """Protect the working path's weakest links by cycles until the threshold.

    Links are taken by availability, ties by link id.  Returns ([(cycle id,
    link id), ...], final availability) on success.  If the next link cannot
    be protected, or every link is and the threshold is still missed, all
    reservations from this call are rolled back and (None, the working
    path's availability) is returned.
    """
    granted: list[tuple[int, str]] = []
    extended: list = []
    a_pp = best_path.availability
    for link in sorted(best_path.links, key=lambda l: (l.availability, l.id)):
        if a_pp >= a_th:
            break
        cycle = check_cycles(cs, link, lr.slots_needed)
        if cycle is None:
            cycle = find_cycle_for(g, link, lr.slots_needed, cs, lr.k, extended)
        if cycle is None:
            break
        cycle.protected[link.id] = wp_id
        granted.append((cycle.id, link.id))
        a_bp = cycle.backup_availability(link, g)
        a_pp, _ = ava_dcyc_update(a_pp, link.availability, a_bp)
    if a_pp >= a_th:
        return granted, a_pp
    _rollback(g, cs, granted, extended)
    return None, best_path.availability


def release_wp(
    cs: DCycleSet, wp_id: str, granted: list[tuple[int, str]], g: NetworkGraph
) -> None:
    """Drop a departed working path's granted entries; free the cycles emptied.

    ``granted`` is the (cycle id, link id) list ``provision_cycles`` returned
    for ``wp_id``.  Nothing changes if any entry is not held for ``wp_id``
    or is listed twice.
    """
    seen = set()
    for entry in granted:
        cid, lid = entry
        cycle = cs.cycles.get(cid)
        if entry in seen or cycle is None or cycle.protected.get(lid) != wp_id:
            raise UnknownGrantError(f"cycle {cid} holds no entry on {lid} for {wp_id}")
        seen.add(entry)
    _release(cs, granted, g)


def _release(cs: DCycleSet, granted: list[tuple[int, str]], g: NetworkGraph) -> None:
    for cid, lid in granted:
        cycle = cs.cycles[cid]
        del cycle.protected[lid]
        if not cycle.protected:
            _set_ring(g, cs, cycle, (), {})
            del cs.cycles[cid]
