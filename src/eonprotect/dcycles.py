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
only the cycles they leave empty are freed, all or none.  A failed
protection attempt drops its grants and gives back, newest first, every
ring it replaced.

A cycle's ring is held once, as the keys of its ``blocks`` in order.
``_set_ring`` is the only code that writes cycle blocks to the links: it
builds, extends, restores and frees every ring, through one checked
``spectrum.allocate`` of the blocks it adds and one ``release`` of those it
drops.  A ring written onto taken slots, or freeing a slot already free,
raises with the ring and the links as they were.

Each cycle carries two derived values, both tied to its ring:

- ``vertex_set``, the frozenset of its vertex order.  A link is covered
  iff both its endpoints are in it; a covered link is on the cycle iff it
  is a key of ``blocks``, else it straddles.  ``_set_ring`` sets it with
  the ring.
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
from .rsa import CandidatePath, LightpathRequest, candidate_paths
from .spectrum import DoubleFreeError, SlotBlock, allocate, first_fit, is_feasible, release
from .topology import Link, NetworkGraph


@dataclass
class DCycle:
    """One protection cycle: an ordered closed walk of distinct vertices.

    ``blocks`` is the ring: its key t is the link joining vertex t and
    vertex t+1 mod n of ``vertex_order``.  ``_set_ring`` writes both,
    through ``spectrum.allocate`` and ``release``.  The cycle covers a
    link iff both its endpoints are in ``vertex_set``; a covered link that
    is not a key of ``blocks`` straddles the cycle.
    """

    id: int
    vertex_order: tuple[str, ...]
    blocks: dict[str, SlotBlock]
    capacity_slots: int
    # frozenset(vertex_order)
    vertex_set: frozenset[str] = frozenset()
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
    admitting cycle that carries the link.  A cycle admits a link whose
    endpoints are both in its vertex set, and that it does not protect
    yet, if the demand fits its capacity, or twice its capacity for a
    straddler.
    """
    lid, u, v = link.id, link.u, link.v
    on_cycle = None
    for cycle in cs.cycles.values():
        vs = cycle.vertex_set
        if u not in vs or v not in vs or lid in cycle.protected:
            continue
        if lid not in cycle.blocks:
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
    New blocks are reserved by one ``spectrum.allocate``, then blocks the
    cycle holds and ``blocks`` lacks are freed by one ``spectrum.release``,
    and ``cs.reserved`` moves with both.  The vertex set is reset and the
    arc cache cleared.  The package never moves the block of a link the
    ring keeps, so a ring written over taken slots, or one that frees a
    slot already free, raises with nothing changed.
    """
    index = g.link_index()
    position = index.position
    held = cycle.blocks
    added = {position[lid]: b.mask() for lid, b in blocks.items() if held.get(lid) != b}
    dropped = {position[lid]: b.mask() for lid, b in held.items() if blocks.get(lid) != b}
    allocate(index.links, added)
    try:
        release(index.links, dropped)
    except DoubleFreeError:
        release(index.links, added)
        raise
    # Kept blocks cancel out.
    cs.reserved += sum(b.length for b in blocks.values()) - sum(
        b.length for b in held.values()
    )
    cycle.vertex_order = tuple(vertex_order)
    cycle.blocks = blocks
    cycle.vertex_set = frozenset(cycle.vertex_order)
    cycle.arc_avail = {}


def _try_extend(
    g: NetworkGraph, link: Link, demand: int, cs: DCycleSet, replaced: list
) -> DCycle | None:
    """Insert ``link`` into an existing cycle through one off-cycle vertex.

    If one endpoint u lies on a cycle, the other endpoint v does not, and v
    connects to a cycle neighbour w of u, the cycle edge u-w is replaced by
    u-v-w; the link becomes on-cycle and the displaced edge becomes a
    straddler.  The replaced ring (cycle, vertex order, blocks) is
    appended to ``replaced`` for ``_rollback``.
    """
    for cycle in cs.cycles.values():
        vs = cycle.vertex_set
        u, v = link.u, link.v
        if v in vs:
            u, v = v, u
        if u not in vs or v in vs:
            continue
        order = cycle.vertex_order
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
            replaced.append((cycle, order, cycle.blocks))
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
    replaced: list,
) -> DCycle:
    """A new cycle, first fit on each link; its empty ring goes to ``replaced``."""
    blocks = {
        lid: first_fit(g.links[lid].bitmap, capacity) for lid in _ring(g, vertex_order)
    }
    cycle = DCycle(next(cs._cid), (), {}, capacity)
    _set_ring(g, cs, cycle, vertex_order, blocks)
    replaced.append((cycle, (), {}))
    cs.cycles[cycle.id] = cycle
    return cycle


def find_cycle_for(
    g: NetworkGraph,
    link: Link,
    demand: int,
    cs: DCycleSet,
    k: int,
    replaced: list,
) -> DCycle | None:
    """Create protection for a link no existing cycle can cover.

    Tries, in order: extending an existing cycle through the link, a new
    cycle with the link straddling (two disjoint alternate routes), and a
    new on-cycle arrangement (one alternate route plus spare slots on the
    link itself).  The ring it replaces, empty for a new cycle, goes to
    ``replaced``.
    """
    cycle = _try_extend(g, link, demand, cs, replaced)
    if cycle is not None:
        return cycle

    index = g.link_index()
    bits = index.free_bits()
    bits[index.position[link.id]] = 0
    alternates = candidate_paths(g, link.u, link.v, demand, k, bits, best_only=True)
    if not alternates:
        return None
    walk = alternates[0].vertices

    # The second route avoids every link at the first's interior vertices,
    # the first's links among them (it avoids ``link``: two hops or more).
    for vx in walk[1:-1]:
        for _, _, li in index.neighbors[vx]:
            bits[li] = 0
    disjoint = candidate_paths(g, link.u, link.v, demand, k, bits, best_only=True)
    if disjoint:
        back = disjoint[0].vertices
        return _build_cycle(cs, g, list(walk) + list(reversed(back[1:-1])), demand, replaced)

    if is_feasible(link.bitmap, demand):
        return _build_cycle(cs, g, list(walk), demand, replaced)
    return None


def _rollback(g: NetworkGraph, cs: DCycleSet, granted: list, replaced: list) -> None:
    """Undo a failed ``provision_cycles`` call.

    Its grants are dropped, then ``_set_ring`` gives back, newest first,
    every ring the call replaced, in place: that frees the blocks the call
    reserved and reserves again those it displaced.  A cycle the call built
    gets its empty ring back and leaves ``cs.cycles``.
    """
    for cid, lid in granted:
        del cs.cycles[cid].protected[lid]
    for cycle, vertex_order, blocks in reversed(replaced):
        _set_ring(g, cs, cycle, vertex_order, blocks)
        if not blocks:
            del cs.cycles[cycle.id]


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
    replaced: list = []
    a_pp = best_path.availability
    for link in sorted(best_path.links, key=lambda l: (l.availability, l.id)):
        if a_pp >= a_th:
            break
        cycle = check_cycles(cs, link, lr.slots_needed)
        if cycle is None:
            cycle = find_cycle_for(g, link, lr.slots_needed, cs, lr.k, replaced)
        if cycle is None:
            break
        cycle.protected[link.id] = wp_id
        granted.append((cycle.id, link.id))
        a_bp = cycle.backup_availability(link, g)
        a_pp, _ = ava_dcyc_update(a_pp, link.availability, a_bp)
    if a_pp >= a_th:
        return granted, a_pp
    _rollback(g, cs, granted, replaced)
    return None, best_path.availability


def release_wp(
    cs: DCycleSet, wp_id: str, granted: list[tuple[int, str]], g: NetworkGraph
) -> None:
    """Drop a departed working path's granted entries; free the cycles emptied.

    ``granted`` is the (cycle id, link id) list ``provision_cycles`` returned
    for ``wp_id``.  Nothing changes if any entry is not held for ``wp_id``
    or is listed twice, nor if freeing an emptied ring raises
    ``DoubleFreeError``: the freed rings and the grants are put back.
    """
    for entry in granted:
        cid, lid = entry
        cycle = cs.cycles.get(cid)
        if granted.count(entry) > 1 or cycle is None or cycle.protected.get(lid) != wp_id:
            raise UnknownGrantError(f"cycle {cid} holds no entry on {lid} for {wp_id}")
    emptied = []
    for cid, lid in granted:
        cycle = cs.cycles[cid]
        del cycle.protected[lid]
        if not cycle.protected:
            emptied.append((cycle, cycle.vertex_order, cycle.blocks))
    for i, (cycle, _, _) in enumerate(emptied):
        try:
            _set_ring(g, cs, cycle, (), {})
        except DoubleFreeError:
            _rollback(g, cs, [], emptied[:i])
            for cid, lid in granted:
                cs.cycles[cid].protected[lid] = wp_id
            raise
    for cycle, _, _ in emptied:
        del cs.cycles[cycle.id]
