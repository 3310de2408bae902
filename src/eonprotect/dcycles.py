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

Links are named by ``LinkIndex`` position; only the grants handed out and
the ``blocks`` view name them by id.  A cycle's ring is held once, as the
keys of its ``ring`` in order.  ``_set_ring`` is the only code that writes
cycle blocks to the links: it builds, extends, restores and frees every
ring, through one checked ``spectrum.allocate`` of the blocks it adds and
one ``release`` of those it drops.  A ring written onto taken slots, or
freeing a slot already free, raises with the ring and the links as they
were.

Each cycle carries two derived values, both tied to its ring:

- ``vertex_mask``, the OR of the ``LinkIndex.vertex_bit`` of its vertex
  order.  A link is covered iff both its endpoint bits are in it; a
  covered link is on the cycle iff it is a key of ``ring``, else it
  straddles.  ``_set_ring`` sets it with the ring.
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
from .topology import LinkIndex, NetworkGraph


@dataclass
class DCycle:
    """One protection cycle: an ordered closed walk of distinct vertices.

    ``ring`` maps link positions to slot blocks: its key t is the link
    joining vertex t and vertex t+1 mod n of ``vertex_order``.
    ``_set_ring`` writes both, through ``spectrum.allocate`` and
    ``release``.  The cycle covers a link iff both its endpoint bits are in
    ``vertex_mask``; a covered link that is not a key of ``ring``
    straddles the cycle.
    """

    id: int
    vertex_order: tuple[str, ...]
    ring: dict[int, SlotBlock]
    capacity_slots: int
    # the graph's links table (``LinkIndex.links``)
    table: tuple = field(repr=False, compare=False)
    # OR of the vertex bits of vertex_order
    vertex_mask: int = 0
    # protected working link -> id of the working path it belongs to
    protected: dict[int, str] = field(default_factory=dict)
    # link -> backup_availability(link); valid until the ring changes
    arc_avail: dict[int, float] = field(default_factory=dict, repr=False, compare=False)

    @property
    def blocks(self) -> dict[str, SlotBlock]:
        """The ring by link id, in ring order; a copy."""
        table = self.table
        return {table[li].id: block for li, block in self.ring.items()}

    def arcs(self, li: int) -> list[list[int]]:
        """Backup routes around the cycle between the link's endpoints.

        One arc (the complement) for an on-cycle link, both arcs for a
        straddler.
        """
        ring = tuple(self.ring)
        if li in self.ring:
            return [[x for x in ring if x != li]]
        link = self.table[li]
        order = self.vertex_order
        i, j = sorted((order.index(link.u), order.index(link.v)))
        return [list(ring[i:j]), list(ring[j:] + ring[:i])]

    def backup_availability(self, li: int) -> float:
        a_bp = self.arc_avail.get(li)
        if a_bp is None:
            table = self.table
            arc_avails = [math.prod(table[x].availability for x in arc) for arc in self.arcs(li)]
            a_bp = arc_avails[0] if len(arc_avails) == 1 else parallel_availability(arc_avails)
            self.arc_avail[li] = a_bp
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
            li = position[lid]
            arcs = cycle.arcs(li)
            if result.block.length > cycle.capacity_slots:
                arcs = [[x for arc in arcs for x in arc]]
            for arc in arcs:
                needs = pack = 0
                for x in arc:
                    needs |= 1 << x
                    pack |= cycle.ring[x].mask() << x * width
                options.append((1 << li, needs, pack))
        return options


def check_cycles(cs: DCycleSet, li: int, ends: int, demand: int) -> DCycle | None:
    """An existing cycle able to protect link ``li``, straddling preferred.

    ``ends`` is the OR of the link's two endpoint vertex bits.  The first
    admitting straddler in id order wins, else the first admitting cycle
    that carries the link.  A cycle admits a link whose endpoint bits are
    both in its vertex mask, and that it does not protect yet, if the
    demand fits its capacity, or twice its capacity for a straddler.
    """
    on_cycle = None
    for cycle in cs.cycles.values():
        if cycle.vertex_mask & ends != ends or li in cycle.protected:
            continue
        if li not in cycle.ring:
            if demand <= 2 * cycle.capacity_slots:
                return cycle
        elif on_cycle is None and demand <= cycle.capacity_slots:
            on_cycle = cycle
    return on_cycle


def _ring(index: LinkIndex, vertex_order: list[str]) -> tuple[int, ...]:
    """Link positions around a closed walk; entry t joins vertex t and vertex t+1 mod n."""
    between = index.between
    return tuple(
        between[a][b] for a, b in zip(vertex_order, vertex_order[1:] + vertex_order[:1])
    )


def _set_ring(
    g: NetworkGraph, cs: DCycleSet, cycle: DCycle,
    vertex_order: tuple[str, ...] | list[str], ring: dict[int, SlotBlock],
) -> None:
    """Give ``cycle`` a new ring; the only writer of cycle blocks.

    ``ring`` maps the ring's link positions, in ring order, to their slot
    blocks.  New blocks are reserved by one ``spectrum.allocate``, then
    blocks the cycle holds and ``ring`` lacks are freed by one
    ``spectrum.release``, and ``cs.reserved`` moves with both.  The vertex
    mask is reset and the arc cache cleared.  The package never moves the
    block of a link the ring keeps, so a ring written over taken slots, or
    one that frees a slot already free, raises with nothing changed.
    """
    index = g.link_index()
    held = cycle.ring
    added = {li: b.mask() for li, b in ring.items() if held.get(li) != b}
    dropped = {li: b.mask() for li, b in held.items() if ring.get(li) != b}
    allocate(index.links, added)
    try:
        release(index.links, dropped)
    except DoubleFreeError:
        release(index.links, added)
        raise
    # Kept blocks cancel out.
    cs.reserved += sum(b.length for b in ring.values()) - sum(b.length for b in held.values())
    cycle.vertex_order = tuple(vertex_order)
    cycle.ring = ring
    # The vertices are distinct, so the sum of their bits is their OR.
    cycle.vertex_mask = sum(index.vertex_bit[vx] for vx in cycle.vertex_order)
    cycle.arc_avail = {}


def _try_extend(
    g: NetworkGraph, li: int, demand: int, cs: DCycleSet, replaced: list
) -> DCycle | None:
    """Insert link ``li`` into an existing cycle through one off-cycle vertex.

    If one endpoint u lies on a cycle, the other endpoint v does not, and v
    connects to a cycle neighbour w of u, the cycle edge u-w is replaced by
    u-v-w; the link becomes on-cycle and the displaced edge becomes a
    straddler.  The replaced ring (cycle, vertex order, ring) is appended
    to ``replaced`` for ``_rollback``.
    """
    index = g.link_index()
    table, vertex_bit = index.links, index.vertex_bit
    link = table[li]
    for cycle in cs.cycles.values():
        mask = cycle.vertex_mask
        u, v = link.u, link.v
        if mask & vertex_bit[v]:
            u, v = v, u
        if not mask & vertex_bit[u] or mask & vertex_bit[v]:
            continue
        order = cycle.vertex_order
        cap = cycle.capacity_slots
        if demand > cap or not is_feasible(link.bitmap, cap):
            continue
        n = len(order)
        ui = order.index(u)
        for wi in ((ui - 1) % n, (ui + 1) % n):
            bridge = index.between[v].get(order[wi])
            if bridge is None or not is_feasible(table[bridge].bitmap, cap):
                continue
            # Every protected link must stay on-cycle or straddling: the
            # displaced edge keeps both endpoints on the cycle, so it does.
            replaced.append((cycle, order, cycle.ring))
            new_order = list(order)
            new_order.insert(ui if wi == (ui - 1) % n else ui + 1, v)
            ring = {
                x: cycle.ring.get(x) or first_fit(table[x].bitmap, cap)
                for x in _ring(index, new_order)
            }
            _set_ring(g, cs, cycle, new_order, ring)
            return cycle
    return None


def _build_cycle(
    cs: DCycleSet, g: NetworkGraph, vertex_order: list[str], capacity: int, replaced: list
) -> DCycle:
    """A new cycle, first fit on each link; its empty ring goes to ``replaced``."""
    index = g.link_index()
    table = index.links
    ring = {x: first_fit(table[x].bitmap, capacity) for x in _ring(index, vertex_order)}
    cycle = DCycle(next(cs._cid), (), {}, capacity, table)
    _set_ring(g, cs, cycle, vertex_order, ring)
    replaced.append((cycle, (), {}))
    cs.cycles[cycle.id] = cycle
    return cycle


def find_cycle_for(
    g: NetworkGraph, li: int, demand: int, cs: DCycleSet, k: int, replaced: list
) -> DCycle | None:
    """Create protection for link ``li``, which no existing cycle can cover.

    Tries, in order: extending an existing cycle through the link, a new
    cycle with the link straddling (two disjoint alternate routes), and a
    new on-cycle arrangement (one alternate route plus spare slots on the
    link itself).  The ring it replaces, empty for a new cycle, goes to
    ``replaced``.  Both route searches read the live bits and leave links
    out by ``without``: the first leaves out ``li``, the second also every
    link at the first route's interior vertices.
    """
    cycle = _try_extend(g, li, demand, cs, replaced)
    if cycle is not None:
        return cycle

    index = g.link_index()
    link = index.links[li]
    without = 1 << li
    alternates = candidate_paths(g, link.u, link.v, demand, k, without=without, best_only=True)
    if not alternates:
        return None
    walk = alternates[0].vertices

    # The second route avoids every link at the first's interior vertices,
    # the first's links among them (it avoids ``link``: two hops or more).
    for vx in walk[1:-1]:
        for _, _, x in index.neighbors[vx]:
            without |= 1 << x
    disjoint = candidate_paths(g, link.u, link.v, demand, k, without=without, best_only=True)
    if disjoint:
        back = disjoint[0].vertices
        return _build_cycle(cs, g, list(walk) + list(reversed(back[1:-1])), demand, replaced)

    if is_feasible(link.bitmap, demand):
        return _build_cycle(cs, g, list(walk), demand, replaced)
    return None


def _rollback(g: NetworkGraph, cs: DCycleSet, granted: list, replaced: list) -> None:
    """Undo a failed ``provision_cycles`` call.

    Its (cycle id, link position) grants are dropped, then ``_set_ring``
    gives back, newest first, every ring the call replaced, in place: that
    frees the blocks the call reserved and reserves again those it
    displaced.  A cycle the call built gets its empty ring back and leaves
    ``cs.cycles``.
    """
    for cid, li in granted:
        del cs.cycles[cid].protected[li]
    for cycle, vertex_order, ring in reversed(replaced):
        _set_ring(g, cs, cycle, vertex_order, ring)
        if not ring:
            del cs.cycles[cycle.id]


def provision_cycles(
    g: NetworkGraph, lr: LightpathRequest, best_path: CandidatePath,
    cs: DCycleSet, wp_id: str, a_th: float,
) -> tuple[list[tuple[int, str]] | None, float]:
    """Protect the working path's weakest links by cycles until the threshold.

    Links are taken by availability, ties by link id.  Returns ([(cycle id,
    link id), ...], final availability) on success.  If the next link cannot
    be protected, or every link is and the threshold is still missed, all
    reservations from this call are rolled back and (None, the working
    path's availability) is returned.
    """
    index = g.link_index()
    table, vertex_bit = index.links, index.vertex_bit
    granted: list[tuple[int, int]] = []
    replaced: list = []
    a_pp = best_path.availability
    for li in sorted(best_path.link_indices, key=lambda x: (table[x].availability, table[x].id)):
        if a_pp >= a_th:
            break
        link = table[li]
        ends = vertex_bit[link.u] | vertex_bit[link.v]
        cycle = check_cycles(cs, li, ends, lr.slots_needed)
        if cycle is None:
            cycle = find_cycle_for(g, li, lr.slots_needed, cs, lr.k, replaced)
        if cycle is None:
            break
        cycle.protected[li] = wp_id
        granted.append((cycle.id, li))
        a_bp = cycle.backup_availability(li)
        a_pp, _ = ava_dcyc_update(a_pp, link.availability, a_bp)
    if a_pp >= a_th:
        return [(cid, table[li].id) for cid, li in granted], a_pp
    _rollback(g, cs, granted, replaced)
    return None, best_path.availability


def release_wp(
    cs: DCycleSet, wp_id: str, granted: list[tuple[int, str]], g: NetworkGraph
) -> None:
    """Drop a departed working path's granted entries; free the cycles emptied.

    ``granted`` is the (cycle id, link id) list ``provision_cycles`` returned
    for ``wp_id``.  Nothing changes if any entry is not held for ``wp_id``
    (a link id not in the graph among them) or is listed twice, nor if
    freeing an emptied ring raises ``DoubleFreeError``: the freed rings and
    the grants are put back.
    """
    position = g.link_index().position
    for entry in granted:
        cid, lid = entry
        cycle = cs.cycles.get(cid)
        held = cycle and cycle.protected.get(position.get(lid))
        if granted.count(entry) > 1 or held != wp_id:
            raise UnknownGrantError(f"cycle {cid} holds no entry on {lid} for {wp_id}")
    emptied = []
    for cid, lid in granted:
        cycle = cs.cycles[cid]
        del cycle.protected[position[lid]]
        if not cycle.protected:
            emptied.append((cycle, cycle.vertex_order, cycle.ring))
    for i, (cycle, _, _) in enumerate(emptied):
        try:
            _set_ring(g, cs, cycle, (), {})
        except DoubleFreeError:
            _rollback(g, cs, [], emptied[:i])
            for cid, lid in granted:
                cs.cycles[cid].protected[position[lid]] = wp_id
            raise
    for cycle, _, _ in emptied:
        del cs.cycles[cycle.id]
