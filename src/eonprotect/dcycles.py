"""Dynamic protection cycles for link protection.

A cycle reserves a slot block on each of its links.  A working link lying
on the cycle is protected by the complementary arc; a straddling link
(chord between two cycle vertices) is protected by either arc, so the two
arcs jointly carry twice the cycle capacity for it.  Cycles are created,
extended and dismantled as traffic comes and goes; distinct protected
working links may share one cycle's slots because only one of them can fail
at a time.

Cycle slot blocks are chosen first-fit per link and need not line up across
links (spectrum conversion happens at the failed link's end nodes).

Cycle ids come from a counter and are never reused, and a rollback puts a
reverted cycle back under its existing key, so ``DCycleSet.cycles`` iterates
in id order without sorting.  ``check_cycles`` walks it once and stops at
the first straddling cycle that admits the link.  A departing working path
hands back the (cycle id, link id) entries it was granted; only those are
deleted, and only the cycles they leave empty are freed.

Each cycle carries two derived maps, both tied to its ring:

- ``covers``, the coverage map: every graph link with both endpoints on the
  cycle, mapped to ``ON_CYCLE`` or ``STRADDLING``.  ``check_cycles`` makes
  one lookup in it per cycle.  ``_build_cycle`` builds it and
  ``_try_extend`` rebuilds it when it reroutes the ring.
- the arc cache: the backup availability the cycle offers each link it was
  asked about.  ``_try_extend`` clears it with the ring; ``copy()`` starts
  empty, so a cycle put back by ``_rollback`` recomputes.  Link
  availabilities are fixed for a run, so an entry stays exact until the
  ring changes.

``DCycleSet.reserved`` counts the slots held by all cycle blocks.  Every
block reserved or freed here moves it, so it always equals the sum of the
live cycles' block lengths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .availability import ava_dcyc_update, parallel_availability
from .rsa import CandidatePath, LightpathRequest, candidate_paths, select_best
from .spectrum import SlotBlock, first_fit, is_feasible
from .topology import Link, NetworkGraph


ON_CYCLE = 1
STRADDLING = 2


def coverage(
    g: NetworkGraph, vertex_order: tuple[str, ...], link_ids: tuple[str, ...]
) -> dict[str, int]:
    """Every link of ``g`` with both endpoints on the cycle: ON_CYCLE or STRADDLING."""
    on = set(vertex_order)
    ring = set(link_ids)
    covers = {}
    for vx in vertex_order:
        for lid in g.adjacency[vx]:
            if g.links[lid].other(vx) in on:
                covers[lid] = ON_CYCLE if lid in ring else STRADDLING
    return covers


@dataclass
class DCycle:
    """One protection cycle: an ordered closed walk of distinct vertices."""

    id: int
    vertex_order: tuple[str, ...]
    link_ids: tuple[str, ...]
    blocks: dict[str, SlotBlock]
    capacity_slots: int
    # link id -> ON_CYCLE or STRADDLING, as ``coverage`` builds it
    covers: dict[str, int]
    # protected working link -> id of the working path it belongs to
    protected: dict[str, str] = field(default_factory=dict)
    # link id -> backup_availability(link); valid until the ring changes
    arc_avail: dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    def is_on_cycle(self, link: Link) -> bool:
        return link.id in self.link_ids

    def arcs(self, link: Link, g: NetworkGraph) -> list[list[Link]]:
        """Backup routes around the cycle between the link's endpoints.

        One arc (the complement) for an on-cycle link, both arcs for a
        straddler.
        """
        if self.is_on_cycle(link):
            return [[g.links[lid] for lid in self.link_ids if lid != link.id]]
        order = self.vertex_order
        i, j = sorted((order.index(link.u), order.index(link.v)))
        # link_ids[t] joins order[t] and order[t+1 mod n]
        arc1 = [g.links[self.link_ids[t]] for t in range(i, j)]
        arc2 = [g.links[self.link_ids[t % len(order)]] for t in range(j, i + len(order))]
        return [arc1, arc2]

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

    def copy(self) -> "DCycle":
        """A copy with its own blocks and protected map and an empty arc cache.

        ``covers`` is shared: it is replaced when the ring changes, never
        changed in place.
        """
        return DCycle(
            self.id, self.vertex_order, self.link_ids, dict(self.blocks),
            self.capacity_slots, self.covers, dict(self.protected),
        )


class UnknownGrantError(Exception):
    """A released (cycle id, link id) entry is missing or held by another WP."""


class DCycleSet:
    """Live cycles by id.

    Ids only grow and are never reused, and ``_rollback`` reverts a cycle by
    assigning to its existing key, so dict order is id order.
    """

    def __init__(self) -> None:
        self.cycles: dict[int, DCycle] = {}
        # slots held by the blocks of all live cycles
        self.reserved = 0
        self._cid = itertools.count(1)

    def is_empty(self) -> bool:
        return not self.cycles

    def add(self, cycle: DCycle) -> None:
        self.cycles[cycle.id] = cycle

    def new_id(self) -> int:
        return next(self._cid)


def min_availability_link(links: list[Link], avail: dict[str, float]) -> Link:
    """Least-available link; ties broken by lexicographic link id."""
    if not links:
        raise ValueError("no links given")
    return min(links, key=lambda l: (avail[l.id], l.id))


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


def _reserve_block(cs: DCycleSet, link: Link, capacity: int, undo: list) -> SlotBlock:
    block = first_fit(link.bitmap, capacity)
    link.bitmap.set_busy(block)
    cs.reserved += capacity
    undo.append(("free", link, block))
    return block


def _ring(g: NetworkGraph, vertex_order: list[str]) -> tuple[str, ...]:
    """Link ids around a closed walk; entry t joins vertex t and vertex t+1 mod n."""
    return tuple(
        g.link_between(a, b).id
        for a, b in zip(vertex_order, vertex_order[1:] + vertex_order[:1])
    )


def _try_extend(
    g: NetworkGraph, link: Link, demand: int, cs: DCycleSet, undo: list
) -> DCycle | None:
    """Insert ``link`` into an existing cycle through one off-cycle vertex.

    If one endpoint u lies on a cycle and the other endpoint v connects to a
    cycle neighbour w of u, the cycle edge u-w is replaced by u-v-w; the
    link becomes on-cycle and the displaced edge becomes a straddler.
    """
    for cycle in cs.cycles.values():
        if link.id in cycle.covers:
            continue
        on = cycle.vertex_order
        u, v = link.u, link.v
        if v in on:
            u, v = v, u
        if u not in on:
            continue
        cap = cycle.capacity_slots
        if demand > cap or not is_feasible(link.bitmap, cap):
            continue
        order = cycle.vertex_order
        n = len(order)
        ui = order.index(u)
        for wi in ((ui - 1) % n, (ui + 1) % n):
            w = order[wi]
            bridge = g.link_between(v, w)
            removed = g.link_between(u, w)
            if bridge is None or removed is None or removed.id not in cycle.link_ids:
                continue
            if not is_feasible(bridge.bitmap, cap):
                continue
            # Every protected link must stay on-cycle or straddling: the
            # displaced edge keeps both endpoints on the cycle, so it does.
            old = cycle.copy()
            undo.append(("revert", cycle.id, old))
            new_order = list(order)
            new_order.insert(ui if wi == (ui - 1) % n else ui + 1, v)
            cycle.vertex_order = tuple(new_order)
            block = cycle.blocks.pop(removed.id)
            removed.bitmap.set_free(block)
            cs.reserved -= block.length
            cycle.blocks[link.id] = _reserve_block(cs, link, cap, undo)
            cycle.blocks[bridge.id] = _reserve_block(cs, bridge, cap, undo)
            cycle.link_ids = _ring(g, new_order)
            cycle.covers = coverage(g, cycle.vertex_order, cycle.link_ids)
            cycle.arc_avail = {}
            return cycle
    return None


def _build_cycle(
    cs: DCycleSet,
    g: NetworkGraph,
    vertex_order: list[str],
    capacity: int,
    undo: list,
) -> DCycle:
    order = tuple(vertex_order)
    link_ids = _ring(g, vertex_order)
    blocks = {lid: _reserve_block(cs, g.links[lid], capacity, undo) for lid in link_ids}
    cycle = DCycle(
        cs.new_id(), order, link_ids, blocks, capacity, coverage(g, order, link_ids)
    )
    cs.add(cycle)
    undo.append(("drop", cycle.id))
    return cycle


def find_cycle_for(
    g: NetworkGraph,
    link: Link,
    demand: int,
    cs: DCycleSet,
    k: int,
    undo: list,
) -> DCycle | None:
    """Create protection for a link no existing cycle can cover.

    Tries, in order: extending an existing cycle through the link, a new
    cycle with the link straddling (two disjoint alternate routes), and a
    new on-cycle arrangement (one alternate route plus spare slots on the
    link itself).
    """
    extended = _try_extend(g, link, demand, cs, undo)
    if extended is not None:
        return extended

    index = g.link_index()
    without = index.mask([link])
    alternates = candidate_paths(g, link.u, link.v, demand, k, without)
    if not alternates:
        return None
    p1 = select_best(alternates)

    # The second route avoids every link at p1's interior vertices, p1's own
    # links among them (p1 avoids ``link``, so it has two hops or more).
    for vx in p1.vertices[1:-1]:
        for _, _, li in index.neighbors[vx]:
            without |= 1 << li
    disjoint = candidate_paths(g, link.u, link.v, demand, k, without)
    if disjoint:
        p2 = select_best(disjoint)
        order = list(p1.vertices) + list(reversed(p2.vertices[1:-1]))
        return _build_cycle(cs, g, order, demand, undo)

    if is_feasible(link.bitmap, demand):
        return _build_cycle(cs, g, list(p1.vertices), demand, undo)
    return None


def _rollback(g: NetworkGraph, cs: DCycleSet, undo: list) -> None:
    for entry in reversed(undo):
        tag = entry[0]
        if tag == "free":
            _, link, block = entry
            link.bitmap.set_free(block)
            cs.reserved -= block.length
        elif tag == "drop":
            del cs.cycles[entry[1]]
        elif tag == "revert":
            _, cid, old = entry
            # Re-reserve the displaced edge's block (its slots were freed
            # after this entry was logged, so they are free again by now).
            cur = cs.cycles[cid]
            for lid, block in old.blocks.items():
                if lid not in cur.blocks:
                    g.links[lid].bitmap.set_busy(block)
                    cs.reserved += block.length
            cs.cycles[cid] = old
        elif tag == "protect":
            _, cid, link_id = entry
            del cs.cycles[cid].protected[link_id]


def provision_cycles(
    g: NetworkGraph,
    lr: LightpathRequest,
    best_path: CandidatePath,
    cs: DCycleSet,
    wp_id: str,
    a_pp_max: float,
    a_th: float,
) -> tuple[list[tuple[int, str]] | None, float]:
    """Protect the working path's weakest links by cycles until the threshold.

    Returns ([(cycle id, link id), ...], final availability) on success.  If
    the current weakest link cannot be protected, all reservations from this
    call are rolled back and (None, original availability) is returned.
    """
    avail = {link.id: link.availability for link in best_path.links}
    unprotected = list(best_path.links)
    undo: list = []
    granted: list[tuple[int, str]] = []
    a_pp = a_pp_max
    while a_pp < a_th:
        if not unprotected:
            _rollback(g, cs, undo)
            return None, a_pp_max
        link = min_availability_link(unprotected, avail)
        cycle = check_cycles(cs, link, lr.slots_needed)
        if cycle is None:
            cycle = find_cycle_for(g, link, lr.slots_needed, cs, lr.k, undo)
        if cycle is None:
            _rollback(g, cs, undo)
            return None, a_pp_max
        cycle.protected[link.id] = wp_id
        undo.append(("protect", cycle.id, link.id))
        granted.append((cycle.id, link.id))
        a_bp = cycle.backup_availability(link, g)
        a_pp, a_pl = ava_dcyc_update(a_pp, avail[link.id], a_bp)
        avail[link.id] = a_pl
        unprotected.remove(link)
    return granted, a_pp


def release_wp(
    cs: DCycleSet, wp_id: str, granted: list[tuple[int, str]], g: NetworkGraph
) -> None:
    """Drop a departed working path's granted entries; free the cycles emptied.

    ``granted`` is the (cycle id, link id) list ``provision_cycles`` returned
    for ``wp_id``.  Nothing changes if any entry is not held for ``wp_id``.
    """
    for cid, lid in granted:
        cycle = cs.cycles.get(cid)
        if cycle is None or cycle.protected.get(lid) != wp_id:
            raise UnknownGrantError(f"cycle {cid} holds no entry on {lid} for {wp_id}")
    for cid, lid in granted:
        cycle = cs.cycles[cid]
        del cycle.protected[lid]
        if not cycle.protected:
            for cycle_lid, block in cycle.blocks.items():
                g.links[cycle_lid].bitmap.set_free(block)
                cs.reserved -= block.length
            del cs.cycles[cid]
