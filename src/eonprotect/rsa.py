"""Routing and spectrum assignment over consecutive slots.

Candidate paths are enumerated breadth-first (hop count order) over the
graph's int index (``NetworkGraph.link_index``): a partial path is its end
vertex, a mask of the vertices it visited, the running AND of its links'
free bits and the tuple of its link indices.  Branches whose intersection
can no longer host the requested contiguous block are pruned immediately.
Links can be left out by a link mask and the live free bits replaced by a
caller's list, so backup and cycle searches need no pruned graph copy.
A returned ``CandidatePath`` carries its availability (the product of link
availabilities in path order, from 1.0) and its link indices; its vertex
walk, link tuple and bitmap are built from those on first read.  A caller
that keeps the ``select_best`` path builds that path's fields only, plus
the vertex walks of any paths tied with it on availability and hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .spectrum import SlotBlock, SpectrumBitmap, allocate, first_fit, run_steps
from .topology import Link, LinkIndex, NetworkGraph


@dataclass(frozen=True)
class LightpathRequest:
    s: str
    d: str
    slots_needed: int
    k: int = 5
    arrival_s: float = 0.0
    holding_s: float = 0.0
    rate_gbps: float = 0.0

    def __post_init__(self) -> None:
        if self.s == self.d:
            raise ValueError("source and destination must differ")
        if self.slots_needed < 1 or self.k < 1:
            raise ValueError("slots_needed and k must be >= 1")


class CandidatePath:
    """A feasible path: vertex walk, links, common free slots, availability.

    ``CandidatePath(vertices, links, bitmap, availability)`` sets every
    field.  ``candidate_paths`` sets only the availability and the search's
    link indices; the other three fields are built on first read.
    """

    # (graph links by index, source vertex, slot count, link indices,
    # common free bits) of a path found by ``candidate_paths``
    _found: tuple | None = None

    def __init__(
        self,
        vertices: tuple[str, ...],
        links: tuple[Link, ...],
        bitmap: SpectrumBitmap,
        availability: float,
    ) -> None:
        self.vertices = vertices
        self.links = links
        self.bitmap = bitmap
        self.availability = availability

    @classmethod
    def _from_search(
        cls, table: tuple[Link, ...], s: str, size: int,
        path: tuple[int, ...], common: int,
    ) -> "CandidatePath":
        p = cls.__new__(cls)
        p._found = (table, s, size, path, common)
        avail = 1.0
        for li in path:
            avail *= table[li].availability
        p.availability = avail
        return p

    @cached_property
    def links(self) -> tuple[Link, ...]:
        table, _, _, path, _ = self._found
        return tuple([table[li] for li in path])

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        table, s, _, path, _ = self._found
        walk = [s]
        for li in path:
            walk.append(table[li].other(walk[-1]))
        return tuple(walk)

    @cached_property
    def bitmap(self) -> SpectrumBitmap:
        _, _, size, _, common = self._found
        return SpectrumBitmap(size, common)

    @property
    def hops(self) -> int:
        return len(self.links) if self._found is None else len(self._found[3])

    def link_ids(self) -> frozenset[str]:
        return frozenset(link.id for link in self.links)


def candidate_paths(
    g: NetworkGraph,
    s: str,
    d: str,
    slots_needed: int,
    k: int,
    exclude: int = 0,
    bits: list[int] | None = None,
) -> list[CandidatePath]:
    """Up to k loop-free paths s->d with >= slots_needed contiguous common slots.

    Paths come out in breadth-first order, so hop counts are non-decreasing.
    Returns as soon as k paths are collected; empty list when nothing fits.
    ``exclude`` is a mask over ``g.link_index()`` of links to treat as
    absent; ``bits`` replaces the links' live free bits, by link index.
    """
    if s not in g.adjacency or d not in g.adjacency:
        raise KeyError(f"unknown vertex in request {s}->{d}")
    size = g.slot_count
    if slots_needed > size:
        return []
    index = g.link_index()
    bits = index.free_bits() if bits is None else list(bits)
    if exclude:
        # An excluded link has no free slot, so no branch can cross it.
        for li in range(len(bits)):
            if exclude >> li & 1:
                bits[li] = 0
    found = _bfs(index, bits, s, d, run_steps(slots_needed), k, (1 << size) - 1)
    return [
        CandidatePath._from_search(index.links, s, size, path, common)
        for path, common in found
    ]


def _bfs(
    index: LinkIndex, bits: list[int], s: str, d: str,
    steps: list[int], k: int, all_free: int,
) -> list[tuple[tuple[int, ...], int]]:
    """(link indices, common free bits) of up to k feasible paths, BFS order."""
    neighbors = index.neighbors
    found = []
    # frontier entries: (vertex, visited-vertex mask, intersected bits, link indices)
    frontier = [(s, index.vertex_bit[s], all_free, ())]
    while frontier:
        nxt = []
        for u, seen, common, path in frontier:
            for v, vbit, li in neighbors[u]:
                if seen & vbit:
                    continue
                new_bits = run = common & bits[li]
                for step in steps:
                    run &= run >> step
                if not run:
                    continue
                if v == d:
                    found.append((path + (li,), new_bits))
                    if len(found) == k:
                        return found
                else:
                    nxt.append((v, seen | vbit, new_bits, path + (li,)))
        frontier = nxt
    return found


def select_best(paths: list[CandidatePath]) -> CandidatePath:
    """Highest availability; ties go to fewer hops, then vertex order.

    Vertex walks are read only for paths tied on availability and hops.
    """
    if not paths:
        raise ValueError("no candidate paths to select from")
    best = min(paths, key=lambda p: (-p.availability, p.hops))
    a, hops = best.availability, best.hops
    tied = [p for p in paths if p.availability == a and p.hops == hops]
    return best if len(tied) == 1 else min(tied, key=lambda p: p.vertices)


@dataclass
class ProvisionResult:
    """Outcome of one provisioning attempt."""

    blocked: bool
    path: CandidatePath | None = None
    block: SlotBlock | None = None
    a_p_max: float = 0.0
    a_pp_max: float = 0.0
    needs_protection: bool = False
    protected: bool = False
    backup_paths: list = field(default_factory=list)
    protected_links: list = field(default_factory=list)


def rsacs_with_protection(
    g: NetworkGraph,
    lr: LightpathRequest,
    a_th: float,
    mode: str,
    wp_id: str,
    backup_registry=None,
    cycle_set=None,
) -> ProvisionResult:
    """Provision a working path, then protect it if its availability is low.

    The working path is kept even when protection cannot reach the
    threshold; the result records whether the threshold was met.
    """
    if not 0.0 < a_th <= 1.0:
        raise ValueError("a_th must lie in (0, 1]")
    if mode not in ("none", "dsbpss", "dcycles"):
        raise ValueError(f"unknown protection mode {mode!r}")

    paths = candidate_paths(g, lr.s, lr.d, lr.slots_needed, lr.k)
    if not paths:
        return ProvisionResult(blocked=True)
    best = select_best(paths)
    block = first_fit(best.bitmap, lr.slots_needed)
    allocate([link.bitmap for link in best.links], block)

    result = ProvisionResult(
        blocked=False, path=best, block=block,
        a_p_max=best.availability, a_pp_max=best.availability,
    )
    if best.availability >= a_th:
        result.protected = False
        return result

    result.needs_protection = True
    if mode == "dsbpss":
        from .dsbpss import provision_backups

        backups, a_pp = provision_backups(
            g, lr, best, backup_registry, wp_id, best.availability, a_th
        )
        result.backup_paths = backups
        result.a_pp_max = a_pp
        result.protected = a_pp >= a_th
    elif mode == "dcycles":
        from .dcycles import provision_cycles

        protected_links, a_pp = provision_cycles(
            g, lr, best, cycle_set, wp_id, best.availability, a_th
        )
        result.protected_links = protected_links or []
        result.a_pp_max = a_pp
        result.protected = a_pp >= a_th
    return result
