"""Routing and spectrum assignment over consecutive slots.

Candidate paths come out in breadth-first (hop count) order over the
graph's int index (``NetworkGraph.link_index``).  A link's run mask has
bit i set iff slots i..i+n-1 are free on it, for a demand of n slots, and
the run mask of an AND is the AND of the run masks (see ``spectrum``).  A
caller may pass per-link free bits in place of the live ones, and leaves a
link out by putting 0 in its entry, so backup and cycle searches need no
pruned graph copy.

Most searches need no BFS.  The graph's index keeps, per
(s, d, k), the s-d simple paths in the order the same BFS finds them when
no branch is pruned, through the whole hop level of the k-th path
(``LinkIndex.structural_paths``); every graph of one structure shares that
table.  A search scans it first: a path there is feasible iff the run mask
of the AND of its links' free bits, taken once, is non-zero.  A search of
the live bits reads them off the scanned paths' own links, so a search the
table answers reads only the links of the paths it scans.
Pruning drops a branch with all its extensions and never reorders the
survivors, so the pruned BFS returns the first k feasible paths of the
unpruned order; when the table holds k feasible paths, they are those, and
when it holds every s-d path, its feasible ones are all there are.  A scan
of a table that is not complete stops at the first infeasible path that
leaves it short of k feasible ones: the search falls back from there.

Otherwise the pruned BFS runs, over every link's free bits.  It takes every
link's run mask once; a partial path is its end vertex, a mask of the
vertices it visited, the running AND of its links' run masks and the tuple
of its link indices, so extending a branch costs one ``&``.  A branch is
pruned as soon as its links no longer share n contiguous free slots,
exactly as if contiguity were re-derived from the AND of their free bits.

Either way the search ends with each returned path's run mask, the AND of
its links' run masks.  A returned ``CandidatePath`` is that mask, its link
indices, its availability (the product of link availabilities in path
order, from 1.0) and its hop count.  Its first-fit block (the lowest set
bit of the run mask), vertex walk and link tuple are built from those on
first read, so provisioning allocates ``first_block`` with no bitmap built
and no second pass over the slots.  A caller that keeps the ``select_best``
path builds that path's fields only, plus the vertex walks of any paths
tied with it on availability and hops.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from .spectrum import SlotBlock, allocate, run_steps
from .topology import Link, LinkIndex, NetworkGraph

# Protection modes, in the order the CLI and the results schema list them.
MODES = ("none", "dsbpss", "dcycles")


class LightpathRequest(
    namedtuple("LightpathRequest", "s d slots_needed k arrival_s holding_s")
):
    """One demand: endpoints, contiguous slots, the k of its path search,
    and its arrival and holding times in seconds.

    An immutable tuple with no per-instance dict, so a run's whole arrival
    list stays small and quick to build.  The constructor, ``_make`` and
    ``_replace`` all check that the endpoints differ and that
    ``slots_needed`` and ``k`` are ints (not bools) >= 1.
    """

    __slots__ = ()

    def __new__(
        cls, s: str, d: str, slots_needed: int, k: int = 5,
        arrival_s: float = 0.0, holding_s: float = 0.0,
    ) -> LightpathRequest:
        if s == d:
            raise ValueError("source and destination must differ")
        if type(slots_needed) is not int or type(k) is not int:
            raise ValueError(
                f"slots_needed and k must be ints, not {slots_needed!r} and {k!r}"
            )
        if slots_needed < 1 or k < 1:
            raise ValueError("slots_needed and k must be >= 1")
        return tuple.__new__(cls, (s, d, slots_needed, k, arrival_s, holding_s))

    @classmethod
    def _make(cls, iterable) -> LightpathRequest:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)


class _BuiltOnFirstRead:
    """A field built on first read and then stored on the instance.

    A non-data descriptor: once built, the instance attribute shadows it and
    later reads are plain attribute reads.  ``functools.cached_property``
    does the same but takes a lock on every uncached read before Python 3.12.
    """

    def __init__(self, build) -> None:
        self.build = build
        self.name = build.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class CandidatePath:
    """A feasible path found by ``candidate_paths`` for a demand of ``need``
    slots.

    Its availability and hop count are set at once.  It keeps its link
    indices and its run mask: bit i is set iff slots i..i+need-1 are free
    on every link in the bits it was found in.  Its first-fit block, links
    and vertex walk are built on first read.
    """

    def __init__(
        self, table: tuple[Link, ...], s: str,
        path: tuple[int, ...], run: int, need: int,
    ) -> None:
        # (graph links by index, source vertex, link indices, run mask,
        # demand); it holds no per-call list, so a live connection keeps no
        # search state alive.
        self._found = (table, s, path, run, need)
        avail = 1.0
        for li in path:
            avail *= table[li].availability
        self.availability = avail
        self.hops = len(path)

    @property
    def link_indices(self) -> tuple[int, ...]:
        """The path's links by ``LinkIndex`` position, in path order."""
        return self._found[2]

    @property
    def run(self) -> int:
        """The AND of the path's links' run masks for its demand."""
        return self._found[3]

    @_BuiltOnFirstRead
    def first_block(self) -> SlotBlock:
        """Lowest-start block of ``need`` slots free on every link."""
        *_, run, need = self._found
        return SlotBlock((run & -run).bit_length() - 1, need)

    @_BuiltOnFirstRead
    def links(self) -> tuple[Link, ...]:
        table, _, path, *_ = self._found
        return tuple([table[li] for li in path])

    @_BuiltOnFirstRead
    def vertices(self) -> tuple[str, ...]:
        table, s, path, *_ = self._found
        walk = [s]
        for li in path:
            walk.append(table[li].other(walk[-1]))
        return tuple(walk)


def candidate_paths(
    g: NetworkGraph,
    s: str,
    d: str,
    slots_needed: int,
    k: int,
    bits: list[int] | None = None,
) -> list[CandidatePath]:
    """Up to k loop-free paths s->d with >= slots_needed contiguous common slots.

    Paths come out in breadth-first order, so hop counts are non-decreasing.
    Returns as soon as k paths are collected; empty list when nothing fits.
    The graph's table of structural s-d paths is scanned first; only when
    it holds fewer than k feasible paths and is not complete does the
    pruned BFS run, over every link's run mask.  Each path keeps the run
    mask the search tested it by, from which ``first_block`` is read.
    ``bits`` replaces the links' live free bits, in ``g.link_index()``
    order; a link whose entry is 0 is left out.  Without ``bits``, the
    table scan reads the scanned paths' links only.  Neither the graph nor
    ``bits`` is written to.  Raises ``ValueError`` if ``slots_needed`` or
    ``k`` is below 1.
    """
    if slots_needed < 1 or k < 1:
        raise ValueError("slots_needed and k must be >= 1")
    if s not in g.adjacency or d not in g.adjacency:
        raise KeyError(f"unknown vertex in request {s}->{d}")
    size = g.slot_count
    if slots_needed > size or s == d:
        return []
    index = g.link_index()
    table = index.links
    steps = run_steps(slots_needed)
    full = (1 << size) - 1
    # (link indices, run mask) of each feasible path found.
    found = []
    paths, complete = index.structural_paths(s, d, k)
    # Infeasible paths the scan can pass and still answer (see the module
    # docstring).
    spare = len(paths) if complete else len(paths) - k
    for path in paths:
        run = full
        if bits is None:
            for li in path:
                run &= table[li].bitmap.bits
        else:
            for li in path:
                run &= bits[li]
        for step in steps:
            run &= run >> step
        if run:
            found.append((path, run))
            if len(found) == k:
                break
        elif not spare:
            break
        else:
            spare -= 1
    if len(found) < k and not complete:
        runs = index.free_bits() if bits is None else bits
        for step in steps:
            runs = [r & r >> step for r in runs]
        found = _pruned_bfs(index, runs, s, d, k)
    return [CandidatePath(table, s, path, run, slots_needed) for path, run in found]


def _pruned_bfs(
    index: LinkIndex, runs: list[int], s: str, d: str, k: int,
) -> list[tuple[tuple[int, ...], int]]:
    """(link indices, AND of their run masks) of up to k paths whose run
    masks meet, in BFS order."""
    neighbors = index.neighbors
    found = []
    # frontier entries: (vertex, visited-vertex mask, AND of the path's run
    # masks, link indices); -1 has every bit set, so no window is ruled out.
    frontier = [(s, index.vertex_bit[s], -1, ())]
    while frontier:
        nxt = []
        for u, seen, run, path in frontier:
            for v, vbit, li in neighbors[u]:
                if seen & vbit:
                    continue
                new = run & runs[li]
                if not new:
                    continue
                if v == d:
                    found.append((path + (li,), new))
                    if len(found) == k:
                        return found
                else:
                    nxt.append((v, seen | vbit, new, path + (li,)))
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


class NoProtection:
    """Mode ``none``, and the protocol every mode's protection state follows.

    ``dsbpss.BackupRegistry`` and ``dcycles.DCycleSet`` implement it too:

    - ``protect(g, lr, result, wp_id, a_th)`` tries to lift the working path
      of ``result`` to ``a_th``.  It sets the mode's own field of ``result``
      (``backup_paths`` or ``protected_links``) and ``a_pp_max``, and
      reserves nothing when the threshold is missed;
    - ``release(g, wp_id, result)`` frees what ``protect`` reserved for a
      departing working path;
    - ``options(g, result)`` says what protects the working path of
      ``result``: (covers, needs, pack) triples, in the order a restoration
      tries them.  ``covers`` is the mask of the working links, by
      ``LinkIndex.position``, that the option stands in for, ``needs`` the
      mask of the links that must be up for it to work, and ``pack`` its
      slots in the ``slot_count``-bit field of each of those links (the
      layout of ``dsbpss.BackupPath.packed``).  It is built only when asked
      for (fault injection, tests), never on the arrival path;
    - ``reserved`` counts the slots the mode holds over all links.
    """

    reserved = 0

    def protect(self, g, lr, result, wp_id, a_th) -> None:
        pass

    def release(self, g, wp_id, result) -> None:
        pass

    def options(self, g, result) -> list[tuple[int, int, int]]:
        return []


def rsacs_with_protection(
    g: NetworkGraph,
    lr: LightpathRequest,
    a_th: float,
    protection,
    wp_id: str,
) -> ProvisionResult:
    """Provision a working path, then protect it if its availability is low.

    ``protection`` is the mode's state (see ``NoProtection``).  The working
    path is kept even when protection cannot reach the threshold; the
    result records whether the threshold was met.
    """
    if not 0.0 < a_th <= 1.0:
        raise ValueError("a_th must lie in (0, 1]")

    paths = candidate_paths(g, lr.s, lr.d, lr.slots_needed, lr.k)
    if not paths:
        return ProvisionResult(blocked=True)
    best = select_best(paths)
    # The search read the live bits, so its first fit is free on every link.
    block = best.first_block
    allocate([link.bitmap for link in best.links], block)

    result = ProvisionResult(
        blocked=False, path=best, block=block,
        a_p_max=best.availability, a_pp_max=best.availability,
    )
    if best.availability >= a_th:
        return result

    result.needs_protection = True
    protection.protect(g, lr, result, wp_id, a_th)
    result.protected = result.a_pp_max >= a_th
    return result
