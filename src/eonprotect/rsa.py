"""Routing and spectrum assignment over consecutive slots.

Candidate paths are found in breadth-first (hop count) order over the
graph's int index (``NetworkGraph.link_index``) and returned ranked, best
first (below).  A link's run mask has bit i set iff slots i..i+n-1 are
free on it, for a demand of n slots, and the run mask of an AND is the AND
of the run masks (see ``spectrum``).  A caller may pass per-link free bits
in place of the live ones, and leaves links out by ``without``, the mask
of their ``LinkIndex`` positions, so backup and cycle searches need no
pruned graph copy.

Most searches need no BFS.  The first search for (s, d, k, without)
stores in the graph's index (``LinkIndex.paths``) the s-d simple paths
that avoid the left-out links, in the order the same BFS finds them when
no branch is pruned, through the whole hop level of the k-th path
(``_unpruned_bfs``); every graph of one structure shares that table, and
``without`` 0 gives the table of the whole graph.  Leaving a link out
drops the paths over it and reorders none, so the table of a search that
leaves links out holds its feasible paths in the order of the
whole-graph table, and more of them before its end.  A search scans it
first: a path there is feasible iff the run mask of the AND of its links'
free bits, taken once, is non-zero.  A search of the live bits reads them
off the scanned paths' own links, so a search the table answers reads
only the links of the paths it scans.  Pruning drops a branch with all
its extensions and never reorders the survivors, so the pruned BFS
returns the first k feasible paths of the unpruned order; when the table
holds k feasible paths, they are those.  The scan stops at the k-th
feasible path, at a best-only stop (below) or at the table's end; only
at the end, short of k, does it fall back.  A table is only an
accelerator, so its build may stop short of k: at the first hop level
with more than ``TABLE_FRONTIER`` partial paths, as where leaving links
out strands s behind a bridge and the build, short of k, would walk
every simple path from s.  The table then holds every path through the
hop level the build reached, and a scan of it falls back as at the end
of any table short of k.

The fallback, the pruned BFS, takes every link's run mask once, 0 for a
left-out link, in a list of its own; a partial path is its end vertex, a
mask of the vertices it visited, the running AND of its links' run masks
and the tuple of its link indices, so extending a branch costs one
``&``.  A branch is pruned as soon as its links no longer share n
contiguous free slots, exactly as if contiguity were re-derived from the
AND of their free bits.

Every search extends a branch over its end vertex's neighbours in name
order, so paths of one hop count are found in the order of their vertex
walks, and the k cut keeps the first k feasible paths of that BFS order.
Only then are the kept paths ranked, by a stable sort on availability,
highest first: ties on availability go to fewer hops, then to the lower
vertex walk, and the first path returned is the best.

A caller that keeps only the best path passes ``best_only``, and the
search stops at the first hop level no unseen path can win from.  The
ranking puts availability first, and no s-d path of h hops or more has a
computed availability above ``LinkIndex.stop_above[s][d][h]``: the highest
availability of any s-d walk of h to n hops on a graph of n vertices,
with a relative slack of 1e-12 that covers the rounding of the product.
Every simple path is such a walk, so the bound holds for every path not
searched yet, and it counts only links that lead from s to d.  Once the
best path found is above that bound before the first path of h hops,
every later path is strictly worse, so the search stops with the paths
found so far: a prefix, in BFS order, of the paths a full search keeps,
empty only if those are, whose first-ranked path is the full search's.  A
hop level that no s-d walk reaches has the bound 0, so a search that has
found a path stops there; it could find none at that level.  The bound is
checked at each hop level of the table scan, at the first hop level off
the table, which decides whether the BFS runs, and at each BFS level.
With every link availability 1.0 the bound holds only at such a level.  A
best-only search returns that first-ranked path alone, so it builds one
``CandidatePath`` and no vertex walk.

Either way the search ends with each feasible path's run mask, the AND of
its links' run masks, and its availability, the product of its link
availabilities in path order from 1.0.  A returned ``CandidatePath`` is a
slotted record of those, its link indices and its hop count.  Its
first-fit block (the lowest set bit of the run mask), vertex walk and link
tuple are worked out on each read, so a caller that reads one twice keeps
it in a local.  Provisioning allocates ``first_block`` on the links by
position, with no bitmap built and no second pass over the slots.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .spectrum import SlotBlock, allocate, run_steps
from .topology import Link, LinkIndex, NetworkGraph

# Protection modes, in the order the CLI and the results schema list them.
MODES = ("none", "dsbpss", "dcycles")

# A path table's build stops, short of k, at the first hop level with more
# partial paths than this (see ``_unpruned_bfs``).  No build of a NSFNET
# or ``tests/data/mesh24.topo`` run comes near: their widest levels hold
# about 30 and 4 600.
TABLE_FRONTIER = 1 << 14


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


class CandidatePath:
    """A feasible path found by ``candidate_paths`` for a demand of ``need``
    slots.

    A slotted record the search fills once: the path's links by
    ``LinkIndex`` position in path order, its run mask (bit i is set iff
    slots i..i+need-1 are free on every link in the bits it was found in),
    the demand, the availability the search computed and the hop count,
    plus the graph's links table and the source vertex.  It holds no
    per-call list, so a live connection keeps no search state alive.  Its
    first-fit block, links and vertex walk are worked out on each read.
    """

    __slots__ = (
        "_table", "_source", "link_indices", "run", "need", "availability", "hops",
    )

    def __init__(
        self, table: tuple[Link, ...], s: str,
        path: tuple[int, ...], run: int, need: int, availability: float,
    ) -> None:
        self._table = table
        self._source = s
        self.link_indices = path
        self.run = run
        self.need = need
        self.availability = availability
        self.hops = len(path)

    @property
    def first_block(self) -> SlotBlock:
        """Lowest-start block of ``need`` slots free on every link."""
        run = self.run
        return SlotBlock((run & -run).bit_length() - 1, self.need)

    @property
    def links(self) -> tuple[Link, ...]:
        table = self._table
        return tuple([table[li] for li in self.link_indices])

    @property
    def vertices(self) -> tuple[str, ...]:
        table = self._table
        walk = [self._source]
        for li in self.link_indices:
            walk.append(table[li].other(walk[-1]))
        return tuple(walk)


def _availability(table: tuple[Link, ...], path: tuple[int, ...]) -> float:
    """Product of the path's link availabilities in path order, from 1.0."""
    avail = 1.0
    for li in path:
        avail *= table[li].availability
    return avail


def candidate_paths(
    g: NetworkGraph,
    s: str,
    d: str,
    slots_needed: int,
    k: int,
    bits: list[int] | None = None,
    *,
    without: int = 0,
    best_only: bool = False,
) -> list[CandidatePath]:
    """Up to k loop-free paths s->d with >= slots_needed contiguous common
    slots, ranked best first.

    The k cut is in breadth-first order: the paths kept are the first k
    feasible ones by hop count, then vertex walk.  Only then are they
    ranked by availability, highest first; the sort is stable, so ties go
    to fewer hops, then to the lower vertex walk.  Empty list when nothing
    fits.  The table of s-d paths in the graph's index is scanned first;
    only when the scan ends at the table's end with fewer than k feasible
    paths does the pruned BFS run, over every link's run mask.  Each path
    keeps the run mask the search tested it by, from which ``first_block``
    is read.  ``bits`` replaces the links' live free bits, in
    ``g.link_index()`` order.  Without ``bits``, the table scan reads the
    scanned paths' links only.  ``without`` is the mask of the
    ``LinkIndex`` positions of the links the search leaves out: it scans
    the table of the graph without them, and its fallback gives them a run
    mask of 0.  Neither the graph nor ``bits`` is written to.  Raises
    ``ValueError`` if ``slots_needed`` or ``k`` is below 1, or, when the
    search builds the table for ``without``, if ``without`` is not an int
    (a bool included), is negative or names a position past the last link.
    A search that returns before its scan, or finds its table built,
    does not check it.

    ``best_only`` is for a caller that keeps only the best path: the search
    stops at a hop level no unseen path can win from, the first level off
    the table included, so the BFS runs only if a path off the table may
    win (see the module docstring).  It returns the full list's first path
    alone, or ``[]`` when the full list is empty.
    """
    if slots_needed < 1 or k < 1:
        raise ValueError("slots_needed and k must be >= 1")
    index = g.link_index()
    if s not in index.vertex_bit or d not in index.vertex_bit:
        raise KeyError(f"unknown vertex in request {s}->{d}")
    size = g.slot_count
    if slots_needed > size or s == d:
        return []
    table = index.links
    stop_above = index.stop_above[s][d]
    steps = run_steps(slots_needed)
    full = (1 << size) - 1
    # (link indices, run mask, availability) of each feasible path found,
    # and the highest of those availabilities.
    found = []
    top = 0.0
    paths = index.paths.get((s, d, k, without))
    if paths is None:
        # A negative mask shifts to -1, never to 0.
        if type(without) is not int or without >> len(table):
            raise ValueError(f"without must be a mask of link positions, not {without!r}")
        paths = index.paths[s, d, k, without] = _unpruned_bfs(index, s, d, k, without)
    level = 0
    for path in paths:
        if len(path) != level:
            level = len(path)
            if best_only and top > stop_above[level]:
                break
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
            avail = _availability(table, path)
            if avail > top:
                top = avail
            found.append((path, run, avail))
            if len(found) == k:
                break
    else:
        # Short of k at the table's end: fall back unless, best-only, no
        # path of the next hop level can win.
        if not (best_only and top > stop_above[level + 1]):
            runs = index.free_bits() if bits is None else list(bits)
            while without:
                low = without & -without
                runs[low.bit_length() - 1] = 0
                without ^= low
            for step in steps:
                runs = [r & r >> step for r in runs]
            found = _pruned_bfs(index, runs, s, d, k, best_only)
    # Found in hop order, then vertex-walk order, so a stable sort on
    # availability ranks ties as that order does.
    found.sort(key=itemgetter(2), reverse=True)
    if best_only:
        found = found[:1]
    return [
        CandidatePath(table, s, path, run, slots_needed, avail)
        for path, run, avail in found
    ]


def _unpruned_bfs(
    index: LinkIndex, s: str, d: str, k: int, without: int,
) -> tuple[tuple[int, ...], ...]:
    """Link indices of the s-d simple paths that avoid the link positions in
    ``without``, through the hop level of the k-th, in ``_pruned_bfs``'s
    order with spectrum ignored: the table that ``candidate_paths`` scans.
    Short of k, it stops after the hop level whose partial paths number
    more than ``TABLE_FRONTIER``, which it does not extend."""
    neighbors = index.neighbors
    to_d = {u: li for u, li in index.between[d].items() if not without >> li & 1}
    found = []
    frontier = [(s, index.vertex_bit[s], ())]
    while frontier:
        # A branch reaches d over one link at most, so the paths of a hop
        # level come in frontier order; the level that completes k builds
        # no next frontier.
        for u, _, path in frontier:
            if u in to_d:
                found.append(path + (to_d[u],))
        if len(found) >= k or len(frontier) > TABLE_FRONTIER:
            break
        nxt = []
        for u, seen, path in frontier:
            for v, vbit, li in neighbors[u]:
                if seen & vbit or v == d or without >> li & 1:
                    continue
                nxt.append((v, seen | vbit, path + (li,)))
        frontier = nxt
    return tuple(found)


def _pruned_bfs(
    index: LinkIndex, runs: list[int], s: str, d: str, k: int, best_only: bool,
) -> list[tuple[tuple[int, ...], int, float]]:
    """(link indices, AND of their run masks, availability) of up to k paths
    whose run masks meet, in BFS order; with ``best_only``, cut at the first
    hop level that no unseen path can win from."""
    neighbors = index.neighbors
    table = index.links
    stop_above = index.stop_above[s][d]
    found = []
    top = 0.0
    hops = 1
    # frontier entries: (vertex, visited-vertex mask, AND of the path's run
    # masks, link indices); -1 has every bit set, so no window is ruled out.
    frontier = [(s, index.vertex_bit[s], -1, ())]
    while frontier and not (best_only and top > stop_above[hops]):
        nxt = []
        for u, seen, run, path in frontier:
            for v, vbit, li in neighbors[u]:
                if seen & vbit:
                    continue
                new = run & runs[li]
                if not new:
                    continue
                if v == d:
                    path_found = path + (li,)
                    avail = _availability(table, path_found)
                    if avail > top:
                        top = avail
                    found.append((path_found, new, avail))
                    if len(found) == k:
                        return found
                else:
                    nxt.append((v, seen | vbit, new, path + (li,)))
        frontier = nxt
        hops += 1
    return found


class ProvisionResult:
    """Outcome of one provisioning attempt.

    A slotted record with a plain ``__init__``, built once per arrival: the
    working path and its first-fit block (``None`` when blocked), the
    path's availability ``a_p_max``, the availability ``a_pp_max`` with its
    protection, whether it needed protection and got it to the threshold,
    and the mode's own lists of what protects it.  Each result gets its own
    ``backup_paths`` and ``protected_links`` lists unless given them.
    """

    __slots__ = (
        "blocked", "path", "block", "a_p_max", "a_pp_max",
        "needs_protection", "protected", "backup_paths", "protected_links",
    )

    def __init__(
        self, blocked: bool, path: CandidatePath | None = None,
        block: SlotBlock | None = None, a_p_max: float = 0.0,
        a_pp_max: float = 0.0, needs_protection: bool = False,
        protected: bool = False, backup_paths: list | None = None,
        protected_links: list | None = None,
    ) -> None:
        self.blocked = blocked
        self.path = path
        self.block = block
        self.a_p_max = a_p_max
        self.a_pp_max = a_pp_max
        self.needs_protection = needs_protection
        self.protected = protected
        self.backup_paths = [] if backup_paths is None else backup_paths
        self.protected_links = [] if protected_links is None else protected_links


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
      layout of ``dsbpss.BackupPath.packed``, which ``provision_backups``
      packs while it picks the backup).  The options are built only when
      asked for (fault injection, tests), never on the arrival path;
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

    paths = candidate_paths(g, lr.s, lr.d, lr.slots_needed, lr.k, best_only=True)
    if not paths:
        return ProvisionResult(blocked=True)
    best = paths[0]
    # The search read the live bits, so its first fit is free on every link.
    block = best.first_block
    allocate(g.link_index().links, dict.fromkeys(best.link_indices, block.mask()))

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
