"""Optical network graph: links with spectrum bitmaps and availabilities.

Vertices are plain strings without "-".  A link is identified by the sorted
pair of its endpoint names joined with "-", so the graph is simple by
construction and a link id names one pair of vertices only.
Link lengths are carried for reporting only; routing and availability never
consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources

import numpy as np

from .availability import link_availability
from .spectrum import SpectrumBitmap

DEFAULT_SLOT_COUNT = 320
# Every link's MTTF (one year); its MTTR is set to give the link availability.
MTTF_H = 8760.0
# Graph structures whose path tables are kept, least recently used dropped
# first.
PATH_TABLES_KEPT = 8


class TopologyError(Exception):
    pass


class TopologyParseError(TopologyError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateLinkError(TopologyError):
    pass


class DisconnectedGraphError(TopologyError):
    pass


class UnknownLinkError(TopologyError):
    pass


def link_id(u: str, v: str) -> str:
    a, b = sorted((u, v))
    return f"{a}-{b}"


def _mttr_for(availability: float) -> float:
    if not 0.0 < availability <= 1.0:
        raise TopologyError(f"availability {availability!r} must lie in (0, 1]")
    return MTTF_H * (1.0 - availability) / availability


def _check_vertex_name(name: str) -> None:
    if "-" in name:
        raise TopologyError(f"vertex name {name!r} contains '-'")


@dataclass
class Link:
    """One bidirectional fiber link with its spectrum state."""

    id: str
    u: str
    v: str
    length_km: float
    mttf_h: float
    mttr_h: float
    bitmap: SpectrumBitmap
    availability: float = field(init=False)

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise TopologyError(f"self-loop on vertex {self.u}")
        if not 0 < self.length_km < math.inf:
            raise TopologyError(f"bad length {self.length_km!r} on link {self.id}")
        if self.mttf_h <= 0 or self.mttr_h < 0:
            raise TopologyError(f"bad mttf/mttr on link {self.id}")
        self.availability = link_availability(self.mttf_h, self.mttr_h)

    def other(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u

    def copy(self) -> "Link":
        return Link(
            self.id, self.u, self.v, self.length_km,
            self.mttf_h, self.mttr_h, self.bitmap.copy(),
        )


class AvailabilityPolicy:
    """Assigns per-link availabilities; subclasses define the draw."""

    def availabilities(self, n: int) -> list[float]:
        raise NotImplementedError


@dataclass
class UniformAvailability(AvailabilityPolicy):
    """Every link gets the same availability."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value <= 1.0:
            raise ValueError("availability must lie in (0, 1]")

    def availabilities(self, n: int) -> list[float]:
        return [self.value] * n


@dataclass
class JitteredAvailability(AvailabilityPolicy):
    """Per-link availabilities drawn uniformly around a target average.

    The jitter half-width is half the gap between the target and the next
    "nine" level (1 - (1-a)/10), clipped so no link exceeds 1.  The band is
    ``target ± 0.45·(1 - target)``, so a target at or below 0.45/1.45
    (about 0.3103) would draw non-positive availabilities and is refused.
    The draw is seeded for reproducibility.
    """

    target: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.target <= 1.0:
            raise ValueError("availability must lie in (0, 1]")
        if not self.target - self.half_width > 0.0:
            raise ValueError(
                f"jittered availability {self.target!r} draws from a band reaching "
                f"{self.target - self.half_width:.4g}; it must exceed 0.45/1.45 (about 0.3103)"
            )

    @property
    def half_width(self) -> float:
        next_nine = 1.0 - (1.0 - self.target) / 10.0
        return (next_nine - self.target) / 2.0

    def availabilities(self, n: int) -> list[float]:
        rng = np.random.default_rng(self.seed)
        lo = self.target - self.half_width
        hi = min(self.target + self.half_width, 1.0)
        return [float(a) for a in rng.uniform(lo, hi, size=n)]


@dataclass(frozen=True)
class LinkIndex:
    """Int view of a graph's structure for path search, with per-hop bounds
    on path availability.

    Link ``i`` (in ``links`` order) is entry ``i`` of a per-link list and
    each vertex owns one bit of a vertex mask.  No spectrum state is cached:
    the current free bits are read from the links themselves.

    ``paths`` is the path search's table (see ``rsa``), which holds link
    indices only, so every index of one structure shares it (see
    ``NetworkGraph.link_index``): graphs that differ in availabilities,
    slot count or spectrum alone build each of its entries once between
    them.

    ``stop_above[s][d][h]``, for h = 0..n with n vertices, is the highest
    availability of any s-d walk of h to n hops, with the link
    availabilities read when the index is built, times ``1 + 1e-12``.
    Every simple path is a walk of at most n - 1 hops, so no s-d path of h
    hops or more has a computed availability above it; the slack covers the
    rounding of a product of up to one factor per vertex taken in another
    order.  A hop level that no s-d walk reaches gets 0, so a search that
    has found a path stops there.
    """

    links: tuple[Link, ...]
    position: dict[str, int]
    vertex_bit: dict[str, int]
    # vertex -> (neighbour, neighbour's vertex bit, link index), by neighbour name
    neighbors: dict[str, tuple[tuple[str, int, int], ...]]
    # u -> v -> index of the link joining them, both ways round; no entry
    # for a pair that no link joins
    between: dict[str, dict[str, int]] = field(repr=False, compare=False)
    # s -> d -> bound by hop count 0..len(vertex_bit)
    stop_above: dict[str, dict[str, tuple[float, ...]]] = field(repr=False, compare=False)
    # (s, d, k, mask of the left-out link positions) -> tuple of link-index
    # tuples, filled by ``rsa`` on first use (a build may stop short of k,
    # see ``rsa.TABLE_FRONTIER``); shared by every index of the same
    # structure
    paths: dict = field(repr=False, compare=False)

    def free_bits(self) -> list[int]:
        """Current free bits of every link, by link index."""
        return [link.bitmap.bits for link in self.links]


@dataclass
class NetworkGraph:
    """Undirected simple graph of optical links."""

    slot_count: int = DEFAULT_SLOT_COUNT
    vertices: list[str] = field(default_factory=list)
    links: dict[str, Link] = field(default_factory=dict)
    _index: LinkIndex | None = field(default=None, init=False, repr=False, compare=False)

    def add_vertex(self, name: str) -> None:
        _check_vertex_name(name)
        if name not in self.vertices:
            self.vertices.append(name)
            self._index = None

    def add_link(
        self,
        u: str,
        v: str,
        length_km: float,
        availability: float = 1.0,
    ) -> Link:
        """Add a link and any new endpoint; a rejected call changes nothing."""
        _check_vertex_name(u)
        _check_vertex_name(v)
        lid = link_id(u, v)
        if lid in self.links:
            raise DuplicateLinkError(f"link {lid} already present")
        # Link checks the self-loop and the length before any vertex is added.
        link = Link(
            lid, *sorted((u, v)), length_km,
            MTTF_H, _mttr_for(availability),
            SpectrumBitmap(self.slot_count),
        )
        self.add_vertex(u)
        self.add_vertex(v)
        self.links[lid] = link
        self._index = None
        return link

    def link_index(self) -> LinkIndex:
        """The cached int index, built on first use after a structural change.

        ``add_vertex`` and ``add_link`` reset it, so change the structure only
        through them.  A new index takes the path table (``paths``) of its
        structure from a process-wide cache of the ``PATH_TABLES_KEPT`` most
        recently used ones.  The key is ``tuple(neighbors.items())``: the
        vertex order, each vertex's bit, its name-sorted neighbours and the
        index of each link, which is all that ``rsa`` reads to build a table.
        ``neighbors`` is built from ``links``, so a vertex with no link gets
        an empty entry.  The index reads link availabilities once, for
        ``stop_above``, so set them before the first search.
        """
        if self._index is None:
            position = {lid: i for i, lid in enumerate(self.links)}
            vertex_bit = {vx: 1 << i for i, vx in enumerate(self.vertices)}
            adjacent = {vx: [] for vx in self.vertices}
            for i, link in enumerate(self.links.values()):
                adjacent[link.u].append((link.v, vertex_bit[link.v], i))
                adjacent[link.v].append((link.u, vertex_bit[link.u], i))
            # Neighbour names are distinct, so a tuple sort is a name sort.
            neighbors = {vx: tuple(sorted(out)) for vx, out in adjacent.items()}
            between = {vx: {w: li for w, _, li in out} for vx, out in neighbors.items()}
            self._index = LinkIndex(
                tuple(self.links.values()), position, vertex_bit, neighbors, between,
                _walk_bounds(self.vertices, self.links.values()),
                _path_table(tuple(neighbors.items())),
            )
        return self._index

    def is_connected(self) -> bool:
        """Whether every vertex reaches every other; true with no vertex.

        Grows the set reached from the first vertex one pass over the links
        at a time, and builds no index.
        """
        reached = set(self.vertices[:1])
        size = -1
        while size != len(reached):
            size = len(reached)
            for link in self.links.values():
                if link.u in reached or link.v in reached:
                    reached |= {link.u, link.v}
        return len(reached) == len(self.vertices)

    def busy_slot_count(self) -> int:
        return sum(link.bitmap.busy_count() for link in self.links.values())

    def copy(self) -> "NetworkGraph":
        g = NetworkGraph(self.slot_count)
        g.vertices = list(self.vertices)
        g.links = {lid: link.copy() for lid, link in self.links.items()}
        return g


def _walk_bounds(vertices: list[str], links) -> dict[str, dict[str, tuple[float, ...]]]:
    """``LinkIndex.stop_above`` of a graph with these vertices and links.

    One max-product recurrence over every destination at once: ``best[j]``
    holds, for each (v, d), the highest availability of a v-d walk of
    exactly j hops, ``best[j][v, d] = max_u a[v, u] * best[j - 1][u, d]``
    from the identity; a reversed running max over j then gives h to n hops.
    """
    n = len(vertices)
    at = {vx: i for i, vx in enumerate(vertices)}
    a = np.zeros((n, n))
    for link in links:
        a[at[link.u], at[link.v]] = a[at[link.v], at[link.u]] = link.availability
    best = np.empty((n + 1, n, n))
    best[0] = np.eye(n)
    for j in range(1, n + 1):
        best[j] = (a[:, :, None] * best[j - 1]).max(axis=1)
    bound = np.maximum.accumulate(best[::-1], axis=0)[::-1] * (1 + 1e-12)
    return {
        s: dict(zip(vertices, map(tuple, row)))
        for s, row in zip(vertices, bound.transpose(1, 2, 0).tolist())
    }


@lru_cache(maxsize=PATH_TABLES_KEPT)
def _path_table(key: tuple) -> dict:
    """The path table (``LinkIndex.paths``) of the structure ``key``
    (``LinkIndex.neighbors`` items)."""
    return {}


def build_nsfnet(
    slot_count: int = DEFAULT_SLOT_COUNT,
    policy: AvailabilityPolicy | None = None,
) -> NetworkGraph:
    """The bundled 14-node/22-link NSFNET (``data/nsfnet.topo``), all slots free."""
    return load_topology(_nsfnet_text(), slot_count, policy or UniformAvailability(1.0))


@cache
def _nsfnet_text() -> str:
    return resources.files("eonprotect.data").joinpath("nsfnet.topo").read_text()


def load_topology(
    text: str,
    slot_count: int = DEFAULT_SLOT_COUNT,
    policy: AvailabilityPolicy | None = None,
) -> NetworkGraph:
    """Parse the line-based topology format.

    Lines: ``node <name>``, ``link <u> <v> <length_km> [availability]``,
    ``#`` starts a comment.  Links without an explicit availability get one
    from ``policy``.  The graph must be connected, with two nodes or more.
    """
    g = NetworkGraph(slot_count)
    pending: list[tuple[int, str, str, float, float | None]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise TopologyParseError(line_no, "node takes exactly one name")
            try:
                g.add_vertex(parts[1])
            except TopologyError as exc:
                raise TopologyParseError(line_no, str(exc)) from exc
        elif parts[0] == "link":
            if len(parts) not in (4, 5):
                raise TopologyParseError(line_no, "link takes: u v length_km [availability]")
            u, v = parts[1], parts[2]
            try:
                km = float(parts[3])
                a = float(parts[4]) if len(parts) == 5 else None
            except ValueError as exc:
                raise TopologyParseError(line_no, str(exc)) from exc
            pending.append((line_no, u, v, km, a))
        else:
            raise TopologyParseError(line_no, f"unknown directive {parts[0]!r}")

    n_missing = sum(1 for item in pending if item[4] is None)
    drawn = iter(policy.availabilities(n_missing) if policy and n_missing else [])
    for line_no, u, v, km, a in pending:
        if a is None:
            if policy is None:
                raise TopologyParseError(
                    line_no, f"link {u} {v} has no availability and no policy was given"
                )
            a = next(drawn)
        try:
            g.add_link(u, v, km, availability=a)
        except TopologyError as exc:
            raise TopologyParseError(line_no, str(exc)) from exc
    if len(g.vertices) < 2:
        # No request has two distinct endpoints on such a graph.
        raise TopologyError(f"topology needs at least 2 nodes, not {len(g.vertices)}")
    if not g.is_connected():
        raise DisconnectedGraphError("topology is not connected")
    return g


def remove_links(g: NetworkGraph, links: list[Link]) -> NetworkGraph:
    """Working copy of ``g`` with the given links absent; ``g`` is unchanged."""
    ids = []
    for link in links:
        if link.id not in g.links:
            raise UnknownLinkError(f"link {link.id} not in graph")
        ids.append(link.id)
    gone = set(ids)
    out = NetworkGraph(g.slot_count)
    out.vertices = list(g.vertices)
    out.links = {lid: link.copy() for lid, link in g.links.items() if lid not in gone}
    return out
