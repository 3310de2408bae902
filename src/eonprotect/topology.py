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
# Graph structures whose structural-path tables are kept, least recently
# used dropped first.
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
    """Structure-only int view of a graph for path search.

    Link ``i`` (in ``links`` order) is entry ``i`` of a per-link list and
    each vertex owns one bit of a vertex mask.  No spectrum state is cached:
    the current free bits are read from the links themselves.

    The table of structural paths holds link indices only, so every index
    of one structure shares one table (see ``NetworkGraph.link_index``):
    graphs that differ in availabilities, slot count or spectrum alone
    build each (s, d, k) entry once between them.
    """

    links: tuple[Link, ...]
    position: dict[str, int]
    vertex_bit: dict[str, int]
    # vertex -> (neighbour, neighbour's vertex bit, link index), by neighbour name
    neighbors: dict[str, tuple[tuple[str, int, int], ...]]
    # (s, d, k) -> structural_paths(s, d, k), filled on first use; shared
    # by every index of the same structure
    _paths: dict = field(repr=False, compare=False)

    def free_bits(self) -> list[int]:
        """Current free bits of every link, by link index."""
        return [link.bitmap.bits for link in self.links]

    def structural_paths(
        self, s: str, d: str, k: int,
    ) -> tuple[tuple[tuple[int, ...], ...], bool]:
        """The s-d simple paths through the hop level of the k-th, and whether
        they are all the s-d simple paths.

        Paths are link-index tuples in breadth-first order over ``neighbors``
        with spectrum ignored, the order in which the run-mask search finds
        the feasible ones.  Built on first use for each (s, d, k).
        """
        key = (s, d, k)
        entry = self._paths.get(key)
        if entry is None:
            neighbors = self.neighbors
            found = []
            frontier = [(s, self.vertex_bit[s], ())]
            while frontier and len(found) < k:
                nxt = []
                for u, seen, path in frontier:
                    for v, vbit, li in neighbors[u]:
                        if seen & vbit:
                            continue
                        if v == d:
                            found.append(path + (li,))
                        else:
                            nxt.append((v, seen | vbit, path + (li,)))
                frontier = nxt
            entry = self._paths[key] = (tuple(found), not frontier)
        return entry


@dataclass
class NetworkGraph:
    """Undirected simple graph of optical links."""

    slot_count: int = DEFAULT_SLOT_COUNT
    vertices: list[str] = field(default_factory=list)
    links: dict[str, Link] = field(default_factory=dict)
    adjacency: dict[str, list[str]] = field(default_factory=dict)
    _index: LinkIndex | None = field(default=None, init=False, repr=False, compare=False)

    def add_vertex(self, name: str) -> None:
        _check_vertex_name(name)
        if name not in self.adjacency:
            self.vertices.append(name)
            self.adjacency[name] = []
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
        self.adjacency[u].append(lid)
        self.adjacency[v].append(lid)
        self._index = None
        return link

    def link_index(self) -> LinkIndex:
        """The cached int index, built on first use after a structural change.

        ``add_vertex`` and ``add_link`` reset it, so change the structure only
        through them.  A new index takes the structural-path table of its
        structure from a process-wide cache of the ``PATH_TABLES_KEPT`` most
        recently used ones.  The key is ``tuple(neighbors.items())``: the
        vertex order, each vertex's bit, its name-sorted neighbours and the
        index of each link, which is all that ``structural_paths`` reads.
        """
        if self._index is None:
            position = {lid: i for i, lid in enumerate(self.links)}
            vertex_bit = {vx: 1 << i for i, vx in enumerate(self.vertices)}
            neighbors = {}
            for u, lids in self.adjacency.items():
                out = []
                for lid in lids:
                    v = self.links[lid].other(u)
                    out.append((v, vertex_bit[v], position[lid]))
                out.sort(key=lambda t: t[0])
                neighbors[u] = tuple(out)
            self._index = LinkIndex(
                tuple(self.links.values()), position, vertex_bit, neighbors,
                _path_table(tuple(neighbors.items())),
            )
        return self._index

    def link_between(self, u: str, v: str) -> Link | None:
        return self.links.get(link_id(u, v))

    def neighbors(self, u: str) -> list[tuple[str, Link]]:
        """Adjacent (vertex, link) pairs, sorted by vertex name."""
        out = [(self.links[lid].other(u), self.links[lid]) for lid in self.adjacency[u]]
        out.sort(key=lambda t: t[0])
        return out

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            u = stack.pop()
            for v, _ in self.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self.vertices)

    def busy_slot_count(self) -> int:
        return sum(link.bitmap.busy_count() for link in self.links.values())

    def copy(self) -> "NetworkGraph":
        g = NetworkGraph(self.slot_count)
        g.vertices = list(self.vertices)
        g.links = {lid: link.copy() for lid, link in self.links.items()}
        g.adjacency = {v: list(lids) for v, lids in self.adjacency.items()}
        return g


@lru_cache(maxsize=PATH_TABLES_KEPT)
def _path_table(key: tuple) -> dict:
    """The structural-path table of the structure ``key``
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
    out.adjacency = {
        v: [lid for lid in lids if lid not in gone] for v, lids in g.adjacency.items()
    }
    return out
