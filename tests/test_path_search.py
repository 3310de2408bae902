"""The int-mask path search and path selection against the code they replaced."""

import math
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from eonprotect import rsa, topology
from eonprotect.dsbpss import BackupRegistry, provision_backups
from eonprotect.rsa import LightpathRequest, candidate_paths
from eonprotect.sim import Scenario, Simulation
from eonprotect.spectrum import SpectrumBitmap, _run_mask, first_fit, is_feasible
from eonprotect.topology import (
    JitteredAvailability, Link, NetworkGraph, UniformAvailability, build_nsfnet,
    link_id, remove_links,
)


@dataclass(frozen=True)
class ReferencePath:
    """A path of the old search, every field computed as it was found."""

    vertices: tuple[str, ...]
    links: tuple[Link, ...]
    bitmap: SpectrumBitmap
    availability: float

    @property
    def hops(self) -> int:
        return len(self.links)


def reference_candidate_paths(
    g: NetworkGraph,
    s: str,
    d: str,
    slots_needed: int,
    k: int,
) -> list[ReferencePath]:
    """Breadth-first search over vertex tuples and live bitmaps (the old code)."""
    if s not in g.vertices or d not in g.vertices:
        raise KeyError(f"unknown vertex in request {s}->{d}")
    size = g.slot_count
    if slots_needed > size:
        return []
    all_free = (1 << size) - 1
    found: list[ReferencePath] = []
    # frontier entries: (vertices, links, intersected bits, availability)
    frontier: list[tuple[tuple[str, ...], tuple[Link, ...], int, float]] = [
        ((s,), (), all_free, 1.0)
    ]
    while frontier:
        nxt: list[tuple[tuple[str, ...], tuple[Link, ...], int, float]] = []
        for verts, links, bits, avail in frontier:
            u = verts[-1]
            for v, link in g.neighbors(u):
                if v in verts:
                    continue
                new_bits = bits & link.bitmap.bits
                if not is_feasible(SpectrumBitmap(size, new_bits), slots_needed):
                    continue
                new_avail = avail * link.availability
                if v == d:
                    found.append(
                        ReferencePath(
                            verts + (v,), links + (link,),
                            SpectrumBitmap(size, new_bits), new_avail,
                        )
                    )
                    if len(found) == k:
                        return found
                else:
                    nxt.append((verts + (v,), links + (link,), new_bits, new_avail))
        frontier = nxt
    return found


def reference_ranked(paths: list[ReferencePath]) -> list[ReferencePath]:
    """Ranked by one key over every path, vertex walks included (the old
    code's pick order)."""
    return sorted(paths, key=lambda p: (-p.availability, p.hops, p.vertices))


def summary(paths):
    return [
        (p.vertices, tuple(link.id for link in p.links), p.availability)
        for p in paths
    ]


def holds_a_list(value) -> bool:
    """True if ``value`` is a list or a tuple that holds one at any depth."""
    if isinstance(value, list):
        return True
    return isinstance(value, tuple) and any(holds_a_list(v) for v in value)


@st.composite
def search_cases(draw):
    # "uniform": equal availabilities on denser graphs make paths of equal
    # hop count tie on availability, so that the ranking compares vertex
    # walks.  "dense": 10-16 vertices with 2-4 extra edges each and up to
    # 64 slots, so that run masks of several shift steps over wide ints
    # meet many branches of every length.
    shape = draw(st.sampled_from(("sparse", "uniform", "dense")))
    uniform = shape == "uniform"
    n = draw(st.integers(10, 16) if shape == "dense" else st.integers(4, 9))
    # String names sort differently from their insertion order ("10" < "2").
    names = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    pairs = {tuple(sorted((i, draw(st.integers(0, i - 1))))) for i in range(1, n)}
    vertex = st.integers(0, n - 1)
    extra_edges = {"sparse": (0, 12), "uniform": (n, 3 * n), "dense": (2 * n, 4 * n)}
    lo, hi = extra_edges[shape]
    extra = draw(st.lists(st.tuples(vertex, vertex), min_size=lo, max_size=hi))
    pairs |= {tuple(sorted(p)) for p in extra if p[0] != p[1]}
    edges = draw(st.permutations(sorted(pairs)))
    slot_count = draw(st.integers(1, 64) if shape == "dense" else st.integers(1, 10))
    full = (1 << slot_count) - 1
    # Each slot busy with probability 1/4, so that most searches find paths.
    free = st.tuples(st.integers(0, full), st.integers(0, full)).map(
        lambda t: full & ~(t[0] & t[1])
    )
    availability = st.floats(0.5, 1.0, exclude_min=True)
    if uniform:
        avails = UniformAvailability(draw(availability)).availabilities(len(edges))
    elif draw(st.booleans()):
        # Jittered as the simulator's availabilities are, so that a path
        # may beat one of fewer hops, and the best-only stop fires as it
        # does in a run.
        target = draw(st.floats(0.9, 0.999))
        avails = JitteredAvailability(target, draw(st.integers(0, 99))).availabilities(len(edges))
    else:
        avails = [draw(availability) for _ in edges]
    g = NetworkGraph(slot_count=slot_count)
    for (i, j), a in zip(edges, avails):
        link = g.add_link(names[i], names[j], 100, availability=a)
        link.bitmap.bits = draw(free)
    # Ties need two shortest paths, so uniform graphs take unlinked endpoints.
    between = g.link_index().between
    apart = [(u, v) for u in names for v in names if u != v and v not in between[u]]
    if uniform and apart:
        s, d = draw(st.sampled_from(apart))
    else:
        s, d = draw(st.permutations(names))[:2]
    # Three searches on one graph, the third with the first's k, so the
    # table of structural paths built by one search answers a later one with
    # other free bits, left-out links and demand.
    ks = st.integers(2 if uniform else 1, 8)
    first_k = draw(ks)
    per_link = st.lists(free, min_size=len(g.links), max_size=len(g.links))
    searches = [
        (
            draw(st.integers(1, 3) | st.integers(1, slot_count + 1)),
            k,
            draw(st.sets(st.sampled_from(sorted(g.links)))),
            draw(st.none() | per_link),
        )
        for k in (first_k, draw(ks), first_k)
    ]
    return g, s, d, searches


def all_free_copy(g: NetworkGraph) -> NetworkGraph:
    free = g.copy()
    for link in free.links.values():
        link.bitmap.bits = (1 << g.slot_count) - 1
    return free


def leave_out(index, excluded) -> int:
    """The ``without`` mask of the links named in ``excluded``."""
    without = 0
    for lid in excluded:
        without |= 1 << index.position[lid]
    return without


@settings(deadline=None, derandomize=True, max_examples=400)
@given(search_cases())
def test_matches_reference_on_pruned_copy(case):
    g, s, d, searches = case
    index = g.link_index()
    live = index.free_bits()
    tables = []
    for slots_needed, k, excluded, bits in searches:
        without = leave_out(index, excluded)
        # Excluded links are left out by ``without`` and, in a second pair
        # of calls, by zeroing their entries of the bits passed in; with
        # nothing to leave out, None searches the live bits.
        given_bits = None
        if bits is not None or excluded:
            given_bits = list(live if bits is None else bits)
            for lid in excluded:
                given_bits[index.position[lid]] = 0
        passed = None if given_bits is None else list(given_bits)
        own_bits = None if bits is None else list(bits)

        pruned = remove_links(g, [g.links[lid] for lid in sorted(excluded)])
        if bits is not None:
            for lid, link in pruned.links.items():
                link.bitmap.bits = bits[index.position[lid]]
        # The first k feasible paths in BFS order, then ranked, ties on
        # (availability, hops) included.
        want = reference_ranked(reference_candidate_paths(pruned, s, d, slots_needed, k))
        for search_bits, mask in ((given_bits, 0), (own_bits, without)):
            got = candidate_paths(g, s, d, slots_needed, k, search_bits, without=mask)
            best_only = candidate_paths(
                g, s, d, slots_needed, k, search_bits, without=mask, best_only=True,
            )
            assert summary(got) == summary(want)
            # A best-only search returns the full list's first path and
            # nothing else, and is empty only when the full list is.
            assert summary(best_only) == summary(got[:1])
            if got:
                assert (best_only[0].run, best_only[0].first_block) == (got[0].run, got[0].first_block)
            # The run mask the search keeps, from the table or the pruned
            # search, is the run mask of the path's common free bits, and
            # the first fit read off it is the first fit of those bits.
            for p, ref in zip(got, want):
                assert p.run == _run_mask(ref.bitmap.bits, slots_needed)
                assert p.first_block == first_fit(ref.bitmap, slots_needed)
            # Returned paths hold the graph's own links.
            assert all(link is g.links[link.id] for p in got for link in p.links)
            # ... and no per-call list (free bits, run masks), which a live
            # connection would otherwise keep alive.
            assert not any(
                holds_a_list(tuple(getattr(p, name) for name in rsa.CandidatePath.__slots__))
                for p in got
            )
        # The searches write neither to the graph nor to the caller's bits.
        assert index.free_bits() == live
        assert given_bits == passed
        assert own_bits == (None if bits is None else list(bits))
        tables += [(slots_needed, k, 0, g), (slots_needed, k, without, pruned)]
    assert g.link_index() is index

    # Each table holds tuples of ints only, and is the unpruned breadth-first
    # order, on the graph without the links it leaves out, through the hop
    # level of the k-th path: the next path, if any, has more hops.  A table
    # short of k holds every s-d path, unless its build stopped at a hop
    # level of more than ``rsa.TABLE_FRONTIER`` partial paths, which no
    # graph drawn here holds.  A search stores the table it builds, unless
    # it returned before the scan.
    for slots_needed, k, without, graph in tables:
        paths = rsa._unpruned_bfs(index, s, d, k, without)
        assert index.paths.get((s, d, k, without), paths) == paths
        if slots_needed <= g.slot_count:
            assert (s, d, k, without) in index.paths
        assert type(paths) is tuple
        assert all(
            type(path) is tuple and all(type(li) is int for li in path)
            for path in paths
        )
        # By link id, as the pruned copy numbers its links apart.
        by_id = [tuple(index.links[li].id for li in path) for path in paths]
        unpruned = [
            tuple(link.id for link in p.links)
            for p in reference_candidate_paths(all_free_copy(graph), s, d, 1, len(paths) + 1)
        ]
        assert unpruned[:len(paths)] == by_id
        if len(paths) >= k:
            assert len(paths[-1]) == len(paths[k - 1])
        else:
            assert len(unpruned) == len(paths)
        if len(unpruned) > len(paths):
            assert len(unpruned[-1]) > len(paths[-1])


@pytest.fixture
def fresh_path_tables():
    """An empty cache of structural-path tables, so a test builds its own.

    The value is the cached function; ``cache_info().currsize`` counts the
    tables it keeps.
    """
    topology._path_table.cache_clear()
    return topology._path_table


LADDER = (("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "e"), ("e", "b"))


def ladder() -> NetworkGraph:
    """a-b direct, a-c-b and a-d-e-b: three a-b paths of 1, 2 and 3 hops."""
    g = NetworkGraph(slot_count=4)
    for u, v in LADDER:
        g.add_link(u, v, 100)
    return g


def walks(paths):
    return [p.vertices for p in paths]


def test_same_endpoints_find_nothing(fallbacks):
    g = ladder()
    assert candidate_paths(g, "a", "a", 1, 5) == []
    assert not [(s, d) for s, d, _, _ in g.link_index().paths if s == d]
    assert fallbacks == []


# Not an int (a bool included), negative, or naming a position at or past
# the ladder's six links.  The mask is checked where its table is built, so
# each case starts from empty tables.
@pytest.mark.parametrize("without", [1.0, "1", None, True, False, -1, 1 << 6, 1 << 6 | 1, 1 << 70])
def test_without_must_be_a_mask_of_link_positions(without, fresh_path_tables):
    g = ladder()
    with pytest.raises(ValueError, match="without"):
        candidate_paths(g, "a", "b", 1, 2, without=without)
    # Every link of the graph may be left out.
    assert candidate_paths(g, "a", "b", 1, 2, without=(1 << 6) - 1) == []


def test_table_of_every_path_still_falls_back(fallbacks, fresh_path_tables):
    g = ladder()
    # k = 5 exceeds the three simple paths: the table holds them all, and
    # a search short of k falls back all the same, to the same paths.
    assert walks(candidate_paths(g, "a", "b", 1, 5)) == [
        ("a", "b"), ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    assert g.link_index().paths["a", "b", 5, 0] == ((0,), (1, 2), (3, 4, 5))
    g.links["a-b"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 5)) == [
        ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    assert fallbacks == [("a", "b", 5), ("a", "b", 5)]


def test_table_hit_answers_search(fallbacks, fresh_path_tables):
    g = ladder()
    # k = 1 stops the table at the one-hop level: a-b alone.
    assert walks(candidate_paths(g, "a", "b", 1, 1)) == [("a", "b")]
    assert g.link_index().paths["a", "b", 1, 0] == ((0,),)
    # Other free bits and demands reuse the table.
    g.links["b-c"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 4, 1)) == [("a", "b")]
    assert fallbacks == []


def test_short_table_falls_back_to_pruned_search(fallbacks):
    g = ladder()
    assert walks(candidate_paths(g, "a", "b", 1, 1)) == [("a", "b")]
    # With a-b busy the one-hop table holds no feasible path.
    g.links["a-b"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 1)) == [("a", "c", "b")]
    index = g.link_index()
    bits = index.free_bits()
    bits[index.position["b-c"]] = 0
    assert walks(candidate_paths(g, "a", "b", 1, 1, bits)) == [("a", "d", "e", "b")]
    # With k = 2 and b-c busy the table (a-b, a-c-b) holds one feasible path,
    # so the search falls back.
    g.links["a-b"].bitmap.bits = 0b1111
    g.links["b-c"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 2)) == [
        ("a", "b"), ("a", "d", "e", "b"),
    ]
    assert fallbacks == [("a", "b", 1), ("a", "b", 1), ("a", "b", 2)]


class Untouchable(int):
    """Free bits that raise on any bitwise use."""

    def _touched(self, *_):
        raise AssertionError("read the bits of a link off the scanned paths")

    __and__ = __rand__ = __or__ = __ror__ = _touched
    __rshift__ = __rrshift__ = _touched


def test_table_hit_reads_only_scanned_links(fallbacks):
    g = ladder()
    index = g.link_index()
    bits = index.free_bits()
    for lid in ("a-d", "d-e", "b-e"):
        bits[index.position[lid]] = Untouchable(bits[index.position[lid]])
    # Two slots take a shift step, so a run mask of every link would raise.
    assert walks(candidate_paths(g, "a", "b", 2, 2, bits)) == [
        ("a", "b"), ("a", "c", "b"),
    ]
    assert fallbacks == []


class UnreadableBitmap:
    """A link bitmap whose free bits raise when read."""

    @property
    def bits(self):
        raise AssertionError("read the bitmap of a link off the scanned paths")


def test_live_table_hit_reads_only_scanned_links(fallbacks):
    g = ladder()
    for lid in ("a-d", "d-e", "b-e"):
        g.links[lid].bitmap = UnreadableBitmap()
    assert walks(candidate_paths(g, "a", "b", 2, 2)) == [
        ("a", "b"), ("a", "c", "b"),
    ]
    assert fallbacks == []


class ReadLog(list):
    """Per-link bits that log the index of every entry read."""

    def __init__(self, bits):
        super().__init__(bits)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_scan_reads_the_table_once_then_falls_back(fallbacks):
    g = ladder()
    index = g.link_index()
    bits = ReadLog(index.free_bits())
    bits[index.position["a-b"]] = 0
    # The k = 2 table is a-b, a-c-b: with a-b left out it holds one
    # feasible path, so the scan reads each of its links once and
    # falls back at its end.  The fallback takes every run mask in one pass
    # and ANDs no free bits for the paths it returns, so it reads no entry
    # by index.
    assert walks(candidate_paths(g, "a", "b", 2, 2, bits)) == [
        ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    position = index.position
    assert bits.reads == [position["a-b"], position["a-c"], position["b-c"]]
    assert fallbacks == [("a", "b", 2)]


def test_table_holds_structure_only(fallbacks, fresh_path_tables):
    g = ladder()
    # Built by a search with a-b busy, the table still starts with a-b.
    g.links["a-b"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 2)) == [
        ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    g.links["a-b"].bitmap.bits = 0b1111
    assert walks(candidate_paths(g, "a", "b", 1, 2)) == [("a", "b"), ("a", "c", "b")]
    assert fallbacks == [("a", "b", 2)]


def avail_ladder(avails=None) -> NetworkGraph:
    """``ladder`` with the link availabilities ``avails`` gives by link id,
    and 0.99 on every other link."""
    avails = avails or {}
    g = NetworkGraph(slot_count=4)
    for u, v in LADDER:
        g.add_link(u, v, 100, availability=avails.get(link_id(u, v), 0.99))
    return g


def test_backup_search_scans_the_table_without_the_working_path(fallbacks):
    # WP a-b (0.9) needs two backups to reach 0.999.  The k = 2 table of
    # the whole graph is a-b, a-c-b: with a-b left out it holds one
    # feasible path.  Without a-b the table is a-c-b, a-d-e-b, which holds
    # both backups, so neither the search nor the backup search falls back.
    g = avail_ladder({"a-b": 0.9})
    (wp,) = candidate_paths(g, "a", "b", 1, 1)
    index = g.link_index()
    without = 1 << index.position["a-b"]
    left_out = candidate_paths(g, "a", "b", 1, 2, without=without)
    assert fallbacks == []
    assert index.paths["a", "b", 2, without] == ((1, 2), (3, 4, 5))
    # The same search with a-b's entry zeroed scans the whole-graph table
    # and falls back, to the same paths.
    bits = index.free_bits()
    bits[index.position["a-b"]] = 0
    zeroed = candidate_paths(g, "a", "b", 1, 2, bits)
    assert index.paths["a", "b", 2, 0] == ((0,), (1, 2))
    assert fallbacks == [("a", "b", 2)]
    assert walks(zeroed) == [("a", "c", "b"), ("a", "d", "e", "b")]
    assert [(p.link_indices, p.run, p.availability) for p in left_out] == [
        (p.link_indices, p.run, p.availability) for p in zeroed
    ]
    backups, a_pp = provision_backups(
        g, LightpathRequest("a", "b", 1, 2), wp, BackupRegistry(), "w1", 0.999,
    )
    assert fallbacks == [("a", "b", 2)]
    assert [(bp.path.link_indices, bp.block) for bp in backups] == [
        (p.link_indices, p.first_block) for p in zeroed
    ]
    assert a_pp == pytest.approx(1 - 0.1 * (1 - 0.99**2) * (1 - 0.99**3), abs=1e-12)


def bridged_clique(m: int) -> NetworkGraph:
    """``avail_ladder``'s a-b (0.9), a-c and c-b (0.99), and an m-clique
    x0..x(m-1) that hangs off a by the bridge a-x0, with no free slot on
    the clique's links."""
    g = NetworkGraph(slot_count=4)
    g.add_link("a", "b", 100, availability=0.9)
    g.add_link("a", "c", 100, availability=0.99)
    g.add_link("c", "b", 100, availability=0.99)
    g.add_link("a", "x0", 100)
    for i in range(m):
        for j in range(i + 1, m):
            g.add_link(f"x{i}", f"x{j}", 100).bitmap.bits = 0
    return g


def test_table_build_stops_at_a_wide_level(fallbacks, fresh_path_tables, monkeypatch):
    # Without the working path a-b, a-c-b is the one a-b path left and
    # every other branch runs into the 9-clique.  Short of k = 5, the
    # build of the table without a-b would walk the 109 601 simple paths
    # from a into the clique, spectrum ignored (17 MB at its peak).  It
    # stops after the first hop level of more than TABLE_FRONTIER partial
    # paths instead, and the search falls back to the pruned search, which
    # drops the clique's full links at once and finds what the search with
    # a-b's entry zeroed finds.
    monkeypatch.setattr(rsa, "TABLE_FRONTIER", 256)
    g = bridged_clique(9)
    index = g.link_index()
    (wp,) = candidate_paths(g, "a", "b", 1, 1)
    without = 1 << index.position["a-b"]
    tracemalloc.start()
    try:
        left_out = candidate_paths(g, "a", "b", 1, 5, without=without)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert index.paths["a", "b", 5, without] == ((1, 2),)
    assert fallbacks == [("a", "b", 5)]
    bits = index.free_bits()
    bits[index.position["a-b"]] = 0
    zeroed = candidate_paths(g, "a", "b", 1, 5, bits)
    assert walks(zeroed) == [("a", "c", "b")]
    assert [(p.link_indices, p.run, p.availability) for p in left_out] == [
        (p.link_indices, p.run, p.availability) for p in zeroed
    ]
    # The backup search hits the cut table and falls back the same way.
    backups, a_pp = provision_backups(
        g, LightpathRequest("a", "b", 1, 5), wp, BackupRegistry(), "w1", 0.99,
    )
    assert [(bp.path.link_indices, bp.block) for bp in backups] == [((1, 2), zeroed[0].first_block)]
    assert a_pp == pytest.approx(1 - 0.1 * (1 - 0.99**2), abs=1e-12)


def test_best_only_stops_inside_the_table(fallbacks):
    g = avail_ladder()
    # The k = 3 table holds all three a-b paths.  a-b (0.99) beats any
    # path of two hops or more (at most 0.99**2), so the scan stops there
    # and reads no other link's bits.
    assert walks(candidate_paths(g, "a", "b", 1, 3)) == [
        ("a", "b"), ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    index = g.link_index()
    bits = ReadLog(index.free_bits())
    assert walks(candidate_paths(g, "a", "b", 1, 3, bits, best_only=True)) == [("a", "b")]
    assert bits.reads == [index.position["a-b"]]
    assert fallbacks == []


def test_best_only_answers_from_the_table_end(fallbacks):
    # a-b at 0.975 is below 0.99**2, so it does not end the scan before
    # a-c-b, but above 0.99**3, the bound of every path off the k = 2
    # table (a-b, a-c-b).  With b-c busy that table holds one feasible
    # path: the full search falls back, the best-only one need not.
    g = avail_ladder({"a-b": 0.975})
    g.links["b-c"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 2, best_only=True)) == [("a", "b")]
    assert fallbacks == []
    assert walks(candidate_paths(g, "a", "b", 1, 2)) == [
        ("a", "b"), ("a", "d", "e", "b"),
    ]
    assert fallbacks == [("a", "b", 2)]


def test_best_only_stops_at_a_bfs_level(fallbacks):
    # With a-b busy the k = 2 table (a-b, a-c-b) cannot hold two feasible
    # paths, so the full search falls back.  The best-only one answers from
    # the table: a-c-b (0.99**2) beats every path of three hops or more.
    g = avail_ladder()
    g.links["a-b"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 2)) == [
        ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    assert walks(candidate_paths(g, "a", "b", 1, 2, best_only=True)) == [("a", "c", "b")]
    assert fallbacks == [("a", "b", 2)]
    # Run directly, the BFS finds a-c-b on its second level and returns
    # before the third.
    index = g.link_index()
    # A demand of one slot takes no shift step: the run masks are the bits.
    found = rsa._pruned_bfs(index, index.free_bits(), "a", "b", 2, True)
    position = index.position
    assert [path for path, _, _ in found] == [(position["a-c"], position["b-c"])]


def test_best_only_keeps_a_longer_path_that_can_win(fallbacks):
    # The bound of the next hop level, not of the one after, decides.  In
    # the table: a-b (0.986) is above 0.9945**3 but not 0.9945**2, and
    # a-c-b (0.9945**2) beats it.
    g = avail_ladder({"a-b": 0.986, "a-c": 0.9945, "b-c": 0.9945})
    assert walks(candidate_paths(g, "a", "b", 1, 2, best_only=True)) == [("a", "c", "b")]
    assert fallbacks == []
    # In the BFS, with a-b busy: a-c-b (0.99**2) is above 0.9945**4 but not
    # 0.9945**3, and a-d-e-b (0.9945**3) beats it.
    g = avail_ladder({"a-d": 0.9945, "d-e": 0.9945, "b-e": 0.9945})
    g.links["a-b"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 2, best_only=True)) == [("a", "d", "e", "b")]
    assert fallbacks == [("a", "b", 2)]


def test_best_only_never_stops_with_every_availability_one(fallbacks):
    g = ladder()
    # With the triangle a-b-c every pair, a-b included, has a walk of
    # exactly 5 hops, one per vertex, so each hop level 0..5 is reached.
    stop_above = g.link_index().stop_above
    assert stop_above["a"]["b"] == (1 + 1e-12,) * 6
    assert {b for row in stop_above.values() for bs in row.values() for b in bs} == {1 + 1e-12}
    # a-b, then b-c as well, made busy between rounds.
    for busy in (None, "a-b", "b-c"):
        if busy:
            g.links[busy].bitmap.bits = 0
        for k in (1, 2, 3, 5):
            before = len(fallbacks)
            full = candidate_paths(g, "a", "b", 1, k)
            full_fell_back = len(fallbacks) - before
            best = candidate_paths(g, "a", "b", 1, k, best_only=True)
            # It searches as far as the full search does, and picks from
            # the same paths.
            assert len(fallbacks) - before == 2 * full_fell_back
            assert walks(best) == walks(full)[:1]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.data())
def test_best_only_breaks_ties_on_the_vertex_walk(data):
    """On a fan of two-hop s-d paths of one availability, the paths found
    tie on availability and hops, so the vertex walk decides the pick."""
    m = data.draw(st.integers(2, 6))
    # Links are added in an order apart from their names' order, which is
    # the order the search extends a branch in.
    names = data.draw(st.permutations([str(i) for i in range(m + 2)]))
    s, d, middle = names[0], names[1], names[2:]
    a = data.draw(st.floats(0.5, 1.0, exclude_min=True))
    g = NetworkGraph(slot_count=4)
    for v in middle:
        for u in data.draw(st.permutations([s, d])):
            g.add_link(u, v, 100, availability=a)
    for link in g.links.values():
        link.bitmap.bits = data.draw(st.integers(0, 0b1111))
    k = data.draw(st.integers(1, m + 1))
    full = candidate_paths(g, s, d, 1, k)
    best = candidate_paths(g, s, d, 1, k, best_only=True)
    assert walks(best) == ([min(walks(full))] if full else [])
    assert walks(best) == walks(full)[:1]


@st.composite
def small_graphs(draw):
    """Up to 5 vertices, any links (not always connected), availabilities
    that differ per link or are all equal."""
    n = draw(st.integers(2, 5))
    names = [str(i) for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    availability = st.floats(0.5, 1.0, exclude_min=True)
    equal = draw(availability)
    uniform = draw(st.booleans())
    g = NetworkGraph(slot_count=4)
    for vx in names:
        g.add_vertex(vx)
    for u, v in chosen:
        g.add_link(u, v, 100, availability=equal if uniform else draw(availability))
    return g


def walk_maxima(g: NetworkGraph) -> dict[tuple[str, str, int], float]:
    """Highest availability of the s-d walks of exactly j hops, j = 0..n,
    by (s, d, j), from every walk listed one by one; absent if none."""
    n = len(g.vertices)
    best = {}

    def extend(s, u, avail, j):
        key = (s, u, j)
        best[key] = max(best.get(key, 0.0), avail)
        if j < n:
            for v, link in g.neighbors(u):
                extend(s, v, avail * link.availability, j + 1)

    for s in g.vertices:
        extend(s, s, 1.0, 0)
    return best


def simple_paths(g: NetworkGraph, s: str, d: str) -> list[tuple[int, ...]]:
    """Link indices of every simple s-d path, listed one by one."""
    index = g.link_index()
    out = []

    def extend(u, seen, path):
        if u == d:
            out.append(path)
            return
        for v, link in g.neighbors(u):
            if v not in seen:
                extend(v, seen | {v}, path + (index.position[link.id],))

    extend(s, {s}, ())
    return out


@settings(deadline=None, derandomize=True, max_examples=300)
@given(small_graphs())
def test_pair_bound_covers_every_longer_path(g):
    index = g.link_index()
    n = len(g.vertices)
    a_max = max((link.availability for link in g.links.values()), default=1.0)
    walks_of = walk_maxima(g)
    for s in g.vertices:
        for d in g.vertices:
            bounds = index.stop_above[s][d]
            assert len(bounds) == n + 1
            paths = simple_paths(g, s, d)
            for h, bound in enumerate(bounds):
                # No s-d path of h hops or more is above it ...
                for path in paths:
                    if len(path) >= h:
                        assert rsa._availability(index.links, path) <= bound
                # ... nor is it above the old bound of every pair, a_max**h,
                # rounded as the recurrence rounds it ...
                assert bound <= math.prod([a_max] * h) * (1 + 1e-12)
                # ... and it is the best s-d walk of h to n hops, 0 when no
                # walk has that many.
                reached = [walks_of[s, d, j] for j in range(h, n + 1) if (s, d, j) in walks_of]
                if reached:
                    assert bound == pytest.approx(max(reached) * (1 + 1e-12), rel=1e-14)
                else:
                    assert bound == 0.0


def global_bounds(vertices, links):
    """The bounds every pair shared before: a_max**h with the same slack."""
    a_max = max((link.availability for link in links), default=1.0)
    row = tuple([a_max**h * (1 + 1e-12) for h in range(len(vertices) + 1)])
    return {s: dict.fromkeys(vertices, row) for s in vertices}


@pytest.mark.parametrize("params", [
    # The benchmark's cycles and route-only settings, one shorter run each.
    dict(mode="dcycles", avg_link_availability=0.99, a_th=0.999, load_erlang=20, n_requests=1_200),
    dict(mode="none", avg_link_availability=0.999, a_th=0.99, load_erlang=15, n_requests=4_000),
], ids=["cycles", "route-only"])
def test_pair_bounds_change_only_the_fallbacks(params, fallbacks, monkeypatch):
    report = Simulation(Scenario(seed=1, **params)).run()
    pair_fallbacks = len(fallbacks)
    monkeypatch.setattr(topology, "_walk_bounds", global_bounds)
    assert Simulation(Scenario(seed=1, **params)).run() == report
    assert len(fallbacks) - pair_fallbacks > pair_fallbacks


def test_structure_change_resets_index():
    g = NetworkGraph(slot_count=4)
    g.add_link("a", "b", 100)
    g.add_link("b", "c", 100)
    assert [p.vertices for p in candidate_paths(g, "a", "c", 1, 5)] == [("a", "b", "c")]
    g.add_link("a", "c", 100)
    assert [p.vertices for p in candidate_paths(g, "a", "c", 1, 5)] == [
        ("a", "c"), ("a", "b", "c"),
    ]
    g.add_vertex("d")
    assert candidate_paths(g, "a", "d", 1, 5) == []
    g.add_link("c", "d", 100)
    assert [p.vertices for p in candidate_paths(g, "a", "d", 1, 5)] == [
        ("a", "c", "d"), ("a", "b", "c", "d"),
    ]


def test_graphs_of_one_structure_share_a_table():
    # Availabilities, slot count and spectrum are not structure.
    g = build_nsfnet(policy=UniformAvailability(0.9))
    h = build_nsfnet(slot_count=64, policy=JitteredAvailability(0.99, seed=3))
    candidate_paths(g, g.vertices[0], g.vertices[-1], 1, 3)
    assert h.link_index().paths is g.link_index().paths
    assert (g.vertices[0], g.vertices[-1], 3, 0) in h.link_index().paths


def test_other_structures_get_other_tables(fresh_path_tables):
    table = ladder().link_index().paths
    links_reversed = NetworkGraph(slot_count=4)
    for u, v in reversed(LADDER):
        links_reversed.add_link(u, v, 100)
    vertices_reversed = NetworkGraph(slot_count=4)
    for vx in reversed(ladder().vertices):
        vertices_reversed.add_vertex(vx)
    for u, v in LADDER:
        vertices_reversed.add_link(u, v, 100)
    one_more = ladder()
    one_more.add_link("c", "d", 100)
    for g in (links_reversed, vertices_reversed, one_more):
        assert g.link_index().paths is not table
    assert ladder().link_index().paths is table
    assert fresh_path_tables.cache_info().currsize == 4


def test_add_link_after_search_gives_new_table(fresh_path_tables):
    g = ladder()
    candidate_paths(g, "a", "b", 1, 5)
    before = g.link_index().paths
    assert ("a", "b", 5, 0) in before
    g.add_link("c", "d", 100)
    after = g.link_index().paths
    assert after is not before and ("a", "b", 5, 0) not in after
    assert walks(candidate_paths(g, "a", "d", 1, 5))[0] == ("a", "d")


def chain(n: int) -> NetworkGraph:
    """Vertices 0..n-1 linked in a line: one structure per n."""
    g = NetworkGraph(slot_count=4)
    for i in range(n - 1):
        g.add_link(str(i), str(i + 1), 100)
    return g


def test_path_table_cache_keeps_its_bound(fresh_path_tables):
    kept = topology.PATH_TABLES_KEPT
    tables = {}
    for n in range(2, kept + 2):
        tables[n] = chain(n).link_index().paths
    assert fresh_path_tables.cache_info().currsize == kept
    # A hit marks the table most recently used, so the next new structure
    # drops the least recently used one, n = 3, and not n = 2.
    assert chain(2).link_index().paths is tables[2]
    chain(kept + 2).link_index()
    assert fresh_path_tables.cache_info().currsize == kept
    assert chain(kept + 1).link_index().paths is tables[kept + 1]
    assert chain(3).link_index().paths is not tables[3]
    assert fresh_path_tables.cache_info().currsize == kept
