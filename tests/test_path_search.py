"""The int-mask path search and path selection against the code they replaced."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from eonprotect import rsa, topology
from eonprotect.rsa import candidate_paths, select_best
from eonprotect.spectrum import SpectrumBitmap, _run_mask, first_fit, is_feasible
from eonprotect.topology import (
    JitteredAvailability, Link, NetworkGraph, UniformAvailability, build_nsfnet,
    remove_links,
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
    if s not in g.adjacency or d not in g.adjacency:
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


def reference_select_best(paths: list[ReferencePath]) -> ReferencePath:
    """One key over every path, vertex walks included (the old code)."""
    return min(paths, key=lambda p: (-p.availability, p.hops, p.vertices))


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
    # hop count tie on availability, so that select_best compares vertex
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
    else:
        avails = [draw(availability) for _ in edges]
    g = NetworkGraph(slot_count=slot_count)
    for (i, j), a in zip(edges, avails):
        link = g.add_link(names[i], names[j], 100, availability=a)
        link.bitmap.bits = draw(free)
    # Ties need two shortest paths, so uniform graphs take unlinked endpoints.
    apart = [(u, v) for u in names for v in names if u != v and not g.link_between(u, v)]
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


@settings(deadline=None, derandomize=True, max_examples=400)
@given(search_cases())
def test_matches_reference_on_pruned_copy(case):
    g, s, d, searches = case
    index = g.link_index()
    live = index.free_bits()
    for slots_needed, k, excluded, bits in searches:
        # Excluded links are left out by zeroing their entries of the bits
        # passed in; with nothing to leave out, None searches the live bits.
        given_bits = None
        if bits is not None or excluded:
            given_bits = list(live if bits is None else bits)
            for lid in excluded:
                given_bits[index.position[lid]] = 0
        passed = None if given_bits is None else list(given_bits)

        got = candidate_paths(g, s, d, slots_needed, k, given_bits)
        # Picked before any field is read, so only tied paths build their walks.
        picked = select_best(got) if got else None

        pruned = remove_links(g, [g.links[lid] for lid in sorted(excluded)])
        if bits is not None:
            for lid, link in pruned.links.items():
                link.bitmap.bits = bits[index.position[lid]]
        want = reference_candidate_paths(pruned, s, d, slots_needed, k)
        assert summary(got) == summary(want)
        # Paths whose fields are built on first read are picked as the eagerly
        # built ones are, ties on (availability, hops) included.
        if got:
            assert summary([picked]) == summary([select_best(want)])
            assert summary([picked]) == summary([reference_select_best(want)])
        # The run mask the search keeps, from the table or the pruned search,
        # is the run mask of the path's common free bits, and the first fit
        # read off it is the first fit of those bits.
        for p, ref in zip(got, want):
            assert p.run == _run_mask(ref.bitmap.bits, slots_needed)
            assert p.first_block == first_fit(ref.bitmap, slots_needed)
        # The search writes neither to the graph nor to the caller's bits.
        assert index.free_bits() == live
        assert given_bits == passed
        # Returned paths hold the graph's own links.
        assert all(link is g.links[link.id] for p in got for link in p.links)
        # ... and no per-call list (free bits, run masks), which a live
        # connection would otherwise keep alive.
        assert not any(holds_a_list(tuple(vars(p).values())) for p in got)
    assert g.link_index() is index

    # Each table holds tuples of ints only, and is the unpruned breadth-first
    # order through the hop level of the k-th path: the next path, if any,
    # has more hops.
    free = all_free_copy(g)
    for _, k, _, _ in searches:
        paths, complete = index.structural_paths(s, d, k)
        assert type(paths) is tuple and type(complete) is bool
        assert all(
            type(path) is tuple and all(type(li) is int for li in path)
            for path in paths
        )
        unpruned = [
            tuple(index.position[link.id] for link in p.links)
            for p in reference_candidate_paths(free, s, d, 1, len(paths) + 1)
        ]
        assert tuple(unpruned[:len(paths)]) == paths
        if len(paths) >= k:
            assert len(paths[-1]) == len(paths[k - 1])
        if complete:
            assert len(unpruned) == len(paths)
        else:
            assert len(paths) >= k
        if len(unpruned) > len(paths):
            assert len(unpruned[-1]) > len(paths[-1])


@pytest.fixture
def fallbacks(monkeypatch):
    """Arguments of every pruned search that the table did not answer."""
    calls = []

    def spy(index, runs, s, d, k):
        calls.append((s, d, k))
        return pruned_bfs(index, runs, s, d, k)

    pruned_bfs = rsa._pruned_bfs
    monkeypatch.setattr(rsa, "_pruned_bfs", spy)
    return calls


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
    assert not [key for key in g.link_index()._paths if key[:2] == ("a", "a")]
    assert fallbacks == []


def test_complete_table_answers_short_search(fallbacks, fresh_path_tables):
    g = ladder()
    # k = 5 exceeds the three simple paths: the table holds them all.
    assert walks(candidate_paths(g, "a", "b", 1, 5)) == [
        ("a", "b"), ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    assert g.link_index().structural_paths("a", "b", 5)[1] is True
    g.links["a-b"].bitmap.bits = 0
    assert walks(candidate_paths(g, "a", "b", 1, 5)) == [
        ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    assert fallbacks == []


def test_table_hit_answers_search(fallbacks, fresh_path_tables):
    g = ladder()
    # k = 1 stops the table at the one-hop level: a-b alone, not complete.
    assert walks(candidate_paths(g, "a", "b", 1, 1)) == [("a", "b")]
    assert g.link_index().structural_paths("a", "b", 1) == (((0,),), False)
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
    # With k = 2 and b-c busy the table (a-b, a-c-b) holds one feasible path
    # and is not complete, so the search falls back.
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


def test_scan_stops_once_the_table_cannot_answer(fallbacks):
    g = ladder()
    index = g.link_index()
    bits = ReadLog(index.free_bits())
    bits[index.position["a-b"]] = 0
    # The k = 2 table is a-b, a-c-b and not complete: with a-b left out it
    # cannot hold two feasible paths, so the scan stops there, before a-c.
    # The fallback takes every run mask in one pass and ANDs no free bits
    # for the paths it returns, so a-b is the only entry read by index.
    assert walks(candidate_paths(g, "a", "b", 2, 2, bits)) == [
        ("a", "c", "b"), ("a", "d", "e", "b"),
    ]
    assert bits.reads == [index.position["a-b"]]
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
    assert h.link_index()._paths is g.link_index()._paths
    assert (g.vertices[0], g.vertices[-1], 3) in h.link_index()._paths


def test_other_structures_get_other_tables(fresh_path_tables):
    table = ladder().link_index()._paths
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
        assert g.link_index()._paths is not table
    assert ladder().link_index()._paths is table
    assert fresh_path_tables.cache_info().currsize == 4


def test_add_link_after_search_gives_new_table(fresh_path_tables):
    g = ladder()
    candidate_paths(g, "a", "b", 1, 5)
    before = g.link_index()._paths
    assert ("a", "b", 5) in before
    g.add_link("c", "d", 100)
    after = g.link_index()._paths
    assert after is not before and ("a", "b", 5) not in after
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
        tables[n] = chain(n).link_index()._paths
    assert fresh_path_tables.cache_info().currsize == kept
    # A hit marks the table most recently used, so the next new structure
    # drops the least recently used one, n = 3, and not n = 2.
    assert chain(2).link_index()._paths is tables[2]
    chain(kept + 2).link_index()
    assert fresh_path_tables.cache_info().currsize == kept
    assert chain(kept + 1).link_index()._paths is tables[kept + 1]
    assert chain(3).link_index()._paths is not tables[3]
    assert fresh_path_tables.cache_info().currsize == kept
