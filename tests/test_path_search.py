"""The int-mask path search against the graph-copy BFS it replaced."""

from hypothesis import given, settings, strategies as st

from eonprotect.rsa import CandidatePath, candidate_paths
from eonprotect.spectrum import SpectrumBitmap, is_feasible
from eonprotect.topology import Link, NetworkGraph, remove_links


def reference_candidate_paths(
    g: NetworkGraph,
    s: str,
    d: str,
    slots_needed: int,
    k: int,
) -> list[CandidatePath]:
    """Breadth-first search over vertex tuples and live bitmaps (the old code)."""
    if s not in g.adjacency or d not in g.adjacency:
        raise KeyError(f"unknown vertex in request {s}->{d}")
    size = g.slot_count
    if slots_needed > size:
        return []
    all_free = (1 << size) - 1
    found: list[CandidatePath] = []
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
                        CandidatePath(
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


def summary(paths):
    return [
        (p.vertices, tuple(link.id for link in p.links), p.bitmap.size,
         p.bitmap.bits, p.availability)
        for p in paths
    ]


@st.composite
def search_cases(draw):
    n = draw(st.integers(4, 9))
    # String names sort differently from their insertion order ("10" < "2").
    names = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    pairs = {tuple(sorted((i, draw(st.integers(0, i - 1))))) for i in range(1, n)}
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    pairs |= {tuple(sorted(p)) for p in extra if p[0] != p[1]}
    edges = draw(st.permutations(sorted(pairs)))
    slot_count = draw(st.integers(1, 10))
    full = (1 << slot_count) - 1
    # Each slot busy with probability 1/4, so that most searches find paths.
    free = st.tuples(st.integers(0, full), st.integers(0, full)).map(
        lambda t: full & ~(t[0] & t[1])
    )
    g = NetworkGraph(slot_count=slot_count)
    for i, j in edges:
        link = g.add_link(
            names[i], names[j], 100,
            availability=draw(st.floats(0.5, 1.0, exclude_min=True)),
        )
        link.bitmap.bits = draw(free)
    s, d = draw(st.permutations(names))[:2]
    slots_needed = draw(st.integers(1, 3) | st.integers(1, slot_count + 1))
    k = draw(st.integers(1, 8))
    excluded = draw(st.sets(st.sampled_from(sorted(g.links))))
    per_link = st.lists(free, min_size=len(g.links), max_size=len(g.links))
    bits = draw(st.none() | per_link)
    return g, s, d, slots_needed, k, excluded, bits


@settings(deadline=None, derandomize=True, max_examples=400)
@given(search_cases())
def test_matches_reference_on_pruned_copy(case):
    g, s, d, slots_needed, k, excluded, bits = case
    index = g.link_index()
    live = index.free_bits()
    given_bits = None if bits is None else list(bits)

    got = candidate_paths(
        g, s, d, slots_needed, k,
        index.mask(g.links[lid] for lid in excluded), given_bits,
    )

    pruned = remove_links(g, [g.links[lid] for lid in sorted(excluded)])
    if bits is not None:
        for lid, link in pruned.links.items():
            link.bitmap.bits = bits[index.position[lid]]
    want = reference_candidate_paths(pruned, s, d, slots_needed, k)
    assert summary(got) == summary(want)
    # The search writes neither to the graph nor to the caller's bits.
    assert index.free_bits() == live
    assert given_bits == bits
    # Returned paths hold the graph's own links.
    assert all(link is g.links[link.id] for p in got for link in p.links)


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
