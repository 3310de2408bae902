"""Network graph model, availability policies, and topology file parsing."""

import itertools
import statistics
from pathlib import Path

import pytest

from eonprotect.spectrum import SpectrumBitmap
from eonprotect.topology import (
    DisconnectedGraphError,
    DuplicateLinkError,
    JitteredAvailability,
    Link,
    NetworkGraph,
    TopologyError,
    TopologyParseError,
    UniformAvailability,
    UnknownLinkError,
    build_nsfnet,
    link_id,
    load_topology,
    remove_links,
)

MESH24 = (Path(__file__).parent / "data" / "mesh24.topo").read_text()

TRIANGLE = """
node a
node b
node c
link a b 100 0.99
link b c 100 0.99
link a c 100 0.99
"""


# The 14-node, 22-link NSFNET in the order the bundled file lists it.
NSFNET_LINKS = [
    ("1", "2", 1050), ("1", "3", 1500), ("1", "8", 2400),
    ("2", "3", 600), ("2", "4", 750),
    ("3", "6", 1800),
    ("4", "5", 600), ("4", "11", 1950),
    ("5", "6", 1200), ("5", "7", 600),
    ("6", "10", 1050), ("6", "14", 1800),
    ("7", "8", 750), ("7", "10", 1350),
    ("8", "9", 750),
    ("9", "10", 750), ("9", "12", 300), ("9", "13", 300),
    ("11", "12", 600), ("11", "13", 750),
    ("12", "14", 300), ("13", "14", 150),
]


class TestLink:
    def test_availability_recomputes_from_mttf_mttr(self):
        g = NetworkGraph(slot_count=8)
        link = g.add_link("a", "b", 100, availability=0.97)
        assert link.availability == pytest.approx(0.97, abs=1e-12)
        assert link.availability == link.mttf_h / (link.mttf_h + link.mttr_h)

    def test_rejects_self_loop(self):
        g = NetworkGraph(slot_count=8)
        with pytest.raises(Exception, match="self-loop"):
            g.add_link("a", "a", 100)

    @pytest.mark.parametrize("mttf,mttr", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)])
    def test_rejects_bad_mttf_or_mttr(self, mttf, mttr):
        with pytest.raises(TopologyError, match="^bad mttf/mttr on link a-b$"):
            Link("a-b", "a", "b", 100, mttf, mttr, SpectrumBitmap(8))

    def test_link_id_is_order_independent(self):
        assert link_id("b", "a") == link_id("a", "b") == "a-b"

    def test_vertex_name_with_dash_rejected(self):
        # "a-b"+"c" and "a"+"b-c" would both be link a-b-c.
        g = NetworkGraph(slot_count=8)
        with pytest.raises(TopologyError, match="'b-c'"):
            g.add_vertex("b-c")
        with pytest.raises(TopologyError, match="'b-c'"):
            g.add_link("a", "b-c", 10)
        assert "b-c" not in g.vertices


class TestRejectedAddLinkChangesNothing:
    """A rejected ``add_link`` leaves no stray vertex, link or index reset."""

    @staticmethod
    def graph():
        g = NetworkGraph(slot_count=8)
        g.add_link("p", "q", 10)
        return g

    def check_rejected(self, u, v, length_km, availability, match):
        g = self.graph()
        index = g.link_index()
        vertices = list(g.vertices)
        with pytest.raises(TopologyError, match=match):
            g.add_link(u, v, length_km, availability=availability)
        assert g.vertices == vertices
        assert list(g.links) == ["p-q"]
        assert g.link_index() is index

    def test_dash_in_second_name(self):
        self.check_rejected("a", "b-c", 10, 1.0, "'b-c'")

    def test_dash_in_first_name(self):
        self.check_rejected("a-b", "c", 10, 1.0, "'a-b'")

    def test_self_loop(self):
        self.check_rejected("a", "a", 1, 1.0, "self-loop")

    def test_negative_length(self):
        self.check_rejected("x", "y", -5, 1.0, "length")

    def test_nan_length(self):
        self.check_rejected("x", "y", float("nan"), 1.0, "length nan")

    def test_infinite_length(self):
        self.check_rejected("x", "y", float("inf"), 1.0, "length inf")

    def test_zero_availability(self):
        self.check_rejected("x", "y", 10, 0.0, "availability")

    def test_availability_above_one(self):
        self.check_rejected("x", "y", 10, 1.5, "availability")

    def test_duplicate_link(self):
        self.check_rejected("q", "p", 10, 1.0, "already present")


class TestBuildNsfnet:
    def test_shape_and_free_spectrum(self):
        g = build_nsfnet(320, UniformAvailability(0.999))
        assert len(g.vertices) == 14
        assert len(g.links) == 22
        assert all(l.bitmap.bits.bit_count() == 320 for l in g.links.values())
        assert all(l.availability == pytest.approx(0.999) for l in g.links.values())

    def test_unit_availability(self):
        g = build_nsfnet(1, UniformAvailability(1.0))
        assert all(l.availability == 1.0 for l in g.links.values())

    def test_jittered_mean_near_target(self):
        g = build_nsfnet(320, JitteredAvailability(0.99, seed=7))
        mean = statistics.mean(l.availability for l in g.links.values())
        assert abs(mean - 0.99) < 0.005

    def test_degree_sequence_sums_to_44(self):
        g = build_nsfnet(8)
        neighbors = g.link_index().neighbors
        assert sum(len(neighbors[v]) for v in g.vertices) == 44

    def test_connected(self):
        assert build_nsfnet(8).is_connected()


class TestIsConnected:
    def test_empty_graph_is_connected(self):
        assert NetworkGraph().is_connected()

    def test_isolated_vertex_disconnects(self):
        g = load_topology(TRIANGLE)
        g.add_vertex("d")
        assert not g.is_connected()
        g.add_link("c", "d", 1)
        assert g.is_connected()

    def test_builds_no_index(self):
        # The index reads availabilities once, so an availability set after
        # loading (which checks connectivity) still counts.
        g = load_topology(TRIANGLE)
        assert g.is_connected()
        g.links["a-b"].availability = 0.999
        assert g.link_index().stop_above["a"]["b"][1] == pytest.approx(0.999, abs=1e-9)


class TestJitterPolicy:
    def test_half_width_is_half_gap_to_next_nine(self):
        # For target 0.99 the next nine is 0.999, so the half-width is 0.0045.
        assert JitteredAvailability(0.99).half_width == pytest.approx(0.0045)

    def test_draws_stay_inside_band(self):
        pol = JitteredAvailability(0.9, seed=3)
        for a in pol.availabilities(1000):
            assert 0.9 - pol.half_width <= a <= 0.9 + pol.half_width

    @pytest.mark.parametrize("policy", [UniformAvailability, JitteredAvailability])
    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5])
    def test_rejects_availability_outside_unit_interval(self, policy, value):
        with pytest.raises(ValueError, match=r"^availability must lie in \(0, 1\]$"):
            policy(value)

    @pytest.mark.parametrize("target", [0.2, 0.31, 0.3103])
    def test_rejects_band_reaching_zero(self, target):
        with pytest.raises(ValueError, match="0.3103"):
            JitteredAvailability(target)

    def test_lowest_accepted_target_draws_positive(self):
        assert min(JitteredAvailability(0.3104, seed=1).availabilities(1000)) > 0

    def test_seeded_draws_repeat(self):
        assert (
            JitteredAvailability(0.999, seed=5).availabilities(22)
            == JitteredAvailability(0.999, seed=5).availabilities(22)
        )


class TestLoadTopology:
    def test_triangle(self):
        g = load_topology(TRIANGLE, slot_count=16)
        assert len(g.vertices) == 3
        assert len(g.links) == 3
        assert all(l.bitmap.bits.bit_count() == 16 for l in g.links.values())

    def test_duplicate_edge(self):
        text = TRIANGLE + "link b a 50 0.9\n"
        with pytest.raises(TopologyParseError, match="already present"):
            load_topology(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(TopologyParseError, match="line 2"):
            load_topology("node a\nlink a\n")

    def test_node_with_two_names(self):
        with pytest.raises(TopologyParseError, match="^line 2: node takes exactly one name$"):
            load_topology("node a\nnode b c\n")

    @pytest.mark.parametrize("text,line", [
        ("link a-b c 10 0.99\nlink a b-c 10 0.99\n", 1),
        ("link a c 10 0.99\nlink a b-c 10 0.99\n", 2),
        ("node a\nnode b-c\n", 2),
    ])
    def test_vertex_name_with_dash_is_a_parse_error(self, text, line):
        with pytest.raises(TopologyParseError, match="contains '-'") as err:
            load_topology(text)
        assert err.value.line_no == line

    def test_availability_out_of_range_is_a_parse_error(self):
        with pytest.raises(TopologyParseError, match="availability") as err:
            load_topology("link a b 10 0.9\nlink b c 10 1.5\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_non_finite_length_is_a_parse_error(self, length):
        with pytest.raises(TopologyParseError, match=f"length {length}") as err:
            load_topology(f"link a b 10 0.9\nlink b c {length} 0.9\n")
        assert err.value.line_no == 2

    def test_unknown_directive(self):
        with pytest.raises(TopologyParseError, match="unknown directive"):
            load_topology("edge a b 10\n")

    def test_disconnected_graph(self):
        text = "link a b 1 0.9\nlink c d 1 0.9\n"
        with pytest.raises(DisconnectedGraphError):
            load_topology(text)

    @pytest.mark.parametrize("text,n", [
        ("", 0), ("# nothing\n", 0), ("node A\n", 1),
    ], ids=["empty", "comment-only", "one-node"])
    def test_fewer_than_two_nodes(self, text, n):
        with pytest.raises(TopologyError, match=f"needs at least 2 nodes, not {n}"):
            load_topology(text)

    def test_missing_availability_uses_policy(self):
        g = load_topology("link a b 10\n", policy=UniformAvailability(0.95))
        assert g.links["a-b"].availability == pytest.approx(0.95)

    def test_missing_availability_without_policy_fails(self):
        with pytest.raises(TopologyParseError, match="no policy"):
            load_topology("link a b 10\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nlink a b 10 0.9  # trailing\n"
        assert len(load_topology(text).links) == 1

    def test_bundled_nsfnet_order(self):
        # Link order fixes the link index and the order of availability draws.
        policy = JitteredAvailability(0.99, seed=7)
        g = build_nsfnet(8, policy)
        assert g.vertices == [str(n) for n in range(1, 15)]
        assert [(l.id, l.length_km) for l in g.links.values()] == [
            (link_id(u, v), km) for u, v, km in NSFNET_LINKS
        ]
        assert [l.availability for l in g.links.values()] == pytest.approx(
            policy.availabilities(22), abs=1e-12
        )


class TestRemoveLinks:
    def test_triangle_minus_one_link(self):
        g = load_topology(TRIANGLE)
        out = remove_links(g, [g.links["a-c"]])
        assert set(out.links) == {"a-b", "b-c"}

    def test_remove_all_links_of_two_vertex_graph(self):
        g = load_topology("link a b 10 0.9\n")
        out = remove_links(g, [g.links["a-b"]])
        assert not out.links
        assert out.vertices == ["a", "b"]
        neighbors = out.link_index().neighbors
        assert neighbors["a"] == neighbors["b"] == ()

    def test_nsfnet_minus_three_link_path(self):
        g = build_nsfnet(8)
        path = [g.links["1-2"], g.links["2-4"], g.links["4-5"]]
        assert len(remove_links(g, path).links) == 19

    def test_never_mutates_input(self):
        g = build_nsfnet(8)
        before = hash(frozenset(g.links))
        remove_links(g, [g.links["1-2"]])
        assert hash(frozenset(g.links)) == before
        index = g.link_index()
        assert index.links[index.between["1"]["2"]] is g.links["1-2"]

    def test_unknown_link(self):
        g = load_topology(TRIANGLE)
        other = NetworkGraph(slot_count=g.slot_count)
        stray = other.add_link("x", "y", 1)
        with pytest.raises(UnknownLinkError):
            remove_links(g, [stray])

    def test_copies_are_independent(self):
        g = load_topology(TRIANGLE)
        out = remove_links(g, [g.links["a-c"]])
        from eonprotect.spectrum import SlotBlock, allocate

        index = out.link_index()
        allocate(index.links, {index.position["a-b"]: SlotBlock(0, 4).mask()})
        assert g.links["a-b"].bitmap.bits.bit_count() == g.slot_count


class TestLinkIndexBetween:
    @pytest.mark.parametrize("text", [None, MESH24], ids=["nsfnet", "mesh24"])
    def test_every_link_both_ways_and_no_other_pair(self, text):
        if text is None:
            g = build_nsfnet()
        else:
            g = load_topology(text, policy=UniformAvailability(0.99))
        index = g.link_index()
        for link in g.links.values():
            assert index.between[link.u][link.v] == index.position[link.id]
            assert index.between[link.v][link.u] == index.position[link.id]
        apart = 0
        for u, v in itertools.permutations(g.vertices, 2):
            if link_id(u, v) not in g.links:
                assert v not in index.between[u]
                apart += 1
        assert apart

    @pytest.mark.parametrize("text", [None, MESH24], ids=["nsfnet", "mesh24"])
    def test_graphs_of_one_structure_share_a_path_table(self, text):
        def build(a):
            if text is None:
                return build_nsfnet(policy=UniformAvailability(a))
            return load_topology(text, policy=UniformAvailability(a))

        first, second = build(0.99).link_index(), build(0.9).link_index()
        assert first.paths is second.paths
        assert first.between == second.between
