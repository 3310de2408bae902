"""Dynamic protection cycles: reuse, extension, construction, dismantling."""

import copy

import pytest

from eonprotect.availability import parallel_availability
from eonprotect.dcycles import (
    DCycle,
    DCycleSet,
    UnknownGrantError,
    check_cycles,
    find_cycle_for,
    min_availability_link,
    provision_cycles,
    release_wp,
)
from eonprotect.rsa import LightpathRequest, rsacs_with_protection
from eonprotect.sim import Scenario, Simulation
from eonprotect.spectrum import SlotBlock, first_fit
from eonprotect.topology import NetworkGraph


def triangle(avail=0.95, slot_count=16):
    g = NetworkGraph(slot_count=slot_count)
    for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
        g.add_link(u, v, 1, availability=avail)
    return g


def pentagon_with_chord(slot_count=16, avail=0.99):
    """Cycle A-B-C-E-F-A plus straddler B-F and the extension corridor C-D-E."""
    g = NetworkGraph(slot_count=slot_count)
    for u, v in (
        ("A", "B"), ("B", "C"), ("C", "E"), ("E", "F"), ("A", "F"),
        ("B", "F"), ("C", "D"), ("D", "E"),
    ):
        g.add_link(u, v, 1, availability=avail)
    return g


def hand_built_cycle(g, cs, vertex_order, capacity):
    link_ids = tuple(
        g.link_between(u, v).id
        for u, v in zip(vertex_order, vertex_order[1:] + (vertex_order[0],))
    )
    blocks = {}
    for lid in link_ids:
        block = first_fit(g.links[lid].bitmap, capacity)
        g.links[lid].bitmap.set_busy(block)
        blocks[lid] = block
    cycle = DCycle(cs.new_id(), vertex_order, link_ids, blocks, capacity)
    cs.add(cycle)
    return cycle


class TestMinAvailabilityLink:
    def test_strict_min(self):
        g = triangle()
        links = [g.links["a-b"], g.links["a-c"], g.links["b-c"]]
        avail = {"a-b": 0.99, "a-c": 0.9, "b-c": 0.999}
        assert min_availability_link(links, avail) is g.links["a-c"]

    def test_tie_breaks_on_link_id(self):
        g = triangle()
        links = [g.links["b-c"], g.links["a-b"]]
        avail = {"a-b": 0.9, "b-c": 0.9}
        assert min_availability_link(links, avail) is g.links["a-b"]

    def test_singleton(self):
        g = triangle()
        assert min_availability_link([g.links["a-b"]], {"a-b": 0.5}) is g.links["a-b"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_availability_link([], {})


class TestCheckCycles:
    def setup_method(self):
        self.g = pentagon_with_chord()
        self.cs = DCycleSet()
        self.cycle = hand_built_cycle(self.g, self.cs, ("A", "B", "C", "E", "F"), 2)

    def test_straddler_within_double_capacity(self):
        chord = self.g.links["B-F"]
        assert self.cycle.is_straddling(chord)
        assert check_cycles(self.cs, chord, 2) is self.cycle
        assert check_cycles(self.cs, chord, 4) is self.cycle
        assert check_cycles(self.cs, chord, 5) is None

    def test_on_cycle_within_capacity(self):
        edge = self.g.links["A-B"]
        assert self.cycle.is_on_cycle(edge)
        assert check_cycles(self.cs, edge, 2) is self.cycle
        assert check_cycles(self.cs, edge, 3) is None

    def test_already_protected_link_not_offered(self):
        edge = self.g.links["A-B"]
        self.cycle.protected[edge.id] = ("w0", 1)
        assert check_cycles(self.cs, edge, 1) is None

    def test_straddling_preferred_over_on_cycle(self):
        # A second cycle carrying B-F on-cycle; the straddling cycle must win
        # even though the on-cycle one has the lower id.
        g = pentagon_with_chord()
        cs = DCycleSet()
        on = hand_built_cycle(g, cs, ("A", "B", "F"), 2)
        straddle = hand_built_cycle(g, cs, ("A", "B", "C", "E", "F"), 2)
        assert on.id < straddle.id
        assert check_cycles(cs, g.links["B-F"], 2) is straddle

    def test_off_cycle_link_never_matches(self):
        assert check_cycles(self.cs, self.g.links["C-D"], 1) is None


class TestArcsAndBackupAvailability:
    def test_on_cycle_complementary_arc(self):
        g = pentagon_with_chord(avail=0.9)
        cs = DCycleSet()
        cycle = hand_built_cycle(g, cs, ("A", "B", "C", "E", "F"), 2)
        edge = g.links["A-B"]
        (arc,) = cycle.arcs(edge, g)
        assert {l.id for l in arc} == {"B-C", "C-E", "E-F", "A-F"}
        assert cycle.backup_availability(edge, g) == pytest.approx(0.9**4, abs=1e-12)

    def test_straddler_uses_both_arcs_in_parallel(self):
        g = pentagon_with_chord(avail=0.9)
        cs = DCycleSet()
        cycle = hand_built_cycle(g, cs, ("A", "B", "C", "E", "F"), 2)
        chord = g.links["B-F"]
        arcs = cycle.arcs(chord, g)
        arc_ids = sorted(frozenset(l.id for l in arc) for arc in arcs)
        assert arc_ids == sorted(
            [frozenset({"B-C", "C-E", "E-F"}), frozenset({"A-B", "A-F"})]
        )
        expect = parallel_availability([0.9**3, 0.9**2])
        assert cycle.backup_availability(chord, g) == pytest.approx(expect, abs=1e-12)


class TestFindCycleFor:
    def test_triangle_builds_cycle_through_all_vertices(self):
        g = triangle()
        cs = DCycleSet()
        undo = []
        cycle = find_cycle_for(g, g.links["a-b"], 2, cs, k=5, undo=undo)
        assert cycle is not None
        assert set(cycle.link_ids) == {"a-b", "a-c", "b-c"} or set(
            cycle.link_ids
        ) == {"a-c", "b-c", "a-b"}
        for lid in cycle.link_ids:
            assert g.links[lid].bitmap.is_busy(cycle.blocks[lid])

    def test_new_straddling_cycle_from_two_disjoint_routes(self):
        g = NetworkGraph(slot_count=16)
        for u, v in (("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "b")):
            g.add_link(u, v, 1, availability=0.99)
        cs = DCycleSet()
        cycle = find_cycle_for(g, g.links["a-b"], 2, cs, k=5, undo=[])
        assert cycle is not None
        assert cycle.is_straddling(g.links["a-b"])
        assert set(cycle.link_ids) == {"a-c", "b-c", "b-d", "a-d"}
        # The straddler's own slots are untouched.
        assert g.links["a-b"].bitmap.free_count() == 16

    def test_extension_inserts_vertex_between_cycle_neighbours(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        cycle = hand_built_cycle(g, cs, ("A", "B", "C", "E", "F"), 2)
        cycle.protected["A-B"] = ("w0", 2)
        new_link = g.links["D-E"]
        undo = []
        got = find_cycle_for(g, new_link, 2, cs, k=5, undo=undo)
        assert got is cycle
        assert got.vertex_order == ("A", "B", "C", "D", "E", "F")
        assert got.is_on_cycle(new_link)
        # The displaced edge C-E freed its slots and is now a straddler.
        assert "C-E" not in got.blocks
        assert g.links["C-E"].bitmap.free_count() == 16
        assert got.is_straddling(g.links["C-E"])
        # Previously protected links stay protected on-cycle.
        assert got.is_on_cycle(g.links["A-B"])
        for lid in got.link_ids:
            assert g.links[lid].bitmap.is_busy(got.blocks[lid])

    def test_bridge_link_yields_none(self):
        g = NetworkGraph(slot_count=8)
        g.add_link("a", "b", 1, availability=0.9)
        g.add_link("b", "c", 1, availability=0.9)
        cs = DCycleSet()
        assert find_cycle_for(g, g.links["a-b"], 1, cs, k=5, undo=[]) is None


def provision(g, cs, wp_id, s, d, slots, a_th):
    lr = LightpathRequest(s, d, slots)
    return rsacs_with_protection(g, lr, a_th, "dcycles", wp_id, None, cs)


class TestProvisionCycles:
    def test_on_cycle_protection_matches_update_arithmetic(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        assert res.protected
        ((cid, lid),) = res.protected_links
        assert lid == "a-b"
        # One on-cycle protection: a_bp is the two-link complementary arc.
        a_bp = 0.95 * 0.95
        a_pl = 1 - (1 - 0.95) * (1 - a_bp)
        assert res.a_pp_max == pytest.approx(a_pl, abs=1e-12)

    def test_two_wps_share_one_cycle_without_new_slots(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        busy_after_first = g.busy_slot_count()
        res2 = provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        assert res2.protected
        assert len(cs.cycles) == 1
        # Only w2's working slots were added; the cycle is reused as-is.
        assert g.busy_slot_count() == busy_after_first + 2
        cycle = cs.ordered()[0]
        assert set(cycle.protected) == {"a-b", "b-c"}

    def test_unprotectable_weakest_link_rolls_back(self):
        g = NetworkGraph(slot_count=8)
        g.add_link("a", "b", 1, availability=0.9)
        g.add_link("b", "c", 1, availability=0.9)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "c", 2, a_th=0.99)
        assert not res.blocked and not res.protected
        assert res.protected_links == []
        assert cs.is_empty()
        assert g.busy_slot_count() == 2 * res.path.hops

    def test_unreachable_threshold_rolls_back_cycles(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=1.0)
        assert not res.protected
        assert cs.is_empty()
        assert g.busy_slot_count() == 2

    def test_direct_provision_rollback_restores_bitmaps(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        before = {lid: l.bitmap.copy() for lid, l in g.links.items()}
        path = rsacs_with_protection(
            g, LightpathRequest("a", "b", 2), 0.5, "none", "w0"
        ).path
        granted, a_pp = provision_cycles(
            g, LightpathRequest("a", "b", 2), path, cs, "w1", 0.95, 1.0
        )
        assert granted is None
        assert a_pp == 0.95
        for lid, bmp in before.items():
            if lid != "a-b":
                assert g.links[lid].bitmap == bmp


class TestReleaseAndDismantle:
    def test_last_protector_departing_frees_cycle(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        release_wp(cs, "w1", res.protected_links, g)
        assert cs.is_empty()
        assert g.busy_slot_count() == 2 * res.path.hops

    def test_cycle_survives_while_still_protecting(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        r1 = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        busy = g.busy_slot_count()
        release_wp(cs, "w1", r1.protected_links, g)
        assert len(cs.cycles) == 1
        assert set(cs.ordered()[0].protected) == {"b-c"}
        assert g.busy_slot_count() == busy

    def test_release_all_round_trips_bitmaps(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        baseline = {lid: l.bitmap.copy() for lid, l in g.links.items()}
        r1 = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        r2 = provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        for res, wp in ((r1, "w1"), (r2, "w2")):
            for link in res.path.links:
                link.bitmap.set_free(res.block)
            release_wp(cs, wp, res.protected_links, g)
        assert {lid: l.bitmap for lid, l in g.links.items()} == baseline

    def test_release_frees_only_cycles_it_empties(self):
        # An idle cycle that the departing path never held is left alone.
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        idle = hand_built_cycle(g, cs, ("a", "b", "c"), 2)
        busy = g.busy_slot_count()
        release_wp(cs, "w1", res.protected_links, g)
        assert cs.ordered() == [idle]
        assert g.busy_slot_count() == busy - 2 * 3
        for lid in idle.link_ids:
            assert g.links[lid].bitmap.is_busy(idle.blocks[lid])

    def test_unknown_or_foreign_entry_raises_and_changes_nothing(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        r1 = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        ((cid, lid),) = r1.protected_links
        before = copy.deepcopy(cs.cycles)
        bits = {l: link.bitmap.bits for l, link in g.links.items()}
        for granted in ([(cid, "b-c")], [(cid + 1, lid)], [(cid, "a-c")]):
            with pytest.raises(UnknownGrantError):
                release_wp(cs, "w1", granted, g)
        # w2 may not release w1's entry, not even beside one of its own.
        with pytest.raises(UnknownGrantError):
            release_wp(cs, "w2", [(cid, "b-c"), (cid, lid)], g)
        assert cs.cycles == before
        assert {l: link.bitmap.bits for l, link in g.links.items()} == bits


class TestCycleWellFormedness:
    def test_extension_preserves_simple_cycle(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        hand_built_cycle(g, cs, ("A", "B", "C", "E", "F"), 2)
        cycle = find_cycle_for(g, g.links["D-E"], 2, cs, k=5, undo=[])
        assert len(set(cycle.vertex_order)) == len(cycle.vertex_order)
        assert len(set(cycle.link_ids)) == len(cycle.link_ids)
        # Each cycle vertex touches exactly two cycle links.
        degree = {}
        for lid in cycle.link_ids:
            for vx in (g.links[lid].u, g.links[lid].v):
                degree[vx] = degree.get(vx, 0) + 1
        assert all(d == 2 for d in degree.values())
        assert set(degree) == set(cycle.vertex_order)


class TestCycleSetOrder:
    def test_dict_order_is_id_order_after_rolled_back_extension(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        ring = hand_built_cycle(g, cs, ("A", "B", "C", "E", "F"), 2)
        other = hand_built_cycle(g, cs, ("A", "B", "F"), 2)
        ring.protected["A-B"] = ("w0", 2)
        other.protected["B-F"] = ("w0", 2)
        before = ring.copy()
        # D-E is protected by extending the ring through D; A_th = 1 is
        # out of reach, so the extension is rolled back.
        res = provision(g, cs, "w1", "D", "E", 2, a_th=1.0)
        assert [l.id for l in res.path.links] == ["D-E"] and not res.protected
        assert list(cs.cycles) == sorted(cs.cycles) == [ring.id, other.id]
        assert cs.ordered() == [before, other]
        assert cs.cycles[ring.id] is not ring
        assert cs.cycles[ring.id].vertex_order == ("A", "B", "C", "E", "F")
        added = hand_built_cycle(g, cs, ("C", "D", "E"), 2)
        assert list(cs.cycles) == [ring.id, other.id, added.id]


# The scan and the release that check_cycles and release_wp replaced, kept
# as references: every live cycle sorted by id with a frozenset of its
# vertices per test, and a release that walks every cycle's protected map
# and then dismantles every empty cycle.

def reference_ordered(cs):
    return [cs.cycles[cid] for cid in sorted(cs.cycles)]


def reference_is_straddling(cycle, link):
    vertex_set = frozenset(cycle.vertex_order)
    return (
        link.id not in cycle.link_ids
        and link.u in vertex_set
        and link.v in vertex_set
    )


def reference_admits(cycle, link, demand):
    if link.id in cycle.protected:
        return False
    if reference_is_straddling(cycle, link):
        return demand <= 2 * cycle.capacity_slots
    if link.id in cycle.link_ids:
        return demand <= cycle.capacity_slots
    return False


def reference_check_cycles(cs, link, demand):
    straddle = None
    on_cycle = None
    for cycle in reference_ordered(cs):
        if not reference_admits(cycle, link, demand):
            continue
        if reference_is_straddling(cycle, link):
            straddle = straddle or cycle
        else:
            on_cycle = on_cycle or cycle
    return straddle or on_cycle


def reference_release_wp(cs, wp_id, g):
    for cycle in reference_ordered(cs):
        for lid in [l for l, (wp, _) in cycle.protected.items() if wp == wp_id]:
            del cycle.protected[lid]
    reference_dismantle_unused(cs, g)


def reference_dismantle_unused(cs, g):
    for cycle in reference_ordered(cs):
        if not cycle.protected:
            for lid, block in cycle.blocks.items():
                g.links[lid].bitmap.set_free(block)
            del cs.cycles[cycle.id]


class TestAgainstReference:
    @pytest.fixture(scope="class")
    def paused(self):
        """Deep copies of a dcycles run at six pause points."""
        sim = Simulation(Scenario(
            load_erlang=20, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
            n_requests=900, seed=4, mean_holding_s=1.0,
        ))
        states = []
        for pause in range(150, 901, 150):
            sim.run(max_arrivals=pause)
            states.append(copy.deepcopy((sim.cycles, sim.graph, sim.live)))
        return states

    def test_check_cycles_matches_reference_scan(self, paused):
        hits = straddlers = 0
        for cs, g, _ in paused:
            assert not cs.is_empty()
            top = 2 * max(c.capacity_slots for c in cs.cycles.values()) + 1
            for link in g.links.values():
                for demand in range(1, top + 1):
                    got = check_cycles(cs, link, demand)
                    assert got is reference_check_cycles(cs, link, demand)
                    hits += got is not None
                    straddlers += got is not None and got.is_straddling(link)
        assert straddlers and hits > straddlers

    def test_release_matches_reference_release(self, paused):
        released = 0
        for cs, g, live in paused:
            new_cs, new_g = copy.deepcopy((cs, g))
            ref_cs, ref_g = copy.deepcopy((cs, g))
            for conn in live.values():
                granted = conn.result.protected_links
                if not granted:
                    continue
                release_wp(new_cs, conn.id, granted, new_g)
                reference_release_wp(ref_cs, conn.id, ref_g)
                assert list(new_cs.cycles) == list(ref_cs.cycles)
                assert new_cs.cycles == ref_cs.cycles
                for lid, link in new_g.links.items():
                    assert link.bitmap.bits == ref_g.links[lid].bitmap.bits
                released += 1
            assert new_cs.is_empty()
        assert released
