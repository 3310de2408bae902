"""Dynamic protection cycles: reuse, extension, construction, dismantling."""

import copy
import inspect
import itertools
import math
from collections import Counter
from pathlib import Path

import pytest

from eonprotect import dcycles, sim as sim_module, topology
from eonprotect.availability import parallel_availability
from eonprotect.dcycles import (
    DCycleSet,
    UnknownGrantError,
    _build_cycle,
    _rollback,
    _set_ring,
    _try_extend,
    check_cycles,
    find_cycle_for,
    provision_cycles,
    release_wp,
)
from eonprotect.rsa import (
    CandidatePath, LightpathRequest, NoProtection, ProvisionResult, _availability,
    rsacs_with_protection,
)
from eonprotect.sim import Scenario, Simulation
from eonprotect.spectrum import (
    AllocationConflictError, DoubleFreeError, SlotBlock, allocate, first_fit,
    is_feasible, release,
)
from eonprotect.topology import NetworkGraph, link_id

from conftest import reference_arcs
from slots import all_busy, all_free

MESH24 = (Path(__file__).parent / "data" / "mesh24.topo").read_text()


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


def _on(g, block, link_ids):
    position = g.link_index().position
    return dict.fromkeys((position[lid] for lid in link_ids), block.mask())


def take(g, block, *link_ids):
    """Mark ``block`` busy on each link named."""
    allocate(g.link_index().links, _on(g, block, link_ids))


def give_back(g, block, *link_ids):
    """Free ``block`` on each link named."""
    release(g.link_index().links, _on(g, block, link_ids))


def pos(g, lid):
    """The position of link ``lid``."""
    return g.link_index().position[lid]


def check(cs, g, link, demand):
    """``check_cycles`` for ``link``, named by its position and endpoint bits."""
    bit = g.link_index().vertex_bit
    return check_cycles(cs, pos(g, link.id), bit[link.u] | bit[link.v], demand)


def by_id(cycle, ring):
    """A ring of ``cycle`` (link position -> block) keyed by link id."""
    return {cycle.table[li].id: block for li, block in ring.items()}


def vertex_mask_of(g, vertices):
    """The OR of the vertex bits of ``vertices``."""
    bit = g.link_index().vertex_bit
    mask = 0
    for vx in vertices:
        mask |= bit[vx]
    return mask


def cycle_fields(cycle):
    """The ring (vertex order, blocks in ring order), its vertex mask and the
    protected map."""
    return (
        cycle.vertex_order, list(cycle.ring.items()), cycle.vertex_mask,
        dict(cycle.protected),
    )


def snapshot(cs, g):
    """Link bits, live cycles in dict order with their fields, reserved slots."""
    return (
        {lid: link.bitmap.bits for lid, link in g.links.items()},
        [(cid, id(cycle), cycle_fields(cycle)) for cid, cycle in cs.cycles.items()],
        cs.reserved,
    )


def square(avails):
    """Ring a-b-c-d-a with the given availability per link id."""
    g = NetworkGraph(slot_count=16)
    for lid, a in avails.items():
        g.add_link(*lid.split("-"), 1, availability=a)
    return g


def hand_path(g, vertices):
    """The working path through ``vertices``, a 2-slot block allocated on it."""
    index = g.link_index()
    path = tuple(index.between[u][v] for u, v in zip(vertices, vertices[1:]))
    common = (1 << g.slot_count) - 1
    for li in path:
        common &= index.links[li].bitmap.bits
    take(g, first_fit(common, 2), *(index.links[li].id for li in path))
    # Its run mask for the 2-slot demand, as the search found it.
    run = common & common >> 1
    return CandidatePath(
        index.links, vertices[0], path, run, 2, _availability(index.links, path)
    )


class TestMinAvailabilityLink:
    """``provision_cycles`` protects the least-available link first, ties by id."""

    # Each threshold below is reached only once every link of the path is
    # protected, so ``granted`` shows the whole order.
    def protect(self, g, vertices, a_th):
        path = hand_path(g, vertices)
        lr = LightpathRequest(vertices[0], vertices[-1], 2)
        return provision_cycles(g, lr, path, DCycleSet(), "w1", a_th)

    def test_strict_min(self):
        g = square({"a-b": 0.99, "b-c": 0.9, "c-d": 0.999, "a-d": 0.999})
        granted, _ = self.protect(g, ["a", "b", "c"], a_th=0.995)
        assert [lid for _, lid in granted] == ["b-c", "a-b"]

    def test_tie_breaks_on_link_id(self):
        g = square({"a-b": 0.9, "b-c": 0.9, "c-d": 0.999, "a-d": 0.999})
        granted, _ = self.protect(g, ["c", "b", "a"], a_th=0.95)
        assert [lid for _, lid in granted] == ["a-b", "b-c"]

    def test_singleton(self):
        g = triangle()
        granted, _ = self.protect(g, ["a", "b"], a_th=0.99)
        assert [lid for _, lid in granted] == ["a-b"]

    def test_empty_rejected(self):
        # Every link protected and the threshold still missed: rolled back.
        g = square({"a-b": 0.9, "b-c": 0.9, "c-d": 0.999, "a-d": 0.999})
        path = hand_path(g, ["a", "b", "c"])
        cs = DCycleSet()
        before = snapshot(cs, g)
        lr = LightpathRequest("a", "c", 2)
        assert provision_cycles(g, lr, path, cs, "w1", 1.0) == (
            None, path.availability
        )
        assert snapshot(cs, g) == before


class TestCheckCycles:
    def setup_method(self):
        self.g = pentagon_with_chord()
        self.cs = DCycleSet()
        self.cycle = _build_cycle(self.cs, self.g, ["A", "B", "C", "E", "F"], 2, [])

    def test_straddler_within_double_capacity(self):
        chord = self.g.links["B-F"]
        assert reference_is_straddling(self.cycle, chord)
        assert check(self.cs, self.g, chord, 2) is self.cycle
        assert check(self.cs, self.g, chord, 4) is self.cycle
        assert check(self.cs, self.g, chord, 5) is None

    def test_on_cycle_within_capacity(self):
        edge = self.g.links["A-B"]
        assert edge.id in self.cycle.blocks
        assert check(self.cs, self.g, edge, 2) is self.cycle
        assert check(self.cs, self.g, edge, 3) is None

    def test_already_protected_link_not_offered(self):
        edge = self.g.links["A-B"]
        self.cycle.protected[pos(self.g, edge.id)] = "w0"
        assert check(self.cs, self.g, edge, 1) is None

    def test_straddling_preferred_over_on_cycle(self):
        # A second cycle carrying B-F on-cycle; the straddling cycle must win
        # even though the on-cycle one has the lower id.
        g = pentagon_with_chord()
        cs = DCycleSet()
        on = _build_cycle(cs, g, ["A", "B", "F"], 2, [])
        straddle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        assert on.id < straddle.id
        assert check(cs, g, g.links["B-F"], 2) is straddle

    def test_off_cycle_link_never_matches(self):
        assert check(self.cs, self.g, self.g.links["C-D"], 1) is None


class TestArcsAndBackupAvailability:
    def test_on_cycle_complementary_arc(self):
        g = pentagon_with_chord(avail=0.9)
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        edge = pos(g, "A-B")
        (arc,) = cycle.arcs(edge)
        assert {g.link_index().links[li].id for li in arc} == {"B-C", "C-E", "E-F", "A-F"}
        assert cycle.backup_availability(edge) == pytest.approx(0.9**4, abs=1e-12)

    def test_straddler_uses_both_arcs_in_parallel(self):
        g = pentagon_with_chord(avail=0.9)
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        chord = pos(g, "B-F")
        arcs = cycle.arcs(chord)
        arc_ids = sorted(frozenset(g.link_index().links[li].id for li in arc) for arc in arcs)
        assert arc_ids == sorted(
            [frozenset({"B-C", "C-E", "E-F"}), frozenset({"A-B", "A-F"})]
        )
        expect = parallel_availability([0.9**3, 0.9**2])
        assert cycle.backup_availability(chord) == pytest.approx(expect, abs=1e-12)


class TestOptions:
    @staticmethod
    def placed(g, cycle, ids):
        """The cycle's blocks on links ``ids`` in the packed field layout."""
        position = g.link_index().position
        pack = 0
        for lid in ids:
            pack |= cycle.blocks[lid].mask() << position[lid] * g.slot_count
        return pack

    @staticmethod
    def mask(g, ids):
        position = g.link_index().position
        return sum(1 << position[lid] for lid in set(ids))

    def granted(self, g, cycle, vertices):
        """A 2-slot working path over ``vertices`` whose link is granted ``cycle``."""
        path = hand_path(g, vertices)
        (link,) = path.links
        return ProvisionResult(
            blocked=False, path=path, block=SlotBlock(0, 2),
            protected_links=[(cycle.id, link.id)],
        )

    def test_on_cycle_grant_is_one_option_over_the_complement_arc(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        ((cid, lid),) = res.protected_links
        arc = ["a-c", "b-c"]
        assert cs.options(g, res) == [
            (self.mask(g, [lid]), self.mask(g, arc), self.placed(g, cs.cycles[cid], arc)),
        ]

    def test_straddler_within_capacity_has_one_option_per_arc(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        res = self.granted(g, cycle, ("B", "F"))
        covers = self.mask(g, ["B-F"])
        arcs = [["B-C", "C-E", "E-F"], ["A-F", "A-B"]]
        assert cs.options(g, res) == [
            (covers, self.mask(g, arc), self.placed(g, cycle, arc)) for arc in arcs
        ]

    def test_straddler_above_capacity_needs_both_arcs_in_one_option(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 1, [])
        res = self.granted(g, cycle, ("B", "F"))
        ring = list(cycle.blocks)
        assert cs.options(g, res) == [
            (self.mask(g, ["B-F"]), self.mask(g, ring), self.placed(g, cycle, ring)),
        ]

    def test_path_without_grants_has_no_options(self):
        g = triangle(avail=0.999)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        assert not res.needs_protection
        assert cs.options(g, res) == []


class TestFindCycleFor:
    def test_triangle_builds_cycle_through_all_vertices(self):
        g = triangle()
        cs = DCycleSet()
        cycle = find_cycle_for(g, pos(g, "a-b"), 2, cs, k=5, replaced=[])
        assert cycle is not None
        assert set(cycle.blocks) == {"a-b", "a-c", "b-c"}
        for lid in cycle.blocks:
            assert all_busy(g.links[lid].bitmap.bits, cycle.blocks[lid])

    def test_new_straddling_cycle_from_two_disjoint_routes(self):
        g = NetworkGraph(slot_count=16)
        for u, v in (("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "b")):
            g.add_link(u, v, 1, availability=0.99)
        cs = DCycleSet()
        cycle = find_cycle_for(g, pos(g, "a-b"), 2, cs, k=5, replaced=[])
        assert cycle is not None
        assert reference_is_straddling(cycle, g.links["a-b"])
        assert set(cycle.blocks) == {"a-c", "b-c", "b-d", "a-d"}
        # The straddler's own slots are untouched.
        assert g.links["a-b"].bitmap.bits.bit_count() == 16

    def test_extension_inserts_vertex_between_cycle_neighbours(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        cycle.protected[pos(g, "A-B")] = "w0"
        new_link = g.links["D-E"]
        got = find_cycle_for(g, pos(g, new_link.id), 2, cs, k=5, replaced=[])
        assert got is cycle
        assert got.vertex_order == ("A", "B", "C", "D", "E", "F")
        assert new_link.id in got.blocks
        # The displaced edge C-E freed its slots and is now a straddler.
        assert "C-E" not in got.blocks
        assert g.links["C-E"].bitmap.bits.bit_count() == 16
        assert reference_is_straddling(got, g.links["C-E"])
        # Previously protected links stay protected on-cycle.
        assert "A-B" in got.blocks
        for lid in got.blocks:
            assert all_busy(g.links[lid].bitmap.bits, got.blocks[lid])

    def test_bridge_link_yields_none(self):
        g = NetworkGraph(slot_count=8)
        g.add_link("a", "b", 1, availability=0.9)
        g.add_link("b", "c", 1, availability=0.9)
        cs = DCycleSet()
        assert find_cycle_for(g, pos(g, "a-b"), 1, cs, k=5, replaced=[]) is None


def provision(g, cs, wp_id, s, d, slots, a_th):
    lr = LightpathRequest(s, d, slots)
    return rsacs_with_protection(g, lr, a_th, cs, wp_id)


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
        cycle = list(cs.cycles.values())[0]
        assert set(cycle.protected) == {pos(g, "a-b"), pos(g, "b-c")}

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
        before = {lid: l.bitmap.bits for lid, l in g.links.items()}
        path = rsacs_with_protection(
            g, LightpathRequest("a", "b", 2), 0.5, NoProtection(), "w0"
        ).path
        granted, a_pp = provision_cycles(g, LightpathRequest("a", "b", 2), path, cs, "w1", 1.0)
        assert granted is None
        assert a_pp == path.availability
        for lid, bmp in before.items():
            if lid != "a-b":
                assert g.links[lid].bitmap.bits == bmp


    def test_stops_granting_once_the_threshold_is_met(self):
        # B-C, the weakest link, gets a new cycle B-F-E-C, which lifts the
        # path to 0.995 * (1 - 0.1 * (1 - 0.99**3)) >= 0.99.  So C-D, next
        # by availability, gets no grant, though it could extend that cycle
        # through D.
        g = pentagon_with_chord()
        g.links["B-C"].availability = 0.9
        g.links["C-D"].availability = 0.995
        path = hand_path(g, ["D", "C", "B"])
        cs = DCycleSet()
        granted, a_pp = provision_cycles(g, LightpathRequest("D", "B", 2), path, cs, "w1", 0.99)
        ((cid, cycle),) = cs.cycles.items()
        assert granted == [(cid, "B-C")]
        assert set(cycle.vertex_order) == {"B", "C", "E", "F"}
        assert a_pp == pytest.approx(0.995 * (1 - 0.1 * (1 - 0.99**3)), abs=1e-12)
        assert a_pp >= 0.99

    def test_rollback_of_cycle_built_then_extended_in_one_call(self):
        # B-C, the weakest link, gets a new cycle B-F-E-C; C-D then extends
        # that cycle through D.  Both happen inside one provision_cycles call.
        def setup():
            g = pentagon_with_chord()
            g.links["B-C"].availability = 0.9
            g.links["C-D"].availability = 0.95
            path = hand_path(g, ["D", "C", "B"])
            return g, DCycleSet(), LightpathRequest("D", "B", 2), path

        g, cs, lr, path = setup()
        granted, _ = provision_cycles(g, lr, path, cs, "w1", 0.99)
        ((cid, _),) = cs.cycles.items()
        assert granted == [(cid, "B-C"), (cid, "C-D")]
        assert cs.cycles[cid].vertex_order == ("B", "F", "E", "D", "C")

        g, cs, lr, path = setup()
        before = snapshot(cs, g)
        assert provision_cycles(g, lr, path, cs, "w1", 1.0)[0] is None
        assert snapshot(cs, g) == before


    def test_rollback_of_two_extensions_of_one_cycle(self, monkeypatch):
        # D-E extends the ring through D, then F-G extends it through G.
        # Undoing them oldest first would leave the first extension in place.
        g = pentagon_with_chord()
        g.add_link("F", "G", 1, availability=0.99)
        g.add_link("A", "G", 1, availability=0.99)
        g.links["D-E"].availability = 0.9
        g.links["F-G"].availability = 0.91
        cs = DCycleSet()
        path = hand_path(g, ["D", "E", "F", "G"])
        ring = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        ring.protected[pos(g, "A-B")] = "w0"
        before = snapshot(cs, g)
        orders = []
        real_extend = dcycles._try_extend

        def spy(*args):
            cycle = real_extend(*args)
            orders.append(cycle.vertex_order)
            return cycle

        monkeypatch.setattr(dcycles, "_try_extend", spy)
        lr = LightpathRequest("D", "G", 2)
        granted, _ = provision_cycles(g, lr, path, cs, "w1", 1.0)
        assert granted is None
        assert orders == [("A", "B", "C", "D", "E", "F"), ("A", "B", "C", "D", "E", "F", "G")]
        assert snapshot(cs, g) == before

    def test_rollback_does_not_call_release_wp(self, monkeypatch):
        # release_wp is the departure path.  B-C gets a new cycle and C-D
        # extends it, then A_th = 1 rolls both back without it.
        g = pentagon_with_chord()
        g.links["B-C"].availability = 0.9
        g.links["C-D"].availability = 0.95
        path = hand_path(g, ["D", "C", "B"])
        cs = DCycleSet()
        before = snapshot(cs, g)
        calls = []
        real_release = dcycles.release_wp

        def spy(*args):
            calls.append(args)
            return real_release(*args)

        monkeypatch.setattr(dcycles, "release_wp", spy)
        lr = LightpathRequest("D", "B", 2)
        assert provision_cycles(g, lr, path, cs, "w1", 1.0)[0] is None
        assert calls == []
        assert snapshot(cs, g) == before


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
        assert set(list(cs.cycles.values())[0].protected) == {pos(g, "b-c")}
        assert g.busy_slot_count() == busy

    def test_release_all_round_trips_bitmaps(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        baseline = {lid: l.bitmap.bits for lid, l in g.links.items()}
        r1 = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        r2 = provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        for res, wp in ((r1, "w1"), (r2, "w2")):
            give_back(g, res.block, *(link.id for link in res.path.links))
            release_wp(cs, wp, res.protected_links, g)
        assert {lid: l.bitmap.bits for lid, l in g.links.items()} == baseline

    def test_release_frees_only_cycles_it_empties(self):
        # An idle cycle that the departing path never held is left alone.
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        idle = _build_cycle(cs, g, ["a", "b", "c"], 2, [])
        busy = g.busy_slot_count()
        release_wp(cs, "w1", res.protected_links, g)
        assert list(cs.cycles.values()) == [idle]
        assert g.busy_slot_count() == busy - 2 * 3
        for lid in idle.blocks:
            assert all_busy(g.links[lid].bitmap.bits, idle.blocks[lid])

    def test_unknown_or_foreign_entry_raises_and_changes_nothing(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        r1 = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        ((cid, lid),) = r1.protected_links
        before = copy.deepcopy(cs.cycles)
        bits = {l: link.bitmap.bits for l, link in g.links.items()}
        # "x-y" names no link of the graph.
        for granted in ([(cid, "b-c")], [(cid + 1, lid)], [(cid, "a-c")], [(cid, "x-y")]):
            with pytest.raises(UnknownGrantError):
                release_wp(cs, "w1", granted, g)
        # w2 may not release w1's entry, not even beside one of its own.
        with pytest.raises(UnknownGrantError):
            release_wp(cs, "w2", [(cid, "b-c"), (cid, lid)], g)
        assert cs.cycles == before
        assert {l: link.bitmap.bits for l, link in g.links.items()} == bits

    def test_repeated_entry_raises_and_changes_nothing(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        r1 = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        provision(g, cs, "w2", "b", "c", 2, a_th=0.99)
        (entry,) = r1.protected_links
        before = copy.deepcopy(cs.cycles)
        reserved = cs.reserved
        bits = {l: link.bitmap.bits for l, link in g.links.items()}
        with pytest.raises(UnknownGrantError):
            release_wp(cs, "w1", [entry, entry], g)
        # DCycle equality compares the protected maps too.
        assert cs.cycles == before
        assert cs.reserved == reserved
        assert {l: link.bitmap.bits for l, link in g.links.items()} == bits
        release_wp(cs, "w1", [entry], g)
        assert all("w1" not in c.protected.values() for c in cs.cycles.values())


class TestCheckedRingWrites:
    """Cycle blocks are written through ``spectrum.allocate``/``release``:
    a ring written over taken slots, or freed where a slot is already
    free, raises instead of corrupting the ledger."""

    def test_ring_over_taken_slots_raises(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        (cycle,) = cs.cycles.values()
        li = next(iter(cycle.ring))
        lid = g.link_index().links[li].id
        taken = SlotBlock(8, 2)
        take(g, taken, lid)
        bits = {l: link.bitmap.bits for l, link in g.links.items()}
        blocks, order, reserved = dict(cycle.blocks), cycle.vertex_order, cs.reserved
        # The ring moves the block of one link onto the taken slots: the
        # block it drops there must stay reserved.
        with pytest.raises(AllocationConflictError, match=f"^slots 0x300 on {lid} not free$"):
            _set_ring(g, cs, cycle, cycle.vertex_order, {**cycle.ring, li: taken})
        assert {l: link.bitmap.bits for l, link in g.links.items()} == bits
        assert cycle.blocks == blocks and cycle.vertex_order == order
        assert cs.reserved == reserved

    def test_release_where_a_cycle_slot_is_free_raises(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        res = provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        (cycle,) = cs.cycles.values()
        # A second cycle that w1 alone holds, emptied after the first.
        other = _build_cycle(cs, g, ["a", "b", "c"], 2, [])
        other.protected[pos(g, "b-c")] = "w1"
        granted = res.protected_links + [(other.id, "b-c")]
        lid, block = next(iter(other.blocks.items()))
        # A plain bit write frees one slot of the block behind the ledger.
        g.links[lid].bitmap.bits |= 1 << block.start
        before = snapshot(cs, g)
        # The first cycle's ring is freed, then the second's raises: the
        # first gets its ring back, both keep w1's grants, and a retry
        # raises the same.
        for _ in range(2):
            with pytest.raises(DoubleFreeError):
                release_wp(cs, "w1", granted, g)
            assert snapshot(cs, g) == before
        take(g, SlotBlock(block.start, 1), lid)
        release_wp(cs, "w1", granted, g)
        assert cs.is_empty() and cs.reserved == 0
        assert g.busy_slot_count() == 2 * res.path.hops

    def test_ring_that_frees_a_free_slot_raises(self):
        g = triangle(avail=0.95)
        cs = DCycleSet()
        provision(g, cs, "w1", "a", "b", 2, a_th=0.99)
        (cycle,) = cs.cycles.values()
        li, block = next(iter(cycle.ring.items()))
        lid = g.link_index().links[li].id
        g.links[lid].bitmap.bits |= 1 << block.start
        before = snapshot(cs, g)
        # The ring moves the block of that link to free slots: they are
        # taken first, then the release of the old block raises, and the
        # new slots must be free again.
        moved = SlotBlock(8, 2)
        with pytest.raises(DoubleFreeError):
            _set_ring(g, cs, cycle, cycle.vertex_order, {**cycle.ring, li: moved})
        assert snapshot(cs, g) == before
        assert all_free(g.links[lid].bitmap.bits, moved)


class TestCycleWellFormedness:
    def test_extension_preserves_simple_cycle(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        cycle = find_cycle_for(g, pos(g, "D-E"), 2, cs, k=5, replaced=[])
        assert len(set(cycle.vertex_order)) == len(cycle.vertex_order)
        # Key t of the ring joins vertex t and vertex t+1 mod n.
        order = cycle.vertex_order
        assert list(cycle.blocks) == [
            link_id(u, v) for u, v in zip(order, order[1:] + order[:1])
        ]
        # Each cycle vertex touches exactly two cycle links.
        degree = {}
        for lid in cycle.blocks:
            for vx in (g.links[lid].u, g.links[lid].v):
                degree[vx] = degree.get(vx, 0) + 1
        assert all(d == 2 for d in degree.values())
        assert set(degree) == set(cycle.vertex_order)


class TestCycleSetOrder:
    def test_dict_order_is_id_order_after_rolled_back_extension(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        ring = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        other = _build_cycle(cs, g, ["A", "B", "F"], 2, [])
        ring.protected[pos(g, "A-B")] = "w0"
        other.protected[pos(g, "B-F")] = "w0"
        before = cycle_fields(ring)
        # D-E is protected by extending the ring through D; A_th = 1 is
        # out of reach, so the extension is rolled back.
        res = provision(g, cs, "w1", "D", "E", 2, a_th=1.0)
        assert [l.id for l in res.path.links] == ["D-E"] and not res.protected
        assert list(cs.cycles) == sorted(cs.cycles) == [ring.id, other.id]
        assert list(cs.cycles.values()) == [ring, other]
        assert cs.cycles[ring.id] is ring and cycle_fields(ring) == before
        assert ring.vertex_order == ("A", "B", "C", "E", "F")
        added = _build_cycle(cs, g, ["C", "D", "E"], 2, [])
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
        link.id not in cycle.blocks
        and link.u in vertex_set
        and link.v in vertex_set
    )


def reference_admits(cycle, link, demand):
    if link.id in {cycle.table[li].id for li in cycle.protected}:
        return False
    if reference_is_straddling(cycle, link):
        return demand <= 2 * cycle.capacity_slots
    if link.id in cycle.blocks:
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
        for lid in [l for l, wp in cycle.protected.items() if wp == wp_id]:
            del cycle.protected[lid]
    reference_dismantle_unused(cs, g)


def reference_dismantle_unused(cs, g):
    for cycle in reference_ordered(cs):
        if not cycle.protected:
            for lid, block in cycle.blocks.items():
                give_back(g, block, lid)
            del cs.cycles[cycle.id]


def reference_try_extend(g, link, demand, cs):
    """The extension ``_try_extend`` would make, without writing it.

    A link whose two endpoints both lie on a cycle is skipped, and the
    on-cycle endpoint is found by scanning the vertex order.  Returns
    (cycle id, replaced vertex order, replaced blocks, new vertex order,
    new blocks), or None.
    """
    for cycle in reference_ordered(cs):
        order = cycle.vertex_order
        if link.u in order and link.v in order:
            continue
        u, v = link.u, link.v
        if v in order:
            u, v = v, u
        if u not in order:
            continue
        cap = cycle.capacity_slots
        if demand > cap or not is_feasible(link.bitmap.bits, cap):
            continue
        n = len(order)
        ui = order.index(u)
        for wi in ((ui - 1) % n, (ui + 1) % n):
            bridge = g.links.get(link_id(v, order[wi]))
            if bridge is None or not is_feasible(bridge.bitmap.bits, cap):
                continue
            new_order = list(order)
            new_order.insert(ui if wi == (ui - 1) % n else ui + 1, v)
            ring = [link_id(a, b) for a, b in zip(new_order, new_order[1:] + new_order[:1])]
            blocks = {
                lid: cycle.blocks.get(lid) or first_fit(g.links[lid].bitmap.bits, cap)
                for lid in ring
            }
            return cycle.id, order, cycle.blocks, tuple(new_order), blocks
    return None


def straddles_in_check_cycles(cs, g, cycle, link):
    """``check_cycles`` offers ``cycle`` for ``link`` up to twice the cycle's
    capacity, as it does for a straddler alone, and no further."""
    cap = cycle.capacity_slots
    return (
        check(cs, g, link, 2 * cap) is cycle
        and check(cs, g, link, 2 * cap + 1) is None
    )


def fresh_backup_availability(cycle, link, g):
    arcs = reference_arcs(cycle, link)
    arc_avails = [math.prod(g.links[lid].availability for lid in arc) for arc in arcs]
    if len(arc_avails) == 1:
        return arc_avails[0]
    return parallel_availability(arc_avails)


class TestDerivedCycleState:
    """The vertex mask and the arc cache follow every change of the ring."""

    def test_covers_after_build_extend_and_rollback(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        cd = g.links["C-D"]
        assert cycle.vertex_mask == vertex_mask_of(g, cycle.vertex_order)
        assert straddles_in_check_cycles(cs, g, cycle, g.links["B-F"])
        assert all(check(cs, g, cd, demand) is None for demand in range(1, 6))
        cycle.protected[pos(g, "A-B")] = "w0"
        extended = []
        assert _try_extend(g, pos(g, "D-E"), 2, cs, extended) is cycle
        assert cycle.vertex_order == ("A", "B", "C", "D", "E", "F")
        assert cycle.vertex_mask == vertex_mask_of(g, cycle.vertex_order)
        assert straddles_in_check_cycles(cs, g, cycle, g.links["C-E"])
        _rollback(g, cs, [], extended)
        assert cs.cycles[cycle.id] is cycle
        assert cycle.vertex_order == ("A", "B", "C", "E", "F")
        assert cycle.vertex_mask == vertex_mask_of(g, cycle.vertex_order)
        assert straddles_in_check_cycles(cs, g, cycle, g.links["B-F"])
        assert all(check(cs, g, cd, demand) is None for demand in range(1, 6))

    def test_arc_cache_cleared_by_extension_and_rollback(self):
        g = pentagon_with_chord()
        for i, link in enumerate(g.links.values()):
            link.availability = 0.9 + i / 100
        cs = DCycleSet()
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        edge, chord = g.links["A-B"], g.links["B-F"]
        for link in (edge, chord):
            got = cycle.backup_availability(pos(g, link.id))
            assert got == fresh_backup_availability(cycle, link, g)
        assert set(cycle.arc_avail) == {pos(g, "A-B"), pos(g, "B-F")}
        extended = []
        assert _try_extend(g, pos(g, "D-E"), 2, cs, extended) is cycle
        assert cycle.arc_avail == {}
        arc = cycle.backup_availability(pos(g, "A-B"))
        assert arc == fresh_backup_availability(cycle, edge, g)
        assert arc == math.prod(g.links[lid].availability for lid in list(cycle.blocks)[1:])
        assert set(cycle.arc_avail) == {pos(g, "A-B")}
        _rollback(g, cs, [], extended)
        assert cs.cycles[cycle.id] is cycle and cycle.arc_avail == {}
        got = cycle.backup_availability(pos(g, "A-B"))
        assert got == fresh_backup_availability(cycle, edge, g)

    def test_reserved_follows_build_extend_rollback_and_release(self):
        g = pentagon_with_chord()
        cs = DCycleSet()
        busy = g.busy_slot_count
        cycle = _build_cycle(cs, g, ["A", "B", "C", "E", "F"], 2, [])
        assert cs.reserved == busy() == 10
        cycle.protected[pos(g, "A-B")] = "w0"
        extended = []
        _try_extend(g, pos(g, "D-E"), 2, cs, extended)
        assert cs.reserved == busy() == 12
        _rollback(g, cs, [], extended)
        assert cs.reserved == busy() == 10
        release_wp(cs, "w0", [(cycle.id, "A-B")], g)
        assert cs.reserved == busy() == 0


class TestAgainstReference:
    @pytest.fixture(scope="class")
    def paused(self):
        """Deep copies of a dcycles run at six pause points, on NSFNET and
        then on the 24-node mesh, whose cycles are longer."""
        states = []
        for topology_text in (None, MESH24):
            sim = Simulation(Scenario(
                load_erlang=20, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
                n_requests=900, seed=4, mean_holding_s=1.0, topology_text=topology_text,
            ))
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
                    got = check(cs, g, link, demand)
                    assert got is reference_check_cycles(cs, link, demand)
                    hits += got is not None
                    straddlers += got is not None and reference_is_straddling(got, link)
        assert straddlers and hits > straddlers

    def test_covers_match_reference(self, paused):
        for cs, g, _ in paused:
            for cycle in cs.cycles.values():
                assert cycle.vertex_mask == vertex_mask_of(g, cycle.vertex_order)

    def test_try_extend_matches_reference(self, paused):
        extensions = misses = 0
        for state in paused:
            cs, g = copy.deepcopy(state[:2])
            before = snapshot(cs, g)
            top = 2 * max(c.capacity_slots for c in cs.cycles.values())
            for link, demand in itertools.product(g.links.values(), range(1, top + 1)):
                want = reference_try_extend(g, link, demand, cs)
                extended = []
                got = _try_extend(g, pos(g, link.id), demand, cs, extended)
                if want is None:
                    assert got is None and extended == []
                    misses += 1
                else:
                    cid, order, blocks, new_order, new_blocks = want
                    assert got is cs.cycles[cid]
                    assert got.vertex_order == new_order
                    assert list(got.blocks.items()) == list(new_blocks.items())
                    ((cycle, old_order, old_ring),) = extended
                    assert cycle is got and old_order == order
                    assert list(by_id(cycle, old_ring).items()) == list(blocks.items())
                    # Undone in place, so every case starts from the paused state.
                    _rollback(g, cs, [], extended)
                    extensions += 1
                assert snapshot(cs, g) == before
        assert extensions and misses

    def test_cached_arc_availability_is_exact(self, paused):
        cached = 0
        for cs, g, _ in paused:
            for cycle in cs.cycles.values():
                for li, a_bp in cycle.arc_avail.items():
                    link = g.link_index().links[li]
                    assert a_bp == fresh_backup_availability(cycle, link, g)
                    cached += 1
        assert cached

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


def test_arrivals_and_departures_build_no_link_id_or_link_tuple(monkeypatch):
    # Cycles name links by position: once the graph is built, protecting
    # and releasing neither builds a link-id string nor asks a candidate
    # path for its Link tuple.
    sim = Simulation(Scenario(
        load_erlang=20, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
        n_requests=1200, seed=1,
    ))
    calls = {"link_id": 0, "links": 0}

    def counted_link_id(u, v, real=topology.link_id):
        calls["link_id"] += 1
        return real(u, v)

    def counted_links(self, read=CandidatePath.links.fget):
        calls["links"] += 1
        return read(self)

    monkeypatch.setattr(topology, "link_id", counted_link_id)
    monkeypatch.setattr(CandidatePath, "links", property(counted_links))
    report = sim.run()
    assert report.protected_count > 0
    assert calls == {"link_id": 0, "links": 0}


def test_alternate_route_searches_leave_links_out_by_mask(monkeypatch):
    # The searches of find_cycle_for read the live bits and leave out the
    # protected link, then the first route's interior links, by ``without``:
    # the table they scan holds no path over those links.
    sim = Simulation(Scenario(
        load_erlang=20, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
        n_requests=1200, seed=1,
    ))
    signature = inspect.signature(dcycles.candidate_paths)
    calls = []

    def recorded(*args, real=dcycles.candidate_paths, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["bits"], bound.arguments.get("without", 0)))
        return real(*args, **kwargs)

    monkeypatch.setattr(dcycles, "candidate_paths", recorded)
    sim.run()
    assert calls
    assert [(bits, without) for bits, without in calls if bits is not None or not without] == []


class TestRollbackRestoresState:
    """A failed protection attempt leaves every cycle and link as it found them.

    With A_th = 1 every attempt exhausts the path's links and rolls back.
    The state before each attempt is the oracle.
    """

    def test_failed_provision_restores_state(self, monkeypatch):
        sim = Simulation(Scenario(
            load_erlang=20, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
            n_requests=600, seed=1,
        ))
        live_before = set()
        extensions = Counter()
        real_extend = dcycles._try_extend

        def spy(g, li, demand, cs, extended):
            cycle = real_extend(g, li, demand, cs, extended)
            if cycle is not None and cycle.id in live_before:
                granted_first = "probe" in cycle.protected.values()
                extensions["granted first" if granted_first else "plain"] += 1
            return cycle

        rolled_back = 0
        for pause in range(100, 601, 100):
            sim.run(max_arrivals=pause)
            cs, g = copy.deepcopy((sim.cycles, sim.graph))
            pairs = list(itertools.permutations(sorted(g.vertices), 2))
            with monkeypatch.context() as m:
                m.setattr(dcycles, "_try_extend", spy)
                for demand, (s, d) in itertools.product(range(1, 13), pairs):
                    before = snapshot(cs, g)
                    live_before = set(cs.cycles)
                    res = rsacs_with_protection(
                        g, LightpathRequest(s, d, demand), 1.0, cs, "probe"
                    )
                    if res.blocked:
                        continue
                    assert res.needs_protection and not res.protected
                    give_back(g, res.block, *(link.id for link in res.path.links))
                    assert snapshot(cs, g) == before
                    rolled_back += 1
        assert rolled_back
        # Extensions of live cycles were undone, some after a grant on the
        # same cycle in the same attempt.
        assert extensions["plain"] and extensions["granted first"]

    def test_an_arrival_that_raises_leaves_nothing_reserved(self, monkeypatch):
        # The search for a second cycle raises once the call has replaced a
        # ring: built or extended one for an earlier link of the path.
        class Boom(Exception):
            pass

        sim = Simulation(Scenario(
            load_erlang=20, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
            n_requests=1000, seed=3,
        ))
        sim.run(max_arrivals=300)
        before = []
        real_provision, real_find = sim_module.rsacs_with_protection, dcycles.find_cycle_for

        def snapshotting(*args):
            before.append(snapshot(sim.cycles, sim.graph))
            return real_provision(*args)

        def raising(g, li, demand, cs, k, replaced):
            if replaced:
                raise Boom(len(replaced))
            return real_find(g, li, demand, cs, k, replaced)

        monkeypatch.setattr(sim_module, "rsacs_with_protection", snapshotting)
        monkeypatch.setattr(dcycles, "find_cycle_for", raising)
        with pytest.raises(Boom):
            sim.run()
        assert len(before) > 1
        assert snapshot(sim.cycles, sim.graph) == before[-1]
        monkeypatch.undo()
        sim.run()
        assert not sim.live and sim.cycles.is_empty() and sim.cycles.reserved == 0
        assert sim.graph.busy_slot_count() == 0
