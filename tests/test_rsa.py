"""Candidate path enumeration and ranking, and the provisioning driver."""

import math

import pytest

from eonprotect.dsbpss import BackupRegistry
from eonprotect.rsa import (
    CandidatePath,
    LightpathRequest,
    NoProtection,
    ProvisionResult,
    candidate_paths,
    rsacs_with_protection,
)
from eonprotect.spectrum import SlotBlock, SpectrumBitmap, _run_mask, allocate, first_fit
from eonprotect.topology import (
    JitteredAvailability,
    NetworkGraph,
    build_nsfnet,
)


def take(g, lid, block):
    """Mark ``block`` busy on link ``lid``."""
    index = g.link_index()
    allocate(index.links, {index.position[lid]: block.mask()})


def triangle(slot_count=16, avail=0.99):
    g = NetworkGraph(slot_count=slot_count)
    for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
        g.add_link(u, v, 100, availability=avail)
    return g


class TestLightpathRequest:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            LightpathRequest("a", "a", 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            LightpathRequest("a", "b", 0)
        with pytest.raises(ValueError):
            LightpathRequest("a", "b", 1, k=0)

    @pytest.mark.parametrize("slots, k", [
        (1.5, 5), (2.0, 5), (True, 5), ("2", 5), (2, 2.5), (2, 3.0), (2, True),
    ])
    def test_rejects_counts_that_are_not_ints(self, slots, k):
        with pytest.raises(ValueError, match="must be ints"):
            LightpathRequest("a", "b", slots, k)

    def test_keyword_construction_and_defaults(self):
        lr = LightpathRequest(d="b", slots_needed=3, s="a")
        assert (lr.s, lr.d, lr.slots_needed) == ("a", "b", 3)
        assert (lr.k, lr.arrival_s, lr.holding_s) == (5, 0.0, 0.0)
        lr = LightpathRequest("a", "b", 3, holding_s=2.5, k=2, arrival_s=1.25)
        assert (lr.k, lr.arrival_s, lr.holding_s) == (2, 1.25, 2.5)

    def test_fields_cannot_be_assigned(self):
        lr = LightpathRequest("a", "b", 3)
        for name in ("s", "slots_needed", "k", "arrival_s"):
            with pytest.raises(AttributeError):
                setattr(lr, name, getattr(lr, name))
        with pytest.raises(AttributeError):
            lr.extra = 1
        assert not hasattr(lr, "__dict__")

    def test_replace_and_make_validate(self):
        lr = LightpathRequest("a", "b", 3, arrival_s=1.0)
        assert lr._replace(k=2) == LightpathRequest("a", "b", 3, 2, 1.0)
        assert LightpathRequest._make(("a", "b", 3, 5, 1.0, 0.0)) == lr
        for bad in (dict(d="a"), dict(slots_needed=0), dict(k=1.5)):
            with pytest.raises(ValueError):
                lr._replace(**bad)
        for bad in (("a", "a", 3), ("a", "b", 0), ("a", "b", 3, True)):
            with pytest.raises(ValueError):
                LightpathRequest._make(bad)

    def test_repr(self):
        assert repr(LightpathRequest("1", "14", 4, arrival_s=0.5)) == (
            "LightpathRequest(s='1', d='14', slots_needed=4, k=5,"
            " arrival_s=0.5, holding_s=0.0)"
        )

    def test_equal_requests_are_equal_and_hash_equal(self):
        a = LightpathRequest("a", "b", 3, 2, 1.0, 4.0)
        b = LightpathRequest(s="a", d="b", slots_needed=3, k=2, arrival_s=1.0, holding_s=4.0)
        assert a == b and hash(a) == hash(b)
        assert a != b._replace(holding_s=4.5)
        assert len({a, b, b._replace(k=3)}) == 2


class TestCandidatePaths:
    def test_triangle_two_paths_in_bfs_order(self):
        g = triangle()
        paths = candidate_paths(g, "a", "c", 1, k=2)
        assert [p.vertices for p in paths] == [("a", "c"), ("a", "b", "c")]

    def test_busy_direct_link_leaves_detour_only(self):
        g = triangle()
        take(g, "a-c", SlotBlock(0, g.slot_count))
        paths = candidate_paths(g, "a", "c", 1, k=2)
        assert [p.vertices for p in paths] == [("a", "b", "c")]

    def test_oversized_demand_returns_empty(self):
        g = triangle(slot_count=8)
        assert candidate_paths(g, "a", "c", 9, k=2) == []

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            candidate_paths(triangle(), "a", "z", 1, k=1)

    @pytest.mark.parametrize("slots_needed, k", [(4, 0), (4, -1), (0, 5), (-1, 5)])
    def test_rejects_counts_below_one(self, slots_needed, k):
        # Such a k would otherwise return every feasible path, and such a
        # demand every path at all.
        with pytest.raises(ValueError, match="must be >= 1"):
            candidate_paths(build_nsfnet(16), "1", "6", slots_needed, k)

    def test_respects_k_budget(self):
        g = build_nsfnet(16)
        for k in (1, 3, 5):
            assert len(candidate_paths(g, "1", "14", 2, k)) <= k

    def test_paths_distinct_and_hop_sorted(self):
        g = build_nsfnet(16)
        paths = candidate_paths(g, "2", "9", 2, k=5)
        seqs = [p.vertices for p in paths]
        assert len(set(seqs)) == len(seqs)
        hops = [p.hops for p in paths]
        assert hops == sorted(hops)

    def test_availability_recomputes_from_links(self):
        g = build_nsfnet(16, JitteredAvailability(0.99, seed=4))
        for p in candidate_paths(g, "1", "10", 3, k=5):
            assert p.availability == pytest.approx(
                math.prod(l.availability for l in p.links), abs=1e-12
            )

    def test_run_is_run_mask_of_link_intersection(self):
        g = triangle()
        take(g, "a-b", SlotBlock(0, 2))
        take(g, "b-c", SlotBlock(3, 2))
        (path,) = [
            p for p in candidate_paths(g, "a", "c", 2, k=3) if p.hops == 2
        ]
        bits = g.links["a-b"].bitmap.bits & g.links["b-c"].bitmap.bits
        assert path.run == _run_mask(bits, 2)
        assert path.first_block == first_fit(SpectrumBitmap(g.slot_count, bits), 2)
        assert path.first_block == SlotBlock(5, 2)

    def test_slotted_record_views_agree_with_positions_and_run(self):
        g = build_nsfnet(16, JitteredAvailability(0.99, seed=4))
        take(g, "1-2", SlotBlock(0, 5))
        paths = candidate_paths(g, "1", "10", 3, k=5)
        table = g.link_index().links
        for p in paths:
            assert not hasattr(p, "__dict__")
            assert p.links == tuple(table[li] for li in p.link_indices)
            assert p.hops == len(p.links) == len(p.vertices) - 1
            assert p.vertices[0] == "1" and p.vertices[-1] == "10"
            for (u, v), link in zip(zip(p.vertices, p.vertices[1:]), p.links):
                assert {u, v} == {link.u, link.v}
            start = (p.run & -p.run).bit_length() - 1
            assert p.first_block == SlotBlock(start, 3)
            common = (1 << g.slot_count) - 1
            for link in p.links:
                common &= link.bitmap.bits
            assert p.first_block == first_fit(SpectrumBitmap(g.slot_count, common), 3)
        # The busy slots on 1-2 move the first fit of the paths over it.
        assert {p.first_block.start for p in paths} == {0, 5}
        # The search always passes the availability it computed.
        p = paths[0]
        with pytest.raises(TypeError):
            CandidatePath(table, "1", p.link_indices, p.run, 3)


class TestRanking:
    """``candidate_paths`` returns its paths ranked: highest availability
    first, then fewer hops, then the lower vertex walk.  Each case runs on
    a search the structural-path table answers and on one that falls back
    to the BFS."""

    def walks(self, routes, fallback, fallbacks):
        """Vertex walks of an s-d search over ``routes``, (vertex walk,
        availability) pairs whose first link has the availability and the
        others 1.0.  Two s-d detours of four and five hops are left out by
        the search bits.  With k the number of routes the table answers;
        one more, and the table, cut after the four-hop detour, comes up
        short, so the search falls back."""
        s, d = routes[0][0][0], routes[0][0][-1]
        detours = ((s, "x1", "x2", "x3", d), (s, "y1", "y2", "y3", "y4", d))
        g = NetworkGraph(slot_count=4)
        for verts, avail in [*routes, *((v, 1.0) for v in detours)]:
            for i, (u, v) in enumerate(zip(verts, verts[1:])):
                g.add_link(u, v, 100, availability=1.0 if i else avail)
        index = g.link_index()
        bits = index.free_bits()
        for verts in detours:
            for u, v in zip(verts, verts[1:]):
                bits[index.between[u][v]] = 0
        paths = candidate_paths(g, s, d, 1, len(routes) + fallback, bits)
        assert fallbacks == ([(s, d, len(routes) + 1)] if fallback else [])
        return [p.vertices for p in paths]

    @pytest.mark.parametrize("fallback", [False, True], ids=["table", "bfs"])
    def test_strict_max_first(self, fallback, fallbacks):
        # Found a-b first, then a-c-b; a-c-b is more available.
        routes = [(("a", "b"), 0.98), (("a", "c", "b"), 0.99)]
        assert self.walks(routes, fallback, fallbacks) == [("a", "c", "b"), ("a", "b")]

    @pytest.mark.parametrize("fallback", [False, True], ids=["table", "bfs"])
    def test_tie_breaks_on_hops(self, fallback, fallbacks):
        # a-b and a-c-b tie on availability, behind a-d-e-b.
        routes = [(("a", "b"), 0.99), (("a", "c", "b"), 0.99), (("a", "d", "e", "b"), 0.995)]
        assert self.walks(routes, fallback, fallbacks) == [
            ("a", "d", "e", "b"), ("a", "b"), ("a", "c", "b"),
        ]

    @pytest.mark.parametrize("fallback", [False, True], ids=["table", "bfs"])
    def test_tie_breaks_on_vertex_walk(self, fallback, fallbacks):
        # 1-2-9 is added before 1-10-9, but "10" sorts before "2"; both
        # beat the direct 1-9.
        routes = [(("1", "9"), 0.9), (("1", "2", "9"), 0.99), (("1", "10", "9"), 0.99)]
        assert self.walks(routes, fallback, fallbacks) == [
            ("1", "10", "9"), ("1", "2", "9"), ("1", "9"),
        ]


class TestProvisionResult:
    def test_blocked_alone(self):
        r = ProvisionResult(blocked=True)
        assert r.blocked and r.path is None and r.block is None
        assert (r.a_p_max, r.a_pp_max) == (0.0, 0.0)
        assert not r.needs_protection and not r.protected
        assert r.backup_paths == [] and r.protected_links == []

    def test_positional_and_keyword_fields(self):
        block = SlotBlock(0, 2)
        r = ProvisionResult(False, None, block, 0.9, 0.95, True, False, ["bp"], ["l"])
        assert (r.blocked, r.block, r.a_p_max, r.a_pp_max) == (False, block, 0.9, 0.95)
        assert (r.needs_protection, r.protected) == (True, False)
        assert (r.backup_paths, r.protected_links) == (["bp"], ["l"])
        r = ProvisionResult(blocked=False, protected_links=[1], a_pp_max=0.5)
        assert (r.protected_links, r.a_pp_max, r.backup_paths) == ([1], 0.5, [])

    def test_each_result_gets_its_own_lists(self):
        a, b = ProvisionResult(blocked=False), ProvisionResult(blocked=False)
        a.backup_paths.append("bp")
        a.protected_links.append("l")
        assert b.backup_paths == [] and b.protected_links == []
        assert a.backup_paths is not b.backup_paths
        assert a.protected_links is not b.protected_links

    def test_slotted(self):
        r = ProvisionResult(blocked=True)
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.extra = 1


class TestRsacsWithProtection:
    def test_high_availability_needs_no_protection(self):
        g = triangle(avail=0.999)
        lr = LightpathRequest("a", "b", 2)
        res = rsacs_with_protection(g, lr, 0.9, BackupRegistry(), "w1")
        assert not res.blocked
        assert not res.needs_protection
        assert res.backup_paths == []
        # Only the working slots are allocated anywhere.
        assert g.busy_slot_count() == 2

    def test_blocked_when_nothing_fits(self):
        g = triangle(slot_count=4)
        for lid in g.links:
            take(g, lid, SlotBlock(0, 4))
        res = rsacs_with_protection(g, LightpathRequest("a", "c", 2), 0.9, NoProtection(), "w1")
        assert res.blocked

    def test_unreachable_threshold_keeps_working_path(self):
        # a_th=1.0 can never be met with finite availabilities; the working
        # path must survive while protection rolls back.
        g = triangle(avail=0.9)
        reg = BackupRegistry()
        lr = LightpathRequest("a", "c", 2)
        res = rsacs_with_protection(g, lr, 1.0, reg, "w1")
        assert not res.blocked
        assert res.needs_protection and not res.protected
        assert res.backup_paths == []
        assert reg.is_empty()
        assert g.busy_slot_count() == 2 * res.path.hops

    def test_mode_none_never_protects(self):
        g = triangle(avail=0.9)
        res = rsacs_with_protection(g, LightpathRequest("a", "c", 1), 0.999, NoProtection(), "w1")
        assert res.needs_protection and not res.protected

    def test_mode_none_offers_no_options(self):
        g = triangle(avail=0.9)
        protection = NoProtection()
        res = rsacs_with_protection(g, LightpathRequest("a", "c", 1), 0.999, protection, "w1")
        assert protection.options(g, res) == []

    def test_never_disturbs_existing_allocations(self):
        g = build_nsfnet(16)
        first = rsacs_with_protection(g, LightpathRequest("1", "5", 4), 0.5, NoProtection(), "w1")
        snapshot = {lid: l.bitmap.copy() for lid, l in g.links.items()}
        rsacs_with_protection(g, LightpathRequest("2", "9", 4), 0.5, NoProtection(), "w2")
        for link in first.path.links:
            busy = snapshot[link.id].busy_count()
            assert g.links[link.id].bitmap.is_busy(first.block)
            assert busy >= 4

    def test_rejects_bad_arguments(self):
        g = triangle()
        with pytest.raises(ValueError):
            rsacs_with_protection(g, LightpathRequest("a", "b", 1), 0.0, NoProtection(), "w")
