"""Candidate path enumeration, best-path selection, and the provisioning driver."""

import math

import pytest

from eonprotect.dsbpss import BackupRegistry
from eonprotect.rsa import (
    CandidatePath,
    LightpathRequest,
    NoProtection,
    candidate_paths,
    rsacs_with_protection,
    select_best,
)
from eonprotect.spectrum import SlotBlock, SpectrumBitmap, _run_mask, allocate, first_fit
from eonprotect.topology import (
    JitteredAvailability,
    NetworkGraph,
    build_nsfnet,
)


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
        allocate([g.links["a-c"].bitmap], SlotBlock(0, g.slot_count))
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
        allocate([g.links["a-b"].bitmap], SlotBlock(0, 2))
        allocate([g.links["b-c"].bitmap], SlotBlock(3, 2))
        (path,) = [
            p for p in candidate_paths(g, "a", "c", 2, k=3) if p.hops == 2
        ]
        bits = g.links["a-b"].bitmap.bits & g.links["b-c"].bitmap.bits
        assert path.run == _run_mask(bits, 2)
        assert path.first_block == first_fit(SpectrumBitmap(g.slot_count, bits), 2)
        assert path.first_block == SlotBlock(5, 2)

    def test_fields_built_on_first_read(self):
        g = build_nsfnet(16, JitteredAvailability(0.99, seed=4))
        paths = candidate_paths(g, "1", "10", 3, k=5)
        best = select_best(paths)
        # Jittered availabilities do not tie, so no walk was needed.
        built = {"vertices", "links", "first_block"}
        assert all(not built & set(vars(p)) for p in paths)
        assert best.first_block is best.first_block
        assert best.hops == len(best.links) == len(best.vertices) - 1
        assert set(vars(best)) >= built


class TestSelectBest:
    def mk(self, avail, verts):
        """The path over ``verts``, built as the search builds it, of
        availability ``avail``: its first link has it, the others 1.0."""
        g = NetworkGraph(slot_count=4)
        for i, (u, v) in enumerate(zip(verts, verts[1:])):
            g.add_link(u, v, 100, availability=1.0 if i else avail)
        index = g.link_index()
        path = tuple(index.position[g.link_between(u, v).id] for u, v in zip(verts, verts[1:]))
        # All four slots free, for a demand of one slot.
        return CandidatePath(index.links, verts[0], path, 0b1111, 1)

    def test_strict_max(self):
        lo = self.mk(0.98, ("a", "b"))
        hi = self.mk(0.99, ("a", "c", "b"))
        assert select_best([lo, hi]) is hi

    def test_tie_breaks_on_hops(self):
        short = self.mk(0.99, ("a", "b"))
        long = self.mk(0.99, ("a", "c", "b"))
        assert (short.hops, long.hops) == (1, 2)
        assert select_best([long, short]) is short

    def test_tie_breaks_on_vertex_order(self):
        p1 = self.mk(0.99, ("a", "b", "d"))
        p2 = self.mk(0.99, ("a", "c", "d"))
        assert p1.availability == p2.availability and p1.hops == p2.hops
        assert select_best([p2, p1]) is p1

    def test_singleton(self):
        p = self.mk(0.5, ("a", "b"))
        assert select_best([p]) is p

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])


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
        for link in g.links.values():
            allocate([link.bitmap], SlotBlock(0, 4))
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
