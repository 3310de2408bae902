"""Candidate path enumeration, best-path selection, and the provisioning driver."""

import math

import pytest

from eonprotect.dsbpss import BackupRegistry
from eonprotect.dcycles import DCycleSet
from eonprotect.rsa import (
    CandidatePath,
    LightpathRequest,
    candidate_paths,
    rsacs_with_protection,
    select_best,
)
from eonprotect.spectrum import SlotBlock, SpectrumBitmap
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


class TestCandidatePaths:
    def test_triangle_two_paths_in_bfs_order(self):
        g = triangle()
        paths = candidate_paths(g, "a", "c", 1, k=2)
        assert [p.vertices for p in paths] == [("a", "c"), ("a", "b", "c")]

    def test_busy_direct_link_leaves_detour_only(self):
        g = triangle()
        g.links["a-c"].bitmap.set_busy(SlotBlock(0, g.slot_count))
        paths = candidate_paths(g, "a", "c", 1, k=2)
        assert [p.vertices for p in paths] == [("a", "b", "c")]

    def test_oversized_demand_returns_empty(self):
        g = triangle(slot_count=8)
        assert candidate_paths(g, "a", "c", 9, k=2) == []

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            candidate_paths(triangle(), "a", "z", 1, k=1)

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

    def test_bitmap_is_link_intersection(self):
        g = triangle()
        g.links["a-b"].bitmap.set_busy(SlotBlock(0, 2))
        g.links["b-c"].bitmap.set_busy(SlotBlock(4, 2))
        (path,) = [
            p for p in candidate_paths(g, "a", "c", 1, k=3) if p.hops == 2
        ]
        bits = g.links["a-b"].bitmap.bits & g.links["b-c"].bitmap.bits
        assert path.bitmap == SpectrumBitmap(g.slot_count, bits)

    def test_fields_built_on_first_read(self):
        g = build_nsfnet(16, JitteredAvailability(0.99, seed=4))
        paths = candidate_paths(g, "1", "10", 3, k=5)
        best = select_best(paths)
        # Jittered availabilities do not tie, so no walk was needed.
        assert all(not {"vertices", "links", "bitmap"} & set(vars(p)) for p in paths)
        assert best.bitmap is best.bitmap
        assert best.hops == len(best.links) == len(best.vertices) - 1
        assert set(vars(best)) >= {"vertices", "links", "bitmap"}


class TestSelectBest:
    def mk(self, avail, verts):
        return CandidatePath(
            vertices=verts,
            links=(),
            bitmap=SpectrumBitmap(4),
            availability=avail,
        )

    def test_strict_max(self):
        lo = self.mk(0.98, ("a", "b"))
        hi = self.mk(0.99, ("a", "c", "b"))
        assert select_best([lo, hi]) is hi

    def test_tie_breaks_on_hops(self):
        short = self.mk(0.99, ("a", "b"))
        long = self.mk(0.99, ("a", "c", "b"))
        object.__setattr__(short, "links", (None,))
        object.__setattr__(long, "links", (None, None))
        assert select_best([long, short]) is short

    def test_tie_breaks_on_vertex_order(self):
        p1 = self.mk(0.99, ("a", "b", "d"))
        p2 = self.mk(0.99, ("a", "c", "d"))
        object.__setattr__(p1, "links", (None, None))
        object.__setattr__(p2, "links", (None, None))
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
        res = rsacs_with_protection(
            g, lr, 0.9, "dsbpss", "w1", BackupRegistry(), DCycleSet()
        )
        assert not res.blocked
        assert not res.needs_protection
        assert res.backup_paths == []
        # Only the working slots are allocated anywhere.
        assert g.busy_slot_count() == 2

    def test_blocked_when_nothing_fits(self):
        g = triangle(slot_count=4)
        for link in g.links.values():
            link.bitmap.set_busy(SlotBlock(0, 4))
        res = rsacs_with_protection(g, LightpathRequest("a", "c", 2), 0.9, "none", "w1")
        assert res.blocked

    def test_unreachable_threshold_keeps_working_path(self):
        # a_th=1.0 can never be met with finite availabilities; the working
        # path must survive while protection rolls back.
        g = triangle(avail=0.9)
        reg = BackupRegistry()
        lr = LightpathRequest("a", "c", 2)
        res = rsacs_with_protection(g, lr, 1.0, "dsbpss", "w1", reg, DCycleSet())
        assert not res.blocked
        assert res.needs_protection and not res.protected
        assert res.backup_paths == []
        assert reg.is_empty()
        assert g.busy_slot_count() == 2 * res.path.hops

    def test_mode_none_never_protects(self):
        g = triangle(avail=0.9)
        res = rsacs_with_protection(g, LightpathRequest("a", "c", 1), 0.999, "none", "w1")
        assert res.needs_protection and not res.protected

    def test_never_disturbs_existing_allocations(self):
        g = build_nsfnet(16)
        first = rsacs_with_protection(g, LightpathRequest("1", "5", 4), 0.5, "none", "w1")
        snapshot = {lid: l.bitmap.copy() for lid, l in g.links.items()}
        rsacs_with_protection(g, LightpathRequest("2", "9", 4), 0.5, "none", "w2")
        for link in first.path.links:
            busy = snapshot[link.id].size - snapshot[link.id].free_count()
            assert g.links[link.id].bitmap.is_busy(first.block)
            assert busy >= 4

    def test_rejects_bad_arguments(self):
        g = triangle()
        with pytest.raises(ValueError):
            rsacs_with_protection(g, LightpathRequest("a", "b", 1), 0.0, "none", "w")
        with pytest.raises(ValueError):
            rsacs_with_protection(g, LightpathRequest("a", "b", 1), 0.9, "magic", "w")
