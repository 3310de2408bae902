"""Shared backup paths: sharing conditions, slot accounting, rollback."""

import copy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import eonprotect
from eonprotect.dsbpss import (
    BackupRegistry,
    SharingConflictError,
    UnknownClaimError,
    free_backup_slots,
    release_wp,
)
from eonprotect.rsa import LightpathRequest, rsacs_with_protection
from eonprotect.sim import Scenario, Simulation
from eonprotect.spectrum import SlotBlock, SpectrumBitmap
from eonprotect.topology import NetworkGraph

W1 = frozenset({"A-B", "B-C", "C-D"})


def six_node_net(slot_count=16, avail=0.9):
    """Two edge-disjoint routes between most pairs; supports shared backups.

    Working paths A-B-C-D and B-E can both be protected via the F-E corridor,
    sharing slots on link E-F.
    """
    g = NetworkGraph(slot_count=slot_count)
    for u, v in (
        ("A", "B"), ("B", "C"), ("C", "D"),
        ("A", "F"), ("F", "E"), ("E", "D"),
        ("B", "E"), ("B", "F"),
    ):
        g.add_link(u, v, 100, availability=avail)
    return g


def provision(g, reg, wp_id, s, d, slots, a_th):
    lr = LightpathRequest(s, d, slots)
    return rsacs_with_protection(g, lr, a_th, "dsbpss", wp_id, reg, None)


def search_bitmaps(g, bits):
    """Per-link search bits (in ``g.link_index()`` order) as bitmaps by link id."""
    return {
        lid: SpectrumBitmap(g.slot_count, bits[i])
        for lid, i in g.link_index().position.items()
    }


def live_backups(results):
    """``{wp_id: (wp_links, backups)}`` of the protected results by WP id."""
    return {
        wp_id: (res.path.link_ids(), res.backup_paths)
        for wp_id, res in results.items()
        if res.backup_paths
    }


def rebuilt_claims(wps):
    """``claims[b][f]`` rebuilt from the live backups, one WP per (b, f, slot)."""
    out = {}
    for wp_links, backups in wps.values():
        for bp in backups:
            mask = bp.block.mask()
            for link in bp.links:
                on_link = out.setdefault(link.id, {})
                for failed in wp_links:
                    assert not on_link.get(failed, 0) & mask
                    on_link[failed] = on_link.get(failed, 0) | mask
    return out


def assert_sharers_pairwise_disjoint(wps):
    """WPs whose backups hold the same (link, slot) share no link."""
    sharers = {}
    for wp_id, (_, backups) in wps.items():
        for bp in backups:
            for link in bp.links:
                for slot in range(bp.block.start, bp.block.end):
                    sharers.setdefault((link.id, slot), set()).add(wp_id)
    for ids in sharers.values():
        ids = sorted(ids)
        for i, w in enumerate(ids):
            for other in ids[i + 1 :]:
                assert not (wps[w][0] & wps[other][0])


class TestCanShare:
    def test_disjoint_newcomer_shares(self):
        reg = BackupRegistry()
        reg.claim("E-F", W1, SlotBlock(0, 3).mask())
        assert reg.shareable("E-F", frozenset({"B-E"})) == 0b111

    def test_shared_working_link_forbids(self):
        reg = BackupRegistry()
        reg.claim("E-F", frozenset({"B-C"}), SlotBlock(0, 3).mask())
        assert reg.shareable("E-F", frozenset({"B-C", "C-D"})) == 0
        with pytest.raises(SharingConflictError):
            reg.claim("E-F", frozenset({"B-C", "C-D"}), SlotBlock(2, 2).mask())

    def test_conflict_names_every_clashing_failure_and_changes_nothing(self):
        reg = BackupRegistry()
        reg.claim("E-F", frozenset({"C-D", "B-C"}), SlotBlock(0, 3).mask())
        claims = {b: dict(on_link) for b, on_link in reg.claims.items()}
        held = dict(reg.held)
        with pytest.raises(SharingConflictError) as err:
            reg.claim("E-F", frozenset({"C-D", "A-B", "B-C"}), SlotBlock(2, 2).mask())
        assert str(err.value) == (
            "slots 0xc on E-F already claimed for failures of ['B-C', 'C-D']"
        )
        assert reg.claims == claims and reg.held == held

    def test_unclaimed_slots_always_share(self):
        reg = BackupRegistry()
        mask = SlotBlock(0, 3).mask()
        reg.claim("E-F", W1, mask)
        # The last claim gone, every slot it held is free for anyone.
        assert reg.unclaim("E-F", W1, mask) == mask
        assert reg.is_empty()
        reg.claim("E-F", W1, mask)
        assert reg.claims == {"E-F": {lid: mask for lid in W1}}


class TestFreeBackupSlots:
    def test_empty_registry_is_identity(self):
        g = six_node_net()
        g.links["E-F"].bitmap.set_busy(SlotBlock(0, 4))
        bits = g.link_index().free_bits()
        before = list(bits)
        free_backup_slots(g, bits, BackupRegistry(), frozenset({"A-B"}))
        assert bits == before

    def test_shareable_group_bits_flip_in_copy_only(self):
        g = six_node_net()
        reg = BackupRegistry()
        block = SlotBlock(0, 3)
        g.links["E-F"].bitmap.set_busy(block)
        reg.claim("E-F", W1, block.mask())
        bits = g.link_index().free_bits()
        free_backup_slots(g, bits, reg, frozenset({"B-E"}))
        assert search_bitmaps(g, bits)["E-F"].is_free(block)
        assert g.links["E-F"].bitmap.is_busy(block)

    def test_conflicting_group_stays_busy(self):
        g = six_node_net()
        reg = BackupRegistry()
        block = SlotBlock(0, 3)
        g.links["E-F"].bitmap.set_busy(block)
        reg.claim("E-F", frozenset({"B-C"}), block.mask())
        bits = g.link_index().free_bits()
        free_backup_slots(g, bits, reg, frozenset({"B-C", "C-D"}))
        assert search_bitmaps(g, bits)["E-F"].is_busy(block)


class TestProvisioningAndSharing:
    def test_two_disjoint_wps_share_backup_slots(self):
        g = six_node_net()
        reg = BackupRegistry()
        # First working path A-B-C-D (0.9^3); one backup A-F-E-D lifts it
        # to 1-(1-0.729)^2 ~ 0.9266 >= 0.92.
        r1 = provision(g, reg, "w1", "A", "D", 3, a_th=0.92)
        assert r1.protected
        assert [bp.vertices for bp in r1.backup_paths] == [("A", "F", "E", "D")]
        assert g.links["E-F"].bitmap.busy_count() == 3

        # Second, link-disjoint working path B-E; its backup B-F-E reuses
        # two of those three slots on E-F, so the busy count stays at 3.
        r2 = provision(g, reg, "w2", "B", "E", 2, a_th=0.92)
        assert r2.protected
        assert [bp.vertices for bp in r2.backup_paths] == [("B", "F", "E")]
        assert g.links["E-F"].bitmap.busy_count() == 3

        # E-F holds w1's three slots for failures of its links and w2's two
        # for a failure of B-E; the two claimed by both are the shared ones.
        on_ef = reg.claims["E-F"]
        assert set(on_ef) == W1 | {"B-E"}
        assert all(on_ef[lid] == 0b111 for lid in W1)
        assert on_ef["B-E"] == 0b11

    def test_backups_link_disjoint_from_working_path(self):
        g = six_node_net()
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "A", "D", 2, a_th=0.95)
        working = res.path.link_ids()
        for bp in res.backup_paths:
            assert not (bp.link_ids() & working)

    def test_backups_avoid_working_link_that_holds_shareable_slots(self):
        # Slots 0-1 of a-c back up a WP over a-b, so a WP over a-c may share
        # them.  Offered as free, they would make a-c itself the best backup.
        g = NetworkGraph(slot_count=4)
        for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
            g.add_link(u, v, 100, availability=0.9)
        reg = BackupRegistry()
        reg.claim("a-c", frozenset({"a-b"}), SlotBlock(0, 2).mask())
        g.links["a-c"].bitmap.set_busy(SlotBlock(0, 2))
        res = provision(g, reg, "w1", "a", "c", 2, a_th=0.95)
        assert res.path.vertices == ("a", "c")
        assert [bp.vertices for bp in res.backup_paths] == [("a", "b", "c")]
        assert res.protected

    def test_one_backup_reaches_exact_threshold(self):
        g = six_node_net(avail=0.9)
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "B", "E", 2, a_th=0.97)
        # 1-(1-0.9)(1-0.81) = 0.981 >= 0.97 with a single backup.
        assert res.protected
        assert len(res.backup_paths) == 1
        assert res.a_pp_max == pytest.approx(0.981, abs=1e-12)

    def test_backup_uses_one_block_on_all_links(self):
        g = six_node_net()
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "A", "D", 3, a_th=0.92)
        for bp in res.backup_paths:
            for link in bp.links:
                assert g.links[link.id].bitmap.is_busy(bp.block)

    def test_rollback_when_no_disjoint_route_exists(self):
        g = NetworkGraph(slot_count=8)
        g.add_link("a", "b", 1, availability=0.9)
        g.add_link("b", "c", 1, availability=0.9)
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "a", "c", 2, a_th=0.99)
        assert not res.blocked and not res.protected
        assert res.backup_paths == []
        assert reg.is_empty()
        # Only the working path's slots remain.
        assert g.busy_slot_count() == 2 * res.path.hops

    def test_rollback_restores_existing_claims(self):
        g = six_node_net()
        reg = BackupRegistry()
        provision(g, reg, "w1", "A", "D", 3, a_th=0.92)
        claims_before = copy.deepcopy(reg.claims)
        held_before, reserved_before = dict(reg.held), reg.reserved
        bitmaps_before = {lid: l.bitmap.copy() for lid, l in g.links.items()}
        # Unreachable threshold forces a full rollback for w2, whose first
        # backup shared w1's slots on E-F.
        res = provision(g, reg, "w2", "B", "E", 2, a_th=1.0)
        assert res.backup_paths == []
        assert reg.claims == claims_before
        assert reg.held == held_before and reg.reserved == reserved_before
        working_w2 = {l.id for l in res.path.links}
        for lid, bmp in bitmaps_before.items():
            if lid not in working_w2:
                assert g.links[lid].bitmap == bmp

    def test_failed_attempt_claims_nothing(self, monkeypatch):
        g = six_node_net()
        reg = BackupRegistry()
        provision(g, reg, "w1", "A", "D", 3, a_th=0.92)
        claims_before = copy.deepcopy(reg.claims)
        held_before, reserved_before = dict(reg.held), reg.reserved
        bits_before = {lid: l.bitmap.bits for lid, l in g.links.items()}
        claimed = []
        real_claim = BackupRegistry.claim

        def spy(self, *args):
            claimed.append(args)
            return real_claim(self, *args)

        monkeypatch.setattr(BackupRegistry, "claim", spy)
        # w2 picks backups, one of them over w1's slots on E-F, but no stack
        # of backups reaches A_th = 1: the attempt must reserve nothing.
        res = provision(g, reg, "w2", "B", "E", 2, a_th=1.0)
        assert res.needs_protection and not res.protected
        assert claimed == []
        assert reg.claims == claims_before
        assert reg.held == held_before and reg.reserved == reserved_before
        for link in res.path.links:
            link.bitmap.set_free(res.block)
        assert {lid: l.bitmap.bits for lid, l in g.links.items()} == bits_before


class TestRelease:
    def build_shared_state(self):
        g = six_node_net()
        reg = BackupRegistry()
        results = {
            "w1": provision(g, reg, "w1", "A", "D", 3, a_th=0.92),
            "w2": provision(g, reg, "w2", "B", "E", 2, a_th=0.92),
        }
        return g, reg, live_backups(results)

    def test_sole_member_leaving_frees_slots(self):
        g = six_node_net()
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "A", "D", 3, a_th=0.92)
        release_wp(reg, res.path.link_ids(), res.backup_paths, g)
        assert reg.is_empty()
        assert g.busy_slot_count() == 3 * res.path.hops

    def test_one_of_two_sharers_keeps_slots_busy(self):
        g, reg, wps = self.build_shared_state()
        release_wp(reg, *wps.pop("w1"), g)
        # w2's shared block (2 slots) survives on E-F; w1's extra slot frees.
        assert g.links["E-F"].bitmap.busy_count() == 2
        assert all(not set(on_link) & W1 for on_link in reg.claims.values())
        assert reg.claims == rebuilt_claims(wps)

    def test_released_block_becomes_globally_shareable(self):
        g, reg, wps = self.build_shared_state()
        release_wp(reg, *wps["w1"], g)
        release_wp(reg, *wps["w2"], g)
        assert reg.is_empty()
        bits = g.link_index().free_bits()
        free_backup_slots(g, bits, reg, frozenset({"A-B"}))
        assert search_bitmaps(g, bits)["E-F"].bits.bit_count() == g.slot_count

    def test_unknown_wp_rejected(self):
        g, reg, wps = self.build_shared_state()
        (w1_links, w1_backups), (w2_links, w2_backups) = wps["w1"], wps["w2"]

        def state():
            return (
                copy.deepcopy(reg.claims), dict(reg.held), reg.reserved,
                {lid: link.bitmap.copy() for lid, link in g.links.items()},
            )

        # w1's backups under w2's links: no claim on A-F for a failure of B-E.
        before = state()
        with pytest.raises(UnknownClaimError):
            release_wp(reg, w2_links, w1_backups, g)
        assert state() == before
        # w1's own backup is claimed, w2's after it is not: checked before any change.
        with pytest.raises(UnknownClaimError):
            release_wp(reg, w1_links, w1_backups + w2_backups, g)
        assert state() == before
        # A second release of w1's backups, after w2 reused their E-F slots.
        release_wp(reg, w1_links, w1_backups, g)
        before = state()
        with pytest.raises(UnknownClaimError):
            release_wp(reg, w1_links, w1_backups, g)
        assert state() == before
        assert reg.claims == rebuilt_claims({"w2": wps["w2"]})


class TestClaimInvariant:
    def test_protected_wps_pairwise_disjoint_after_mutations(self):
        g = six_node_net()
        reg = BackupRegistry()
        wps = live_backups({
            "w1": provision(g, reg, "w1", "A", "D", 3, a_th=0.92),
            "w2": provision(g, reg, "w2", "B", "E", 2, a_th=0.92),
            "w3": provision(g, reg, "w3", "B", "E", 2, a_th=1.0),  # rolled back
        })
        assert set(wps) == {"w1", "w2"}
        assert_sharers_pairwise_disjoint(wps)
        assert reg.claims == rebuilt_claims(wps)
        release_wp(reg, *wps.pop("w1"), g)
        assert_sharers_pairwise_disjoint(wps)
        assert reg.claims == rebuilt_claims(wps)

    def test_claims_match_live_backups_at_pause_points(self):
        sim = Simulation(Scenario(
            load_erlang=20, a_th=0.99, mode="dsbpss", avg_link_availability=0.9,
            n_requests=600, seed=3, mean_holding_s=1.0,
        ))
        full = (1 << sim.graph.slot_count) - 1
        for pause in range(100, 601, 100):
            sim.run(max_arrivals=pause)
            reg = sim.registry
            wps = live_backups({c.id: c.result for c in sim.live.values()})
            assert_sharers_pairwise_disjoint(wps)
            rebuilt = rebuilt_claims(wps)
            assert reg.claims == rebuilt
            # held[b] is the OR of the claims on b, for exactly the claimed links.
            held_rebuilt = {}
            for lid, on_link in rebuilt.items():
                for bits in on_link.values():
                    held_rebuilt[lid] = held_rebuilt.get(lid, 0) | bits
            assert reg.held == held_rebuilt
            working, backup = {}, {}
            for conn in sim.live.values():
                for link in conn.result.path.links:
                    working[link.id] = working.get(link.id, 0) | conn.result.block.mask()
                for bp in conn.result.backup_paths:
                    for link in bp.links:
                        backup[link.id] = backup.get(link.id, 0) | bp.block.mask()
            for lid, link in sim.graph.links.items():
                held = 0
                for bits in reg.claims.get(lid, {}).values():
                    held |= bits
                assert held == backup.get(lid, 0)
                assert full & ~link.bitmap.bits == working.get(lid, 0) | held
        sim.run()
        assert sim.registry.is_empty() and sim.registry.held == {}

    def test_overlapping_claim_raises_under_optimize(self):
        # A claim left on E-F for a failure of A-B, with its slots never
        # marked busy, lets the search offer them to w1 over A-B-C-D.
        code = textwrap.dedent("""
            from eonprotect.dsbpss import BackupRegistry, SharingConflictError
            from eonprotect.rsa import LightpathRequest, rsacs_with_protection
            from eonprotect.topology import NetworkGraph
            g = NetworkGraph(slot_count=16)
            for u, v in (("A", "B"), ("B", "C"), ("C", "D"), ("A", "F"),
                         ("F", "E"), ("E", "D"), ("B", "E"), ("B", "F")):
                g.add_link(u, v, 100, availability=0.9)
            reg = BackupRegistry()
            reg.claims["E-F"] = {"A-B": 0b111}
            try:
                rsacs_with_protection(g, LightpathRequest("A", "D", 3), 0.92,
                                      "dsbpss", "w1", reg, None)
            except SharingConflictError:
                print("raised")
        """)
        src = str(Path(eonprotect.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": src}, check=True,
        )
        assert out.stdout.strip() == "raised"
