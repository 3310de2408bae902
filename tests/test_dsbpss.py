"""Shared backup paths: sharing conditions, slot accounting, rollback."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eonprotect
from eonprotect.availability import ava_dsbpss_update
from eonprotect.dsbpss import (
    BackupPath,
    BackupRegistry,
    SharingConflictError,
    UnknownClaimError,
    free_backup_slots,
    provision_backups,
    release_wp,
)
from eonprotect.rsa import (
    LightpathRequest, candidate_paths, rsacs_with_protection, select_best,
)
from eonprotect.sim import Scenario, Simulation
from eonprotect.spectrum import (
    SlotBlock, SpectrumBitmap, allocate, first_fit, is_feasible, release,
)
from eonprotect.topology import NetworkGraph

W1 = frozenset({"A-B", "B-C", "C-D"})


SIX_NODE_LINKS = (
    ("A", "B"), ("B", "C"), ("C", "D"),
    ("A", "F"), ("F", "E"), ("E", "D"),
    ("B", "E"), ("B", "F"),
)


def six_node_net(slot_count=16, avail=0.9):
    """Two edge-disjoint routes between most pairs; supports shared backups.

    Working paths A-B-C-D and B-E can both be protected via the F-E corridor,
    sharing slots on link E-F.
    """
    g = NetworkGraph(slot_count=slot_count)
    for u, v in SIX_NODE_LINKS:
        g.add_link(u, v, 100, availability=avail)
    return g


def reversed_six_node_net(slot_count=16, avail=0.9):
    """``six_node_net`` with its links added in reverse id order.

    It has eight links, so no link's position equals the rank of its id:
    code that names a link by position where it means by id, or the
    reverse, gets another link.
    """
    g = NetworkGraph(slot_count=slot_count)
    for u, v in sorted(SIX_NODE_LINKS, key=sorted, reverse=True):
        g.add_link(u, v, 100, availability=avail)
    return g


def at(g, link_ids):
    """The positions of the links named, as a working path's positions."""
    position = g.link_index().position
    return tuple(sorted(position[lid] for lid in link_ids))


def ids(links):
    """The ids of ``links``."""
    return frozenset(link.id for link in links)


def provision(g, reg, wp_id, s, d, slots, a_th):
    lr = LightpathRequest(s, d, slots)
    return rsacs_with_protection(g, lr, a_th, reg, wp_id)


def search_bitmaps(g, bits):
    """Per-link search bits (in ``g.link_index()`` order) as bitmaps by link id."""
    return {
        lid: SpectrumBitmap(g.slot_count, bits[i])
        for lid, i in g.link_index().position.items()
    }


def packed_on(g, link_id, mask):
    """``mask`` in the packed field of one link."""
    return mask << g.link_index().position[link_id] * g.slot_count


def _pack(g, links, block):
    """The oracle of ``BackupPath.packed``: the block in the field of each link."""
    packed = 0
    for link in links:
        packed |= packed_on(g, link.id, block.mask())
    return packed


def unpacked_claims(reg, g):
    """The packed claims as ``{b: {f: bits}}`` by link id: slots on ``b``
    held for a failure of ``f``."""
    assert all(reg.claims.values()), "a failure link holds an empty claim"
    assert all(type(failed) is int for failed in reg.claims)
    field = (1 << g.slot_count) - 1
    out = {}
    past_last = len(g.links) * g.slot_count
    links = g.link_index().links
    for failed, packed in reg.claims.items():
        assert not packed >> past_last, "claim bits past the last link"
        for lid, i in g.link_index().position.items():
            on_link = packed >> i * g.slot_count & field
            if on_link:
                out.setdefault(lid, {})[links[failed].id] = on_link
    return out


def unpacked_held(reg, g):
    """The packed held slots as ``{b: bits}``, for the links holding any."""
    assert not reg.held >> len(g.links) * g.slot_count, "held bits past the last link"
    field = (1 << g.slot_count) - 1
    out = {}
    for lid, i in g.link_index().position.items():
        on_link = reg.held >> i * g.slot_count & field
        if on_link:
            out[lid] = on_link
    return out


def shareable(g, reg, link_id, wp_links):
    """Reserved slots on the link that a WP over ``wp_links`` may share."""
    bits = [0] * len(g.links)
    free_backup_slots(g, bits, reg, at(g, wp_links))
    return bits[g.link_index().position[link_id]]


def live_backups(results):
    """``{wp_id: (wp_links, backups)}`` of the protected results by WP id,
    ``wp_links`` the working path's link ids."""
    return {
        wp_id: (ids(res.path.links), res.backup_paths)
        for wp_id, res in results.items()
        if res.backup_paths
    }


def release_by_ids(reg, wp_links, backups, g):
    """``release_wp`` for a working path given by its link ids."""
    release_wp(reg, at(g, wp_links), backups, g)


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


def _or(values):
    out = 0
    for bits in values:
        out |= bits
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
        g = six_node_net()
        reg = BackupRegistry()
        reg.claim(g, at(g, W1), packed_on(g, "E-F", SlotBlock(0, 3).mask()))
        assert shareable(g, reg, "E-F", frozenset({"B-E"})) == 0b111

    def test_shared_working_link_forbids(self):
        g = six_node_net()
        reg = BackupRegistry()
        reg.claim(g, at(g, {"B-C"}), packed_on(g, "E-F", SlotBlock(0, 3).mask()))
        assert shareable(g, reg, "E-F", frozenset({"B-C", "C-D"})) == 0
        with pytest.raises(SharingConflictError):
            reg.claim(g, at(g, {"B-C", "C-D"}), packed_on(g, "E-F", SlotBlock(2, 2).mask()))

    def test_conflict_names_every_clashing_failure_and_changes_nothing(self):
        g = six_node_net()
        reg = BackupRegistry()
        reg.claim(g, at(g, {"C-D", "B-C"}), packed_on(g, "E-F", SlotBlock(0, 3).mask()))
        claims, held, reserved = dict(reg.claims), reg.held, reg.reserved
        with pytest.raises(SharingConflictError) as err:
            reg.claim(
                g, at(g, {"C-D", "A-B", "B-C"}),
                packed_on(g, "A-F", SlotBlock(2, 2).mask())
                | packed_on(g, "E-F", SlotBlock(2, 2).mask()),
            )
        assert str(err.value) == (
            "slots 0xc on E-F already claimed for failures of ['B-C', 'C-D']"
        )
        assert reg.claims == claims and reg.held == held and reg.reserved == reserved

    def test_unclaimed_slots_always_share(self):
        g = six_node_net()
        reg = BackupRegistry()
        block = SlotBlock(0, 3)
        links = (g.links["E-F"],)
        backup = BackupPath("w1/bp1", ("E", "F"), links, block, _pack(g, links, block))
        reg.claim(g, at(g, W1), packed_on(g, "E-F", block.mask()))
        allocate([g.links["E-F"].bitmap], block)
        # The last claim gone, every slot it held is free for anyone.
        release_wp(reg, at(g, W1), [backup], g)
        assert g.links["E-F"].bitmap.is_free(block)
        assert reg.is_empty() and reg.held == 0 and reg.reserved == 0
        reg.claim(g, at(g, W1), packed_on(g, "E-F", block.mask()))
        assert unpacked_claims(reg, g) == {"E-F": {lid: block.mask() for lid in W1}}


class TestFreeBackupSlots:
    def test_empty_registry_is_identity(self):
        g = six_node_net()
        allocate([g.links["E-F"].bitmap], SlotBlock(0, 4))
        bits = g.link_index().free_bits()
        before = list(bits)
        free_backup_slots(g, bits, BackupRegistry(), at(g, {"A-B"}))
        assert bits == before

    def test_shareable_group_bits_flip_in_copy_only(self):
        g = six_node_net()
        reg = BackupRegistry()
        block = SlotBlock(0, 3)
        allocate([g.links["E-F"].bitmap], block)
        reg.claim(g, at(g, W1), packed_on(g, "E-F", block.mask()))
        bits = g.link_index().free_bits()
        free_backup_slots(g, bits, reg, at(g, {"B-E"}))
        assert search_bitmaps(g, bits)["E-F"].is_free(block)
        assert g.links["E-F"].bitmap.is_busy(block)

    def test_conflicting_group_stays_busy(self):
        g = six_node_net()
        reg = BackupRegistry()
        block = SlotBlock(0, 3)
        allocate([g.links["E-F"].bitmap], block)
        reg.claim(g, at(g, {"B-C"}), packed_on(g, "E-F", block.mask()))
        bits = g.link_index().free_bits()
        free_backup_slots(g, bits, reg, at(g, {"B-C", "C-D"}))
        assert search_bitmaps(g, bits)["E-F"].is_busy(block)


class TestPositionsNotInIdOrder:
    """On a graph whose link positions do not follow id order, errors name
    links by id and sharing matches the per-link reference."""

    def state(self, reg, g):
        return (
            dict(reg.claims), reg.held, reg.reserved,
            {lid: link.bitmap.bits for lid, link in g.links.items()},
        )

    def test_positions_differ_from_id_ranks(self):
        g = reversed_six_node_net()
        ranks = {lid: i for i, lid in enumerate(sorted(g.links))}
        position = g.link_index().position
        assert all(position[lid] != ranks[lid] for lid in g.links)

    def test_conflict_names_clashing_failures_sorted_by_id(self):
        g = reversed_six_node_net()
        reg = BackupRegistry()
        # C-D and B-C share slots 0-2 of E-F; A-B holds slots 4-5.
        reg.claim(g, at(g, {"C-D"}), packed_on(g, "E-F", SlotBlock(0, 3).mask()))
        reg.claim(g, at(g, {"B-C"}), packed_on(g, "E-F", SlotBlock(0, 3).mask()))
        reg.claim(g, at(g, {"A-B"}), packed_on(g, "E-F", SlotBlock(4, 2).mask()))
        before = self.state(reg, g)
        with pytest.raises(SharingConflictError) as err:
            reg.claim(
                g, at(g, {"A-B", "B-C", "C-D", "D-E"}),
                packed_on(g, "E-F", SlotBlock(2, 1).mask()),
            )
        assert str(err.value) == (
            "slots 0x4 on E-F already claimed for failures of ['B-C', 'C-D']"
        )
        assert self.state(reg, g) == before

    def test_unknown_claim_names_the_link_id(self):
        g = reversed_six_node_net()
        reg = BackupRegistry()
        block = SlotBlock(0, 3)
        links = (g.links["E-F"],)
        backup = BackupPath("w1/bp1", ("E", "F"), links, block, _pack(g, links, block))
        reg.claim(g, at(g, {"B-C"}), backup.packed)
        allocate([g.links["E-F"].bitmap], block)
        before = self.state(reg, g)
        with pytest.raises(UnknownClaimError) as err:
            release_wp(reg, at(g, {"A-B", "B-C"}), [backup], g)
        assert str(err.value) == "slots 0x7 on E-F not held for this WP"
        assert self.state(reg, g) == before
        release_wp(reg, at(g, {"B-C"}), [backup], g)
        assert reg.is_empty() and g.links["E-F"].bitmap.is_free(block)

    def test_free_backup_slots_matches_per_link_reference(self):
        g = reversed_six_node_net()
        reg, ref = BackupRegistry(), ReferenceRegistry()
        held = [
            ({"A-B", "B-C", "C-D"}, ("A-F", "E-F", "D-E"), SlotBlock(0, 3)),
            ({"B-E"}, ("B-F", "E-F"), SlotBlock(1, 2)),
            ({"C-D"}, ("B-C",), SlotBlock(5, 4)),
        ]
        for wp_links, on, block in held:
            links = tuple(g.links[lid] for lid in on)
            backup = BackupPath("bp", (), links, block, _pack(g, links, block))
            reg.claim(g, at(g, wp_links), backup.packed)
            reference_claim_backups(ref, wp_links, [backup])
            # Shared backup slots are set busy again: a plain bit write.
            for link in links:
                link.bitmap.bits &= ~block.mask()
        assert unpacked_claims(reg, g) == ref.claims
        for newcomer in ({"A-B"}, {"B-E", "E-F"}, {"C-D"}, {"D-E"}, set(g.links)):
            bits, ref_bits = g.link_index().free_bits(), g.link_index().free_bits()
            free_backup_slots(g, bits, reg, at(g, newcomer))
            reference_free_backup_slots(g, ref_bits, ref, newcomer)
            assert bits == ref_bits


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
        on_ef = unpacked_claims(reg, g)["E-F"]
        assert set(on_ef) == W1 | {"B-E"}
        assert all(on_ef[lid] == 0b111 for lid in W1)
        assert on_ef["B-E"] == 0b11

    def test_backups_link_disjoint_from_working_path(self):
        g = six_node_net()
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "A", "D", 2, a_th=0.95)
        working = ids(res.path.links)
        for bp in res.backup_paths:
            assert not (ids(bp.links) & working)

    def test_backups_avoid_working_link_that_holds_shareable_slots(self):
        # Slots 0-1 of a-c back up a WP over a-b, so a WP over a-c may share
        # them.  Offered as free, they would make a-c itself the best backup.
        g = NetworkGraph(slot_count=4)
        for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
            g.add_link(u, v, 100, availability=0.9)
        reg = BackupRegistry()
        reg.claim(g, at(g, {"a-b"}), packed_on(g, "a-c", SlotBlock(0, 2).mask()))
        allocate([g.links["a-c"].bitmap], SlotBlock(0, 2))
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

    def test_second_backup_skips_the_window_the_first_took(self):
        # WP a-b; backups a-c-b (0.81, lifting it to 0.981) and a-c-d-b
        # (0.729, to 0.99485) both cross a-c.  The second was found with
        # slot 0 free on a-c, which the first backup then took.
        g = NetworkGraph(slot_count=4)
        for u, v in (("a", "b"), ("a", "c"), ("c", "b"), ("c", "d"), ("d", "b")):
            g.add_link(u, v, 100, availability=0.9)
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "a", "b", 1, a_th=0.99)
        assert res.path.vertices == ("a", "b") and res.protected
        assert [(bp.vertices, bp.block) for bp in res.backup_paths] == [
            (("a", "c", "b"), SlotBlock(0, 1)),
            (("a", "c", "d", "b"), SlotBlock(1, 1)),
        ]
        assert g.links["a-c"].bitmap.to_string() == "0011"
        assert g.links["b-d"].bitmap.to_string() == "1011"

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
        claims_before = unpacked_claims(reg, g)
        held_before, reserved_before = unpacked_held(reg, g), reg.reserved
        bitmaps_before = {lid: l.bitmap.copy() for lid, l in g.links.items()}
        # Unreachable threshold forces a full rollback for w2, whose first
        # backup shared w1's slots on E-F.
        res = provision(g, reg, "w2", "B", "E", 2, a_th=1.0)
        assert res.backup_paths == []
        assert unpacked_claims(reg, g) == claims_before
        assert unpacked_held(reg, g) == held_before and reg.reserved == reserved_before
        working_w2 = {l.id for l in res.path.links}
        for lid, bmp in bitmaps_before.items():
            if lid not in working_w2:
                assert g.links[lid].bitmap == bmp

    def test_failed_attempt_claims_nothing(self, monkeypatch):
        g = six_node_net()
        reg = BackupRegistry()
        provision(g, reg, "w1", "A", "D", 3, a_th=0.92)
        claims_before = unpacked_claims(reg, g)
        held_before, reserved_before = unpacked_held(reg, g), reg.reserved
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
        assert unpacked_claims(reg, g) == claims_before
        assert unpacked_held(reg, g) == held_before and reg.reserved == reserved_before
        for link in res.path.links:
            release([link.bitmap], res.block)
        assert {lid: l.bitmap.bits for lid, l in g.links.items()} == bits_before


class TestOptions:
    def test_one_option_per_backup_in_backup_order(self):
        # WP a-b with backups a-c-b and then a-c-d-b (see
        # test_second_backup_skips_the_window_the_first_took).
        g = NetworkGraph(slot_count=4)
        for u, v in (("a", "b"), ("a", "c"), ("c", "b"), ("c", "d"), ("d", "b")):
            g.add_link(u, v, 100, availability=0.9)
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "a", "b", 1, a_th=0.99)
        position = g.link_index().position

        def mask(ids):
            return _or(1 << position[lid] for lid in ids)

        first, second = res.backup_paths
        assert reg.options(g, res) == [
            (mask(["a-b"]), mask(["a-c", "b-c"]), first.packed),
            (mask(["a-b"]), mask(["a-c", "c-d", "b-d"]), second.packed),
        ]
        for bp in res.backup_paths:
            assert bp.packed == _pack(g, bp.links, bp.block)

    def test_path_without_backups_has_no_options(self):
        g = six_node_net()
        reg = BackupRegistry()
        res = provision(g, reg, "w1", "B", "E", 2, a_th=0.5)
        assert not res.needs_protection
        assert reg.options(g, res) == []


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
        release_wp(reg, res.path.link_indices, res.backup_paths, g)
        assert reg.is_empty()
        assert g.busy_slot_count() == 3 * res.path.hops

    def test_one_of_two_sharers_keeps_slots_busy(self):
        g, reg, wps = self.build_shared_state()
        release_by_ids(reg, *wps.pop("w1"), g)
        # w2's shared block (2 slots) survives on E-F; w1's extra slot frees.
        assert g.links["E-F"].bitmap.busy_count() == 2
        claims = unpacked_claims(reg, g)
        assert all(not set(on_link) & W1 for on_link in claims.values())
        assert claims == rebuilt_claims(wps)

    def test_released_block_becomes_globally_shareable(self):
        g, reg, wps = self.build_shared_state()
        release_by_ids(reg, *wps["w1"], g)
        release_by_ids(reg, *wps["w2"], g)
        assert reg.is_empty()
        bits = g.link_index().free_bits()
        free_backup_slots(g, bits, reg, at(g, {"A-B"}))
        assert search_bitmaps(g, bits)["E-F"].bits.bit_count() == g.slot_count

    def test_unknown_wp_rejected(self):
        g, reg, wps = self.build_shared_state()
        (w1_links, w1_backups), (w2_links, w2_backups) = wps["w1"], wps["w2"]

        def state():
            return (
                unpacked_claims(reg, g), unpacked_held(reg, g), reg.reserved,
                {lid: link.bitmap.copy() for lid, link in g.links.items()},
            )

        # w1's backups under w2's links: no claim on A-F for a failure of B-E.
        before = state()
        with pytest.raises(UnknownClaimError):
            release_wp(reg, at(g, w2_links), w1_backups, g)
        assert state() == before
        # w1's own backup is claimed, w2's after it is not: checked before any change.
        with pytest.raises(UnknownClaimError):
            release_wp(reg, at(g, w1_links), w1_backups + w2_backups, g)
        assert state() == before
        # A second release of w1's backups, after w2 reused their E-F slots.
        release_wp(reg, at(g, w1_links), w1_backups, g)
        before = state()
        with pytest.raises(UnknownClaimError):
            release_wp(reg, at(g, w1_links), w1_backups, g)
        assert state() == before
        assert unpacked_claims(reg, g) == rebuilt_claims({"w2": wps["w2"]})

    def test_backup_passed_twice_rejected(self):
        g, reg, wps = self.build_shared_state()
        w1_links, w1_backups = wps["w1"]
        before = (
            unpacked_claims(reg, g), unpacked_held(reg, g), reg.reserved,
            {lid: link.bitmap.copy() for lid, link in g.links.items()},
        )
        with pytest.raises(UnknownClaimError):
            release_wp(reg, at(g, w1_links), w1_backups + w1_backups, g)
        after = (
            unpacked_claims(reg, g), unpacked_held(reg, g), reg.reserved,
            {lid: link.bitmap.copy() for lid, link in g.links.items()},
        )
        assert after == before and reg.reserved == 11
        release_wp(reg, at(g, w1_links), w1_backups, g)
        assert unpacked_claims(reg, g) == rebuilt_claims({"w2": wps["w2"]})

    def test_share_and_release_with_fields_that_end_mid_byte(self):
        # 13 slots a link: each link's field of the packed claims starts
        # and ends inside a byte.
        g = six_node_net(slot_count=13)
        reg = BackupRegistry()
        results = {
            "w1": provision(g, reg, "w1", "A", "D", 3, a_th=0.92),
            "w2": provision(g, reg, "w2", "B", "E", 2, a_th=0.92),
        }
        wps = live_backups(results)
        assert set(wps) == {"w1", "w2"}
        assert g.links["E-F"].bitmap.busy_count() == 3
        claims = unpacked_claims(reg, g)
        assert claims == rebuilt_claims(wps)
        held = {lid: _or(on_link.values()) for lid, on_link in claims.items()}
        assert unpacked_held(reg, g) == held
        assert reg.reserved == sum(bits.bit_count() for bits in held.values())
        # Every link's search bits are its free bits plus the held slots no
        # claim for a failure of the newcomer's links blocks.
        for newcomer in (frozenset({"A-B"}), frozenset({"B-E", "E-F"}), W1):
            bits = g.link_index().free_bits()
            free_backup_slots(g, bits, reg, at(g, newcomer))
            for lid, i in g.link_index().position.items():
                blocked = _or(claims.get(lid, {}).get(f, 0) for f in newcomer)
                want = g.links[lid].bitmap.bits | held.get(lid, 0) & ~blocked
                assert bits[i] == want
        release_by_ids(reg, *wps.pop("w1"), g)
        assert unpacked_claims(reg, g) == rebuilt_claims(wps)
        assert g.links["E-F"].bitmap.busy_count() == 2
        release_by_ids(reg, *wps.pop("w2"), g)
        assert reg.is_empty() and reg.held == 0 and reg.reserved == 0
        # Only the working paths' slots remain busy.
        for lid, link in g.links.items():
            assert link.bitmap.busy_count() == sum(
                res.block.length for res in results.values() if lid in ids(res.path.links)
            )

    @pytest.mark.parametrize("slot_count,low,high,kept", [
        (1, SlotBlock(0, 1), SlotBlock(0, 1), None),
        (13, SlotBlock(0, 13), SlotBlock(9, 4), SlotBlock(5, 4)),
    ])
    def test_release_writes_back_the_first_and_last_fields(
        self, slot_count, low, high, kept
    ):
        # Freed bits in the fields at positions 0 and 1, both whole fields,
        # and in the last link's field, up to its top slot: a write-back
        # that skips a field or masks with the wrong width sets a wrong bit.
        g = six_node_net(slot_count=slot_count)
        links = g.link_index().links
        first, second, last = links[0], links[1], links[-1]
        for link in links:
            link.bitmap.bits = 0
        reg = BackupRegistry()
        wp = (3,)
        backups = [
            BackupPath("w/bp1", (), (first, second), low, _pack(g, (first, second), low)),
            BackupPath("w/bp2", (), (last,), high, _pack(g, (last,), high)),
        ]
        reg.claim(g, wp, backups[0].packed | backups[1].packed)
        kept_mask = 0
        if kept is not None:
            # A sharer over another link keeps the middle of the second field.
            kept_mask = kept.mask()
            reg.claim(g, (4,), packed_on(g, second.id, kept_mask))
        release_wp(reg, wp, backups, g)
        want = {link.id: 0 for link in links}
        want[first.id] = low.mask()
        want[second.id] = low.mask() & ~kept_mask
        want[last.id] = high.mask()
        assert {link.id: link.bitmap.bits for link in links} == want
        assert reg.held == packed_on(g, second.id, kept_mask)
        assert reg.reserved == kept_mask.bit_count()


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
        assert unpacked_claims(reg, g) == rebuilt_claims(wps)
        release_by_ids(reg, *wps.pop("w1"), g)
        assert_sharers_pairwise_disjoint(wps)
        assert unpacked_claims(reg, g) == rebuilt_claims(wps)

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
            claims = unpacked_claims(reg, sim.graph)
            assert claims == rebuilt
            # held[b] is the OR of the claims on b, for exactly the claimed links.
            held_rebuilt = {}
            for lid, on_link in rebuilt.items():
                for bits in on_link.values():
                    held_rebuilt[lid] = held_rebuilt.get(lid, 0) | bits
            assert unpacked_held(reg, sim.graph) == held_rebuilt
            working, backup = {}, {}
            for conn in sim.live.values():
                for link in conn.result.path.links:
                    working[link.id] = working.get(link.id, 0) | conn.result.block.mask()
                for bp in conn.result.backup_paths:
                    for link in bp.links:
                        backup[link.id] = backup.get(link.id, 0) | bp.block.mask()
            for lid, link in sim.graph.links.items():
                held = 0
                for bits in claims.get(lid, {}).values():
                    held |= bits
                assert held == backup.get(lid, 0)
                assert full & ~link.bitmap.bits == working.get(lid, 0) | held
        sim.run()
        assert sim.registry.is_empty() and sim.registry.held == 0

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
            position = g.link_index().position
            reg.claims[position["A-B"]] = 0b111 << position["E-F"] * g.slot_count
            try:
                rsacs_with_protection(g, LightpathRequest("A", "D", 3), 0.92, reg, "w1")
            except SharingConflictError:
                print("raised")
        """)
        src = str(Path(eonprotect.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": src}, check=True,
        )
        assert out.stdout.strip() == "raised"


# The per-link registry that the packed one replaced, kept as the reference:
# ``claims[b][f]`` is the int bitmap of the slots on backup link ``b`` held
# for the live WP crossing ``f``, and ``held[b]`` is their OR.  Its
# provisioning checks every backup link before it claims any, and its
# release rejects a slot named twice, as the packed code does.

class ReferenceRegistry:
    def __init__(self):
        self.claims = {}
        self.held = {}
        self.reserved = 0

    def is_empty(self):
        return not self.claims

    def shareable(self, link_id, wp_links):
        held = self.held.get(link_id, 0)
        if not held:
            return 0
        on_link = self.claims[link_id]
        blocked = 0
        for failed in wp_links:
            blocked |= on_link.get(failed, 0)
        return held & ~blocked

    def check(self, link_id, wp_links, mask):
        on_link = self.claims.get(link_id, {})
        if any(on_link.get(failed, 0) & mask for failed in wp_links):
            raise SharingConflictError(f"slots {mask:#x} on {link_id}")

    def claim(self, link_id, wp_links, mask):
        self.check(link_id, wp_links, mask)
        on_link = self.claims.get(link_id, {})
        for failed in wp_links:
            on_link[failed] = on_link.get(failed, 0) | mask
        self.claims[link_id] = on_link
        held = self.held.get(link_id, 0)
        self.reserved += (mask & ~held).bit_count()
        self.held[link_id] = held | mask

    def unclaim(self, link_id, wp_links, mask):
        on_link = self.claims[link_id]
        for failed in wp_links:
            left = on_link[failed] & ~mask
            if left:
                on_link[failed] = left
            else:
                del on_link[failed]
        held = 0
        for bits in on_link.values():
            held |= bits
        if on_link:
            self.held[link_id] = held
        else:
            del self.claims[link_id]
            del self.held[link_id]
        freed = mask & ~held
        self.reserved -= freed.bit_count()
        return freed


def reference_claim_backups(reg, wp_links, backups):
    for bp in backups:
        for link in bp.links:
            reg.check(link.id, wp_links, bp.block.mask())
    for bp in backups:
        for link in bp.links:
            reg.claim(link.id, wp_links, bp.block.mask())


def reference_free_backup_slots(g, bits, reg, new_wp_links):
    position = g.link_index().position
    for lid in reg.held:
        bits[position[lid]] |= reg.shareable(lid, new_wp_links)


def reference_provision_backups(g, lr, best_path, reg, wp_id, a_th):
    wp_links = ids(best_path.links)
    index = g.link_index()
    bits = index.free_bits()
    reference_free_backup_slots(g, bits, reg, wp_links)
    for link in best_path.links:
        bits[index.position[link.id]] = 0
    candidates = candidate_paths(g, lr.s, lr.d, lr.slots_needed, lr.k, bits)
    a_pp = best_path.availability
    backups = []
    while a_pp < a_th:
        if not candidates:
            return [], best_path.availability
        chosen = select_best(candidates)
        candidates.remove(chosen)
        positions = [index.position[link.id] for link in chosen.links]
        common = (1 << g.slot_count) - 1
        for li in positions:
            common &= bits[li]
        live = SpectrumBitmap(g.slot_count, common)
        if not is_feasible(live, lr.slots_needed):
            continue
        block = first_fit(live, lr.slots_needed)
        for li in positions:
            bits[li] &= ~block.mask()
        backups.append(BackupPath(
            f"{wp_id}/bp{len(backups) + 1}", chosen.vertices, chosen.links, block,
            _pack(g, chosen.links, block),
        ))
        a_pp = ava_dsbpss_update(a_pp, chosen.availability)
    reference_claim_backups(reg, wp_links, backups)
    # Shared backup slots are set busy again: a plain bit write.
    for bp in backups:
        for link in bp.links:
            link.bitmap.bits &= ~bp.block.mask()
    return backups, a_pp


def reference_release_wp(reg, wp_links, backups, g):
    named = {}
    for bp in backups:
        mask = bp.block.mask()
        for link in bp.links:
            on_link = reg.claims.get(link.id, {})
            if named.get(link.id, 0) & mask or any(
                mask & ~on_link.get(failed, 0) for failed in wp_links
            ):
                raise UnknownClaimError(f"slots {mask:#x} on {link.id}")
            named[link.id] = named.get(link.id, 0) | mask
    for bp in backups:
        mask = bp.block.mask()
        for link in bp.links:
            g.links[link.id].bitmap.bits |= reg.unclaim(link.id, wp_links, mask)


@st.composite
def small_nets(draw):
    """A connected graph of 4-7 vertices; slot counts include ones not a multiple of 8."""
    n = draw(st.integers(4, 7))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs |= {tuple(sorted(p)) for p in extra if p[0] != p[1]}
    g = NetworkGraph(slot_count=draw(st.sampled_from((3, 5, 8, 13, 16, 33))))
    for i, j in sorted(pairs):
        g.add_link(f"v{i}", f"v{j}", 100, availability=draw(st.sampled_from((0.8, 0.9, 0.95))))
    return g


def outcome(call, *args):
    """The exception type a call raised, or None, and its result."""
    try:
        return None, call(*args)
    except (SharingConflictError, UnknownClaimError) as err:
        return type(err), None


def on_graph(g, backups):
    """The same backups over the links of another copy of the graph."""
    return [
        BackupPath(
            bp.id, bp.vertices, tuple(g.links[link.id] for link in bp.links), bp.block, bp.packed
        )
        for bp in backups
    ]


# ``small_nets`` adds links in id order; the reversed six-node net does not.
@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.one_of(small_nets(), st.builds(reversed_six_node_net)), st.data())
def test_packed_registry_matches_per_link_reference(g, data):
    ref_g = g.copy()
    reg, ref = BackupRegistry(), ReferenceRegistry()
    # Each entry: (wp_links, backups on g, working path's links and block or None).
    live, gone = [], []
    vertices = sorted(g.vertices)
    link_ids = sorted(g.links)
    some_links = st.sets(st.sampled_from(link_ids), min_size=1, max_size=3).map(frozenset)
    index = g.link_index()
    for step in range(data.draw(st.integers(4, 24))):
        op = data.draw(st.sampled_from(("provision", "provision", "release", "claim", "fresh")))
        if op == "provision":
            s, d = data.draw(st.permutations(vertices))[:2]
            lr = LightpathRequest(s, d, data.draw(st.integers(1, 3)))
            paths = candidate_paths(g, s, d, lr.slots_needed, lr.k)
            if not paths:
                continue
            best = select_best(paths)
            (ref_best,) = [
                p for p in candidate_paths(ref_g, s, d, lr.slots_needed, lr.k)
                if p.vertices == best.vertices
            ]
            common = (1 << g.slot_count) - 1
            for link in best.links:
                common &= link.bitmap.bits
            block = first_fit(SpectrumBitmap(g.slot_count, common), lr.slots_needed)
            allocate([link.bitmap for link in best.links], block)
            allocate([link.bitmap for link in ref_best.links], block)
            a_th = data.draw(st.sampled_from((0.9, 0.95, 0.99, 1.0)))
            args = (lr, best, reg, f"w{step}", a_th)
            got_err, got = outcome(provision_backups, g, *args)
            ref_args = (lr, ref_best, ref, f"w{step}", a_th)
            want_err, want = outcome(reference_provision_backups, ref_g, *ref_args)
            assert got_err is want_err
            if got is not None:
                backups, a_pp = got
                ref_backups, ref_a_pp = want
                assert a_pp == ref_a_pp
                assert [(bp.vertices, bp.block) for bp in backups] == [
                    (bp.vertices, bp.block) for bp in ref_backups
                ]
                for bp in backups:
                    assert bp.packed == _pack(g, bp.links, bp.block)
                live.append((ids(best.links), backups, (best.links, block)))
        elif op == "release" and live:
            i = data.draw(st.integers(0, len(live) - 1))
            wp_links, backups, working = live[i]
            how = data.draw(st.sampled_from(("own", "own", "foreign", "twice", "stale")))
            if how == "foreign":
                wp_links = data.draw(some_links)
            elif how == "twice":
                backups = backups + backups[-1:]
            elif how == "stale":
                if gone:
                    wp_links, backups = data.draw(st.sampled_from(gone))
                else:
                    how = "own"
            got_err, _ = outcome(release_wp, reg, at(g, wp_links), backups, g)
            want_err, _ = outcome(
                reference_release_wp, ref, wp_links, on_graph(ref_g, backups), ref_g
            )
            assert got_err is want_err
            if how == "own" and got_err is None:
                del live[i]
                gone.append((wp_links, backups))
                if working is not None:
                    links, block = working
                    release([link.bitmap for link in links], block)
                    release([ref_g.links[link.id].bitmap for link in links], block)
        elif op in ("claim", "fresh"):
            wp_links = data.draw(some_links)
            if op == "claim" and live:
                # Another WP's backup, claimed again: a conflict unless the
                # links are disjoint from every WP claiming those slots.
                backups = data.draw(st.sampled_from(live))[1][:1]
            else:
                link = g.links[data.draw(st.sampled_from(link_ids))]
                length = data.draw(st.integers(1, g.slot_count))
                block = SlotBlock(data.draw(st.integers(0, g.slot_count - length)), length)
                if not link.bitmap.is_free(block):
                    continue
                backups = [BackupPath(
                    "fresh", (link.u, link.v), (link,), block, _pack(g, (link,), block)
                )]
            if not backups:
                continue
            packed = 0
            for bp in backups:
                packed |= _pack(g, bp.links, bp.block)
            got_err, _ = outcome(reg.claim, g, at(g, wp_links), packed)
            want_err, _ = outcome(
                reference_claim_backups, ref, wp_links, on_graph(ref_g, backups)
            )
            assert got_err is want_err
            if got_err is None:
                for g_side, side in ((g, backups), (ref_g, on_graph(ref_g, backups))):
                    for bp in side:
                        for link in bp.links:
                            # Shared slots are set busy again: a plain bit write.
                            g_side.links[link.id].bitmap.bits &= ~bp.block.mask()
                live.append((wp_links, backups, None))
        assert unpacked_claims(reg, g) == ref.claims
        assert unpacked_held(reg, g) == ref.held
        assert reg.reserved == ref.reserved
        assert reg.is_empty() == ref.is_empty()
        assert {lid: l.bitmap.bits for lid, l in g.links.items()} == {
            lid: l.bitmap.bits for lid, l in ref_g.links.items()
        }
        for newcomer in [entry[0] for entry in live] + [data.draw(some_links)]:
            bits, ref_bits = index.free_bits(), index.free_bits()
            free_backup_slots(g, bits, reg, at(g, newcomer))
            reference_free_backup_slots(ref_g, ref_bits, ref, newcomer)
            assert bits == ref_bits
