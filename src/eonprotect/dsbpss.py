"""Shared backup path protection with slot sharing.

A working path (WP) whose availability misses the threshold gets one or more
backup paths that avoid its links.  Backup slots reserved on a link may be
shared by several WPs as long as those WPs are pairwise link-disjoint: a
single link failure then hits at most one of them, so a shared slot is never
needed twice at once.

The registry keeps failure claims: ``claims[b][f]`` is the int bitmap of the
slots on backup link ``b`` held for the live WP that crosses link ``f``, that
is, the slots a failure of ``f`` would put to use on ``b``.  Sharers are
pairwise disjoint, so for each (b, f, slot) at most one WP crosses ``f``, and
one integer per (b, f) pair records every claim without loss.  A second claim
on a set (b, f, slot) bit is a sharing conflict.  From the claims:

- the backup slots reserved on ``b`` are the OR of ``claims[b]``, kept as
  ``held[b]``;
- a newcomer with links ``W`` may share ``held[b] & ~OR_{f in W} claims[b][f]``,
  which takes |W| lookups;
- releasing a backup clears its WP's claims and frees the slots no claim
  still holds.

A failed protection attempt reserves nothing: ``provision_backups`` picks
its backups on a private copy of the free bits and claims them only once
the threshold is met, so there is nothing to roll back.

The registry holds the claims only, not which backups belong to which WP:
the caller keeps the backups ``provision_backups`` returned and hands them
back, with the WP's links, to ``release_wp``, which checks every claim
before it changes anything.

``reserved`` is the popcount of all ``held`` bits, kept exact by ``claim``
and ``unclaim`` from the bits each one adds to or drops from ``held``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rsa import CandidatePath, LightpathRequest, candidate_paths, select_best
from .spectrum import SlotBlock, first_fit, is_feasible, SpectrumBitmap
from .availability import ava_dsbpss_update
from .topology import Link, NetworkGraph


class UnknownClaimError(Exception):
    """A released backup slot is not claimed for a failure of the working path."""


class SharingConflictError(Exception):
    """A backup slot would be claimed for two WPs that one failure hits together."""


@dataclass(frozen=True)
class BackupPath:
    id: str
    vertices: tuple[str, ...]
    links: tuple[Link, ...]
    block: SlotBlock

    def link_ids(self) -> frozenset[str]:
        return frozenset(link.id for link in self.links)


class BackupRegistry:
    """All live shared-backup state: failure claims and held slots per link.

    The backups of each WP live in its ``ProvisionResult``, not here.
    """

    def __init__(self) -> None:
        self.claims: dict[str, dict[str, int]] = {}
        self.held: dict[str, int] = {}
        # backup slots reserved over all links: the popcount of every held[b]
        self.reserved = 0

    def is_empty(self) -> bool:
        return not self.claims

    def shareable(self, link_id: str, wp_links: frozenset[str]) -> int:
        """Reserved slots on the link that a WP over ``wp_links`` may share."""
        held = self.held.get(link_id, 0)
        if not held:
            return 0
        on_link = self.claims[link_id]
        blocked = 0
        for failed in wp_links:
            blocked |= on_link.get(failed, 0)
        return held & ~blocked

    def claim(self, link_id: str, wp_links: frozenset[str], mask: int) -> None:
        """Hold ``mask`` on the link for a failure of any of ``wp_links``."""
        on_link = self.claims.get(link_id, {})
        for failed in wp_links:
            if on_link.get(failed, 0) & mask:
                clash = sorted(f for f in wp_links if on_link.get(f, 0) & mask)
                raise SharingConflictError(
                    f"slots {mask:#x} on {link_id} already claimed for failures of {clash}"
                )
        for failed in wp_links:
            on_link[failed] = on_link.get(failed, 0) | mask
        self.claims[link_id] = on_link
        held = self.held.get(link_id, 0)
        self.reserved += (mask & ~held).bit_count()
        self.held[link_id] = held | mask

    def unclaim(self, link_id: str, wp_links: frozenset[str], mask: int) -> int:
        """Drop a claim; returns the bits of ``mask`` no other claim holds."""
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


def free_backup_slots(
    g: NetworkGraph,
    bits: list[int],
    reg: BackupRegistry,
    new_wp_links: frozenset[str],
) -> None:
    """OR the slots a newcomer over ``new_wp_links`` may share into ``bits``.

    ``bits`` are per-link free bits in ``g.link_index()`` order; ``g`` is
    left unchanged.
    """
    position = g.link_index().position
    for lid in reg.held:
        bits[position[lid]] |= reg.shareable(lid, new_wp_links)


def provision_backups(
    g: NetworkGraph,
    lr: LightpathRequest,
    best_path: CandidatePath,
    reg: BackupRegistry,
    wp_id: str,
    a_pp_max: float,
    a_th: float,
) -> tuple[list[BackupPath], float]:
    """Stack link-disjoint shared backups until the threshold is met.

    Returns (backup paths, final availability).  Backups are picked on a
    private copy of the free bits and claimed only once the threshold is
    met, so if the candidates run out first nothing has been reserved and
    ([], original availability) is returned.
    """
    wp_links = best_path.link_ids()
    index = g.link_index()
    bits = index.free_bits()
    free_backup_slots(g, bits, reg, wp_links)
    # After free_backup_slots, which ORs shareable slots into the working
    # path's links too: backups avoid those links.
    for link in best_path.links:
        bits[index.position[link.id]] = 0
    candidates = candidate_paths(g, lr.s, lr.d, lr.slots_needed, lr.k, bits)

    a_pp = a_pp_max
    backups: list[BackupPath] = []
    while a_pp < a_th:
        if not candidates:
            return [], a_pp_max
        chosen = select_best(candidates)
        candidates.remove(chosen)
        # Backups picked earlier in this call may have taken slots the stale
        # candidate bitmap still shows free; re-intersect on the search bits.
        positions = [index.position[link.id] for link in chosen.links]
        common = (1 << g.slot_count) - 1
        for li in positions:
            common &= bits[li]
        live = SpectrumBitmap(g.slot_count, common)
        if not is_feasible(live, lr.slots_needed):
            continue
        block = first_fit(live, lr.slots_needed)
        mask = block.mask()
        for li in positions:
            # Own backups are not shareable with this same WP.
            bits[li] &= ~mask
        backups.append(
            BackupPath(f"{wp_id}/bp{len(backups) + 1}", chosen.vertices, chosen.links, block)
        )
        a_pp = ava_dsbpss_update(a_pp, chosen.availability)
    for bp in backups:
        mask = bp.block.mask()
        for link in bp.links:
            reg.claim(link.id, wp_links, mask)
            # Shared slots are busy already; the rest were free until now.
            link.bitmap.set_busy(bp.block)
    return backups, a_pp


def release_wp(
    reg: BackupRegistry,
    wp_links: frozenset[str],
    backups: list[BackupPath],
    g: NetworkGraph,
) -> None:
    """Drop a departed working path's claims and free the slots left unclaimed.

    ``wp_links`` are the working path's link ids and ``backups`` the list
    ``provision_backups`` returned for it.  If a slot of a backup is not
    claimed on one of its links for a failure of every link in ``wp_links``,
    raises ``UnknownClaimError`` and changes nothing.
    """
    for bp in backups:
        mask = bp.block.mask()
        for link in bp.links:
            on_link = reg.claims.get(link.id, {})
            if any(mask & ~on_link.get(failed, 0) for failed in wp_links):
                raise UnknownClaimError(f"slots {mask:#x} on {link.id} not held for this WP")
    for bp in backups:
        mask = bp.block.mask()
        for link in bp.links:
            g.links[link.id].bitmap.bits |= reg.unclaim(link.id, wp_links, mask)
