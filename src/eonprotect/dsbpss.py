"""Shared backup path protection with slot sharing.

A working path (WP) whose availability misses the threshold gets one or more
backup paths that avoid its links.  Backup slots reserved on a link may be
shared by several WPs as long as those WPs are pairwise link-disjoint: a
single link failure then hits at most one of them, so a shared slot is never
needed twice at once.

Links are named by their ``LinkIndex.position`` throughout: ``f`` and
``b`` below are link positions, and a WP's links ``W`` the tuple of its
positions (``CandidatePath.link_indices``).  The registry keeps failure
claims as one packed int per failure link: bit ``b * slot_count + i`` of
``claims[f]`` is set when slot ``i`` on backup link ``b`` is held for the
live WP that crosses link ``f``, that is, when a failure of ``f`` would put
that slot to use.  So link ``b`` owns the ``slot_count``-bit field at its
position, and a backup path is one packed mask, ``BackupPath.packed``: its
block's slots in the field of each of its links.  ``provision_backups``
builds that mask once, while it picks the backup, and the claim and the
release both use it.  Sharers are pairwise disjoint, so for each
(b, f, slot) at most one WP crosses ``f``, and one bit records the claim
without loss.  A second claim on a set bit is a sharing conflict.  From the
claims:

- the backup slots reserved on every link are the OR of all claims, kept
  packed as ``held``;
- a newcomer with links ``W`` may share ``held & ~OR_{f in W} claims[f]``:
  |W| lookups and wide ORs, then one split of the result into per-link
  search bits;
- claiming a WP's backups checks their packed mask against ``claims[f]``
  for each ``f`` in ``W``, then ORs it in: |W| ANDs and |W| ORs per WP,
  whatever the number of backups and backup links;
- releasing them ORs the backups' own packed masks, packing nothing again,
  checks that mask the same way, clears it from each ``claims[f]``, rebuilds
  ``held`` once as the OR of the claims left and writes the bits ``held``
  lost back to the link bits, one non-zero field at a time.

A failed protection attempt reserves nothing: ``provision_backups`` picks
its backups on a private copy of the free bits and claims them only once
the threshold is met, so there is nothing to roll back.

The registry holds the claims only, not which backups belong to which WP:
the caller keeps the backups ``provision_backups`` returned and hands them
back, with the WP's link positions, to ``release_wp``, which checks every
claim before it changes anything.

``reserved`` is the popcount of ``held``, kept exact by ``claim`` and
``release_wp`` from the bits each one adds to or drops from ``held``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rsa import CandidatePath, LightpathRequest, candidate_paths, select_best
from .spectrum import SlotBlock, run_steps
from .availability import ava_dsbpss_update
from .topology import Link, NetworkGraph


class UnknownClaimError(Exception):
    """A released backup slot is not claimed for a failure of the working path."""


class SharingConflictError(Exception):
    """A backup slot would be claimed for two WPs that one failure hits together."""


@dataclass(frozen=True)
class BackupPath:
    """One backup of a working path, with the packed mask it is claimed by.

    ``packed`` holds ``block``'s slots in the ``slot_count``-bit field of
    each link of ``links``, at the link's ``LinkIndex.position``.
    """

    id: str
    vertices: tuple[str, ...]
    links: tuple[Link, ...]
    block: SlotBlock
    packed: int


def _field(g: NetworkGraph, bad: int, packed: int) -> tuple[str, int, int]:
    """Id and field offset of the lowest-position link with a bit in ``bad``,
    and the bits ``packed`` has in that link's field."""
    pos = ((bad & -bad).bit_length() - 1) // g.slot_count
    offset = pos * g.slot_count
    mask = packed >> offset & (1 << g.slot_count) - 1
    return g.link_index().links[pos].id, offset, mask


class BackupRegistry:
    """All live shared-backup state: packed failure claims and held slots.

    The protection of mode ``dsbpss`` (protocol: ``rsa.NoProtection``).
    The backups of each WP live in its ``ProvisionResult``, not here.
    """

    def __init__(self) -> None:
        # failure link position -> packed backup slots held for the WP
        # crossing it
        self.claims: dict[int, int] = {}
        # packed backup slots held on every link: the OR of all claims
        self.held = 0
        # backup slots reserved over all links: the popcount of held
        self.reserved = 0

    def is_empty(self) -> bool:
        return not self.claims

    # The module-level functions are looked up at call time, so a wrapper
    # set on the module sees every call.
    def protect(self, g, lr, result, wp_id, a_th) -> None:
        result.backup_paths, result.a_pp_max = provision_backups(
            g, lr, result.path, self, wp_id, a_th
        )

    def release(self, g, wp_id, result) -> None:
        if result.backup_paths:
            release_wp(self, result.path.link_indices, result.backup_paths, g)

    def options(self, g, result) -> list[tuple[int, int, int]]:
        """One option per backup of ``result``, in order: each covers every
        working link and packs as ``BackupPath.packed``."""
        if not result.backup_paths:
            return []
        position = g.link_index().position
        wp = 0
        for li in result.path.link_indices:
            wp |= 1 << li
        options = []
        for bp in result.backup_paths:
            needs = 0
            for link in bp.links:
                needs |= 1 << position[link.id]
            options.append((wp, needs, bp.packed))
        return options

    def claim(self, g: NetworkGraph, wp: tuple[int, ...], packed: int) -> None:
        """Hold the packed slots for a failure of any link of ``wp``, the
        working path's link positions.

        Checks every failure link before it changes anything.
        """
        claims = self.claims
        for failed in wp:
            if claims.get(failed, 0) & packed:
                raise self._conflict(g, wp, packed)
        for failed in wp:
            claims[failed] = claims.get(failed, 0) | packed
        held = self.held
        self.reserved += (packed & ~held).bit_count()
        self.held = held | packed

    def _conflict(
        self, g: NetworkGraph, wp: tuple[int, ...], packed: int
    ) -> SharingConflictError:
        clash_bits = 0
        for failed in wp:
            clash_bits |= self.claims.get(failed, 0) & packed
        link_id, offset, mask = _field(g, clash_bits, packed)
        links = g.link_index().links
        clash = sorted(
            links[f].id for f in wp if self.claims.get(f, 0) >> offset & mask
        )
        return SharingConflictError(
            f"slots {mask:#x} on {link_id} already claimed for failures of {clash}"
        )


def free_backup_slots(
    g: NetworkGraph,
    bits: list[int],
    reg: BackupRegistry,
    wp: tuple[int, ...],
) -> None:
    """OR the slots a newcomer over the link positions ``wp`` may share
    into ``bits``.

    ``bits`` are per-link free bits in ``g.link_index()`` order; ``g`` is
    left unchanged.
    """
    claims = reg.claims
    blocked = 0
    for failed in wp:
        blocked |= claims.get(failed, 0)
    shared = reg.held & ~blocked
    # One field per link, lowest position first, whatever the slot count.
    width = g.slot_count
    field = (1 << width) - 1
    i = 0
    while shared:
        bits[i] |= shared & field
        shared >>= width
        i += 1


def provision_backups(
    g: NetworkGraph,
    lr: LightpathRequest,
    best_path: CandidatePath,
    reg: BackupRegistry,
    wp_id: str,
    a_th: float,
) -> tuple[list[BackupPath], float]:
    """Stack link-disjoint shared backups until the threshold is met.

    Returns (backup paths, final availability).  Backups are picked on a
    private copy of the free bits and claimed only once the threshold is
    met, so if the candidates run out first nothing has been reserved and
    ([], the working path's availability) is returned.  Each backup takes
    first fit from its candidate's run mask; only a candidate that crosses
    a link an earlier backup of this call took slots on is re-intersected.
    """
    wp = best_path.link_indices
    bits = g.link_index().free_bits()
    free_backup_slots(g, bits, reg, wp)
    # After free_backup_slots, which ORs shareable slots into the working
    # path's links too: backups avoid those links.
    for li in wp:
        bits[li] = 0
    need = lr.slots_needed
    candidates = candidate_paths(g, lr.s, lr.d, need, lr.k, bits)

    width = g.slot_count
    steps = run_steps(need)
    a_pp = best_path.availability
    backups: list[BackupPath] = []
    packed = 0
    # Link positions on which a backup of this call took slots.
    taken: set[int] = set()
    while a_pp < a_th:
        if not candidates:
            return [], best_path.availability
        chosen = select_best(candidates)
        candidates.remove(chosen)
        positions = chosen.link_indices
        common = chosen.run
        if not taken.isdisjoint(positions):
            # An earlier backup took slots the candidate's run mask still
            # shows free; re-intersect on the search bits.
            common = (1 << width) - 1
            for li in positions:
                common &= bits[li]
            for step in steps:
                common &= common >> step
            if not common:
                continue
        taken.update(positions)
        # The lowest start of a free run of ``need`` slots: first fit.
        low = common & -common
        mask = (low << need) - low
        own = 0
        for li in positions:
            # Own backups are not shareable with this same WP.
            bits[li] &= ~mask
            own |= mask << li * width
        block = SlotBlock(low.bit_length() - 1, need)
        backups.append(BackupPath(
            f"{wp_id}/bp{len(backups) + 1}", chosen.vertices, chosen.links, block, own
        ))
        packed |= own
        a_pp = ava_dsbpss_update(a_pp, chosen.availability)
    if packed:
        reg.claim(g, wp, packed)
    for bp in backups:
        busy = ~bp.block.mask()
        for link in bp.links:
            # Shared slots are busy already; the rest were free until now.
            link.bitmap.bits &= busy
    return backups, a_pp


def release_wp(
    reg: BackupRegistry,
    wp: tuple[int, ...],
    backups: list[BackupPath],
    g: NetworkGraph,
) -> None:
    """Drop a departed working path's claims and free the slots left unclaimed.

    ``wp`` is the working path's link positions and ``backups`` the list
    ``provision_backups`` returned for it, whose packed masks are released.
    If a slot of a backup is not claimed on one of its links for a failure
    of every link of ``wp``, or two of the backups name the same slot
    on a link, raises ``UnknownClaimError`` and changes nothing.
    """
    packed = 0
    for bp in backups:
        own = bp.packed
        if packed & own:
            raise _unknown(g, packed & own, own)
        packed |= own
    if not packed:
        return
    claims = reg.claims
    for failed in wp:
        missing = packed & ~claims.get(failed, 0)
        if missing:
            raise _unknown(g, missing, packed)
    keep = ~packed
    for failed in wp:
        left = claims[failed] & keep
        if left:
            claims[failed] = left
        else:
            del claims[failed]
    held = 0
    for claimed in claims.values():
        held |= claimed
    freed = reg.held & ~held
    reg.held = held
    if not freed:
        return
    reg.reserved -= freed.bit_count()
    # Every freed bit lies in the pack, so in the field of a backup link:
    # skip to the next field holding one, free its bits, go past it.
    width = g.slot_count
    field = (1 << width) - 1
    links = g.link_index().links
    li = 0
    while freed:
        skip = ((freed & -freed).bit_length() - 1) // width
        freed >>= skip * width
        li += skip
        links[li].bitmap.bits |= freed & field
        freed >>= width
        li += 1


def _unknown(g: NetworkGraph, bad: int, packed: int) -> UnknownClaimError:
    link_id, _, mask = _field(g, bad, packed)
    return UnknownClaimError(f"slots {mask:#x} on {link_id} not held for this WP")
