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
release both use it.  A ``BackupPath`` keeps the ``CandidatePath`` it was
picked from, and its vertex walk and links are read off that only when
asked for.  Sharers are pairwise disjoint, so for each (b, f, slot) at
most one WP crosses ``f``, and one bit records the claim without loss.
A second claim on a set bit is a sharing conflict.  From the claims:

- the backup slots reserved on every link are the OR of all claims, kept
  packed as ``held``;
- a newcomer with links ``W`` may share ``held & ~OR_{f in W} claims[f]``:
  |W| lookups and wide ORs, then one split of the result into per-link
  search bits;
- claiming a WP's backups checks their packed mask against ``claims[f]``
  for each ``f`` in ``W``, takes the slots it adds to ``held`` on their
  links, then ORs it in: |W| ANDs and |W| ORs per WP, whatever the number
  of backups and backup links;
- releasing them ORs the backups' own packed masks, packing nothing again,
  checks that mask the same way, rebuilds ``held`` as the OR of the claims
  left, frees the bits ``held`` loses on their links and clears the mask
  from each ``claims[f]``.

``claim`` and ``release_wp`` write the link bits, through
``spectrum.allocate`` and ``release`` with the changed bits of ``held``
split into one mask per link field.  Those check every link first: the
slots a claim adds must be free (``AllocationConflictError``) and the
slots a release drops must be busy (``DoubleFreeError``).  Either error
leaves the registry and the links as they were.

A failed protection attempt reserves nothing: ``provision_backups`` picks
its backups on a private copy of the free bits and claims them only once
the threshold is met, so there is nothing to roll back.  Its backup search
leaves the working path's links out by their positions (``without`` of
``rsa.candidate_paths``), so it scans the path table of the graph without
them.

The registry holds the claims only, not which backups belong to which WP:
the caller keeps the backups ``provision_backups`` returned and hands them
back, with the WP's link positions, to ``release_wp``, which checks every
claim before it changes anything.

``reserved`` is the popcount of ``held``, kept exact by ``claim`` and
``release_wp`` from the bits each one adds to or drops from ``held``.
"""

from __future__ import annotations

from .rsa import CandidatePath, LightpathRequest, candidate_paths
from .spectrum import SlotBlock, allocate, release, run_steps
from .availability import ava_dsbpss_update
from .topology import NetworkGraph


class UnknownClaimError(Exception):
    """A released backup slot is not claimed for a failure of the working path."""


class SharingConflictError(Exception):
    """A backup slot would be claimed for two WPs that one failure hits together."""


class BackupPath:
    """One backup of a working path: a slotted record of its id, the
    ``CandidatePath`` it was picked from, its block and the packed mask it
    is claimed by.

    ``packed`` holds ``block``'s slots in the ``slot_count``-bit field of
    each link of ``path``, at the link's ``LinkIndex.position``.  The vertex
    walk and links are the candidate's, worked out on each read.
    """

    __slots__ = ("id", "path", "block", "packed")

    def __init__(self, id: str, path: CandidatePath, block: SlotBlock, packed: int) -> None:
        self.id = id
        self.path = path
        self.block = block
        self.packed = packed

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.path.vertices

    @property
    def links(self) -> tuple:
        return self.path.links


def _split(g: NetworkGraph, packed: int) -> dict[int, int]:
    """The non-zero link fields of ``packed``, by link position."""
    width = g.slot_count
    field = (1 << width) - 1
    fields = {}
    li = 0
    while packed:
        # Skip to the next field holding a bit, take it, go past it.
        skip = ((packed & -packed).bit_length() - 1) // width
        packed >>= skip * width
        li += skip
        fields[li] = packed & field
        packed >>= width
        li += 1
    return fields


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
        wp = 0
        for li in result.path.link_indices:
            wp |= 1 << li
        options = []
        for bp in result.backup_paths:
            needs = 0
            for li in bp.path.link_indices:
                needs |= 1 << li
            options.append((wp, needs, bp.packed))
        return options

    def claim(self, g: NetworkGraph, wp: tuple[int, ...], packed: int) -> None:
        """Hold the packed slots for a failure of any link of ``wp``, the
        working path's link positions.

        Checks every failure link, then takes the slots not held yet on
        their links, before it changes the claims.
        """
        claims = self.claims
        for failed in wp:
            if claims.get(failed, 0) & packed:
                raise self._conflict(g, wp, packed)
        held = self.held
        new = packed & ~held
        allocate(g.link_index().links, _split(g, new))
        for failed in wp:
            claims[failed] = claims.get(failed, 0) | packed
        self.reserved += new.bit_count()
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
    """Stack shared backups, best first, until the threshold is met.

    Returns (backup paths, final availability).  The backups avoid the
    working path's links, but not each other's.  They are picked on a
    private copy of the free bits and claimed only once the threshold is
    met, so if the candidates run out first nothing has been reserved and
    ([], the working path's availability) is returned.  The search leaves
    the working path's links out by ``without``; their entries of the
    search bits keep the slots they may share, and no candidate reads
    them.  The candidates are walked once, in the search's ranking; each
    is re-intersected on the search bits, which lose the slots of every
    backup taken so far, and takes first fit from what is left, or is
    skipped when nothing is.  Each
    ``BackupPath`` (id, the candidate it was picked from, block and packed
    mask) is built only once the threshold is met and the slots are claimed.
    ``BackupRegistry.claim`` raises ``AllocationConflictError``, and nothing
    is reserved, if a slot the backups newly hold is not free on its link.
    """
    wp = best_path.link_indices
    bits = g.link_index().free_bits()
    free_backup_slots(g, bits, reg, wp)
    # Backups avoid the working path's links.
    without = 0
    for li in wp:
        without |= 1 << li
    need = lr.slots_needed
    candidates = candidate_paths(g, lr.s, lr.d, need, lr.k, bits, without=without)

    width = g.slot_count
    full = (1 << width) - 1
    steps = run_steps(need)
    a_pp = best_path.availability
    # (candidate, block, packed mask) of each backup taken
    picked = []
    packed = 0
    for chosen in candidates:
        if a_pp >= a_th:
            break
        positions = chosen.link_indices
        common = full
        for li in positions:
            common &= bits[li]
        for step in steps:
            common &= common >> step
        if not common:
            continue
        # The lowest start of a free run of ``need`` slots: first fit.
        low = common & -common
        mask = (low << need) - low
        own = 0
        for li in positions:
            # Own backups are not shareable with this same WP.
            bits[li] &= ~mask
            own |= mask << li * width
        picked.append((chosen, SlotBlock(low.bit_length() - 1, need), own))
        packed |= own
        a_pp = ava_dsbpss_update(a_pp, chosen.availability)
    if a_pp < a_th:
        return [], best_path.availability
    if packed:
        reg.claim(g, wp, packed)
    backups = [
        BackupPath(f"{wp_id}/bp{i}", chosen, block, own)
        for i, (chosen, block, own) in enumerate(picked, 1)
    ]
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
    on a link, raises ``UnknownClaimError`` and changes nothing; if a slot
    left unclaimed is not busy on its link, raises ``DoubleFreeError`` and
    changes nothing.
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
    left = {failed: claims[failed] & keep for failed in wp}
    held = 0
    for failed, claimed in claims.items():
        held |= left.get(failed, claimed)
    freed = reg.held & ~held
    release(g.link_index().links, _split(g, freed))
    for failed, claimed in left.items():
        if claimed:
            claims[failed] = claimed
        else:
            del claims[failed]
    reg.held = held
    reg.reserved -= freed.bit_count()


def _unknown(g: NetworkGraph, bad: int, packed: int) -> UnknownClaimError:
    link_id, _, mask = _field(g, bad, packed)
    return UnknownClaimError(f"slots {mask:#x} on {link_id} not held for this WP")
