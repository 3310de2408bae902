"""Slot bitmap arithmetic for flex-grid links.

A link's spectrum is a fixed-length row of slots held as one Python
integer of free bits: bit i (LSB side) is 1 iff slot i is free.  That makes
intersection a single ``&`` and contiguity checks a handful of
shift-and-ands regardless of slot count.  ``run_mask``, ``is_feasible`` and
``first_fit`` take such an int; ``SpectrumBitmap`` only holds a link's bits
and their slot count.

The run mask of ``bits`` for a demand of ``need`` slots has bit i set iff
slots i..i+need-1 are all free.  It distributes over intersection,
``run(a & b) == run(a) & run(b)``: both sides say that every slot of the
window is free in ``a`` and in ``b``.  So a path search can test a whole
path by the run mask of the AND of its links' free bits, taken once, and a
branching search can take each link's run mask once and AND run masks along
a branch, one ``&`` per link, instead of re-deriving contiguity at every
step.

The link bits form the spectrum ledger, and ``allocate`` and ``release``
are its only writers.  Both take a link table (``LinkIndex.links``) and a
dict from link position to slot mask, check every entry before they write
any, and name the link id and the slots at fault when a check fails.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache


class SpectrumError(Exception):
    """Base class for spectrum allocation errors."""


class NoFitError(SpectrumError):
    pass


class AllocationConflictError(SpectrumError):
    pass


class DoubleFreeError(SpectrumError):
    pass


class SlotBlock(namedtuple("SlotBlock", "start length")):
    """A contiguous run of slots: ``start`` (0-based) through ``start+length-1``.

    An immutable tuple with no per-instance dict, built once per allocation.
    The constructor, ``_make`` and ``_replace`` all reject ``start < 0`` and
    ``length < 1``.
    """

    __slots__ = ()

    def __new__(cls, start: int, length: int) -> SlotBlock:
        if start < 0 or length < 1:
            raise ValueError(f"invalid slot block ({start}, {length})")
        return tuple.__new__(cls, (start, length))

    @classmethod
    def _make(cls, iterable) -> SlotBlock:
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def mask(self) -> int:
        return ((1 << self.length) - 1) << self.start


class SpectrumBitmap:
    """Fixed-length free/busy bitmap over ``size`` slots (free = 1)."""

    __slots__ = ("bits", "size")

    def __init__(self, size: int, bits: int | None = None):
        if size < 1:
            raise ValueError("bitmap size must be >= 1")
        self.size = size
        self.bits = ((1 << size) - 1) if bits is None else bits
        if self.bits < 0 or self.bits >> size:
            raise ValueError("bits do not fit in the declared size")

    def copy(self) -> "SpectrumBitmap":
        return SpectrumBitmap(self.size, self.bits)

    def busy_count(self) -> int:
        return self.size - self.bits.bit_count()


@cache
def run_steps(need: int) -> tuple[int, ...]:
    """Right shifts that, and-ed in turn into ``bits``, leave bit i set iff
    slots i..i+need-1 are all free.

    Memoised: callers pass demands of at most a link's slot count.
    """
    steps = []
    shift = 1
    remaining = need - 1
    while remaining > 0:
        step = min(shift, remaining)
        steps.append(step)
        remaining -= step
        shift *= 2
    return tuple(steps)


def run_mask(bits: int, need: int) -> int:
    """Run mask of ``bits``: bit i set iff slots i..i+need-1 are all free."""
    for step in run_steps(need):
        bits &= bits >> step
    return bits


def is_feasible(bits: int, need: int) -> bool:
    """True iff the free bits ``bits`` hold ``need`` consecutive free slots."""
    if need < 1:
        raise ValueError("need must be >= 1")
    # A need above the slot count leaves no bit, so it is not feasible.
    # Package callers pass needs of at most ``slot_count``, which keeps
    # ``run_steps``' memo small.
    return run_mask(bits, need) != 0


def first_fit(bits: int, need: int) -> SlotBlock:
    """Lowest-start block of exactly ``need`` slots free in ``bits``."""
    if need < 1:
        raise ValueError("need must be >= 1")
    # As in ``is_feasible``, a need above the slot count finds no block.
    m = run_mask(bits, need)
    if m == 0:
        raise NoFitError(f"no run of {need} free slots")
    return SlotBlock((m & -m).bit_length() - 1, need)


def demand_to_slots(rate_gbps: float, slot_ghz: float, guard_ghz: float = 0.0) -> int:
    """Slots needed for a demand, guard band rounded up separately."""
    if rate_gbps <= 0 or slot_ghz <= 0 or guard_ghz < 0:
        raise ValueError("rate and slot width must be positive, guard non-negative")
    return math.ceil(rate_gbps / slot_ghz) + math.ceil(guard_ghz / slot_ghz)


def allocate(links, writes: dict[int, int]) -> None:
    """Mark slots busy: ``writes`` maps a position in ``links`` (a
    ``LinkIndex.links``) to the slot mask to take on that link.

    Every entry is checked before any is written, so a slot that is busy,
    or lies past the link's last slot, leaves all the links as they were.
    """
    for i, m in writes.items():
        bits = links[i].bitmap.bits
        if bits & m != m:
            raise AllocationConflictError(
                f"slots {m & ~bits:#x} on {links[i].id} not free"
            )
    for i, m in writes.items():
        links[i].bitmap.bits &= ~m


def release(links, writes: dict[int, int]) -> None:
    """Free slots, ``writes`` as for ``allocate``, all or none.

    A slot that is free already is rejected, and so is one past the link's
    last slot: it holds no bit, so it would read as busy and be set.
    """
    for i, m in writes.items():
        bitmap = links[i].bitmap
        if m & bitmap.bits or m >> bitmap.size:
            bad = m & (bitmap.bits | -1 << bitmap.size)
            raise DoubleFreeError(f"slots {bad:#x} on {links[i].id} are not busy")
    for i, m in writes.items():
        links[i].bitmap.bits |= m
