"""Slot bitmap arithmetic for flex-grid links.

A bitmap is a fixed-length row of slots where 1 means free and 0 means
busy.  Bitmaps are stored as Python integers: bit i (LSB side) is slot i,
which makes intersection a single ``&`` and contiguity checks a handful of
shift-and-ands regardless of slot count.

The run mask of ``bits`` for a demand of ``need`` slots has bit i set iff
slots i..i+need-1 are all free.  It distributes over intersection,
``run(a & b) == run(a) & run(b)``: both sides say that every slot of the
window is free in ``a`` and in ``b``.  So a path search can test a whole
path by the run mask of the AND of its links' free bits, taken once, and a
branching search can take each link's run mask once and AND run masks along
a branch, one ``&`` per link, instead of re-deriving contiguity at every
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache


class SpectrumError(Exception):
    """Base class for spectrum allocation errors."""


class NoFitError(SpectrumError):
    pass


class AllocationConflictError(SpectrumError):
    pass


class DoubleFreeError(SpectrumError):
    pass


@dataclass(frozen=True)
class SlotBlock:
    """A contiguous run of slots: ``start`` (0-based) through ``start+length-1``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 1:
            raise ValueError(f"invalid slot block ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        """One past the last slot index."""
        return self.start + self.length

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

    @classmethod
    def from_string(cls, s: str) -> "SpectrumBitmap":
        """Parse "1101..." with slot 0 leftmost."""
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad bitmap character {ch!r}")
        return cls(len(s), bits)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.size))

    def copy(self) -> "SpectrumBitmap":
        return SpectrumBitmap(self.size, self.bits)

    def busy_count(self) -> int:
        return self.size - self.bits.bit_count()

    def is_free(self, block: SlotBlock) -> bool:
        m = block.mask()
        return block.end <= self.size and self.bits & m == m

    def is_busy(self, block: SlotBlock) -> bool:
        return block.end <= self.size and self.bits & block.mask() == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpectrumBitmap)
            and self.size == other.size
            and self.bits == other.bits
        )

    def __repr__(self) -> str:
        return f"SpectrumBitmap({self.to_string()!r})"


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


def _run_mask(bits: int, need: int) -> int:
    """Run mask of ``bits``: bit i set iff slots i..i+need-1 are all free."""
    for step in run_steps(need):
        bits &= bits >> step
    return bits


def is_feasible(bitmap: SpectrumBitmap, need: int) -> bool:
    """True iff the bitmap holds ``need`` consecutive free slots somewhere."""
    if need < 1:
        raise ValueError("need must be >= 1")
    if need > bitmap.size:
        return False
    return _run_mask(bitmap.bits, need) != 0


def first_fit(bitmap: SpectrumBitmap, need: int) -> SlotBlock:
    """Lowest-start block of exactly ``need`` free slots."""
    if need < 1:
        raise ValueError("need must be >= 1")
    m = _run_mask(bitmap.bits, need) if need <= bitmap.size else 0
    if m == 0:
        raise NoFitError(f"no run of {need} free slots")
    start = (m & -m).bit_length() - 1
    return SlotBlock(start, need)


def demand_to_slots(rate_gbps: float, slot_ghz: float, guard_ghz: float = 0.0) -> int:
    """Slots needed for a demand, guard band rounded up separately."""
    if rate_gbps <= 0 or slot_ghz <= 0 or guard_ghz < 0:
        raise ValueError("rate and slot width must be positive, guard non-negative")
    return math.ceil(rate_gbps / slot_ghz) + math.ceil(guard_ghz / slot_ghz)


def allocate(bitmaps: list[SpectrumBitmap], block: SlotBlock) -> None:
    """Mark ``block`` busy on every bitmap, atomically (all links or none).

    Every bitmap is checked before any is written, so a conflict leaves
    them all as they were.
    """
    m = block.mask()
    end = block.end
    for i, bm in enumerate(bitmaps):
        if end > bm.size or bm.bits & m != m:
            raise AllocationConflictError(
                f"slots {block.start}..{end - 1} not free on link {i} of path"
            )
    for bm in bitmaps:
        bm.bits &= ~m


def release(bitmaps: list[SpectrumBitmap], block: SlotBlock) -> None:
    """Free ``block`` on every bitmap; rejects freeing slots that are not busy.

    A block that runs past a bitmap's end is rejected too: the slots beyond
    it hold no bits, so they would read as busy and be set on release.
    """
    m = block.mask()
    end = block.end
    for bm in bitmaps:
        if end > bm.size or bm.bits & m:
            raise DoubleFreeError(
                f"slots {block.start}..{end - 1} are not fully allocated"
            )
    for bm in bitmaps:
        bm.bits |= m
