"""Slot strings for tests, on the package's int free bits.

A string lists a link's slots from slot 0 on the left, "1" free and "0"
busy; bit i of the int is slot i.
"""


def parse(s: str) -> int:
    """The free bits of the slot string ``s``."""
    if s.strip("01"):
        raise ValueError(f"bad slot string {s!r}")
    return int(s[::-1] or "0", 2)


def show(bits: int, size: int) -> str:
    """The slot string of the free bits ``bits`` over ``size`` slots."""
    if bits < 0 or bits >> size:
        raise ValueError(f"bits {bits:#x} do not fit in {size} slots")
    return format(bits, f"0{size}b")[::-1]


def all_free(bits: int, block) -> bool:
    """Whether every slot of the ``SlotBlock`` is free in ``bits``."""
    m = block.mask()
    return bits & m == m


def all_busy(bits: int, block) -> bool:
    """Whether every slot of the ``SlotBlock`` is busy in ``bits``."""
    return not bits & block.mask()


def window_runs(bits: int, size: int, need: int) -> int:
    """The run mask of ``bits``, one window at a time: bit i is set iff
    slots i..i+need-1 all lie below ``size`` and are free."""
    window = (1 << need) - 1
    return sum(1 << i for i in range(size - need + 1) if bits >> i & window == window)
