"""Slot bitmap arithmetic: intersection, contiguity, placement, allocation."""

import copy
import functools
import operator
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from eonprotect.spectrum import (
    AllocationConflictError,
    DoubleFreeError,
    NoFitError,
    SlotBlock,
    SpectrumBitmap,
    allocate,
    demand_to_slots,
    first_fit,
    is_feasible,
    release,
    run_mask,
    run_steps,
)
from eonprotect.topology import NetworkGraph
from slots import parse, show


def brute_force_max_run(bits: str) -> int:
    best = run = 0
    for ch in bits:
        run = run + 1 if ch == "1" else 0
        best = max(best, run)
    return best


class TestSlotBlock:
    def test_mask(self):
        assert SlotBlock(2, 3).mask() == 0b11100

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            SlotBlock(-1, 2)
        with pytest.raises(ValueError):
            SlotBlock(0, 0)
        with pytest.raises(ValueError):
            SlotBlock(start=0, length=0)
        for bad in ({"start": -1}, {"length": 0}):
            with pytest.raises(ValueError):
                SlotBlock(2, 3)._replace(**bad)
        with pytest.raises(ValueError):
            SlotBlock._make((-1, 2))

    def test_fields(self):
        b = SlotBlock(start=4, length=2)
        assert (b.start, b.length, b.mask()) == (4, 2, 0b110000)
        assert b._replace(length=3) == SlotBlock(4, 3)
        assert not hasattr(b, "__dict__")

    def test_immutable(self):
        b = SlotBlock(2, 3)
        for name, value in (("start", 0), ("length", 1)):
            with pytest.raises(AttributeError):
                setattr(b, name, value)
        with pytest.raises(AttributeError):
            b.extra = 1
        assert b == SlotBlock(2, 3)

    def test_equal_blocks_are_equal_and_hash_alike(self):
        a, b = SlotBlock(2, 3), SlotBlock(2, 3)
        assert a == b and hash(a) == hash(b)
        assert a != SlotBlock(2, 4) and a != SlotBlock(3, 3)
        assert len({a, b, SlotBlock(3, 3)}) == 2

    def test_survives_deepcopy_and_pickle(self):
        b = SlotBlock(5, 7)
        for twin in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert type(twin) is SlotBlock
            assert twin == b and (twin.start, twin.length) == (5, 7)
        # Inside a container, as dcycles' ring blocks are copied.
        ring = {"a-b": b, "b-c": SlotBlock(0, 1)}
        assert copy.deepcopy(ring) == ring


class TestBitmap:
    def test_string_round_trip(self):
        # The tests' slot strings, slot 0 leftmost.
        s = "1101001"
        assert parse(s) == 0b1001011
        assert show(parse(s), len(s)) == s
        assert show(0b110, 4) == "0110"
        with pytest.raises(ValueError):
            parse("10x")
        with pytest.raises(ValueError):
            show(0b10000, 4)

    def test_default_all_free(self):
        b = SpectrumBitmap(320)
        assert b.bits.bit_count() == 320
        assert b.busy_count() == 0

    def test_counts(self):
        b = SpectrumBitmap(6, parse("110100"))
        assert b.bits.bit_count() == 3
        assert b.busy_count() == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SpectrumBitmap(0)
        with pytest.raises(ValueError):
            SpectrumBitmap(3, 0b1000)
        with pytest.raises(ValueError):
            SpectrumBitmap(3, -1)


class TestIsFeasible:
    def test_run_of_three(self):
        assert is_feasible(parse("110111"), 3)

    def test_max_run_is_three(self):
        assert not is_feasible(parse("110111"), 4)

    def test_full_bitmap_boundary(self):
        # No run is longer than the slot count of the bits.
        b = SpectrumBitmap(320).bits
        assert is_feasible(b, 320)
        assert not is_feasible(b, 321)

    def test_need_must_be_positive(self):
        with pytest.raises(ValueError):
            is_feasible(parse("111"), 0)

    @given(st.integers(1, 64), st.integers(1, 10))
    def test_matches_brute_force_max_run(self, size, need):
        rng = random.Random(size * 1000 + need)
        s = "".join(rng.choice("01") for _ in range(size))
        assert is_feasible(parse(s), need) == (brute_force_max_run(s) >= need)


def reference_run_steps(need: int) -> list[int]:
    """The shift schedule as first written: doubling shifts, the last one cut."""
    steps = []
    shift = 1
    remaining = need - 1
    while remaining > 0:
        step = min(shift, remaining)
        steps.append(step)
        remaining -= step
        shift *= 2
    return steps


def referencerun_mask(bits: str, need: int) -> int:
    """Bit i set iff slots i..i+need-1 are all free, read off the string."""
    return sum(1 << i for i in range(len(bits)) if bits[i:i + need] == "1" * need)


@st.composite
def run_mask_cases(draw):
    size = draw(st.integers(1, 320))
    need = draw(st.integers(1, size))
    full = (1 << size) - 1
    word = st.integers(0, full)
    # A slot is busy where every one of 1-5 random words is set, so free
    # runs range from short (busy half the time) to most of the row.
    busy = st.lists(word, min_size=1, max_size=5).map(
        lambda ws: functools.reduce(operator.and_, ws)
    )
    free = st.just(full) | busy.map(lambda b: full & ~b)
    return size, need, draw(free), draw(free)


class TestRunMask:
    @settings(max_examples=300, deadline=None)
    @given(run_mask_cases())
    def test_distributes_over_and(self, case):
        size, need, a, b = case
        assert run_mask(a & b, need) == run_mask(a, need) & run_mask(b, need)

    @settings(max_examples=300, deadline=None)
    @given(run_mask_cases())
    def test_bit_i_is_a_free_window_from_i(self, case):
        size, need, a, _ = case
        text = show(a, size)
        assert run_mask(a, need) == referencerun_mask(text, need)

    def test_every_demand_on_full_width_rows(self):
        rng = random.Random(320)
        full = (1 << 320) - 1
        rows = [full] + [
            full & ~functools.reduce(operator.and_, [rng.getrandbits(320) for _ in range(depth)])
            for depth in (1, 3, 6, 9)
        ]
        for need in range(1, 321):
            for a, b in zip(rows, rows[1:] + rows[:1]):
                assert run_mask(a, need) == referencerun_mask(show(a, 320), need)
                assert run_mask(a & b, need) == run_mask(a, need) & run_mask(b, need)

    def test_run_steps_unchanged_for_every_demand(self):
        for need in range(1, 321):
            steps = run_steps(need)
            assert steps == tuple(reference_run_steps(need))
            assert sum(steps) == need - 1
            assert run_steps(need) is steps


class TestFirstFit:
    def test_lowest_index_wins(self):
        assert first_fit(parse("011110"), 2) == SlotBlock(1, 2)

    def test_single_slot(self):
        assert first_fit(parse("101"), 1) == SlotBlock(0, 1)

    def test_no_fit(self):
        with pytest.raises(NoFitError):
            first_fit(parse("1101"), 3)

    @pytest.mark.parametrize("need", [0, -1])
    def test_rejects_need_below_one(self, need):
        with pytest.raises(ValueError, match="^need must be >= 1$"):
            first_fit(parse("1111"), need)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 8))
    def test_matches_exhaustive_scan(self, bits, need):
        s = show(bits, 64)
        expect = None
        for start in range(64 - need + 1):
            if all(ch == "1" for ch in s[start : start + need]):
                expect = SlotBlock(start, need)
                break
        if expect is None:
            with pytest.raises(NoFitError):
                first_fit(bits, need)
        else:
            assert first_fit(bits, need) == expect


class TestDemandToSlots:
    def test_100g_no_guard(self):
        assert demand_to_slots(100, 12.5, 0) == 8

    def test_100g_with_guard(self):
        assert demand_to_slots(100, 12.5, 10) == 9

    def test_exact_fit(self):
        assert demand_to_slots(12.5, 12.5, 0) == 1

    def test_rounds_up(self):
        assert demand_to_slots(1, 12.5, 10) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            demand_to_slots(0, 12.5, 0)
        with pytest.raises(ValueError):
            demand_to_slots(100, 12.5, -1)


def chain(n: int, slots: int):
    """The link table of a chain of ``n`` links of ``slots`` slots each."""
    g = NetworkGraph(slot_count=slots)
    for i in range(n):
        g.add_link(f"v{i}", f"v{i + 1}", 1)
    return g.link_index().links


def on_all(links, block: SlotBlock) -> dict[int, int]:
    return dict.fromkeys(range(len(links)), block.mask())


def bitmaps(links) -> list[int]:
    return [link.bitmap.bits for link in links]


class TestAllocateRelease:
    def test_round_trip_identity(self):
        links = chain(3, 16)
        originals = bitmaps(links)
        block = SlotBlock(4, 5)
        allocate(links, on_all(links, block))
        assert not any(link.bitmap.bits & block.mask() for link in links)
        release(links, on_all(links, block))
        assert bitmaps(links) == originals

    def test_two_disjoint_blocks(self):
        links = chain(1, 16)
        allocate(links, on_all(links, SlotBlock(0, 4)))
        allocate(links, on_all(links, SlotBlock(4, 4)))
        assert links[0].bitmap.busy_count() == 8

    def test_one_mask_per_position(self):
        links = chain(3, 8)
        allocate(links, {0: 0b11, 2: 0b1100})
        assert [show(link.bitmap.bits, 8) for link in links] == [
            "00111111", "11111111", "11001111",
        ]
        release(links, {2: 0b1100, 0: 0b11})
        assert all(link.bitmap.busy_count() == 0 for link in links)

    def test_conflict_rolls_back_atomically(self):
        # A conflict on a middle link and on the last one.
        for busy in (1, 2):
            links = chain(3, 8)
            allocate(links, {busy: SlotBlock(2, 2).mask()})
            before = bitmaps(links)
            with pytest.raises(
                AllocationConflictError, match=f"^slots 0xc on {links[busy].id} not free$"
            ):
                allocate(links, on_all(links, SlotBlock(0, 4)))
            assert bitmaps(links) == before

    def test_allocate_past_the_end_rejected(self):
        links = chain(2, 8)
        # Slots 8 and 9 lie past the end of the second link.
        with pytest.raises(AllocationConflictError, match=f"0x300 on {links[1].id}"):
            allocate(links, {0: 0b1, 1: SlotBlock(6, 4).mask()})
        assert all(link.bitmap.busy_count() == 0 for link in links)

    def test_double_free(self):
        links = chain(1, 8)
        allocate(links, on_all(links, SlotBlock(0, 3)))
        release(links, on_all(links, SlotBlock(0, 3)))
        with pytest.raises(DoubleFreeError, match=f"^slots 0x7 on {links[0].id} are not busy$"):
            release(links, on_all(links, SlotBlock(0, 3)))

    def test_release_rolls_back_atomically(self):
        links = chain(3, 8)
        allocate(links, {0: 0b11, 1: 0b10, 2: 0b11})
        before = bitmaps(links)
        with pytest.raises(DoubleFreeError, match=f"0x1 on {links[1].id}"):
            release(links, {0: 0b11, 1: 0b11, 2: 0b11})
        assert bitmaps(links) == before

    def test_free_past_the_end_rejected(self):
        links = chain(1, 8)
        allocate(links, on_all(links, SlotBlock(4, 4)))
        before = bitmaps(links)
        # Slot 8 lies past the end: it holds no bit, yet must not read as busy.
        with pytest.raises(DoubleFreeError, match=f"0x100 on {links[0].id}"):
            release(links, on_all(links, SlotBlock(4, 5)))
        assert bitmaps(links) == before

    def test_partial_free_rejected(self):
        links = chain(1, 8)
        allocate(links, on_all(links, SlotBlock(0, 2)))
        with pytest.raises(DoubleFreeError, match="0xc on"):
            release(links, on_all(links, SlotBlock(0, 4)))
