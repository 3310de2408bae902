"""Metric arithmetic and counter validation."""

import pytest

from eonprotect.metrics import (
    MetricsReport,
    ZeroArrivalsError,
    ZeroDemandError,
    bandwidth_blocking_probability,
    blocking_probability,
    capacity_used_for_protection,
    restorability,
    spectrum_utilization,
)


def report(**kw):
    return MetricsReport(**kw)


class TestValidation:
    def test_blocked_cannot_exceed_arrived(self):
        with pytest.raises(ValueError):
            report(arrived=1, blocked=2)

    def test_slots_blocked_cannot_exceed_slots_requested(self):
        # Otherwise the bandwidth blocking probability would read above 1.
        with pytest.raises(ValueError):
            report(arrived=1, slots_requested=1, slots_blocked=2)
        report(arrived=1, blocked=1, slots_requested=2, slots_blocked=2).validate()

    def test_protected_cannot_exceed_needing(self):
        with pytest.raises(ValueError, match="protected exceeds"):
            report(arrived=2, needing_protection=1, protected_count=2)

    def test_needing_cannot_exceed_accepted(self):
        # Only an accepted arrival can need protection; otherwise the
        # restorability of a window that accepted nothing would read 1.0.
        with pytest.raises(ValueError, match="exceed accepted"):
            report(arrived=2, blocked=2, needing_protection=5, protected_count=5)
        with pytest.raises(ValueError, match="exceed accepted"):
            report(arrived=4, blocked=1, needing_protection=4)
        report(arrived=4, blocked=1, needing_protection=3, protected_count=3).validate()

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            report(slot_time_used=-1.0)

    @pytest.mark.parametrize("name", [
        "slot_time_used", "slot_time_capacity", "protection_slot_time",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_slot_times_rejected(self, name, value):
        # A NaN passes a sign check and spectrum_utilization would read nan.
        with pytest.raises(ValueError):
            report(**{"arrived": 1, "slot_time_capacity": 1.0, name: value})


class TestBlockingProbability:
    def test_none_blocked(self):
        assert blocking_probability(report(arrived=100, blocked=0)) == 0

    def test_all_blocked(self):
        assert blocking_probability(report(arrived=100, blocked=100)) == 1

    def test_arithmetic(self):
        assert blocking_probability(report(arrived=200, blocked=7)) == 0.035

    def test_zero_arrivals(self):
        with pytest.raises(ZeroArrivalsError):
            blocking_probability(report())


class TestBandwidthBlockingProbability:
    def test_all_admitted(self):
        assert bandwidth_blocking_probability(
            report(arrived=10, slots_requested=50)
        ) == 0

    def test_one_nine_slot_block(self):
        r = report(arrived=20, blocked=1, slots_requested=90, slots_blocked=9)
        assert bandwidth_blocking_probability(r) == pytest.approx(0.1)

    def test_bbp_exceeds_bp_when_large_requests_block(self):
        # Three 1-slot admits plus one blocked 9-slot request.
        r = report(arrived=4, blocked=1, slots_requested=12, slots_blocked=9)
        assert bandwidth_blocking_probability(r) == 0.75
        assert blocking_probability(r) == 0.25
        assert bandwidth_blocking_probability(r) >= blocking_probability(r)

    def test_zero_demand(self):
        with pytest.raises(ZeroDemandError):
            bandwidth_blocking_probability(report(arrived=1))


class TestSpectrumUtilization:
    def test_idle_run(self):
        assert spectrum_utilization(report(slot_time_capacity=100.0)) == 0

    def test_single_slot_connection_for_whole_window(self):
        window = 500.0
        r = report(
            slot_time_used=window * 1,
            slot_time_capacity=22 * 320 * window,
        )
        assert spectrum_utilization(r) == pytest.approx(1 / (22 * 320))

    def test_zero_capacity_returns_zero(self):
        assert spectrum_utilization(report()) == 0.0


class TestCapacityUsedForProtection:
    def test_no_protection(self):
        assert capacity_used_for_protection(report()) == 0

    def test_shared_slots_count_once(self):
        # Two working paths fully sharing one 3-slot backup link over a
        # 10-second window contribute 30 slot-seconds, not 60.
        r = report(protection_slot_time=3 * 10.0)
        assert capacity_used_for_protection(r) == 30.0


class TestRestorability:
    def test_absent_when_nothing_needed_protection(self):
        assert restorability(report()) is None

    def test_all_protected(self):
        assert restorability(report(arrived=5, needing_protection=5, protected_count=5)) == 1.0

    def test_three_of_four(self):
        assert restorability(report(arrived=4, needing_protection=4, protected_count=3)) == 0.75
