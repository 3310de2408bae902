"""Availability math: compositions, update recurrences, Monte-Carlo oracle."""

import math

import pytest
from hypothesis import given, strategies as st

from eonprotect.availability import (
    ParallelSystem,
    SeriesParallelSystem,
    SeriesSystem,
    ava_dcyc_update,
    ava_dsbpss_update,
    link_availability,
    monte_carlo_availability,
    parallel_availability,
    series_availability,
    series_parallel_availability,
    structure_series,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestStructureSeries:
    # A 3-link series path is up only in the all-links-up state.
    TABLE = [
        ((0, 0, 0), 0),
        ((0, 0, 1), 0),
        ((0, 1, 0), 0),
        ((0, 1, 1), 0),
        ((1, 0, 0), 0),
        ((1, 0, 1), 0),
        ((1, 1, 0), 0),
        ((1, 1, 1), 1),
    ]

    @pytest.mark.parametrize("x,expect", TABLE)
    def test_three_link_state_table(self, x, expect):
        assert structure_series(list(x)) == expect

    def test_rejects_empty_and_non_binary(self):
        with pytest.raises(ValueError):
            structure_series([])
        with pytest.raises(ValueError):
            structure_series([1, 2])


class TestLinkAvailability:
    def test_zero_repair_time(self):
        assert link_availability(123.0, 0.0) == 1.0

    def test_999_to_1(self):
        assert link_availability(999, 1) == pytest.approx(0.999, abs=1e-15)

    def test_symmetry(self):
        assert link_availability(1, 1) == 0.5

    def test_rejects_nonpositive_mttf(self):
        with pytest.raises(ValueError):
            link_availability(0, 1)


class TestSeriesAvailability:
    def test_four_two_nine_links(self):
        assert series_availability([0.99] * 4) == pytest.approx(0.96059601, abs=1e-12)

    def test_identity(self):
        assert series_availability([1, 1, 1]) == 1

    def test_empty_product_is_one(self):
        assert series_availability([]) == 1

    def test_power_identity(self):
        assert series_availability([0.97] * 5) == 0.97**5


class TestParallelAvailability:
    def test_two_branches(self):
        assert parallel_availability([0.9, 0.9]) == pytest.approx(0.99, abs=1e-12)

    def test_perfect_branch_dominates(self):
        assert parallel_availability([1.0, 0.123]) == 1.0

    def test_single_branch(self):
        assert parallel_availability([0.42]) == pytest.approx(0.42)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parallel_availability([])


class TestSeriesParallelAvailability:
    def test_one_protected_pair(self):
        got = series_parallel_availability([(0.9, 0.9)], [1, 1])
        assert got == pytest.approx(0.99, abs=1e-12)

    def test_reduces_to_series_when_nothing_protected(self):
        links = [0.9, 0.95, 0.99]
        assert series_parallel_availability([], links) == series_availability(links)

    def test_four_link_path_with_one_four_hop_backup(self):
        # 4-link series path, every link 0.99; the third link carries a
        # dedicated 4-hop backup route (availability 0.99^4).
        got = series_parallel_availability(
            [(0.99, 0.99**4)], [0.99, 0.99, 0.99]
        )
        expect = 0.99 * 0.99 * (1 - 0.01 * (1 - 0.99**4)) * 0.99
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.969917, abs=1e-6)
        # Independent confirmation by the sampling oracle.
        sys = SeriesParallelSystem(
            protected=((0.99, 0.99**4),), unprotected=(0.99, 0.99, 0.99)
        )
        est, err = monte_carlo_availability(sys, 10**6, seed=11)
        assert abs(est - got) < 3 * err


class TestAvaDsbpssUpdate:
    def test_direct_formula(self):
        assert ava_dsbpss_update(0.9, 0.9) == pytest.approx(0.99, abs=1e-12)

    def test_useless_backup(self):
        assert ava_dsbpss_update(0.7, 0.0) == pytest.approx(0.7)

    def test_perfect_backup(self):
        assert ava_dsbpss_update(0.7, 1.0) == 1.0

    @given(unit, unit)
    def test_non_decreasing(self, a_pp, a_bp):
        assert ava_dsbpss_update(a_pp, a_bp) >= a_pp - 1e-15

    @given(unit, unit, unit)
    def test_composes_to_parallel_form(self, p, b1, b2):
        stacked = ava_dsbpss_update(ava_dsbpss_update(p, b1), b2)
        closed = 1 - (1 - p) * (1 - b1) * (1 - b2)
        assert stacked == pytest.approx(closed, abs=1e-12)


class TestAvaDcycUpdate:
    def test_hand_evaluation(self):
        a_pp_new, a_pl = ava_dcyc_update(0.9 * 0.99, 0.9, 0.9)
        assert a_pl == pytest.approx(0.99, abs=1e-12)
        assert a_pp_new == pytest.approx(0.99 * 0.99, abs=1e-12)

    def test_no_improvement(self):
        a_pp_new, a_pl = ava_dcyc_update(0.81, 0.9, 0.0)
        assert (a_pp_new, a_pl) == (pytest.approx(0.81), pytest.approx(0.9))

    def test_perfect_link_unchanged(self):
        a_pp_new, a_pl = ava_dcyc_update(0.95, 1.0, 0.5)
        assert a_pl == 1.0
        assert a_pp_new == pytest.approx(0.95)

    def test_zero_link_guarded(self):
        with pytest.raises(ZeroDivisionError):
            ava_dcyc_update(0.5, 0.0, 0.9)

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_result_between_old_value_and_one(self, a_l, rest, a_bp):
        a_pp = a_l * rest
        a_pp_new, a_pl = ava_dcyc_update(a_pp, a_l, a_bp)
        assert a_pp - 1e-12 <= a_pp_new <= 1.0 + 1e-12
        assert a_l - 1e-12 <= a_pl <= 1.0 + 1e-12


class TestMonteCarloOracle:
    def test_perfect_series(self):
        est, err = monte_carlo_availability(SeriesSystem((1.0, 1.0)), 1000, seed=1)
        assert (est, err) == (1.0, 0.0)

    def test_series_of_four(self):
        sys = SeriesSystem((0.99,) * 4)
        est, err = monte_carlo_availability(sys, 10**6, seed=2)
        assert err > 0
        assert abs(est - 0.96059601) < 3 * err

    def test_parallel(self):
        sys = ParallelSystem(((0.9,), (0.9,)))
        est, err = monte_carlo_availability(sys, 10**6, seed=3)
        assert abs(est - 0.99) < 3 * err

    def test_series_parallel(self):
        sys = SeriesParallelSystem(protected=((0.8, 0.7),), unprotected=(0.9, 0.85))
        est, err = monte_carlo_availability(sys, 10**6, seed=4)
        exact = series_parallel_availability([(0.8, 0.7)], [0.9, 0.85])
        assert abs(est - exact) < 3 * err

    def test_stderr_formula(self):
        sys = SeriesSystem((0.5,))
        est, err = monte_carlo_availability(sys, 10000, seed=5)
        assert err == pytest.approx(math.sqrt(est * (1 - est) / 10000))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_availability(SeriesSystem((0.9,)), 0)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_chunk_below_one_before_any_draw(self, chunk):
        class NoDraws(SeriesSystem):
            def evaluate(self, up):
                # A zero-row chunk never shrinks what is left to draw.
                raise AssertionError(f"drew a {up.shape} chunk")

        with pytest.raises(ValueError, match="chunk must be >= 1"):
            monte_carlo_availability(NoDraws((0.9,)), 100, chunk=chunk)

    def test_seeded_repeatability(self):
        sys = ParallelSystem(((0.6, 0.7), (0.8,)))
        assert monte_carlo_availability(sys, 50000, seed=9) == monte_carlo_availability(
            sys, 50000, seed=9
        )
