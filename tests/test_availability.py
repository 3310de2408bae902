"""Availability math: compositions, update recurrences, Monte-Carlo oracle."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eonprotect.availability import (
    ProtectedPath,
    ava_dcyc_update,
    ava_dsbpss_update,
    link_availability,
    monte_carlo_availability,
    parallel_availability,
)
from eonprotect.rsa import CandidatePath

unit = st.floats(0.0, 1.0, allow_nan=False)


def path_product(links):
    """The availability ``rsa`` gives a path over links of these availabilities."""
    table = tuple(SimpleNamespace(availability=a) for a in links)
    return CandidatePath(table, "s", tuple(range(len(links))), 1, 1).availability


class TestStructureSeries:
    # A 3-link working path with no options is up only in the all-links-up state.
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
        path = ProtectedPath((0.9, 0.9, 0.9), 0b111, ())
        assert path.evaluate(np.array([x], dtype=bool)).tolist() == [bool(expect)]


class TestProtectedPath:
    def test_each_link_up_or_covered_by_a_working_option(self):
        # Working links 0 and 1; link 0 has a cycle arc over link 2, and a
        # backup over links 3 and 4 covers both working links.
        path = ProtectedPath(
            (0.9,) * 5, 0b00011, ((0b01, 0b00100, 0), (0b11, 0b11000, 0)),
        )
        states = np.array(list(itertools.product((0, 1), repeat=5)), dtype=bool)
        x0, x1, x2, x3, x4 = states.T
        backup = x3 & x4
        expect = (x0 | x2 | backup) & (x1 | backup)
        assert path.evaluate(states).tolist() == expect.tolist()

    def test_an_option_needing_a_working_link_is_down_with_it(self):
        # The option covers link 0 but needs link 1, a working link.
        path = ProtectedPath((0.9,) * 3, 0b011, ((0b001, 0b110, 0),))
        states = np.array(list(itertools.product((0, 1), repeat=3)), dtype=bool)
        x0, x1, x2 = states.T
        assert path.evaluate(states).tolist() == ((x0 | x2) & x1).tolist()


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
    """The path product, as ``CandidatePath`` takes it in path order."""

    def test_four_two_nine_links(self):
        assert path_product([0.99] * 4) == pytest.approx(0.96059601, abs=1e-12)

    def test_identity(self):
        assert path_product([1, 1, 1]) == 1

    def test_empty_product_is_one(self):
        assert path_product([]) == 1

    def test_power_identity(self):
        assert path_product([0.97] * 5) == 0.97**5


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
    """A path whose links carry cycles, by the chained ``ava_dcyc_update``."""

    def test_one_protected_pair(self):
        got, _ = ava_dcyc_update(path_product([0.9, 1, 1]), 0.9, 0.9)
        assert got == pytest.approx(0.99, abs=1e-12)

    def test_reduces_to_series_when_nothing_protected(self):
        links = [0.9, 0.95, 0.99]
        a_pp = path_product(links)
        for a_l in links:
            # A backup that is never up leaves every factor as it was.
            a_pp, _ = ava_dcyc_update(a_pp, a_l, 0.0)
        assert a_pp == pytest.approx(path_product(links), abs=1e-15)

    def test_four_link_path_with_one_four_hop_backup(self):
        # 4-link series path, every link 0.99; the third link carries a
        # dedicated 4-hop backup route (availability 0.99^4).
        got, _ = ava_dcyc_update(path_product([0.99] * 4), 0.99, 0.99**4)
        expect = 0.99 * 0.99 * (1 - 0.01 * (1 - 0.99**4)) * 0.99
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.969917, abs=1e-6)
        # Independent confirmation by the sampling oracle: working links
        # 0-3, the backup over links 4-7 covers link 2.
        path = ProtectedPath((0.99,) * 8, 0b1111, ((0b0100, 0b11110000, 0),))
        est, err = monte_carlo_availability(path, 10**6, seed=11)
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
        path = ProtectedPath((1.0, 1.0), 0b11, ())
        est, err = monte_carlo_availability(path, 1000, seed=1)
        assert (est, err) == (1.0, 0.0)

    def test_series_of_four(self):
        path = ProtectedPath((0.99,) * 4, 0b1111, ())
        est, err = monte_carlo_availability(path, 10**6, seed=2)
        assert err > 0
        assert abs(est - 0.96059601) < 3 * err

    def test_parallel(self):
        # A one-link working path and a one-link backup.
        path = ProtectedPath((0.9, 0.9), 0b01, ((0b01, 0b10, 0),))
        est, err = monte_carlo_availability(path, 10**6, seed=3)
        assert abs(est - 0.99) < 3 * err

    def test_series_parallel(self):
        # Working links 0-2; link 0 (0.8) is covered by link 3 (0.7).
        path = ProtectedPath((0.8, 0.9, 0.85, 0.7), 0b0111, ((0b0001, 0b1000, 0),))
        est, err = monte_carlo_availability(path, 10**6, seed=4)
        exact, _ = ava_dcyc_update(path_product([0.8, 0.9, 0.85]), 0.8, 0.7)
        assert abs(est - exact) < 3 * err

    def test_stderr_formula(self):
        path = ProtectedPath((0.5,), 0b1, ())
        est, err = monte_carlo_availability(path, 10000, seed=5)
        assert err == pytest.approx(math.sqrt(est * (1 - est) / 10000))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_availability(ProtectedPath((0.9,), 0b1, ()), 0)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_chunk_below_one_before_any_draw(self, chunk):
        class NoDraws(ProtectedPath):
            def evaluate(self, up):
                # A zero-row chunk never shrinks what is left to draw.
                raise AssertionError(f"drew a {up.shape} chunk")

        with pytest.raises(ValueError, match="chunk must be >= 1"):
            monte_carlo_availability(NoDraws((0.9,), 0b1, ()), 100, chunk=chunk)

    def test_seeded_repeatability(self):
        # A two-link working path and a one-link backup.
        path = ProtectedPath((0.6, 0.7, 0.8), 0b011, ((0b011, 0b100, 0),))
        assert monte_carlo_availability(path, 50000, seed=9) == monte_carlo_availability(
            path, 50000, seed=9
        )
