"""End-to-end acceptance suite.

Eight criteria, one test each; the terminal summary (tests/conftest.py)
prints a PASS/FAIL line per criterion.  The heavier tests reuse one shared
100k-request NSFNET run.
"""

import math
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from eonprotect.availability import (
    ProtectedPath,
    ava_dcyc_update,
    ava_dsbpss_update,
    monte_carlo_availability,
    parallel_availability,
)
from eonprotect.cli import CSV_COLUMNS, emit, run_cell
from eonprotect.sim import Scenario, Simulation, inject_single_failures

MESH24 = (Path(__file__).parent / "data" / "mesh24.topo").read_text()


# ---------------------------------------------------------------------------
# Shared 100k-request run (used by the gating and performance criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hundred_k_run():
    sc = Scenario(
        load_erlang=15,
        a_th=0.9,
        mode="dsbpss",
        avg_link_availability=0.999999,
        n_requests=100_000,
        seed=1,
    )
    t0 = time.perf_counter()
    sim = Simulation(sc)
    report = sim.run()
    elapsed = time.perf_counter() - t0
    return sim, report, elapsed


# ---------------------------------------------------------------------------
# Criterion 1: analytical availability vs Monte-Carlo oracle
# ---------------------------------------------------------------------------


def _mask(lo, hi):
    """Components lo..hi-1."""
    return (1 << hi) - (1 << lo)


def _random_system(rng):
    """A random protected path and the values the simulator's recurrences
    give it: the path product, chained ``ava_dsbpss_update`` over backups
    (and ``parallel_availability``, its closed form, which also combines a
    straddler's two arcs), or chained ``ava_dcyc_update`` over links that
    each have one arc.  No two branches share a component, which is where
    the recurrences are exact.
    """
    a = lambda: rng.uniform(0.4, 0.9)
    kind = rng.choice(("series", "parallel", "series-parallel"))
    if kind == "series":
        links = tuple(a() for _ in range(rng.randint(2, 6)))
        return ProtectedPath(links, _mask(0, len(links)), ()), (math.prod(links),)
    if kind == "parallel":
        # The first branch is the working path, the others its backups.
        branches = tuple(
            tuple(a() for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(2, 4))
        )
        wp = _mask(0, len(branches[0]))
        options, lo = [], len(branches[0])
        stacked = math.prod(branches[0])
        for branch in branches[1:]:
            options.append((wp, _mask(lo, lo + len(branch)), 0))
            lo += len(branch)
            stacked = ava_dsbpss_update(stacked, math.prod(branch))
        avail = tuple(x for branch in branches for x in branch)
        exact = parallel_availability([math.prod(b) for b in branches])
        return ProtectedPath(avail, wp, tuple(options)), (stacked, exact)
    # Working links 0, 2, ... carry a one-link arc at 1, 3, ...; the
    # unprotected working links come after them.
    protected = tuple((a(), a()) for _ in range(rng.randint(1, 4)))
    unprotected = tuple(a() for _ in range(rng.randint(0, 4)))
    n = 2 * len(protected)
    wp = _mask(n, n + len(unprotected))
    options = []
    for j in range(len(protected)):
        wp |= 1 << 2 * j
        options.append((1 << 2 * j, 1 << 2 * j + 1, 0))
    a_pp = math.prod(a_l for a_l, _ in protected) * math.prod(unprotected)
    for a_l, a_bp in protected:
        a_pp, _ = ava_dcyc_update(a_pp, a_l, a_bp)
    avail = tuple(x for pair in protected for x in pair) + unprotected
    return ProtectedPath(avail, wp, tuple(options)), (a_pp,)


# With fresh draws, correct code fails some check of a family of
# independent Monte-Carlo checks this often.
FAMILYWISE = 0.01


def sidak_sigmas(checks: int) -> float:
    """The bound, in standard errors, on each of ``checks`` independent
    two-sided normal checks that holds the family to ``FAMILYWISE``
    (Sidak: 1 - (1 - per_check) ** checks == FAMILYWISE)."""
    per_check = 1 - (1 - FAMILYWISE) ** (1 / checks)
    return statistics.NormalDist().inv_cdf(1 - per_check / 2)


def test_availability_calculus_vs_oracle():
    """Each recurrence agrees with the Monte-Carlo oracle within a bound
    that holds the whole family to a 1 % false-alarm rate.

    This makes 200 independent checks, one per system's estimate (a
    parallel system's two values are one value).  At 3 sigma each, correct
    code would fail at least one of them about 42 % of the time with fresh
    draws (another rng seed, sample count or chunking); at the Sidak bound,
    about 4.05 sigma, it fails 1 % of the time.
    """
    systems = 200
    sigmas = sidak_sigmas(systems)
    rng = random.Random(20240901)
    t0 = time.perf_counter()
    for i in range(systems):
        system, exacts = _random_system(rng)
        est, err = monte_carlo_availability(system, 10**6, seed=i)
        assert err > 0
        for exact in exacts:
            assert abs(est - exact) < sigmas * err, (system, exact, est, err)
    assert time.perf_counter() - t0 < 60


# ---------------------------------------------------------------------------
# Criterion 2: 3-link structure-function state table
# ---------------------------------------------------------------------------


def test_structure_function_table():
    # A 3-link working path with no options is up only when all 3 links are.
    path = ProtectedPath((0.9, 0.9, 0.9), 0b111, ())
    states = np.array([[(bits >> j) & 1 for j in range(3)] for bits in range(8)], dtype=bool)
    assert path.evaluate(states).tolist() == [bits == 7 for bits in range(8)]


# ---------------------------------------------------------------------------
# Criterion 3: update-formula identities
# ---------------------------------------------------------------------------


def test_update_formula_identities():
    rng = random.Random(42)
    # Stacked shared-backup updates compose to 1 - prod(1 - a_i).
    for _ in range(10_000):
        p = rng.random()
        backups = [rng.random() for _ in range(rng.randint(1, 5))]
        stacked = p
        for b in backups:
            stacked = ava_dsbpss_update(stacked, b)
        closed = 1 - (1 - p) * math.prod(1 - b for b in backups)
        assert abs(stacked - closed) <= 1e-12
    # Cycle update satisfies a_pp_new * a_l == a_pp * a_pl.
    for _ in range(10_000):
        a_l = rng.uniform(1e-6, 1.0)
        a_pp = a_l * rng.random()
        a_bp = rng.random()
        a_pp_new, a_pl = ava_dcyc_update(a_pp, a_l, a_bp)
        assert abs(a_pp_new * a_l - a_pp * a_pl) <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 4: threshold gating on the full-scale run
# ---------------------------------------------------------------------------


def test_threshold_gating_zero_protection(hundred_k_run):
    _, report, _ = hundred_k_run
    assert report.arrived > 0
    assert report.needing_protection == 0
    assert report.protection_slot_time == 0.0
    from eonprotect.metrics import restorability

    assert restorability(report) is None


# ---------------------------------------------------------------------------
# Criterion 5: exhaustive single-fault soundness after random prefixes
# ---------------------------------------------------------------------------


def _assert_protected_paths_restorable(sim):
    for conn in sim.live.values():
        result = conn.result
        if not result.protected:
            continue
        if result.backup_paths:
            wp_links = {l.id for l in result.path.links}
            for failed in wp_links:
                assert any(
                    failed not in {l.id for l in bp.links}
                    for bp in result.backup_paths
                ), (conn.id, failed)
        if result.protected_links:
            position = sim.graph.link_index().position
            for cid, lid in result.protected_links:
                cycle = sim.cycles.cycles[cid]
                assert position[lid] in cycle.protected
                assert cycle.protected[position[lid]] == conn.id


def test_single_fault_restorability_soundness():
    rng = random.Random(777)
    t0 = time.perf_counter()
    prefixes = 0
    # 50 draws on the bundled NSFNET, then 3 on the 24-node Waxman mesh.
    for topology_text, draws in ((None, 50), (MESH24, 3)):
        for _ in range(draws):
            avail, ath = rng.choice([(0.9, 0.99), (0.99, 0.999)])
            load = rng.choice([15, 20, 25])
            seed = rng.randint(0, 10**6)
            for mode in ("dsbpss", "dcycles"):
                sc = Scenario(
                    load_erlang=load,
                    a_th=ath,
                    mode=mode,
                    avg_link_availability=avail,
                    n_requests=500,
                    seed=seed,
                    mean_holding_s=1.0,
                    topology_text=topology_text,
                )
                sim = Simulation(sc)
                sim.run(max_arrivals=500)
                report = inject_single_failures(sim)
                assert report.conflicts == 0, (mode, seed)
                assert len(report.per_link) == len(sim.graph.links)
                _assert_protected_paths_restorable(sim)
                prefixes += 1
    assert prefixes == 106
    assert time.perf_counter() - t0 < 600


# ---------------------------------------------------------------------------
# Criterion 6: blocking-probability trends across loads and modes
# ---------------------------------------------------------------------------


def _mean_bp(mode, load, avail, ath, seeds, n=2000):
    values = []
    for seed in seeds:
        sc = Scenario(
            load_erlang=load,
            a_th=ath,
            mode=mode,
            avg_link_availability=avail,
            n_requests=n,
            seed=seed,
            mean_holding_s=1.0,
        )
        report = Simulation(sc).run()
        values.append(report.blocked / report.arrived)
    return values


def test_blocking_probability_trends():
    seeds = [1, 2, 3, 4, 5]
    loads = [15, 20, 25]
    # Operating points where protection is actually reachable and active.
    for mode, avail, ath in (("dsbpss", 0.9, 0.99), ("dcycles", 0.99, 0.999)):
        protected = {load: _mean_bp(mode, load, avail, ath, seeds) for load in loads}
        baseline = {load: _mean_bp("none", load, avail, ath, seeds) for load in loads}
        for series in (protected, baseline):
            for lo, hi in zip(loads, loads[1:]):
                m_lo, m_hi = statistics.mean(series[lo]), statistics.mean(series[hi])
                pooled = math.sqrt(
                    (statistics.pvariance(series[lo]) + statistics.pvariance(series[hi]))
                    / 2
                )
                assert m_hi >= m_lo - pooled, (mode, lo, hi, m_lo, m_hi, pooled)
        for load in loads:
            assert statistics.mean(protected[load]) > statistics.mean(
                baseline[load]
            ), (mode, load)


# ---------------------------------------------------------------------------
# Criterion 7: conservation and deterministic replay
# ---------------------------------------------------------------------------


def _strip_runtime(text):
    idx = CSV_COLUMNS.index("runtime_s")
    out = []
    for line in text.splitlines():
        parts = line.split(",")
        parts[idx] = ""
        out.append(",".join(parts))
    return "\n".join(out)


def test_conservation_and_deterministic_replay(tmp_path):
    for mode, avail, ath in (
        ("none", 0.999, 0.99),
        ("dsbpss", 0.9, 0.99),
        ("dcycles", 0.99, 0.999),
    ):
        sc = Scenario(
            load_erlang=20,
            a_th=ath,
            mode=mode,
            avg_link_availability=avail,
            n_requests=1500,
            seed=11,
            mean_holding_s=1.0,
        )
        sim = Simulation(sc)
        sim.run()
        assert sim.graph.busy_slot_count() == 0
        assert sum(l.bitmap.size for l in sim.graph.links.values()) == 22 * 320
        assert sim.registry.is_empty()
        assert sim.cycles.is_empty()
        assert not sim.live

    # Identical seed + config produce identical CSV bytes; only the wall-time
    # column may differ between the two executions.
    cell = dict(
        mode="dsbpss",
        load_erlang=20.0,
        avg_link_availability=0.9,
        a_th=0.99,
        n_requests=1500,
        seed=11,
        mean_holding_s=1.0,
    )
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        emit([run_cell(dict(cell))], "csv", str(out))
        paths.append(out)
    assert _strip_runtime(paths[0].read_text()) == _strip_runtime(paths[1].read_text())


# ---------------------------------------------------------------------------
# Criterion 8: full-scale performance
# ---------------------------------------------------------------------------


def test_hundred_k_run_performance(hundred_k_run):
    _, report, elapsed = hundred_k_run
    assert report.arrived > 0
    assert elapsed < 300, f"100k-request run took {elapsed:.1f} s"
