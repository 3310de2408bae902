"""Discrete-event engine: traffic generation, runs, warm-up, fault injection."""

import itertools
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from eonprotect import dcycles, dsbpss
from eonprotect import sim as sim_module
from eonprotect.availability import ProtectedPath, monte_carlo_availability
from eonprotect.rsa import (
    CandidatePath,
    LightpathRequest,
    ProvisionResult,
    _availability,
    rsacs_with_protection,
)
from eonprotect.sim import (
    ARRIVAL_CHUNK,
    Connection,
    RestorationReport,
    Scenario,
    Simulation,
    generate_arrivals,
    inject_single_failures,
    run,
)
from eonprotect.spectrum import SlotBlock, demand_to_slots

from conftest import hand_backup, reference_arcs


def small_scenario(**overrides):
    base = dict(
        load_erlang=15,
        a_th=0.99,
        mode="none",
        avg_link_availability=0.999,
        n_requests=1500,
        seed=7,
        mean_holding_s=1.0,
    )
    base.update(overrides)
    return Scenario(**base)


MESH24 = (Path(__file__).parent / "data" / "mesh24.topo").read_text()


def on_nsfnet_and_mesh24(cases):
    """Each (mode, avail, ath) case on the bundled NSFNET under its plain id,
    then on the 24-node Waxman mesh, as a fourth ``topology_text`` value."""
    def case_id(case):
        return "-".join(map(str, case))

    return (
        [pytest.param(*case, None, id=case_id(case)) for case in cases]
        + [pytest.param(*case, MESH24, id="mesh24-" + case_id(case)) for case in cases]
    )


class TestScenario:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_scenario(load_erlang=0)
        with pytest.raises(ValueError):
            small_scenario(n_requests=0)
        with pytest.raises(ValueError):
            small_scenario(mode="magic")

    # Past construction, each bad value would fail only at the first
    # arrival, after the whole arrival stream is generated, or not at all.
    @pytest.mark.parametrize("name, bad, good", [
        pytest.param(name, bad, good, id=name) for name, bad, good in [
            ("load_erlang", (0.0, -1.0, float("nan"), float("inf")), (1e-9,)),
            ("mean_holding_s", (0.0, -1.0, float("nan"), float("inf")), (1e-9,)),
            ("a_th", (0.0, 1.5, -0.5, float("nan")), (1.0, 1e-9)),
            # Jitter is on, so an average at or below 0.45/1.45 is out of range.
            ("avg_link_availability", (0.0, 1.01, float("nan"), 0.2, 0.31), (1.0, 0.3104)),
            ("k", (0, -1), (1,)),
            ("slot_count", (0, -3), (1,)),
            # Rates are drawn as int64, so int(b_max_gbps) + 1 must stay below 2**63.
            ("b_max_gbps", (0.0, -10.0, 0.5, float("inf"), 1e19, 2.0**63), (1.0, 2.0**62)),
            ("slot_ghz", (0.0, -12.5, float("inf")), (0.1,)),
            ("guard_ghz", (-0.1, float("inf")), (0.0,)),
            ("seed", (-1,), (0,)),
        ]
    ])
    def test_rejects_field_out_of_range(self, name, bad, good):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                small_scenario(**{name: value})
        for value in good:
            assert getattr(small_scenario(**{name: value}), name) == value

    # A float count changes the path search or fails deep inside numpy or a
    # shift; a bool is an int to Python but never a count.
    @pytest.mark.parametrize("name, bad", [
        ("k", (2.5, 3.0, True)),
        ("slot_count", (320.0, 40.5, True)),
        ("n_requests", (100.5, 1500.0, True)),
        ("seed", (1.5, 2.0, False)),
    ])
    def test_rejects_count_that_is_not_an_int(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                small_scenario(**{name: value})

    # A bool is an int to Python, so it would run as 0 or 1 (a_th = 1.0,
    # 1 Erlang, 1 GHz slots); a string would raise TypeError in a range check.
    @pytest.mark.parametrize("name", [
        "load_erlang", "a_th", "avg_link_availability", "mean_holding_s",
        "b_max_gbps", "slot_ghz", "guard_ghz",
    ])
    def test_rejects_real_that_is_not_a_number(self, name):
        for value in (True, False, "20", None, 1 + 0j):
            with pytest.raises(ValueError, match=f"{name} must be an int or a float"):
                small_scenario(**{name: value})

    # A non-bool flag would keep the default whenever it is truthy
    # ("false" keeps jitter and the per-node rate), and non-str topology text
    # would fail only inside load_topology.
    @pytest.mark.parametrize("name, bad", [
        ("load_per_node", ("false", 0, 1, None)),
        ("jitter_availability", ("false", 0, 1, None)),
        ("topology_text", (b"link a b 100\n", 7, ["link a b 100"])),
    ])
    def test_rejects_flag_or_text_of_wrong_type(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                small_scenario(**{name: value})

    def test_any_positive_average_without_jitter(self):
        sc = small_scenario(avg_link_availability=1e-9, jitter_availability=False)
        assert sc.build_graph().links

    def test_arrival_rate_per_node(self):
        sc = small_scenario(load_erlang=15, mean_holding_s=10.0)
        assert sc.arrival_rate(14) == pytest.approx(15 * 14 / 10.0)

    def test_arrival_rate_network_wide(self):
        sc = small_scenario(load_erlang=15, mean_holding_s=10.0, load_per_node=False)
        assert sc.arrival_rate(14) == pytest.approx(1.5)

    def test_seed_streams_differ(self):
        traffic, avail = small_scenario().seeds()
        assert traffic != avail


def reference_arrivals(sc: Scenario, g) -> list[LightpathRequest]:
    """The per-index arrival builder that the bulk ``generate_arrivals``
    replaced, kept as the reference it must match exactly."""
    traffic_seed, _ = sc.seeds()
    rng = np.random.default_rng(traffic_seed)
    n = sc.n_requests
    lam = sc.arrival_rate(len(g.vertices))
    inter = rng.exponential(1.0 / lam, size=n)
    holding = rng.exponential(sc.mean_holding_s, size=n)
    rates = rng.integers(1, int(sc.b_max_gbps) + 1, size=n)
    src = rng.integers(0, len(g.vertices), size=n)
    dst_off = rng.integers(1, len(g.vertices), size=n)
    times = np.cumsum(inter)
    vertices = g.vertices
    requests = []
    for i in range(n):
        s = vertices[src[i]]
        d = vertices[(src[i] + dst_off[i]) % len(vertices)]
        slots = demand_to_slots(float(rates[i]), sc.slot_ghz, sc.guard_ghz)
        requests.append(LightpathRequest(
            s, d, slots, k=sc.k, arrival_s=float(times[i]), holding_s=float(holding[i])
        ))
    return requests


class TestGenerateArrivals:
    @pytest.mark.parametrize("overrides", [
        # small_scenario's own overrides set back to Scenario's defaults.
        pytest.param(dict(n_requests=100_000, seed=1, mean_holding_s=10.0), id="nsfnet-defaults"),
        pytest.param(dict(load_per_node=False), id="network-wide-load"),
        pytest.param(dict(b_max_gbps=40.5), id="b_max-40.5"),
        pytest.param(dict(k=3), id="k-3"),
        pytest.param(dict(slot_ghz=6.25, guard_ghz=0.0), id="slot-6.25-no-guard"),
        pytest.param(dict(slot_ghz=50.0, guard_ghz=37.5), id="slot-50-guard-37.5"),
        pytest.param(dict(topology_text="link a b 100\n"), id="two-nodes"),
        pytest.param(dict(n_requests=1), id="one-request"),
        pytest.param(dict(n_requests=ARRIVAL_CHUNK), id="one-chunk"),
        pytest.param(dict(n_requests=2 * ARRIVAL_CHUNK + 17), id="chunks-and-a-part"),
    ])
    def test_bulk_builder_matches_per_index_reference(self, overrides):
        sc = small_scenario(**overrides)
        g = sc.build_graph()
        built, expected = generate_arrivals(sc, g), reference_arrivals(sc, g)
        assert len(built) == len(expected) == sc.n_requests
        for got, want in zip(built, expected):
            assert type(got) is LightpathRequest
            for name in LightpathRequest._fields:
                x, y = getattr(got, name), getattr(want, name)
                assert type(x) is type(y) and x == y, (name, got, want)

    def test_seeded_streams_identical(self):
        sc = small_scenario()
        g = sc.build_graph()
        assert generate_arrivals(sc, g) == generate_arrivals(sc, g)

    def test_inter_arrival_mean_within_one_percent(self):
        sc = small_scenario(n_requests=100_000, mean_holding_s=10.0)
        g = sc.build_graph()
        times = np.array([lr.arrival_s for lr in generate_arrivals(sc, g)])
        inter = np.diff(np.concatenate([[0.0], times]))
        lam = sc.arrival_rate(len(g.vertices))
        assert abs(inter.mean() - 1 / lam) < 0.01 / lam

    def test_slot_demands_span_expected_range(self):
        sc = small_scenario(n_requests=20_000)
        g = sc.build_graph()
        slots = {lr.slots_needed for lr in generate_arrivals(sc, g)}
        assert slots == set(range(2, 10))

    def test_endpoints_distinct(self):
        sc = small_scenario(n_requests=5000)
        g = sc.build_graph()
        assert all(lr.s != lr.d for lr in generate_arrivals(sc, g))


class TestRun:
    def test_tiny_load_never_blocks(self):
        report = run(small_scenario(load_erlang=0.1, n_requests=800))
        assert report.arrived > 0
        assert report.blocked == 0

    def test_same_seed_bit_identical_report(self):
        sc = small_scenario(mode="dsbpss", avg_link_availability=0.9, a_th=0.99)
        assert run(sc) == run(sc)

    def test_availability_above_threshold_never_protects(self):
        sc = small_scenario(
            mode="dsbpss", avg_link_availability=0.999999, a_th=0.9, n_requests=2000
        )
        report = run(sc)
        assert report.needing_protection == 0
        assert report.protection_slot_time == 0.0

    def test_protection_consumes_capacity_when_active(self):
        sc = small_scenario(
            mode="dsbpss", avg_link_availability=0.9, a_th=0.99, n_requests=1500
        )
        report = run(sc)
        assert report.needing_protection > 0
        assert report.protection_slot_time > 0.0

    def test_warmup_excludes_early_arrivals(self):
        # All 200 arrivals land well before the 3x-holding warm-up boundary.
        sc = small_scenario(n_requests=200, mean_holding_s=50.0)
        report = run(sc)
        assert report.arrived == 0

    @pytest.mark.parametrize("mode,avail,ath", [
        ("none", 0.999, 0.99),
        ("dsbpss", 0.9, 0.99),
        ("dcycles", 0.99, 0.999),
    ])
    def test_conservation_after_run(self, mode, avail, ath):
        sc = small_scenario(
            mode=mode, avg_link_availability=avail, a_th=ath, n_requests=1200
        )
        sim = Simulation(sc)
        sim.run()
        assert sim.graph.busy_slot_count() == 0
        assert sim.registry.is_empty()
        assert sim.cycles.is_empty()
        assert not sim.live

    def test_arrival_goes_before_departure_at_the_same_time(self, monkeypatch):
        # Each request fills the only link; the first departs at t=2.0, the
        # moment the second arrives, so the second finds the link still full.
        requests = [
            LightpathRequest("a", "b", 4, arrival_s=1.0, holding_s=1.0),
            LightpathRequest("a", "b", 4, arrival_s=2.0, holding_s=1.0),
        ]
        monkeypatch.setattr(sim_module, "generate_arrivals", lambda sc, g: requests)
        sc = small_scenario(
            n_requests=2, mean_holding_s=0.1, slot_count=4,
            topology_text="link a b 100\n",
        )
        report = run(sc)
        assert report.arrived == 2
        assert report.blocked == 1

    def test_departure_never_precedes_arrival(self):
        sc = small_scenario(n_requests=400)
        sim = Simulation(sc)
        sim.run(max_arrivals=200)
        # Pausing mid-stream leaves only live (already-arrived) connections.
        for conn in sim.live.values():
            assert conn.request.arrival_s <= sim._now


class TestReservedCounts:
    """Working slots plus the reserved counters equal a recount after every arrival."""

    @pytest.mark.parametrize("mode,avail,ath,topology_text", on_nsfnet_and_mesh24([
        ("dsbpss", 0.9, 0.99),
        ("dcycles", 0.99, 0.999),
    ]))
    def test_counters_match_recount_at_every_step(self, mode, avail, ath, topology_text):
        n = 400
        sim = Simulation(small_scenario(
            mode=mode, avg_link_availability=avail, a_th=ath, load_erlang=20,
            n_requests=n, topology_text=topology_text,
        ))
        rollbacks = shared = cycled = 0
        for i in range(1, n + 1):
            before = set(sim.live)
            sim.run(max_arrivals=i)
            for cid in sim.live.keys() - before:
                result = sim.live[cid].result
                rollbacks += result.needs_protection and not result.protected
            working = sum(
                conn.request.slots_needed * conn.result.path.hops
                for conn in sim.live.values()
            )
            # One bit of the packed held per reserved (link, slot) pair.
            held = sim.registry.held.bit_count()
            cycle_slots = sum(
                block.length
                for cycle in sim.cycles.cycles.values()
                for block in cycle.blocks.values()
            )
            assert sim.registry.reserved == held
            assert sim.cycles.reserved == cycle_slots
            assert working + held + cycle_slots == sim.graph.busy_slot_count()
            claimed = sum(
                bp.block.length * len(bp.links)
                for conn in sim.live.values()
                for bp in conn.result.backup_paths
            )
            # Backup slots held for two working paths count once.
            shared += claimed > held
            cycled += cycle_slots > 0
        assert rollbacks
        assert shared if mode == "dsbpss" else cycled
        sim.run()
        assert sim.registry.reserved == sim.cycles.reserved == 0


class TestProtectionCallsModuleNames:
    """Each mode's protection calls its module's functions by their names.

    perfbench's span tracer wraps a function at its module-level name, so a
    protection object that called a reference captured elsewhere would
    read 0 on every per-layer metric of its mode without failing.
    """

    FUNCTIONS = {
        "dsbpss": (dsbpss, ("provision_backups", "release_wp")),
        "dcycles": (dcycles, ("provision_cycles", "release_wp", "check_cycles", "find_cycle_for")),
    }

    @staticmethod
    def counting(calls, key, real):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return counted

    @pytest.mark.parametrize("mode,avail,ath", [
        ("none", 0.9, 0.99),
        ("dsbpss", 0.9, 0.99),
        ("dcycles", 0.99, 0.999),
    ])
    def test_mode_calls_its_own_functions_only(self, monkeypatch, mode, avail, ath):
        calls = Counter()
        for module_name, (module, names) in self.FUNCTIONS.items():
            for name in names:
                key = f"{module_name}.{name}"
                monkeypatch.setattr(module, name, self.counting(calls, key, getattr(module, name)))
        Simulation(small_scenario(
            mode=mode, avg_link_availability=avail, a_th=ath, load_erlang=20, n_requests=300,
        )).run()
        _, own = self.FUNCTIONS.get(mode, (None, ()))
        assert set(calls) == {f"{mode}.{name}" for name in own}


class TestInjectSingleFailures:
    def make_sim(self, mode="dsbpss"):
        sc = small_scenario(
            mode=mode, avg_link_availability=0.9, a_th=0.95,
            jitter_availability=False, n_requests=10,
        )
        return Simulation(sc)

    def add_conn(self, sim, s, d, slots, a_th):
        lr = LightpathRequest(s, d, slots)
        cid = f"t{len(sim.live) + 1}"
        res = rsacs_with_protection(sim.graph, lr, a_th, sim.protection, cid)
        assert not res.blocked
        sim.live[cid] = Connection(cid, lr, res)
        return res

    def test_single_protected_wp_restored_on_all_its_links(self):
        sim = self.make_sim()
        res = self.add_conn(sim, "1", "2", 2, a_th=0.95)
        assert res.protected
        report = inject_single_failures(sim)
        assert report.conflicts == 0
        wp_links = {l.id for l in res.path.links}
        for lid, (restored, unrestored) in report.per_link.items():
            if lid in wp_links:
                assert (restored, unrestored) == (1, 0)
            else:
                assert (restored, unrestored) == (0, 0)

    def test_unprotected_wp_reports_unrestored(self):
        sim = self.make_sim(mode="none")
        res = self.add_conn(sim, "1", "2", 2, a_th=0.95)
        assert res.needs_protection and not res.protected
        report = inject_single_failures(sim)
        for l in res.path.links:
            assert report.per_link[l.id] == (0, 1)

    def test_dcycle_protected_links_restore_via_arcs(self):
        sim = self.make_sim(mode="dcycles")
        res = self.add_conn(sim, "9", "12", 2, a_th=0.95)
        assert res.protected
        report = inject_single_failures(sim)
        assert report.conflicts == 0
        protected_ids = {lid for _, lid in res.protected_links}
        for lid in protected_ids:
            assert report.per_link[lid][0] == 1

    def test_random_prefix_has_zero_conflicts(self):
        sc = small_scenario(
            mode="dsbpss", avg_link_availability=0.9, a_th=0.99, n_requests=500
        )
        sim = Simulation(sc)
        sim.run(max_arrivals=500)
        report = inject_single_failures(sim)
        assert report.conflicts == 0
        assert len(report.per_link) == 22


def reference_inject_single_failures(sim):
    """Per-slot fault injection as first written: the reference for the mask version."""
    report = RestorationReport()
    for fid in sorted(sim.graph.links):
        affected = [
            conn for conn in sim.live.values()
            if any(link.id == fid for link in conn.result.path.links)
        ]
        claims: dict[tuple[str, int], str] = {}
        restored = unrestored = 0
        for conn in affected:
            recovery = reference_recovery_slots(sim, conn, fid)
            if recovery is None:
                unrestored += 1
                continue
            restored += 1
            for key in recovery:
                if key in claims and claims[key] != conn.id:
                    report.conflicts += 1
                claims[key] = conn.id
        report.per_link[fid] = (restored, unrestored)
    return report


def reference_recovery_slots(sim, conn, failed_link):
    """Reserved (link, slot) pairs the connection would occupy after the failure."""
    result = conn.result
    if result.backup_paths:
        for bp in result.backup_paths:
            if failed_link not in {link.id for link in bp.links}:
                return [
                    (link.id, s)
                    for link in bp.links
                    for s in range(bp.block.start, bp.block.start + bp.block.length)
                ]
        return None
    if result.protected_links:
        for cid, lid in result.protected_links:
            if lid != failed_link:
                continue
            cycle = sim.cycles.cycles[cid]
            failed = sim.graph.links[failed_link]
            blocks = cycle.blocks
            slots = []
            for arc in reference_arcs(cycle, failed):
                for lid in arc:
                    block = blocks[lid]
                    slots.extend((lid, s) for s in range(block.start, block.start + block.length))
            return slots
        return None
    return None


class TestInjectSingleFailuresMatchesReference:
    @pytest.mark.parametrize("mode,avail,ath,topology_text", on_nsfnet_and_mesh24([
        ("none", 0.9, 0.99),
        ("dsbpss", 0.9, 0.99),
        ("dcycles", 0.99, 0.999),
    ]))
    def test_equal_at_pause_points(self, mode, avail, ath, topology_text):
        sim = Simulation(small_scenario(
            mode=mode, avg_link_availability=avail, a_th=ath, n_requests=1200,
            topology_text=topology_text,
        ))
        restored = affected = 0
        for done in range(200, 1201, 200):
            sim.run(max_arrivals=done)
            report = inject_single_failures(sim)
            reference = reference_inject_single_failures(sim)
            assert report.per_link == reference.per_link
            assert report.conflicts == reference.conflicts == 0
            restored += sum(r for r, _ in report.per_link.values())
            affected += sum(r + u for r, u in report.per_link.values())
        assert affected > 0
        # Mode none has no options, so nothing is ever restored.
        assert (restored > 0) is (mode != "none")

    @staticmethod
    def add_hand_conn(sim, cid, wp, bp, start, length=3):
        """A live connection over ``wp`` with one backup over ``bp`` at ``start``.

        Nothing is reserved: fault injection reads only the live results.
        """
        g = sim.graph
        index = g.link_index()
        full = (1 << g.slot_count) - 1
        on_wp = tuple(index.between[a][b] for a, b in zip(wp, wp[1:]))
        # With every slot free, a window of ``length`` starts at any slot
        # up to slot_count - length.
        run = full >> length - 1
        path = CandidatePath(
            index.links, wp[0], on_wp, run, length, _availability(index.links, on_wp)
        )
        backup = hand_backup(g, f"{cid}/bp1", bp, SlotBlock(start, length))
        result = ProvisionResult(
            blocked=False, path=path, block=SlotBlock(0, length),
            needs_protection=True, protected=True, backup_paths=[backup],
        )
        sim.live[cid] = Connection(cid, LightpathRequest(wp[0], wp[-1], length), result)

    # Every connection works over 1-2 and backs up over 1-3-2 with a 3-slot
    # block at the given start; the expected count is, over the (link, slot)
    # pairs of links 1-3 and 2-3, the number of claimers minus one.
    @pytest.mark.parametrize("starts,expected", [
        ((0, 1), 2 * 2),
        ((0, 0), 2 * 3),
        ((0, 3), 0),
        ((0, 1, 2), 2 * (1 + 2 + 1)),
    ])
    def test_forced_overlap_counts_each_shared_slot(self, starts, expected):
        sim = Simulation(small_scenario(mode="dsbpss", n_requests=10))
        for i, start in enumerate(starts):
            self.add_hand_conn(sim, f"h{i}", ("1", "2"), ("1", "3", "2"), start)
        report = inject_single_failures(sim)
        reference = reference_inject_single_failures(sim)
        assert report.conflicts == reference.conflicts == expected
        assert report.per_link == reference.per_link
        assert report.per_link["1-2"] == (len(starts), 0)

    def test_option_needing_the_failed_link_restores_nothing(self):
        # The one backup of 1-2-4 runs over 1-2, one of its own working
        # links: it covers a failure of 2-4 but not one of 1-2.
        sim = Simulation(small_scenario(mode="dsbpss", n_requests=10))
        self.add_hand_conn(sim, "h0", ("1", "2", "4"), ("1", "2", "3", "6", "5", "4"), 0)
        report = inject_single_failures(sim)
        assert report.per_link["1-2"] == (0, 1)
        assert report.per_link["2-4"] == (1, 0)
        assert report.per_link == reference_inject_single_failures(sim).per_link


def test_options_match_the_recurrence_where_it_is_exact():
    """A live WP whose backups share no link is a parallel system, where
    the stacked ``ava_dsbpss_update`` is exact: ``a_pp_max`` must agree
    with the oracle run on the structure its options describe.  (Backups
    that share links make the recurrence overstate it: ROADMAP item 6.)

    Each of the 31 checks is held to the Sidak bound that keeps the family
    at a 1 % false-alarm rate with fresh draws (about 3.6 sigma; at 3 sigma
    each, about 8 %).
    """
    sim = Simulation(Scenario(
        load_erlang=20, a_th=0.99, mode="dsbpss", avg_link_availability=0.9,
        n_requests=3000, seed=1,
    ))
    sim.run(max_arrivals=3000)
    g = sim.graph
    avail = tuple(link.availability for link in g.link_index().links)
    # (conn id, estimate, standard error, deviation in standard errors)
    checks = []
    for conn in sim.live.values():
        options = sim.protection.options(g, conn.result)
        needs = [n for _, n, _ in options]
        if not options or any(a & b for a, b in itertools.combinations(needs, 2)):
            continue
        wp = options[0][0]
        path = ProtectedPath(avail, wp, tuple(options))
        est, err = monte_carlo_availability(path, 200_000, seed=len(checks))
        checks.append((conn.id, est, err, abs(est - conn.result.a_pp_max) / err))
    assert checks
    per_check = 1 - (1 - 0.01) ** (1 / len(checks))
    sigmas = NormalDist().inv_cdf(1 - per_check / 2)
    assert [c for c in checks if not c[3] < sigmas] == []


def test_connection_is_a_slotted_record():
    lr = LightpathRequest("a", "b", 1)
    result = ProvisionResult(blocked=True)
    conn = Connection("c1", lr, result)
    assert (conn.id, conn.request, conn.result) == ("c1", lr, result)
    assert Connection(id="c2", request=lr, result=result).id == "c2"
    assert not hasattr(conn, "__dict__")
