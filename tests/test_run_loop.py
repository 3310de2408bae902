"""The run loop against the four-method loop it replaced.

``StepwiseSimulation`` keeps that loop verbatim, with ``_integrate_to``,
``_handle_arrival`` and ``_handle_departure`` as methods that write the
simulation and its report on every event.  ``Simulation.run`` must leave
exactly its state at every pause, at the end and after an exception.
"""

import dataclasses
import heapq
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eonprotect import sim as sim_module
from eonprotect.metrics import MetricsReport
from eonprotect.rsa import LightpathRequest, rsacs_with_protection
from eonprotect.sim import Connection, Scenario, Simulation
from eonprotect.spectrum import release

MESH24 = (Path(__file__).parent / "data" / "mesh24.topo").read_text()
N_REQUESTS = 400
MODES = {
    "none": (0.999, 0.99),
    "dsbpss": (0.9, 0.99),
    "dcycles": (0.99, 0.999),
}


class StepwiseSimulation(Simulation):
    """The oracle: the event loop as four methods, copied unchanged."""

    def _integrate_to(self, t: float) -> None:
        lo = max(self._now, self._warm)
        if t > lo:
            dt = t - lo
            reserved = self.protection.reserved
            self.report.slot_time_used += (self._working_busy + reserved) * dt
            self.report.protection_slot_time += reserved * dt
        self._now = t

    def run(self, max_arrivals: int | None = None) -> MetricsReport:
        """Process events; optionally pause after a number of arrivals."""
        arrivals, departures = self._arrivals, self._departures
        i = self._arrivals_done
        n = len(arrivals)
        # The next arrival's time, read once per arrival.
        next_s = arrivals[i].arrival_s if i < n else None
        while max_arrivals is None or i < max_arrivals:
            if i < n and (not departures or next_s <= departures[0][0]):
                self._integrate_to(next_s)
                self._handle_arrival(arrivals[i])
                self._arrivals_done = i = i + 1
                next_s = arrivals[i].arrival_s if i < n else None
            elif departures:
                t, _, conn_id = heapq.heappop(departures)
                self._integrate_to(t)
                self._handle_departure(conn_id)
            else:
                break
        window = max(self._now - self._warm, 0.0)
        self.report.slot_time_capacity = (
            self.scenario.slot_count * len(self.graph.links) * window
        )
        self.report.validate()
        return self.report

    def _handle_arrival(self, lr: LightpathRequest) -> None:
        # Each field read once: a read on the namedtuple is not cheap.
        slots, arrival_s, holding_s = lr.slots_needed, lr.arrival_s, lr.holding_s
        counted = arrival_s >= self._warm
        self._conn_counter += 1
        conn_id = f"c{self._conn_counter}"
        result = rsacs_with_protection(
            self.graph, lr, self.scenario.a_th, self.protection, conn_id
        )
        if counted:
            self.report.arrived += 1
            self.report.slots_requested += slots
        if result.blocked:
            if counted:
                self.report.blocked += 1
                self.report.slots_blocked += slots
            return
        working = slots * result.path.hops
        self._working_busy += working
        if counted and result.needs_protection:
            self.report.needing_protection += 1
            if result.protected:
                self.report.protected_count += 1
        self.live[conn_id] = Connection(conn_id, lr, result)
        departure = (arrival_s + holding_s, self._conn_counter, conn_id)
        heapq.heappush(self._departures, departure)

    def _handle_departure(self, conn_id: str) -> None:
        conn = self.live.pop(conn_id)
        result = conn.result
        links = self.graph.link_index().links
        release(links, dict.fromkeys(result.path.link_indices, result.block.mask()))
        working = conn.request.slots_needed * result.path.hops
        self._working_busy -= working
        self.protection.release(self.graph, conn_id, result)


def scenario(mode: str, topology_text: str | None = None, n_requests: int = N_REQUESTS):
    # Network-wide load: the warm-up holds about 3 * 40 arrivals, so most of
    # the run is counted, and 48 slots make requests block in every mode.
    avail, a_th = MODES[mode]
    return Scenario(
        load_erlang=40, a_th=a_th, mode=mode, avg_link_availability=avail,
        n_requests=n_requests, seed=3, mean_holding_s=1.0, slot_count=48,
        load_per_node=False, topology_text=topology_text,
    )


def state(sim: Simulation) -> tuple:
    """Everything a pause leaves, compared with ``==`` (floats included)."""
    return (
        dataclasses.asdict(sim.report), sim._now, sim._working_busy,
        sim._arrivals_done, sim._conn_counter, list(sim.live),
        sim.graph.link_index().free_bits(),
    )


def test_scenario_blocks_protects_and_counts():
    # The differential test below would prove little on runs that never
    # block, protect or leave the warm-up.
    for mode in MODES:
        report = Simulation(scenario(mode)).run()
        assert report.arrived > N_REQUESTS // 2
        assert report.blocked > 0
        assert report.slot_time_used > 0.0
        if mode != "none":
            assert report.protected_count > 0
            assert report.protection_slot_time > 0.0


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    mode=st.sampled_from(sorted(MODES)),
    mesh=st.booleans(),
    pauses=st.lists(
        st.one_of(st.none(), st.integers(0, N_REQUESTS + 10)), min_size=1, max_size=6,
    ),
)
def test_same_state_as_stepwise_loop_at_every_pause(mode, mesh, pauses):
    sc = scenario(mode, MESH24 if mesh else None)
    sim, oracle = Simulation(sc), StepwiseSimulation(sc)
    for stop in [*pauses, None]:
        got, want = sim.run(max_arrivals=stop), oracle.run(max_arrivals=stop)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert state(sim) == state(oracle)


class Boom(Exception):
    pass


class LastPopped(dict):
    """A ``live`` map that keeps the connection it handed out last."""

    last = None

    def pop(self, conn_id):
        self.last = super().pop(conn_id)
        return self.last


def raising_from(real, n: int):
    """``real``, except that its ``n``-th call and every later one raise
    with the call's number and its connection id or slot writes."""
    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        if calls[0] >= n:
            raise Boom(calls[0], *[a for a in args if isinstance(a, (str, dict))])
        return real(*args)

    return wrapper


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("mesh", [False, True], ids=["nsfnet", "mesh24"])
@pytest.mark.parametrize("failing", ["protect", "release"])
def test_same_state_as_stepwise_loop_after_an_exception(monkeypatch, mode, mesh, failing):
    # Every working path needs protection at A=0.9 and A_th=0.99, so the
    # 150th protection after the pause raises once its working path holds
    # slots, which the arrival gives back; the 150th departure raises after
    # the connection left ``live``, holding its slots.
    sc = dataclasses.replace(
        scenario(mode, MESH24 if mesh else None), avg_link_availability=0.9, a_th=0.99,
    )
    sim, oracle = Simulation(sc), StepwiseSimulation(sc)
    sim.run(max_arrivals=100)
    oracle.run(max_arrivals=100)
    for s in (sim, oracle):
        s.live = LastPopped(s.live)
    if failing == "protect":
        for s in (sim, oracle):
            s.protection.protect = raising_from(s.protection.protect, 150)
    else:
        # The oracle calls the ``release`` bound in this module.
        monkeypatch.setattr(sim_module, "release", raising_from(release, 150))
        monkeypatch.setitem(globals(), "release", raising_from(release, 150))
    with pytest.raises(Boom) as got:
        sim.run()
    with pytest.raises(Boom) as want:
        oracle.run()
    assert got.value.args == want.value.args
    assert 100 < sim._arrivals_done < N_REQUESTS
    assert state(sim) == state(oracle)
    lost = {s: s.live.last for s in (sim, oracle)}
    # Both resume from the state the exception left.
    monkeypatch.undo()
    for s in (sim, oracle):
        vars(s.protection).pop("protect", None)
    assert dataclasses.asdict(sim.run()) == dataclasses.asdict(oracle.run())
    assert state(sim) == state(oracle)
    # Nothing else is left held: every link is free once the connection
    # whose release raised gives back what it holds.
    for s in (sim, oracle):
        if failing == "release":
            result = lost[s].result
            links = s.graph.link_index().links
            release(links, dict.fromkeys(result.path.link_indices, result.block.mask()))
            s.protection.release(s.graph, lost[s].id, result)
        assert s.graph.busy_slot_count() == 0
        assert s.registry.is_empty() and s.cycles.is_empty() and s.protection.reserved == 0


class TestMaxArrivals:
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, False, -1, "3"])
    def test_rejects_anything_but_none_or_a_non_negative_int(self, bad):
        sc = scenario("dsbpss", n_requests=200)
        sim, fresh = Simulation(sc), Simulation(sc)
        for s in (sim, fresh):
            s.run(max_arrivals=100)
        with pytest.raises(ValueError, match="max_arrivals"):
            sim.run(max_arrivals=bad)
        # Raised before any event: the paused state is untouched.
        assert state(sim) == state(fresh)

    def test_zero_handles_no_event(self):
        sim = Simulation(scenario("none", n_requests=200))
        sim.run(max_arrivals=0)
        assert (sim._now, sim._arrivals_done, sim.live) == (0.0, 0, {})


@pytest.mark.parametrize("mode", sorted(MODES))
def test_calls_provisioning_and_release_by_module_name(monkeypatch, mode):
    # perfbench's timer and tracer wrap these names between two runs of one
    # simulation.  Here each first wrapper rebinds its name, mid-run, to a
    # second one at its 50th call: a loop that held on to a function, even
    # for one run, would bypass one of them.
    sim = Simulation(scenario(mode))
    sim.run(max_arrivals=100)
    live_at_pause = len(sim.live)
    calls = Counter()

    def counting(name, real, then=None):
        def wrapper(*args):
            calls[wrapper] += 1
            result = real(*args)
            if name == "rsacs_with_protection":
                calls["accepted"] += not result.blocked
            if calls[wrapper] == 50 and then is not None:
                monkeypatch.setattr(sim_module, name, then)
            return result

        return wrapper

    wrappers = {}
    for name, real in (("rsacs_with_protection", rsacs_with_protection), ("release", release)):
        second = counting(name, real)
        wrappers[name] = (counting(name, real, then=second), second)
        monkeypatch.setattr(sim_module, name, wrappers[name][0])
    sim.run()
    first, second = wrappers["rsacs_with_protection"]
    assert (calls[first], calls[second]) == (50, N_REQUESTS - 150)
    first, second = wrappers["release"]
    assert calls[first] == 50
    assert calls[first] + calls[second] == live_at_pause + calls["accepted"]
    assert not sim.live
