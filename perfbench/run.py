"""Benchmark of eonprotect on NSFNET: end-to-end timings, per-layer spans, checks.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload route-only --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in one process.  A round builds and runs each of the
workload's seeded simulations to its end.  With ``--trace 0`` rounds repeat
until about ``--seconds`` have passed and the end-to-end metrics are
reported.  With ``--trace 1`` the same rounds run with spans taken at every
layer boundary and per-layer metrics are reported.  Either way a checking
pass then replays one round with every arrival and the network state
checked, outside the measured rounds.  The last line of standard output is
one JSON object.  ``--workload all`` runs every workload both ways, each in
a process of its own.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# A round runs ``sims`` whole simulations of ``n_requests`` arrivals each, with
# seeds derived from the benchmark seed; several smaller simulations average
# out the large part of the cost that depends on a seed's link availabilities.
WORKLOADS = {
    "route-only": dict(
        sims=4, n_requests=4_000,
        mode="none", avg_link_availability=0.999, a_th=0.99, load_erlang=15,
    ),
    "shared-backup": dict(
        sims=6, n_requests=1_200,
        mode="dsbpss", avg_link_availability=0.9, a_th=0.99, load_erlang=20,
    ),
    "cycles": dict(
        sims=12, n_requests=1_200,
        mode="dcycles", avg_link_availability=0.99, a_th=0.999, load_erlang=20,
    ),
}
# Constructions timed before the rounds: one takes milliseconds, so set-up
# time is a median over many even when only one round fits in a run.
SETUP_REPEATS = 40
CHECK_PAUSE_POINTS = 8
TRACE_SAMPLE_POINTS = 10

END_TO_END_UNITS = {
    "req_per_s": "requests/s",
    "provision_us_p50": "us",
    "provision_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# End-to-end times are host times scaled to a fixed reference speed.  The
# guest this benchmark was tuned on switches between CPU speeds up to 2x
# apart for seconds to minutes, longer than a run, so raw host times of the
# same code spread by more than any useful bound.  A fixed reference loop,
# which owes nothing to eonprotect, is timed every CALIBRATION_INTERVAL_NS
# during the measured work, and the host time between two samples is
# multiplied by REFERENCE_LOOP_S over the mean time of the nearby samples.
# A change to the program moves the scaled times as it moves host times; a
# change of the host's speed moves the loop with it and cancels.
REFERENCE_LOOP_S = 0.001
CALIBRATION_INTERVAL_NS = 15_000_000
SCALE_WINDOW = 3
_REFERENCE_ADJ = {
    f"n{i}": {f"n{(i + step) % 14}": (i * 7 + step) % 22 for step in (1, 3, 5)}
    for i in range(14)
}
# About 3.5 MB of small tuples read in a fixed random order: the share of
# the loop that waits on memory rather than the interpreter.
_REFERENCE_ROWS = [(i, 3 * i) for i in range(30_000)]
_REFERENCE_PICKS = random.Random(0).choices(range(len(_REFERENCE_ROWS)), k=1_000)


def reference_loop() -> int:
    """Fixed pure-Python work of the simulator's kind: big-int bit twiddling,
    dict updates, small tuples, graph copies, a bounded path search and
    scattered reads from a few megabytes of objects."""
    acc, bits, counts, recent = 0, (1 << 320) - 1, {}, []
    for i in range(750):
        k = i & 63
        v = counts.get(k, 0)
        bits ^= v << (i % 300)
        counts[k] = v + (bits >> (i % 311)) & 0xFFFF
        recent.append((k, v))
        if len(recent) > 32:
            recent.clear()
        acc += len(recent)
    for r in range(6):
        g = {u: dict(nbrs) for u, nbrs in _REFERENCE_ADJ.items()}
        for nbrs in g.values():
            for v, lid in list(nbrs.items()):
                if (lid + r) % 4 == 0:
                    del nbrs[v]
        stack, seen = [("n0", ("n0",))], 0
        while stack and seen < 60:
            u, path = stack.pop()
            seen += 1
            stack.extend((v, path + (v,)) for v in g[u] if v not in path)
        acc += seen
    for i in _REFERENCE_PICKS:
        acc += _REFERENCE_ROWS[i][1]
    return acc


class SpeedGauge:
    """Reference-loop samples taken between pieces of timed work.

    Sample k is timed from ``starts[k]`` to ``ends[k]``.  The work from the
    end of sample k to the start of sample k + 1 (a segment) is scaled by
    REFERENCE_LOOP_S over the mean time of samples k - SCALE_WINDOW to
    k + SCALE_WINDOW, so a speed switch inside a simulation is followed
    within a few segments while one stalled sample counts for little.
    """

    def __init__(self) -> None:
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.marks = array.array("q")
        self.due_ns = 0

    def sample(self, mark: int = 0) -> int:
        """Time one reference loop; ``mark`` is the number of latencies
        recorded before it.  Return the clock reading after the loop."""
        start = time.perf_counter_ns()
        reference_loop()
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.marks.append(mark)
        self.due_ns = end + CALIBRATION_INTERVAL_NS
        return end

    def settle(self, stop_ns: int, latencies_ns=()) -> tuple[list[float], list[float]]:
        """Reference seconds of each segment, the last one ending at
        ``stop_ns``, and ``latencies_ns`` scaled by their segments; forget
        the samples."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        factors = [
            REFERENCE_LOOP_S * 1e9
            / statistics.fmean(durations[max(0, k - SCALE_WINDOW):k + SCALE_WINDOW + 1])
            for k in range(len(durations))
        ]
        stops = [*self.starts[1:], stop_ns]
        segments = [(stop - end) * f / 1e9 for stop, end, f in zip(stops, self.ends, factors)]
        bounds = [*self.marks, len(latencies_ns)]
        scaled = [
            ns * f
            for k, f in enumerate(factors)
            for ns in latencies_ns[bounds[k]:bounds[k + 1]]
        ]
        for samples in (self.starts, self.ends, self.marks):
            del samples[:]
        return segments, scaled


def load_package():
    """Import eonprotect from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "eonprotect" / "__init__.py").is_file():
        sys.exit(f"error: no eonprotect sources under {src}")
    sys.path.insert(0, str(src))
    import eonprotect

    if Path(eonprotect.__file__).resolve().parent != (src / "eonprotect").resolve():
        sys.exit(f"error: eonprotect imported from {eonprotect.__file__}, not {src}")


def scenarios(workload: str, seed: int) -> list:
    """The simulations of one round; the j-th has ``Scenario.seed = seed * sims + j``."""
    from eonprotect.sim import Scenario

    params = dict(WORKLOADS[workload])
    sims = params.pop("sims")
    return [Scenario(seed=seed * sims + j, **params) for j in range(sims)]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    idx = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def repeat_rounds(seconds: float, one_round) -> None:
    """Run whole rounds for about ``seconds``: no round starts that would
    likely end more than half a round past the deadline."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return


def timed_rounds(scs: list, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics from whole rounds repeated for ``seconds``; tracing off.

    Every time is scaled to the reference speed (see ``SpeedGauge``); the
    reference loops run outside the timed intervals."""
    from eonprotect import rsa
    from eonprotect.sim import Simulation
    from spans import replaced, wrap_function

    latencies_ns = array.array("q")
    clock = time.perf_counter_ns
    gauge = SpeedGauge()

    def timing(provision):
        def timed(*args, **kwargs):
            start = clock()
            if start >= gauge.due_ns:
                start = gauge.sample(len(latencies_ns))
            result = provision(*args, **kwargs)
            latencies_ns.append(clock() - start)
            return result

        return timed

    # Constructions back to back, one reference loop between each two, so
    # that every construction is one segment scaled by the loops around it.
    gc.collect()
    gauge.sample()
    for _ in range(SETUP_REPEATS):
        Simulation(scs[0])
        gauge.sample()
    setup_s = gauge.settle(gauge.ends[-1])[0][:-1]

    rates, reports, p50s, p99s = [], [], [], []

    def one_round():
        run_s, round_reports = 0.0, []
        for sc in scs:
            gc.collect()
            del latencies_ns[:]
            sim = Simulation(sc)
            gauge.sample()
            round_reports.append(sim.run())
            segments, scaled_ns = gauge.settle(clock(), latencies_ns)
            run_s += sum(segments)
            del sim
            scaled_ns.sort()
            p50s.append(percentile(scaled_ns, 0.50) / 1e3)
            p99s.append(percentile(scaled_ns, 0.99) / 1e3)
        rates.append(sum(sc.n_requests for sc in scs) / run_s)
        reports.append(round_reports)

    with replaced(wrap_function(rsa.rsacs_with_protection, timing)):
        repeat_rounds(seconds, one_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "req_per_s": statistics.median(rates),
        "provision_us_p50": statistics.median(p50s),
        "provision_us_p99": statistics.median(p99s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, reports


def traced_rounds(scs: list, seconds: float, trace_path: Path) -> tuple[dict, list]:
    """Per-layer metrics from whole rounds run with spans at every layer boundary."""
    from checking import backup_claims
    from eonprotect.sim import Simulation, generate_arrivals
    from spans import Tracer

    tracer = Tracer()
    per_round, reports = [], []

    def one_round():
        gc.collect()
        tracer.reset()
        shared = pairs = live_cycles = 0
        round_reports = []
        for sc in scs:
            with tracer.span("sim.setup"):
                sim = Simulation(sc)
            for i in range(1, TRACE_SAMPLE_POINTS + 1):
                with tracer.span("sim.run"):
                    sim.run(max_arrivals=sc.n_requests * i // TRACE_SAMPLE_POINTS)
                claims = backup_claims(sim)
                pairs += len(claims)
                shared += sum(len(wps) > 1 for wps in claims.values())
                live_cycles += len(sim.cycles.cycles)
            with tracer.span("sim.run"):
                round_reports.append(sim.run())
            del sim
        reports.append(round_reports)
        per_round.append(layer_metrics(
            tracer, sum(sc.n_requests for sc in scs),
            shared / pairs if pairs else 0.0,
            live_cycles / (TRACE_SAMPLE_POINTS * len(scs)),
        ))

    with tracer.installed():
        repeat_rounds(seconds, one_round)
    write_spans(tracer.spans, trace_path)

    g = scs[0].build_graph()
    tracemalloc.start()
    events = generate_arrivals(scs[0], g)
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del events

    metrics = {}
    for name, (_, unit) in per_round[0].items():
        metrics[name] = (statistics.median(r[name][0] for r in per_round), unit)
    metrics["sim.generate_arrivals.mb"] = (held / 1e6, "MB")
    return metrics, reports


def layer_metrics(tracer, n_arrivals: int, shared_slot_ratio: float,
                  live_cycles: float) -> dict[str, tuple[float, str]]:
    summary = tracer.summary()
    counters = tracer.counters

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    paths_calls = span("rsa.candidate_paths", "calls")
    backup_calls = span("dsbpss.provision_backups", "calls")
    check_calls = span("dcycles.check_cycles", "calls")
    find_calls = span("dcycles.find_cycle_for", "calls")
    return {
        "sim.event_loop.self_s": (span("sim.run", "self_s"), "s"),
        "sim.events": (span("rsa.rsacs_with_protection", "calls") + counters["rsa.accepted"], "count"),
        "sim.generate_arrivals.s": (span("sim.generate_arrivals", "s"), "s"),
        "topology.busy_slot_count.calls": (span("topology.busy_slot_count", "calls"), "count"),
        "topology.busy_slot_count.s": (span("topology.busy_slot_count", "s"), "s"),
        "topology.graph_copies": (span("topology.graph_copies", "calls"), "count"),
        "topology.graph_copies.s": (span("topology.graph_copies", "s"), "s"),
        "rsa.candidate_paths.calls": (paths_calls, "count"),
        "rsa.candidate_paths.s": (span("rsa.candidate_paths", "s"), "s"),
        "rsa.candidate_paths.us_p50": (span("rsa.candidate_paths", "us_p50"), "us"),
        "rsa.candidate_paths.paths_per_call": (ratio(counters["rsa.candidate_paths.paths"], paths_calls), "paths"),
        "rsa.candidate_paths.empty_calls": (counters["rsa.candidate_paths.empty_calls"], "count"),
        "rsa.rsacs_with_protection.self_s": (span("rsa.rsacs_with_protection", "self_s"), "s"),
        "spectrum.bitmaps_built": (counters["spectrum.bitmaps_built"], "count"),
        "spectrum.allocate.s": (span("spectrum.allocate", "s"), "s"),
        "spectrum.release.s": (span("spectrum.release", "s"), "s"),
        "dsbpss.provision_backups.calls": (backup_calls, "count"),
        "dsbpss.provision_backups.s": (span("dsbpss.provision_backups", "s"), "s"),
        "dsbpss.provision_backups.self_s": (span("dsbpss.provision_backups", "self_s"), "s"),
        "dsbpss.free_backup_slots.s": (span("dsbpss.free_backup_slots", "s"), "s"),
        "dsbpss.release_wp.s": (span("dsbpss.release_wp", "s"), "s"),
        "dsbpss.met_ratio": (ratio(counters["dsbpss.met"], backup_calls), "ratio"),
        "dsbpss.rollbacks": (counters["dsbpss.rollbacks"], "count"),
        "dsbpss.backups_per_protected_wp": (ratio(counters["dsbpss.backups"], counters["dsbpss.met"]), "paths"),
        "dsbpss.shared_slot_ratio": (shared_slot_ratio, "ratio"),
        "dcycles.provision_cycles.calls": (span("dcycles.provision_cycles", "calls"), "count"),
        "dcycles.provision_cycles.s": (span("dcycles.provision_cycles", "s"), "s"),
        "dcycles.provision_cycles.self_s": (span("dcycles.provision_cycles", "self_s"), "s"),
        "dcycles.check_cycles.s": (span("dcycles.check_cycles", "s"), "s"),
        "dcycles.check_cycles.hit_ratio": (ratio(counters["dcycles.check_cycles.found"], check_calls), "ratio"),
        "dcycles.find_cycle_for.s": (span("dcycles.find_cycle_for", "s"), "s"),
        "dcycles.find_cycle_for.success_ratio": (ratio(counters["dcycles.find_cycle_for.found"], find_calls), "ratio"),
        "dcycles.release_wp.s": (span("dcycles.release_wp", "s"), "s"),
        "dcycles.rollbacks": (counters["dcycles.rollbacks"], "count"),
        "dcycles.live_cycles": (live_cycles, "count"),
        "trace.req_per_s": (n_arrivals / span("sim.run", "s"), "requests/s"),
    }


def write_spans(spans: list, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans},
                  fh, separators=(",", ":"))


def simulated_statistics(reports) -> dict:
    """The paper's five statistics, pooled over the simulations of a round."""
    from eonprotect import metrics as m

    pooled = m.MetricsReport()
    for report in reports:
        for f in dataclasses.fields(pooled):
            setattr(pooled, f.name, getattr(pooled, f.name) + getattr(report, f.name))
    if not pooled.arrived:
        return {}
    return {
        "bp": m.blocking_probability(pooled),
        "bbp": m.bandwidth_blocking_probability(pooled),
        "utilization": m.spectrum_utilization(pooled),
        "protection_capacity": m.capacity_used_for_protection(pooled),
        "restorability": m.restorability(pooled),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load_package()
    from checking import checking_run

    scs = scenarios(workload, seed)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, reports = traced_rounds(scs, seconds, OUT_DIR / f"spans-{stem}.json")
    else:
        metrics, reports = timed_rounds(scs, seconds)
    checks = [checking_run(sc, CHECK_PAUSE_POINTS) for sc in scs]

    problems = [p for check in checks for p in check.state_problems]
    expected = [dataclasses.asdict(check.report) for check in checks]
    if any([dataclasses.asdict(r) for r in round_reports] != expected for round_reports in reports):
        problems.append("MetricsReport counters differ between the measured rounds and the checking run")
    per_round = sum(sc.n_requests for sc in scs)
    if sum(check.arrivals for check in checks) != per_round:
        problems.append("the checking run did not provision every arrival")

    rounds = len(reports)
    result = {
        "correct": not problems,
        "attempted": rounds * per_round,
        "failed": rounds * sum(check.failed_arrivals for check in checks),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"rounds {rounds} x {len(scs)} simulations x {scs[0].n_requests} arrivals")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print("  simulated statistics (information only, model unvalidated): "
          + "  ".join(f"{k}={v:.6g}" if v is not None else f"{k}=n/a"
                      for k, v in simulated_statistics([c.report for c in checks]).items()))
    for line in [p for c in checks for p in c.arrival_problems] + problems:
        print(f"  CHECK FAILED: {line}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    correct, attempted, failed, merged = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                merged[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
