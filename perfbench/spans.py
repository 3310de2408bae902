"""Spans taken from outside the eonprotect package.

The package is not instrumented.  Instead, for the length of a ``with``
block, each public function of interest is replaced by a wrapper at every
module-level name that is bound to it, which is the name its callers look
it up by (``sim.rsacs_with_protection``, ``dsbpss.candidate_paths``, ...).
Methods are replaced on their class.  Everything is put back on exit.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the index
of the enclosing span in ``Tracer.spans`` or -1.  Spans stay in memory until
the caller writes them out.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

from eonprotect import dcycles, dsbpss, rsa, sim, spectrum, topology
from eonprotect.spectrum import SpectrumBitmap
from eonprotect.topology import NetworkGraph

LAYER_MODULES = (sim, rsa, spectrum, topology, dsbpss, dcycles)

# (span name, function); every module-level binding of the function is wrapped.
FUNCTION_SPANS = (
    ("sim.generate_arrivals", sim.generate_arrivals),
    ("rsa.rsacs_with_protection", rsa.rsacs_with_protection),
    ("rsa.candidate_paths", rsa.candidate_paths),
    ("spectrum.allocate", spectrum.allocate),
    ("spectrum.release", spectrum.release),
    ("topology.graph_copies", topology.remove_links),
    ("dsbpss.provision_backups", dsbpss.provision_backups),
    ("dsbpss.free_backup_slots", dsbpss.free_backup_slots),
    ("dsbpss.release_wp", dsbpss.release_wp),
    ("dcycles.provision_cycles", dcycles.provision_cycles),
    ("dcycles.check_cycles", dcycles.check_cycles),
    ("dcycles.find_cycle_for", dcycles.find_cycle_for),
    ("dcycles.release_wp", dcycles.release_wp),
)

# (span name, class, method name)
METHOD_SPANS = (
    ("topology.busy_slot_count", NetworkGraph, "busy_slot_count"),
    ("topology.graph_copies", NetworkGraph, "copy"),
)


def bindings(fn) -> list[tuple[object, str]]:
    """Every (module, name) in the layer modules bound to ``fn``."""
    return [
        (mod, name)
        for mod in LAYER_MODULES
        for name, value in vars(mod).items()
        if value is fn
    ]


@contextlib.contextmanager
def replaced(targets: list[tuple[object, str, object]]):
    """Set ``owner.name = value`` for each target; restore the originals on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def wrap_function(fn, wrapper_for) -> list[tuple[object, str, object]]:
    """Targets that replace every binding of ``fn`` by ``wrapper_for(fn)``."""
    wrapper = wrapper_for(fn)
    return [(mod, name, wrapper) for mod, name in bindings(fn)]


class Tracer:
    """In-memory span recorder plus result counters gathered at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._observers = {
            "rsa.rsacs_with_protection": self._observe_provision,
            "rsa.candidate_paths": self._observe_paths,
            "dsbpss.provision_backups": self._observe_backups,
            "dcycles.provision_cycles": self._observe_cycles,
            "dcycles.check_cycles": self._observe_found,
            "dcycles.find_cycle_for": self._observe_found,
        }

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these objects.
        self.spans.clear()
        self.counters.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name: str):
        observe = self._observers.get(name)
        stack, clock = self._stack, time.perf_counter_ns

        def make(fn):
            # span() inlined: a round makes hundreds of thousands of these calls.
            def traced(*args, **kwargs):
                record = [name, 0, 0, stack[-1] if stack else -1]
                stack.append(len(self.spans))
                self.spans.append(record)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(name, result)
                return result

            return traced

        return make

    def _count_bitmaps(self, init):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["spectrum.bitmaps_built"] += 1
            return init(*args, **kwargs)

        return counted

    def _observe_provision(self, name: str, result) -> None:
        self.counters["rsa.accepted"] += not result.blocked

    def _observe_paths(self, name: str, paths) -> None:
        self.counters["rsa.candidate_paths.paths"] += len(paths)
        self.counters["rsa.candidate_paths.empty_calls"] += not paths

    def _observe_backups(self, name: str, result) -> None:
        backups, _ = result
        if backups:
            self.counters["dsbpss.met"] += 1
            self.counters["dsbpss.backups"] += len(backups)
        else:
            self.counters["dsbpss.rollbacks"] += 1

    def _observe_cycles(self, name: str, result) -> None:
        granted, _ = result
        self.counters["dcycles.rollbacks"] += granted is None

    def _observe_found(self, name: str, cycle) -> None:
        self.counters[f"{name}.found"] += cycle is not None

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer boundary for the length of the block."""
        targets = []
        for name, fn in FUNCTION_SPANS:
            targets += wrap_function(fn, self._wrapper(name))
        for name, cls, attr in METHOD_SPANS:
            targets.append((cls, attr, self._wrapper(name)(getattr(cls, attr))))
        targets.append(
            (SpectrumBitmap, "__init__", self._count_bitmaps(SpectrumBitmap.__init__))
        )
        with replaced(targets):
            yield self

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and median microseconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        durations: dict[str, list[int]] = defaultdict(list)
        self_ns: dict[str, int] = defaultdict(int)
        for (name, start, end, _), children in zip(self.spans, child_ns):
            durations[name].append(end - start)
            self_ns[name] += end - start - children
        return {
            name: {
                "calls": len(ds),
                "s": sum(ds) / 1e9,
                "self_s": self_ns[name] / 1e9,
                "us_p50": statistics.median(ds) / 1e3,
            }
            for name, ds in durations.items()
        }
