"""Command line front end: single runs and grid sweeps.

``eonprotect run`` executes one scenario and prints or writes one result
row.  ``eonprotect sweep`` reads a declarative INI config describing a grid
over availability, threshold, load and mode, runs every cell (optionally in
parallel worker processes, never more than cells) and writes a CSV or JSON
table.  Both parse the topology file and build every scenario before running
any, so an invalid value, an unreadable or invalid topology, a malformed
config file, an empty grid, a ``--workers`` below 1 or an ``--out`` path
that names a directory, lies in a missing directory or cannot be written
exits with code 2 before anything runs.  A single
run whose requests all arrive during the warm-up measures nothing and exits
with code 2 as well.  Cells that fail while running become rows with empty
metric fields; the process then exits with code 2.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .metrics import (
    ZeroArrivalsError,
    bandwidth_blocking_probability,
    blocking_probability,
    capacity_used_for_protection,
    restorability,
    spectrum_utilization,
)
from .rsa import MODES
from .sim import WARMUP_HOLDING_MULTIPLE, Scenario, Simulation
from .topology import TopologyError, UniformAvailability, load_topology

CSV_COLUMNS = [
    "mode", "load_erlang", "avg_avail", "a_th", "seed",
    "bp", "bbp", "utilization", "protection_capacity", "restorability",
    "runtime_s",
]


@dataclass
class SweepSpec:
    """A scenario template plus the grid swept over it."""

    template: dict
    avg_availability: list[float]
    a_th: list[float]
    loads: list[float]
    modes: list[str]
    repetitions: int = 1
    base_seed: int = 1
    workers: int = 1

    def cells(self) -> list[dict]:
        out = []
        for mode in self.modes:
            for load in self.loads:
                for avg in self.avg_availability:
                    for ath in self.a_th:
                        for rep in range(self.repetitions):
                            out.append(
                                dict(
                                    self.template,
                                    mode=mode,
                                    load_erlang=load,
                                    avg_link_availability=avg,
                                    a_th=ath,
                                    seed=self.base_seed + rep,
                                )
                            )
        return out


def run_cell(params: dict) -> dict:
    """Run one scenario and flatten its metrics into a result row."""
    sc = Scenario(**params)
    t0 = time.perf_counter()
    report = Simulation(sc).run()
    runtime = time.perf_counter() - t0
    return {
        "mode": sc.mode,
        "load_erlang": sc.load_erlang,
        "avg_avail": sc.avg_link_availability,
        "a_th": sc.a_th,
        "seed": sc.seed,
        "bp": blocking_probability(report),
        "bbp": bandwidth_blocking_probability(report),
        "utilization": spectrum_utilization(report),
        "protection_capacity": capacity_used_for_protection(report),
        "restorability": restorability(report),
        "runtime_s": runtime,
    }


def _cell_safe(params: dict) -> dict:
    try:
        return run_cell(params)
    except Exception as exc:  # error rows keep the sweep going
        return {
            "mode": params.get("mode"),
            "load_erlang": params.get("load_erlang"),
            "avg_avail": params.get("avg_link_availability"),
            "a_th": params.get("a_th"),
            "seed": params.get("seed"),
            "error": f"{type(exc).__name__}: {exc}",
        }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """All grid cells, in stable grid order regardless of completion order."""
    cells = spec.cells()
    workers = min(spec.workers, len(cells))
    if workers > 1:
        # Spawned, not forked: numpy's import leaves a second thread running,
        # and forking a threaded process is unsafe.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            return list(pool.map(_cell_safe, cells))
    return [_cell_safe(cell) for cell in cells]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(rows: list[dict], fmt: str, path: str | None) -> None:
    """Write result rows as CSV or JSON; '-' or None writes to stdout."""
    if not rows:
        raise ValueError("no results to emit")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])
        text = buf.getvalue()
    elif fmt == "json":
        clean = [
            {col: row.get(col) for col in CSV_COLUMNS} | (
                {"error": row["error"]} if "error" in row else {}
            )
            for row in rows
        ]
        text = json.dumps(clean, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _check_out(path: str | None) -> None:
    """Reject an ``--out`` path the results could not be written to."""
    if path is None or path == "-":
        return
    out = Path(path)
    if out.is_dir():
        raise ValueError(f"--out {path}: is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {path}: directory {out.parent} does not exist")
    if not os.access(out if out.exists() else out.parent, os.W_OK):
        raise ValueError(f"--out {path}: not writable")


def _read_topology(path: str) -> str:
    """Text of a topology file, parsed once here so a bad file fails early."""
    text = Path(path).read_text()
    try:
        load_topology(text, policy=UniformAvailability(1.0))
    except TopologyError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return text


def _scenario_kwargs(args: argparse.Namespace) -> dict:
    names = {f.name for f in fields(Scenario)}
    kwargs = {name: value for name, value in vars(args).items() if name in names}
    if args.topology != "nsfnet":
        kwargs["topology_text"] = _read_topology(args.topology)
    return kwargs


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    # dests are Scenario fields; argument_default=SUPPRESS leaves unset ones out
    p.add_argument("--topology", default="nsfnet",
                   help="topology file path, or 'nsfnet' for the bundled NSFNET")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--load", dest="load_erlang", type=float, required=True,
                   help="offered Erlang load")
    p.add_argument("--ath", dest="a_th", type=float, required=True,
                   help="availability threshold")
    p.add_argument("--avg-availability", dest="avg_link_availability", type=float)
    p.add_argument("--requests", dest="n_requests", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--holding", dest="mean_holding_s", type=float,
                   help="mean holding time (s)")
    p.add_argument("--bmax", dest="b_max_gbps", type=float,
                   help="max demand rate (Gbps)")
    p.add_argument("--slot-ghz", type=float)
    p.add_argument("--guard-ghz", type=float)
    p.add_argument("--k", type=int, help="candidate path budget")
    p.add_argument("--slots", dest="slot_count", type=int, help="slots per link")
    p.add_argument("--network-load", dest="load_per_node", action="store_false",
                   help="treat --load as network-wide instead of per node")
    p.add_argument("--no-jitter", dest="jitter_availability", action="store_false",
                   help="give every link exactly the average availability")
    p.add_argument("--out", default=None, help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _ini_flag(text: str) -> bool:
    """configparser's boolean words: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


# [scenario] key -> (Scenario field, parser); a key left out keeps Scenario's default
_INI_FIELDS = {
    "requests": ("n_requests", int),
    "mean_holding_s": ("mean_holding_s", float),
    "b_max_gbps": ("b_max_gbps", float),
    "slot_ghz": ("slot_ghz", float),
    "guard_ghz": ("guard_ghz", float),
    "k": ("k", int),
    "slots": ("slot_count", int),
    "load_per_node": ("load_per_node", _ini_flag),
    "jitter": ("jitter_availability", _ini_flag),
}
# [grid] keys a sweep file must give, and every key it may hold, by section.
_GRID_AXES = ("avg_availability", "a_th", "load", "modes")
_INI_KEYS = {
    "scenario": {*_INI_FIELDS, "topology"},
    "grid": {*_GRID_AXES, "repetitions", "seed"},
}


def _ini_value(path: str, section: str, key: str, parse, text: str):
    """``parse(text)``; a value that fails to parse names its file, section and key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: [{section}] {key}: {exc}") from exc


def _parse_sweep_config(path: str, args: argparse.Namespace) -> SweepSpec:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    # A misspelt key would otherwise leave its field at the default unnoticed.
    for section in cp.sections():
        if section not in _INI_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if key not in _INI_KEYS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
    missing = [key for key in _GRID_AXES if not cp.has_option("grid", key)]
    if missing:
        raise ValueError(f"{path}: [grid] lacks {', '.join(missing)}")
    sc = cp["scenario"] if cp.has_section("scenario") else {}
    grid = cp["grid"]

    template = {
        name: _ini_value(path, "scenario", key, parse, sc[key])
        for key, (name, parse) in _INI_FIELDS.items()
        if key in sc
    }
    if args.requests is not None:
        template["n_requests"] = args.requests
    topo = sc.get("topology", "nsfnet")
    if topo != "nsfnet":
        template["topology_text"] = _read_topology(topo)

    axes = {key: grid[key].split() for key in _GRID_AXES}
    for key, values in axes.items():
        if not values:
            raise ValueError(f"{path}: [grid] {key} is empty")
    repetitions = _ini_value(path, "grid", "repetitions", int, grid.get("repetitions", "1"))
    if repetitions < 1:
        raise ValueError(f"{path}: [grid] repetitions must be >= 1")
    seed = args.seed
    if seed is None:
        seed = _ini_value(path, "grid", "seed", int, grid.get("seed", "1"))

    def floats(key: str) -> list[float]:
        return [_ini_value(path, "grid", key, float, x) for x in axes[key]]

    return SweepSpec(
        template=template,
        avg_availability=floats("avg_availability"),
        a_th=floats("a_th"),
        loads=floats("load"),
        modes=axes["modes"],
        repetitions=repetitions,
        base_seed=seed,
        workers=args.workers,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eonprotect",
        description="Availability-aware RSA with protection on flex-grid networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario",
                           argument_default=argparse.SUPPRESS)
    _add_scenario_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run a scenario grid from a config file")
    sweep_p.add_argument("--config", required=True, help="INI sweep description")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="worker processes, at most one per cell")
    sweep_p.add_argument("--requests", type=int, default=None,
                         help="override request count from the config")
    sweep_p.add_argument("--seed", type=int, default=None,
                         help="override base seed from the config")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--format", choices=["csv", "json"], default="csv")

    args = parser.parse_args(argv)

    try:
        # Checked first: a bad path would otherwise surface only when the
        # results are written, after every cell has run.
        _check_out(args.out)
        if args.command == "run":
            params = _scenario_kwargs(args)
            sc = Scenario(**params)
        else:
            if args.workers < 1:
                raise ValueError(f"--workers must be at least 1, not {args.workers}")
            spec = _parse_sweep_config(args.config, args)
            for cell in spec.cells():
                Scenario(**cell)
    except (OSError, ValueError, configparser.Error) as exc:
        parser.error(str(exc))

    if args.command == "run":
        try:
            row = run_cell(params)
        except ZeroArrivalsError:
            parser.error(
                f"all {sc.n_requests} requests arrived during the warm-up of "
                f"{WARMUP_HOLDING_MULTIPLE:g} mean holding times "
                f"({WARMUP_HOLDING_MULTIPLE * sc.mean_holding_s:g} s), so nothing "
                "was measured; raise --requests"
            )
        emit([row], args.format, args.out)
        return 0

    rows = run_sweep(spec)
    emit(rows, args.format, args.out)
    failures = [r for r in rows if "error" in r]
    for r in failures:
        print(f"cell failed: {r}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
