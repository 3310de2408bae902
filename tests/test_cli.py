"""CLI: single runs, sweeps, CSV/JSON emission, config parsing."""

import csv
import importlib.resources
import json

import jsonschema
import pytest

from eonprotect import cli
from eonprotect.cli import (
    CSV_COLUMNS,
    SweepSpec,
    emit,
    main,
    run_cell,
    run_sweep,
)
from eonprotect.rsa import MODES
from eonprotect.sim import Scenario

FAST_TEMPLATE = dict(n_requests=900, mean_holding_s=1.0)


def read_csv(path):
    """The rows of a CSV file, the file closed once they are read."""
    with path.open() as f:
        return list(csv.DictReader(f))


def fast_cell(**overrides):
    cell = dict(
        FAST_TEMPLATE,
        mode="none",
        load_erlang=15.0,
        avg_link_availability=0.999,
        a_th=0.99,
        seed=3,
    )
    cell.update(overrides)
    return cell


def strip_runtime(text: str) -> str:
    lines = text.splitlines()
    idx = CSV_COLUMNS.index("runtime_s")
    out = []
    for line in lines:
        parts = line.split(",")
        parts[idx] = ""
        out.append(",".join(parts))
    return "\n".join(out)


def load_schema():
    return json.loads(
        importlib.resources.files("eonprotect.data")
        .joinpath("results_schema.json")
        .read_text()
    )


class TestRunCell:
    def test_row_has_all_columns(self):
        row = run_cell(fast_cell())
        assert set(CSV_COLUMNS) <= set(row)
        assert 0 <= row["bp"] <= 1
        assert row["runtime_s"] > 0

    def test_restorability_absent_when_unneeded(self):
        row = run_cell(fast_cell(avg_link_availability=0.999999, a_th=0.9))
        assert row["restorability"] is None
        assert row["protection_capacity"] == 0.0


class TestSweepSpec:
    def test_grid_product_row_count(self):
        spec = SweepSpec(
            template={},
            avg_availability=[0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999],
            a_th=[0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999],
            loads=[15, 20, 25],
            modes=["dsbpss", "dcycles"],
            repetitions=3,
        )
        assert len(spec.cells()) == 648

    def test_seed_ladder(self):
        spec = SweepSpec(
            template={},
            avg_availability=[0.99],
            a_th=[0.9],
            loads=[15],
            modes=["none"],
            repetitions=3,
            base_seed=10,
        )
        assert [c["seed"] for c in spec.cells()] == [10, 11, 12]

    def test_one_cell_spec_one_row(self):
        spec = SweepSpec(
            template=FAST_TEMPLATE,
            avg_availability=[0.999],
            a_th=[0.99],
            loads=[15.0],
            modes=["none"],
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert "error" not in rows[0]

    def test_failed_cell_becomes_error_row(self):
        spec = SweepSpec(
            template=FAST_TEMPLATE,
            avg_availability=[0.999],
            a_th=[0.99],
            loads=[15.0],
            modes=["bogus"],
        )
        (row,) = run_sweep(spec)
        assert "error" in row
        assert row["mode"] == "bogus"


class TestEmit:
    def rows(self):
        return [
            run_cell(fast_cell()),
            run_cell(fast_cell(avg_link_availability=0.999999, a_th=0.9, seed=4)),
        ]

    def test_csv_header_matches_documented_order(self, tmp_path):
        out = tmp_path / "r.csv"
        emit(self.rows(), "csv", str(out))
        header = out.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_absent_restorability_is_empty_field(self, tmp_path):
        out = tmp_path / "r.csv"
        emit(self.rows(), "csv", str(out))
        reader = read_csv(out)
        assert reader[1]["restorability"] == ""

    def test_csv_parse_emit_parse_fixpoint(self, tmp_path):
        first = tmp_path / "a.csv"
        emit(self.rows(), "csv", str(first))
        parsed = read_csv(first)
        second = tmp_path / "b.csv"
        emit(parsed, "csv", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_json_validates_against_shipped_schema(self, tmp_path):
        out = tmp_path / "r.json"
        emit(self.rows(), "json", str(out))
        data = json.loads(out.read_text())
        jsonschema.validate(data, load_schema())
        assert data[1]["restorability"] is None

    def test_schema_modes_are_the_modes(self):
        assert load_schema()["items"]["properties"]["mode"]["enum"] == list(MODES)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit([], "csv", None)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit([{"mode": "none"}], "xml", None)


class TestDeterministicReplay:
    def test_same_cell_identical_but_for_runtime(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit([run_cell(fast_cell())], "csv", str(a))
        emit([run_cell(fast_cell())], "csv", str(b))
        assert strip_runtime(a.read_text()) == strip_runtime(b.read_text())


class TestMain:
    def test_run_subcommand_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--mode", "none", "--load", "15", "--ath", "0.99",
            "--requests", "900", "--holding", "1.0", "--seed", "3",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_sweep_from_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scenario]\n"
            "requests = 900\n"
            "mean_holding_s = 1.0\n"
            "[grid]\n"
            "avg_availability = 0.999\n"
            "a_th = 0.99\n"
            "load = 15\n"
            "modes = none\n"
            "repetitions = 2\n"
            "seed = 5\n"
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert [r["seed"] for r in rows] == ["5", "6"]

    def zero_override_config(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scenario]\nrequests = 900\nmean_holding_s = 1.0\n"
            "[grid]\n"
            "avg_availability = 0.999\na_th = 0.99\nload = 15\n"
            "modes = none\nrepetitions = 2\nseed = 5\n"
        )
        return str(cfg)

    def test_sweep_seed_zero_overrides_config(self, tmp_path):
        out = tmp_path / "seed0.csv"
        code = main([
            "sweep", "--config", self.zero_override_config(tmp_path),
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert [r["seed"] for r in read_csv(out)] == ["0", "1"]

    def test_sweep_requests_zero_overrides_config(self, tmp_path, capsys):
        # The config's requests = 900 would run; the override's 0 is refused.
        out = tmp_path / "requests0.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--config", self.zero_override_config(tmp_path),
                "--requests", "0", "--out", str(out), "--format", "json",
            ])
        assert exc.value.code == 2
        assert "n_requests" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_partial_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail_bogus_seed(params):
            if params["seed"] == 2:
                raise RuntimeError("bogus")
            return run_cell(params)

        monkeypatch.setattr(cli, "run_cell", fail_bogus_seed)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[scenario]\nrequests = 900\nmean_holding_s = 1.0\n"
            "[grid]\n"
            "avg_availability = 0.999\na_th = 0.99\nload = 15\n"
            "modes = none\nrepetitions = 2\n"
        )
        out = tmp_path / "bad.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "cell failed" in capsys.readouterr().err
        rows = read_csv(out)
        assert [(r["seed"], r["bp"] != "") for r in rows] == [("1", True), ("2", False)]

    def test_custom_topology_file(self, tmp_path):
        topo = tmp_path / "square.topo"
        topo.write_text(
            "link a b 10 0.999\nlink b c 10 0.999\n"
            "link c d 10 0.999\nlink a d 10 0.999\n"
        )
        out = tmp_path / "sq.csv"
        code = main([
            "run", "--topology", str(topo), "--mode", "none", "--load", "4",
            "--ath", "0.9", "--requests", "900", "--holding", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2


@pytest.fixture
def cells(monkeypatch):
    """The parameters of every cell run, with ``cli.run_cell`` faked."""
    seen = []

    def fake_run_cell(params):
        seen.append(params)
        return {"mode": params["mode"]}

    monkeypatch.setattr(cli, "run_cell", fake_run_cell)
    return seen


class TestScenarioDefaults:
    """Unset flags and INI keys leave every field at Scenario's own default."""

    def test_run_with_only_required_flags(self, cells, capsys):
        assert main(["run", "--mode", "dsbpss", "--load", "15", "--ath", "0.99"]) == 0
        (params,) = cells
        assert Scenario(**params) == Scenario(load_erlang=15.0, a_th=0.99, mode="dsbpss")

    def test_run_flags_reach_their_fields(self, cells, capsys):
        main([
            "run", "--mode", "dcycles", "--load", "20", "--ath", "0.999",
            "--avg-availability", "0.99", "--requests", "7", "--seed", "0",
            "--holding", "2", "--bmax", "50", "--slot-ghz", "6.25",
            "--guard-ghz", "0", "--k", "3", "--slots", "64",
            "--network-load", "--no-jitter",
        ])
        (params,) = cells
        assert Scenario(**params) == Scenario(
            load_erlang=20.0, a_th=0.999, mode="dcycles", avg_link_availability=0.99,
            n_requests=7, seed=0, mean_holding_s=2.0, b_max_gbps=50.0,
            slot_ghz=6.25, guard_ghz=0.0, k=3, slot_count=64,
            load_per_node=False, jitter_availability=False,
        )

    def test_sweep_with_empty_scenario_section(self, cells, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scenario]\n"
            "[grid]\n"
            "avg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = dcycles\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        (params,) = cells
        assert Scenario(**params) == Scenario(
            load_erlang=20.0, a_th=0.999, mode="dcycles", avg_link_availability=0.99
        )

    def test_sweep_scenario_keys_reach_their_fields(self, cells, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scenario]\n"
            "requests = 7\nmean_holding_s = 2\nb_max_gbps = 50\nslot_ghz = 6.25\n"
            "guard_ghz = 0\nk = 3\nslots = 64\nload_per_node = False\njitter = false\n"
            "[grid]\n"
            "avg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        (params,) = cells
        assert Scenario(**params) == Scenario(
            load_erlang=20.0, a_th=0.999, mode="none", avg_link_availability=0.99,
            n_requests=7, mean_holding_s=2.0, b_max_gbps=50.0, slot_ghz=6.25,
            guard_ghz=0.0, k=3, slot_count=64,
            load_per_node=False, jitter_availability=False,
        )

    @pytest.mark.parametrize("section, key, line", [
        ("scenario", "request", "request = 900"),
        ("scenario", "holding", "holding = 1"),
        ("grid", "repetition", "repetition = 3"),
    ])
    def test_sweep_rejects_unknown_keys_before_any_cell(
        self, cells, tmp_path, capsys, section, key, line,
    ):
        body = {
            "scenario": ["requests = 900"],
            "grid": ["avg_availability = 0.99", "a_th = 0.999", "load = 20", "modes = none"],
        }
        body[section].append(line)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{kv}\n" for kv in lines)
            for name, lines in body.items()
        ))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("flags, field", [
        (["--ath", "1.5"], "a_th"),
        (["--ath", "0.99", "--avg-availability", "0"], "avg_link_availability"),
        (["--ath", "0.99", "--k", "0"], "k"),
        (["--ath", "0.99", "--guard-ghz", "-1"], "guard_ghz"),
        (["--ath", "0.99", "--bmax", "0"], "b_max_gbps"),
        (["--ath", "0.99", "--load", "nan"], "load_erlang"),
        (["--ath", "0.99", "--holding", "nan"], "mean_holding_s"),
        # With jitter on, an average at or below 0.45/1.45 draws links at or below 0.
        (["--ath", "0.99", "--avg-availability", "0.2"], "avg_link_availability"),
        # np.random.SeedSequence would raise only once the run had started.
        (["--ath", "0.99", "--seed", "-1"], "seed"),
        # Each of these used to end in a traceback, or for --load in a
        # message about the warm-up.
        (["--ath", "0.99", "--slot-ghz", "inf"], "slot_ghz"),
        (["--ath", "0.99", "--guard-ghz", "inf"], "guard_ghz"),
        (["--ath", "0.99", "--bmax", "inf"], "b_max_gbps"),
        (["--ath", "0.99", "--bmax", "1e19"], "b_max_gbps"),
        (["--ath", "0.99", "--holding", "inf"], "mean_holding_s"),
        (["--ath", "0.99", "--load", "inf"], "load_erlang"),
    ])
    def test_run_rejects_bad_value_before_running(self, cells, capsys, flags, field):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "dsbpss", "--load", "15", *flags])
        assert exc.value.code == 2
        assert field in capsys.readouterr().err
        assert cells == []

    def test_sweep_rejects_bad_cell_before_any_cell(self, cells, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[grid]\navg_availability = 0.99\na_th = 0.99 1.5\nload = 20\n"
            "modes = none dsbpss\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "a_th 1.5 must lie in (0, 1]" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("grid_line, flags", [
        pytest.param("seed = -1\n", [], id="config"),
        pytest.param("", ["--seed", "-1"], id="flag"),
    ])
    def test_sweep_rejects_negative_seed_before_any_cell(
        self, cells, tmp_path, capsys, grid_line, flags,
    ):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n"
            + grid_line
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), *flags])
        assert exc.value.code == 2
        assert "seed must be >= 0, not -1" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("scenario, load, field", [
        ("slot_ghz = inf", "20", "slot_ghz"),
        ("guard_ghz = inf", "20", "guard_ghz"),
        ("b_max_gbps = 1e19", "20", "b_max_gbps"),
        ("mean_holding_s = inf", "20", "mean_holding_s"),
        ("", "20 inf", "load_erlang"),
    ])
    def test_sweep_rejects_non_finite_before_any_cell(
        self, cells, tmp_path, capsys, scenario, load, field,
    ):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            f"[scenario]\n{scenario}\n"
            f"[grid]\navg_availability = 0.99\na_th = 0.999\nload = {load}\nmodes = none\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert field in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("key", ["repetitions", "seed", "load", "a_th", "avg_availability"])
    def test_sweep_bad_grid_value_names_its_key(self, cells, tmp_path, capsys, key):
        axes = {"avg_availability": "0.99", "a_th": "0.999", "load": "20", "modes": "none"}
        axes[key] = "twenty"
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[grid]\n" + "".join(f"{k} = {v}\n" for k, v in axes.items()))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"{cfg}: [grid] {key}: " in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("word, value", [
        ("no", False), ("0", False), ("off", False), ("FALSE", False),
        ("yes", True), ("1", True), ("on", True), ("True", True),
    ])
    def test_sweep_boolean_words(self, cells, tmp_path, capsys, word, value):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            f"[scenario]\nload_per_node = {word}\njitter = {word}\n"
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        (params,) = cells
        assert params["load_per_node"] is value
        assert params["jitter_availability"] is value

    @pytest.mark.parametrize("key", ["load_per_node", "jitter"])
    def test_sweep_rejects_non_boolean_before_any_cell(self, cells, tmp_path, capsys, key):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            f"[scenario]\n{key} = maybe\n"
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"[scenario] {key}: 'maybe' is not a boolean" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("text, message", [
        pytest.param("load = 5\n", "no section headers", id="no-header"),
        pytest.param(
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\n"
            "modes = none\nload = 15\n",
            "option 'load' in section 'grid' already exists",
            id="duplicate-key",
        ),
        pytest.param(
            "[grid]\navg_availability = 0.99\n[grid]\na_th = 0.999\n",
            "section 'grid' already exists",
            id="duplicate-section",
        ),
    ])
    def test_sweep_rejects_malformed_config(self, cells, tmp_path, capsys, text, message):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert cells == []

    def test_sweep_rejects_unknown_section(self, cells, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scenaro]\nrequests = 900\n"
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n"
        )
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg)])
        assert "unknown section [scenaro]" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("text, missing", [
        ("[scenario]\nrequests = 10\n", "avg_availability, a_th, load, modes"),
        ("[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\n", "modes"),
    ])
    def test_sweep_names_missing_grid_keys(self, cells, tmp_path, capsys, text, missing):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg)])
        assert f"[grid] lacks {missing}" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("body, message", [
        pytest.param("repetitions = 0\n", "[grid] repetitions must be >= 1", id="repetitions"),
        pytest.param("load =\n", "[grid] load is empty", id="load"),
        pytest.param("modes =\n", "[grid] modes is empty", id="modes"),
    ])
    def test_sweep_rejects_empty_grid(self, cells, tmp_path, capsys, body, message):
        axes = {"avg_availability": "0.99", "a_th": "0.999", "load": "20", "modes": "none"}
        key = body.split("=")[0].strip()
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[grid]\n" + "".join(
            f"{name} = {value}\n" for name, value in axes.items() if name != key
        ) + body)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert cells == []


class TestOutPath:
    """An --out path in a missing directory, or naming a directory, exits 2
    before any cell runs."""

    def test_run(self, cells, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "none", "--load", "15", "--ath", "0.99", "--out", str(out)])
        assert exc.value.code == 2
        assert f"directory {out.parent} does not exist" in capsys.readouterr().err
        assert cells == []

    def test_sweep(self, cells, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n")
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert f"directory {out.parent} does not exist" in capsys.readouterr().err
        assert cells == []

    def test_run_into_directory(self, cells, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "none", "--load", "15", "--ath", "0.99", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"--out {tmp_path}: is a directory" in capsys.readouterr().err
        assert cells == []

    def test_sweep_into_directory(self, cells, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"--out {tmp_path}: is a directory" in capsys.readouterr().err
        assert cells == []

    @pytest.mark.parametrize("exists", [True, False])
    def test_run_into_unwritable_path(self, cells, tmp_path, capsys, monkeypatch, exists):
        out = tmp_path / "x.csv"
        if exists:
            out.write_text("")
        # Permission bits do not stop every user (root), so access is faked.
        checked = []
        monkeypatch.setattr(cli.os, "access", lambda path, mode: checked.append(path))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "none", "--load", "15", "--ath", "0.99", "--out", str(out)])
        assert exc.value.code == 2
        assert f"--out {out}: not writable" in capsys.readouterr().err
        assert checked == [out if exists else tmp_path]
        assert cells == []


class TestWorkers:
    """``--workers`` is at least 1 and starts no more processes than cells."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The ``max_workers`` of every pool made, with the pool faked."""
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        return made

    def two_cell_config(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\n"
            "modes = none dcycles\n"
        )
        return str(cfg)

    @pytest.mark.parametrize("workers, pool", [("1", []), ("2", [2]), ("64", [2])])
    def test_pool_never_outnumbers_cells(self, cells, pools, tmp_path, capsys, workers, pool):
        code = main([
            "sweep", "--config", self.two_cell_config(tmp_path),
            "--workers", workers, "--out", "-",
        ])
        assert code == 0
        assert pools == pool
        assert [c["mode"] for c in cells] == ["none", "dcycles"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exits_2_before_any_cell(self, cells, pools, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", self.two_cell_config(tmp_path), "--workers", workers])
        assert exc.value.code == 2
        assert f"--workers must be at least 1, not {workers}" in capsys.readouterr().err
        assert cells == [] and pools == []


class TestNothingMeasured:
    def test_run_inside_warm_up_exits_2(self, capsys):
        # About 630 arrivals fall in the warm-up at 15 Erlang per node.
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--mode", "none", "--load", "15", "--ath", "0.99",
                "--requests", "500", "--out", "-",
            ])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "warm-up" in err and "--requests" in err

    def test_sweep_cell_inside_warm_up_is_error_row(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[scenario]\nrequests = 500\n"
            "[grid]\navg_availability = 0.999\na_th = 0.99\nload = 15\nmodes = none\n"
        )
        out = tmp_path / "rows.json"
        code = main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert code == 2
        (row,) = json.loads(out.read_text())
        assert row["error"].startswith("ZeroArrivalsError")


class TestBadTopologyFile:
    """A topology file that cannot be read or is invalid exits 2 before any run."""

    @pytest.fixture(params=["missing", "disconnected", "unparsable", "one-node", "empty"])
    def bad_topology(self, request, tmp_path):
        path = tmp_path / f"{request.param}.topo"
        if request.param == "disconnected":
            path.write_text("link a b 10\nlink c d 10\n")
            return str(path), "topology is not connected"
        if request.param == "one-node":
            path.write_text("node A\n")
            return str(path), "topology needs at least 2 nodes, not 1"
        if request.param == "empty":
            path.write_text("")
            return str(path), "topology needs at least 2 nodes, not 0"
        if request.param == "unparsable":
            path.write_text("link a b 10\nlink b c ten\n")
            return str(path), "line 2"
        return str(path), "No such file"

    def test_run(self, cells, capsys, bad_topology):
        path, message = bad_topology
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--mode", "none", "--load", "15", "--ath", "0.99",
                "--topology", path,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert path in err and message in err
        assert cells == []

    def test_sweep(self, cells, tmp_path, capsys, bad_topology):
        path, message = bad_topology
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            f"[scenario]\ntopology = {path}\n"
            "[grid]\navg_availability = 0.99\na_th = 0.999\nload = 20\nmodes = none\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert path in err and message in err
        assert cells == []

    def test_missing_sweep_config(self, cells, tmp_path, capsys):
        path = str(tmp_path / "missing.ini")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", path])
        assert exc.value.code == 2
        assert path in capsys.readouterr().err
        assert cells == []
