"""Golden metrics: fixed cells of every mode must reproduce byte for byte.

``tests/data/golden_metrics.csv`` holds ``run_cell`` rows on the bundled
NSFNET, and ``tests/data/golden_metrics_mesh24.csv`` the same cells on the
24-node Waxman mesh ``tests/data/mesh24.topo``.  Rows are written by
``emit`` with ``runtime_s`` left empty.  A refactor that keeps behaviour
keeps both files; a change that alters behaviour on purpose regenerates
them with ``python tests/test_golden.py`` and says why.
"""

from pathlib import Path

from eonprotect.cli import emit, run_cell

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_metrics.csv"
MESH24 = DATA / "mesh24.topo"
GOLDEN_MESH24 = DATA / "golden_metrics_mesh24.csv"

# (mode, avg link availability, A_th, per-node load)
CONFIGS = (
    ("none", 0.999, 0.99, 15.0),
    ("dsbpss", 0.9, 0.99, 20.0),
    ("dcycles", 0.99, 0.999, 20.0),
)
SEEDS = (1, 2)
N_REQUESTS = 2000


def golden_rows(topology: Path | None = None) -> list[dict]:
    text = None if topology is None else topology.read_text()
    rows = []
    for mode, avail, a_th, load in CONFIGS:
        for seed in SEEDS:
            row = run_cell(dict(
                mode=mode, avg_link_availability=avail, a_th=a_th,
                load_erlang=load, seed=seed, n_requests=N_REQUESTS,
                topology_text=text,
            ))
            row["runtime_s"] = None
            rows.append(row)
    return rows


def test_golden_metrics_byte_identical(tmp_path):
    out = tmp_path / "golden.csv"
    emit(golden_rows(), "csv", str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_mesh24_golden_metrics_byte_identical(tmp_path):
    out = tmp_path / "golden.csv"
    emit(golden_rows(MESH24), "csv", str(out))
    assert out.read_bytes() == GOLDEN_MESH24.read_bytes()


if __name__ == "__main__":
    emit(golden_rows(), "csv", str(GOLDEN))
    emit(golden_rows(MESH24), "csv", str(GOLDEN_MESH24))
