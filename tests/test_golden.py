"""Golden metrics: fixed cells of every mode must reproduce byte for byte.

``tests/data/golden_metrics.csv`` holds ``run_cell`` rows, written by
``emit`` with ``runtime_s`` left empty.  A refactor that keeps behaviour
keeps this file; a change that alters behaviour on purpose regenerates it
with ``python tests/test_golden.py`` and says why.
"""

from pathlib import Path

from eonprotect.cli import emit, run_cell

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.csv"

# (mode, avg link availability, A_th, per-node load)
CONFIGS = (
    ("none", 0.999, 0.99, 15.0),
    ("dsbpss", 0.9, 0.99, 20.0),
    ("dcycles", 0.99, 0.999, 20.0),
)
SEEDS = (1, 2)
N_REQUESTS = 2000


def golden_rows() -> list[dict]:
    rows = []
    for mode, avail, a_th, load in CONFIGS:
        for seed in SEEDS:
            row = run_cell(dict(
                mode=mode, avg_link_availability=avail, a_th=a_th,
                load_erlang=load, seed=seed, n_requests=N_REQUESTS,
            ))
            row["runtime_s"] = None
            rows.append(row)
    return rows


def test_golden_metrics_byte_identical(tmp_path):
    out = tmp_path / "golden.csv"
    emit(golden_rows(), "csv", str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    emit(golden_rows(), "csv", str(GOLDEN))
