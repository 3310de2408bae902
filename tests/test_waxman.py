"""The Waxman generator in ``tools/`` against the mesh it wrote."""

import subprocess
import sys
from pathlib import Path

from eonprotect.topology import UniformAvailability, load_topology

ROOT = Path(__file__).parent.parent
WAXMAN = ROOT / "tools" / "waxman.py"


def waxman(*args: str) -> str:
    return subprocess.run(
        [sys.executable, str(WAXMAN), *args], check=True, capture_output=True, text=True,
    ).stdout


def structure(text: str) -> list[str]:
    """The ``node`` and ``link`` lines of a topology file, in order."""
    return [line for line in text.splitlines() if line.split()[:1] in (["node"], ["link"])]


def test_regenerates_mesh24():
    want = structure((ROOT / "tests" / "data" / "mesh24.topo").read_text())
    assert len(want) == 24 + 41
    assert structure(waxman("--nodes", "24", "--seed", "1")) == want


def test_forty_node_meshes_load(tmp_path):
    for seed, n_links in ((1, 76), (7, 66)):
        out = tmp_path / f"mesh40-{seed}.topo"
        waxman("--nodes", "40", "--seed", str(seed), "--out", str(out))
        g = load_topology(out.read_text(), policy=UniformAvailability(0.99))
        assert (len(g.vertices), len(g.links)) == (40, n_links)
