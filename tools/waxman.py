"""Write a Waxman mesh in the line-based topology format.

    python tools/waxman.py --nodes 24 --seed 1 > mesh24.topo
    python tools/waxman.py --nodes 40 --seed 7 --out mesh40-seed7.topo

Points are drawn uniformly in the unit square by ``numpy.random
.default_rng(seed)``.  A ring through the points in order of their angle
around the centroid keeps the mesh connected.  Then one uniform draw per
pair i < j, taken in order from the same generator, gives each pair that is
not a ring edge a link when it is below ``0.4 * exp(-d / 0.212)``, d the
Euclidean distance (Waxman, "Routing of multipoint connections", IEEE JSAC
1988).  Nodes are named 1..n, links are listed by (i, j) and a link's
length is ``round(d * 4000)`` km.  No availability is written: the policy
of the run that loads the file assigns them.  At 24 nodes and seed 1 this
gives every ``node`` and ``link`` line of ``tests/data/mesh24.topo``.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

ALPHA = 0.4
BETA = 0.212
KM_PER_UNIT = 4000


def waxman_links(n: int, seed: int) -> list[tuple[int, int, int]]:
    """(i, j, length in km) of each link, 0-based i < j, sorted by (i, j)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    centre = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0]))
    ring = {
        tuple(sorted((int(a), int(b))))
        for a, b in zip(order, np.roll(order, -1))
    }
    draws = iter(rng.random(n * (n - 1) // 2))
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(pts[i], pts[j])
            draw = next(draws)
            if (i, j) in ring or draw < ALPHA * math.exp(-d / BETA):
                links.append((i, j, round(d * KM_PER_UNIT)))
    return links


def waxman_topology(n: int, seed: int) -> str:
    """The topology file text of the n-node mesh of ``seed``."""
    links = waxman_links(n, seed)
    lines = [
        f"# {n}-node, {len(links)}-link Waxman mesh, distances in km.",
        f"# Written by tools/waxman.py --nodes {n} --seed {seed}.",
        "# Availabilities are assigned by the active policy at load time.",
    ]
    lines += [f"node {i}" for i in range(1, n + 1)]
    lines += [f"link {i + 1} {j + 1} {km}" for i, j, km in links]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, required=True, help="number of nodes, 3 or more")
    ap.add_argument("--seed", type=int, required=True, help="seed of numpy's default_rng")
    ap.add_argument("--out", default="-", help="file to write, or - for stdout")
    args = ap.parse_args(argv)
    if args.nodes < 3 or args.seed < 0:
        ap.error("--nodes must be >= 3 and --seed >= 0")
    text = waxman_topology(args.nodes, args.seed)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
