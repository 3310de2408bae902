import pytest

from eonprotect import rsa
from eonprotect.dsbpss import BackupPath

ACCEPTANCE_LABELS = {
    "test_availability_calculus_vs_oracle": "availability calculus vs Monte-Carlo oracle (1 % family-wise, <60 s)",
    "test_structure_function_table": "3-link structure-function table (8 rows exact)",
    "test_update_formula_identities": "update-formula identities (composition, 1e-12)",
    "test_threshold_gating_zero_protection": "threshold gating: no protection capacity above threshold",
    "test_single_fault_restorability_soundness": "single-fault soundness: 100 NSFNET prefixes, 6 on the 24-node mesh, every link failed",
    "test_blocking_probability_trends": "blocking-probability trends across loads and modes",
    "test_conservation_and_deterministic_replay": "conservation and deterministic replay",
    "test_hundred_k_run_performance": "100k-request run under 5 minutes",
}


@pytest.fixture
def fallbacks(monkeypatch):
    """Arguments of every pruned search that the table did not answer."""
    calls = []

    def spy(index, runs, s, d, k, best_only):
        calls.append((s, d, k))
        return pruned_bfs(index, runs, s, d, k, best_only)

    pruned_bfs = rsa._pruned_bfs
    monkeypatch.setattr(rsa, "_pruned_bfs", spy)
    return calls


def hand_backup(g, bp_id, walk, block):
    """A backup over the vertex walk ``walk`` on ``g`` at ``block``, found
    and packed as ``provision_backups`` finds and packs one."""
    index = g.link_index()
    path = tuple(index.between[u][v] for u, v in zip(walk, walk[1:]))
    packed = 0
    for li in path:
        packed |= block.mask() << li * g.slot_count
    found = rsa.CandidatePath(
        index.links, walk[0], path, 1 << block.start, block.length,
        rsa._availability(index.links, path),
    )
    return BackupPath(bp_id, found, block, packed)


def reference_arcs(cycle, link):
    """Link ids of the backup arcs ``cycle`` offers ``link``, read off its
    vertex order and its ring by link id: the complement of an on-cycle
    link, both arcs between a straddler's endpoints."""
    ring = list(cycle.blocks)
    if link.id in ring:
        return [[lid for lid in ring if lid != link.id]]
    i, j = sorted((cycle.vertex_order.index(link.u), cycle.vertex_order.index(link.v)))
    return [ring[i:j], ring[j:] + ring[:i]]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "nodeid", "").rsplit("::", 1)[-1]
            base = name.split("[", 1)[0]
            if base in ACCEPTANCE_LABELS:
                verdict = "PASS" if outcome == "passed" else "FAIL"
                if verdicts.get(base) != "FAIL":
                    verdicts[base] = verdict
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for base, label in ACCEPTANCE_LABELS.items():
            if base in verdicts:
                terminalreporter.write_line(f"{verdicts[base]}  {label}")
