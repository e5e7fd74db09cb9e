"""The in-process workload, ``deanon_matrix``.

Set-up builds the store and the columns from the seed; the timed phase repeats identical *passes*, each on a fresh
``NedSession`` over the already-built store, until the run's seconds are
spent.  Every pass must return the same answers (digest) and do the same
work (counts) as the first; a recorded digest for the seed, and an in-run
reference computed through another path, gate the answers themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import K, MIN_SAMPLES, BenchmarkError, clock, digest


@dataclass
class PassResult:
    latencies: List[float]
    answers: Optional[List[Any]]  # kept for the first pass only
    digest: str
    counts: Dict[str, int]
    snapshot: Dict[str, Any]
    wall: float


@dataclass
class Prepared:
    store: Any
    plans: List[Any]
    #: Names the answers in the recorded-digest table: seed and sizes.
    key: str

    @property
    def cells_per_plan(self) -> int:
        return len(self.store)


def work_counts(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """The counts a pass must repeat exactly: identical work, every pass."""
    resolution = snapshot["resolution"]
    kernel = snapshot.get("batch_kernel", {})
    return {
        "exact_evaluations": resolution["exact_evaluations"],
        "cache_hits": resolution["cache_hits"],
        "cache_misses": resolution["cache_misses"],
        "pruned_pairs": resolution["pruned_by_lower_bound"],
        "bound_evaluations": resolution["bound_evaluations"],
        "kernel_batched_pairs": kernel.get("batched_pairs", 0),
        "kernel_blocks": kernel.get("blocks", 0),
    }


# ----------------------------------------------------------- deanon_matrix
#: Columns per pass: anonymised nodes, one CrossMatrixPlan each (a plan is
#: the de-anonymization of one node against every candidate).
DEANON_COLUMNS = 120
DEANON_RATIO = 0.05


def prepare_deanon(seed: int, columns: int = DEANON_COLUMNS, scale: float = 1.0) -> Prepared:
    """PGP stand-in store (800 nodes) vs one-node columns of a perturbed copy.

    The graph is the registry's fixed stand-in; the seed picks the
    perturbation and the columns.  Columns are drawn one per stratum of
    tree size, so every seed sees the same spread of small and hub trees.
    """
    from repro.anonymize.anonymizers import perturbation_anonymization
    from repro.datasets.registry import load_dataset
    from repro.engine import CrossMatrixPlan, TreeStore

    graph = load_dataset("PGP", scale=scale)
    store = TreeStore.from_graph(graph, K)
    anonymised = perturbation_anonymization(graph, DEANON_RATIO, seed=seed).graph
    anon_store = TreeStore.from_graph(anonymised, K)
    ranked = sorted(anon_store.entries(), key=lambda e: (e.tree.size(), repr(e.node)))
    rng = random.Random(seed)
    chosen = []
    for index in range(columns):
        low = len(ranked) * index // columns
        high = max(low + 1, len(ranked) * (index + 1) // columns)
        chosen.append(ranked[low + rng.randrange(high - low)].node)
    plans = [CrossMatrixPlan(anon_store.subset([node])) for node in chosen]
    return Prepared(store, plans, f"{seed}/{columns}x{len(store)}")


def check_reference(prepared: Prepared, answers: List[Any]) -> None:
    """Recompute two seeded columns on the per-pair path (no batch kernel)."""
    from repro.engine import NedSession

    picks = random.Random(len(answers)).sample(range(len(answers)), 2)
    with NedSession(prepared.store, batch=False) as session:
        for index in picks:
            expected = _column(session.execute(prepared.plans[index]))
            if expected != answers[index]:
                raise BenchmarkError(
                    f"deanon_matrix column {index} differs from the per-pair path"
                )


def _column(result) -> List[Any]:
    return [result.col_nodes[0], [row[0] for row in result.values]]



# ------------------------------------------------------------------ passes
def run_pass(prepared: Prepared) -> PassResult:
    """One pass: a fresh session over the built store, every plan once."""
    from repro.engine import NedSession

    started = clock()
    session = NedSession(prepared.store)
    latencies: List[float] = []
    answers: List[Any] = []
    for plan in prepared.plans:
        began = clock()
        result = session.execute(plan)
        latencies.append(clock() - began)
        answers.append(_column(result))
    snapshot = session.metrics_snapshot()
    session.close()
    wall = clock() - started
    return PassResult(latencies, answers, digest(answers), work_counts(snapshot), snapshot, wall)


def warm_up(prepared: Prepared) -> None:
    """Touch every code path once (lazy imports, numpy dispatch) untimed."""
    from repro.engine import NedSession

    with NedSession(prepared.store) as session:
        for plan in prepared.plans[:2]:
            session.execute(plan)


def timed_passes(prepared: Prepared, seconds: float) -> List[PassResult]:
    """Whole passes until ``seconds`` have elapsed.

    At least two passes, and enough for ten latency samples beyond p95.
    Each pass after the first must match the first's digest and counts, so
    a difference in time between passes can only be the host's.  Only the
    first pass keeps its answers, so memory does not grow with the pass count.
    """
    least = max(2, -(-MIN_SAMPLES // len(prepared.plans)))
    passes: List[PassResult] = []
    deadline = clock() + seconds
    while len(passes) < least or clock() < deadline:
        result = run_pass(prepared)
        if passes:
            check_identical(passes[0], result)
            result.answers = None
        passes.append(result)
    return passes


def check_identical(first: PassResult, later: PassResult) -> None:
    if later.counts != first.counts:
        raise BenchmarkError(
            f"pass work differs: {later.counts} vs first pass {first.counts}"
        )
    if later.digest != first.digest:
        raise BenchmarkError("a pass returned different answers than the first")
