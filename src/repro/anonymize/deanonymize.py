"""De-anonymization via inter-graph node similarity (Section 13.5).

Setup: a *training graph* whose node identities are known, and an
*anonymised testing graph* produced by one of the schemes in
:mod:`repro.anonymize.anonymizers`.  For every anonymised node, the attacker
computes its similarity to the training nodes and keeps the top-``l`` most
similar ones; the node counts as successfully de-anonymised when its true
identity appears in that top-``l`` list.  The *precision* of a method is the
fraction of anonymised nodes successfully de-anonymised.

The evaluation is measure-agnostic: it takes a ``distance(train_node,
anon_node) -> float`` callable, so NED and the feature-based baseline plug in
through the same interface (and the benchmark harness reports both, as in
Figures 10-11).

For NED specifically there is also an engine-backed sweep
(:func:`deanonymization_precision_with_engine`): the training candidates'
k-adjacent trees are precomputed once in a :class:`repro.engine.TreeStore`
and every anonymised node is matched through
:meth:`repro.engine.NedSearchEngine.top_l_candidates`, which can skip most
exact TED* evaluations via bound-based pruning while returning exactly the
same candidate lists as the quadratic callable path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.anonymize.anonymizers import AnonymizedGraph
from repro.engine.matrix import MatrixResult, cross_distance_matrix
from repro.engine.search import NedSearchEngine
from repro.engine.stats import EngineStats
from repro.engine.tree_store import TreeStore
from repro.exceptions import ExperimentError
from repro.graph.graph import Graph
from repro.utils.rng import RngLike, sample_distinct
from repro.utils.validation import check_positive_int

Node = Hashable
PairDistance = Callable[[Node, Node], float]


@dataclass(frozen=True)
class DeanonymizationReport:
    """Outcome of a de-anonymization experiment.

    Attributes
    ----------
    precision:
        Fraction of evaluated anonymised nodes whose true identity appeared in
        their top-l candidate list.
    evaluated:
        Number of anonymised nodes evaluated.
    hits:
        Number of successful re-identifications.
    top_l:
        The ``l`` used for the candidate lists.
    scheme:
        The anonymization scheme evaluated.
    """

    precision: float
    evaluated: int
    hits: int
    top_l: int
    scheme: str


def deanonymize_node(
    anon_node: Node,
    training_nodes: Sequence[Node],
    distance: PairDistance,
    top_l: int,
) -> List[Tuple[Node, float]]:
    """Return the top-``l`` training candidates for one anonymised node.

    Candidates are sorted by ascending distance; ties are kept in a
    deterministic order so results are reproducible.
    """
    check_positive_int(top_l, "top_l")
    scored = [(train, distance(train, anon_node)) for train in training_nodes]
    scored.sort(key=lambda pair: (pair[1], repr(pair[0])))
    return scored[:top_l]


def deanonymization_precision(
    training_graph: Graph,
    anonymized: AnonymizedGraph,
    distance: PairDistance,
    top_l: int,
    sample_size: Optional[int] = None,
    seed: RngLike = 0,
    candidate_nodes: Optional[Sequence[Node]] = None,
) -> DeanonymizationReport:
    """Evaluate de-anonymization precision of a similarity measure.

    Parameters
    ----------
    training_graph:
        The graph with known identities (candidates are its nodes unless
        ``candidate_nodes`` restricts them).
    anonymized:
        The anonymised testing graph plus ground-truth identity mapping.
    distance:
        ``distance(training_node, anonymised_node)`` — smaller means more
        similar.  For NED this wraps :class:`repro.core.ned.NedComputer`;
        for the feature baseline it wraps a feature-vector distance.
    top_l:
        Size of the candidate list per anonymised node.
    sample_size:
        Evaluate only a random sample of anonymised nodes (useful because a
        full quadratic evaluation is expensive); ``None`` evaluates all.
    seed:
        Sampling seed.
    candidate_nodes:
        Restrict the training candidates (defaults to every training node).
    """
    check_positive_int(top_l, "top_l")
    candidates = list(candidate_nodes) if candidate_nodes is not None else training_graph.nodes()
    if not candidates:
        raise ExperimentError("no candidate training nodes to match against")
    targets = anonymized.pseudonyms()
    if sample_size is not None:
        targets = sample_distinct(targets, sample_size, seed)
    return _sweep(
        targets, anonymized, training_graph, top_l,
        lambda anon_node: deanonymize_node(anon_node, candidates, distance, top_l),
    )


def _sweep(
    targets: Sequence[Node],
    anonymized: AnonymizedGraph,
    training_graph: Graph,
    top_l: int,
    top_of: Callable[[Node], List[Tuple[Node, float]]],
) -> DeanonymizationReport:
    """Shared sweep loop: hit-count the candidate lists of every target.

    ``top_of(anon_node)`` produces the top-l candidate list — a pairwise
    callable ranking or an engine query; the hit/precision bookkeeping is
    identical either way.
    """
    hits = 0
    evaluated = 0
    for anon_node in targets:
        truth = anonymized.true_identity[anon_node]
        if truth not in training_graph:
            # The true node may have been split away from the training part;
            # skip it, as it cannot possibly be recovered.
            continue
        top = top_of(anon_node)
        evaluated += 1
        if any(candidate == truth for candidate, _ in top):
            hits += 1
    precision = hits / evaluated if evaluated else 0.0
    return DeanonymizationReport(
        precision=precision,
        evaluated=evaluated,
        hits=hits,
        top_l=top_l,
        scheme=anonymized.scheme,
    )


def deanonymization_precision_with_engine(
    training_graph: Graph,
    anonymized: AnonymizedGraph,
    k: int,
    top_l: int,
    mode: str = "bound-prune",
    sample_size: Optional[int] = None,
    seed: RngLike = 0,
    candidate_nodes: Optional[Sequence[Node]] = None,
    training_store: Optional[TreeStore] = None,
) -> Tuple[DeanonymizationReport, EngineStats]:
    """Engine-backed NED de-anonymization sweep.

    Equivalent to :func:`deanonymization_precision` with a NED distance
    callable, but the training trees are extracted once into a
    :class:`~repro.engine.tree_store.TreeStore` and each anonymised node is
    matched with :meth:`~repro.engine.search.NedSearchEngine.top_l_candidates`
    — identical candidate lists (same distances, same ``(distance,
    repr(node))`` tie order), far fewer exact TED* evaluations when ``mode``
    is ``"bound-prune"``.  Returns the usual report plus the engine's
    accumulated counters.  The engine's session keeps the signature-keyed
    distance cache on (the session default), so ``exact_evaluations`` in
    the returned stats counts the *distinct* signature pairs the sweep
    forced — ``cache_hits`` reports the repeats answered from memory, and
    both count toward ``exact_evaluations_avoided``/``pruning_ratio``.

    ``training_store`` lets a caller reuse a store built earlier (or loaded
    from disk via :meth:`TreeStore.load`) across many sweeps; it must have
    been built over ``training_graph`` with the same ``k``.
    """
    check_positive_int(top_l, "top_l")
    candidates = list(candidate_nodes) if candidate_nodes is not None else training_graph.nodes()
    if not candidates:
        raise ExperimentError("no candidate training nodes to match against")
    if training_store is None:
        store = TreeStore.from_graph(training_graph, k, nodes=candidates)
    else:
        if training_store.k != k:
            raise ExperimentError(
                f"training_store was built with k={training_store.k}, expected k={k}"
            )
        store = training_store.subset(candidates)
    engine = NedSearchEngine(store, mode=mode)

    targets = anonymized.pseudonyms()
    if sample_size is not None:
        targets = sample_distinct(targets, sample_size, seed)
    report = _sweep(
        targets, anonymized, training_graph, top_l,
        lambda anon_node: engine.top_l_candidates(
            engine.probe(anonymized.graph, anon_node), top_l
        ),
    )
    return report, engine.stats


def top_l_from_matrix(
    matrix: MatrixResult, anon_node: Node, top_l: int
) -> List[Tuple[Node, float]]:
    """Return one anonymised node's top-``l`` candidate list from a matrix.

    ``matrix`` must be a cross distance matrix whose *rows* are training
    candidates and whose *columns* are anonymised nodes (the shape
    :func:`repro.engine.matrix.cross_distance_matrix` produces).  Ties break
    by ``repr(node)``, exactly like :func:`deanonymize_node`; ``inf``
    entries (pairs a matrix ``threshold`` pruned) are skipped.  Lookups go
    through the matrix's precomputed node→index dicts, so ranking one
    column is O(rows · log rows) with no per-candidate ``list.index`` scan.
    """
    check_positive_int(top_l, "top_l")
    column = matrix.col_index[anon_node]
    scored = [
        (train_node, row[column])
        for train_node, row in zip(matrix.row_nodes, matrix.values)
        if row[column] != math.inf
    ]
    scored.sort(key=lambda pair: (pair[1], repr(pair[0])))
    return scored[:top_l]


def deanonymization_precision_with_matrix(
    training_graph: Graph,
    anonymized: AnonymizedGraph,
    k: int,
    top_l: int,
    mode: str = "bound-prune",
    executor: str = "serial",
    sample_size: Optional[int] = None,
    seed: RngLike = 0,
    candidate_nodes: Optional[Sequence[Node]] = None,
    training_store: Optional[TreeStore] = None,
) -> Tuple[DeanonymizationReport, EngineStats]:
    """Matrix-driven NED de-anonymization sweep.

    Builds one training×anonymised cross distance matrix (training trees in
    rows, attacked nodes in columns) and ranks every column through
    :func:`top_l_from_matrix` — identical candidate lists to
    :func:`deanonymization_precision` with a NED callable (same distances,
    same ``(distance, repr(node))`` tie order), but the batch build gets the
    engine's whole performance arsenal: bound-based resolution (``mode``),
    the signature-keyed distance cache (duplicate tree shapes are computed
    once), and ``executor="process"``, which sends the exact blocks to a
    shared-memory worker pool for multi-core sweeps.
    Returns the usual report plus the matrix build's counters.
    """
    check_positive_int(top_l, "top_l")
    candidates = list(candidate_nodes) if candidate_nodes is not None else training_graph.nodes()
    if not candidates:
        raise ExperimentError("no candidate training nodes to match against")
    if training_store is None:
        store = TreeStore.from_graph(training_graph, k, nodes=candidates)
    else:
        if training_store.k != k:
            raise ExperimentError(
                f"training_store was built with k={training_store.k}, expected k={k}"
            )
        store = training_store.subset(candidates)

    targets = anonymized.pseudonyms()
    if sample_size is not None:
        targets = sample_distinct(targets, sample_size, seed)
    anon_store = TreeStore.from_graph(anonymized.graph, k, nodes=targets)
    matrix = cross_distance_matrix(store, anon_store, mode=mode, executor=executor)
    report = _sweep(
        targets, anonymized, training_graph, top_l,
        lambda anon_node: top_l_from_matrix(matrix, anon_node, top_l),
    )
    return report, matrix.stats
