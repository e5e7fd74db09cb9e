"""Figure 11 — de-anonymization precision sweeps.

Figure 11a varies the permutation (perturbation) ratio and shows that NED's
precision degrades more slowly than the feature baseline's as more of the
structure is distorted.  Figure 11b varies the size ``l`` of the candidate
list and shows NED reaching higher precision with fewer candidates examined.
Both sweeps reuse the experiment machinery of Figure 10 on the PGP stand-in.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.experiments.fig10_deanonymization import deanonymization_experiment
from repro.experiments.reporting import ExperimentTable
from repro.utils.rng import RngLike


def figure11a_precision_vs_permutation_ratio(
    dataset: str = "PGP",
    ratios: Sequence[float] = (0.02, 0.05, 0.10, 0.20),
    top_l: int = 5,
    k: int = 3,
    scale: float = 0.35,
    query_sample: int = 15,
    candidate_sample: Optional[int] = None,
    seed: RngLike = 47,
    engine_mode: Optional[str] = None,
    engine_tiers: Optional[Sequence[str]] = None,
    cache_file: Optional[Union[str, Path]] = None,
    store_dir: Optional[Union[str, Path]] = None,
    shards: int = 4,
) -> ExperimentTable:
    """Precision of NED and Feature as the perturbation ratio grows.

    ``engine_mode`` (``"exact"``/``"bound-prune"``) routes the
    NED attacker through a :class:`repro.engine.NedSession` (the per-target
    top-l queries run as one batch through the session's batched executor)
    and ``engine_tiers`` restricts its resolution cascade for tier
    ablations; ``cache_file``/``store_dir``/``shards`` persist the session's
    distance cache and sharded training stores across the sweep points (and
    across processes) — every point after the first reuses the pairs already
    resolved; see
    :func:`repro.experiments.fig10_deanonymization.deanonymization_experiment`.
    """
    table = ExperimentTable(
        title="Figure 11a: de-anonymization precision vs permutation ratio",
        columns=["ratio", "method", "precision"],
        notes=[f"dataset={dataset}, top_l={top_l}, k={k}, engine_mode={engine_mode}"],
    )
    for ratio in ratios:
        inner = deanonymization_experiment(
            dataset=dataset,
            top_l=top_l,
            ratio=ratio,
            k=k,
            schemes=("perturbation",),
            scale=scale,
            query_sample=query_sample,
            candidate_sample=candidate_sample,
            seed=seed,
            engine_mode=engine_mode,
            engine_tiers=engine_tiers,
            cache_file=cache_file,
            store_dir=store_dir,
            shards=shards,
        )
        for row in inner.rows:
            table.add_row(ratio=ratio, method=row["method"], precision=row["precision"])
    return table


def figure11b_precision_vs_top_l(
    dataset: str = "PGP",
    top_ls: Sequence[int] = (1, 3, 5, 10),
    ratio: float = 0.10,
    k: int = 3,
    scale: float = 0.35,
    query_sample: int = 15,
    candidate_sample: Optional[int] = None,
    seed: RngLike = 53,
    engine_mode: Optional[str] = None,
    engine_tiers: Optional[Sequence[str]] = None,
    cache_file: Optional[Union[str, Path]] = None,
    store_dir: Optional[Union[str, Path]] = None,
    shards: int = 4,
) -> ExperimentTable:
    """Precision of NED and Feature as the examined top-l grows.

    ``engine_mode`` (``"exact"``/``"bound-prune"``) routes the
    NED attacker through a :class:`repro.engine.NedSession` (the per-target
    top-l queries run as one batch through the session's batched executor)
    and ``engine_tiers`` restricts its resolution cascade for tier
    ablations; ``cache_file``/``store_dir``/``shards`` persist the session's
    distance cache and sharded training stores across the sweep points (and
    across processes) — every point after the first reuses the pairs already
    resolved; see
    :func:`repro.experiments.fig10_deanonymization.deanonymization_experiment`.
    """
    table = ExperimentTable(
        title="Figure 11b: de-anonymization precision vs top-l",
        columns=["top_l", "method", "precision"],
        notes=[f"dataset={dataset}, perturbation ratio={ratio}, k={k}, engine_mode={engine_mode}"],
    )
    for top_l in top_ls:
        inner = deanonymization_experiment(
            dataset=dataset,
            top_l=top_l,
            ratio=ratio,
            k=k,
            schemes=("perturbation",),
            scale=scale,
            query_sample=query_sample,
            candidate_sample=candidate_sample,
            seed=seed,
            engine_mode=engine_mode,
            engine_tiers=engine_tiers,
            cache_file=cache_file,
            store_dir=store_dir,
            shards=shards,
        )
        for row in inner.rows:
            table.add_row(top_l=top_l, method=row["method"], precision=row["precision"])
    return table


def figure11_deanonymization_sweeps(**kwargs) -> Dict[str, ExperimentTable]:
    """Run both Figure 11 sweeps with default parameters."""
    return {
        "figure11a_permutation_ratio": figure11a_precision_vs_permutation_ratio(),
        "figure11b_top_l": figure11b_precision_vs_top_l(),
    }
