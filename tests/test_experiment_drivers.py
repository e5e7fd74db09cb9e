"""Smoke tests for the per-figure experiment drivers (tiny parameters).

These are integration tests: every driver runs end-to-end on very small
synthetic workloads and must return a well-formed table whose series show
the qualitative shape the paper reports (where that shape is deterministic
enough to assert at this scale).
"""

import pytest

from repro.experiments.ablations import (
    ablation_bound_tiers,
    ablation_bounds,
    ablation_matching_backend,
    ablation_monotonicity,
)
from repro.experiments.fig5_ted_ted_ged import figure5_ted_ted_ged
from repro.experiments.fig6_ted_agreement import figure6_ted_agreement
from repro.experiments.fig7_scalability import figure7a_ted_star_vs_tree_size, figure7b_ned_vs_k
from repro.experiments.fig8_parameter_k import figure8_parameter_k
from repro.experiments.fig9_query_comparison import (
    figure9a_similarity_computation_time,
    figure9b_nearest_neighbor_query_time,
    figure9b_tier_ablation,
)
from repro.experiments.fig10_deanonymization import deanonymization_experiment, figure10a_pgp
from repro.experiments.fig11_deanonymization_sweeps import (
    figure11a_precision_vs_permutation_ratio,
    figure11b_precision_vs_top_l,
)
from repro.experiments.reporting import ExperimentTable
from repro.experiments.table2_datasets import table2_dataset_summary


class TestTable2:
    def test_six_rows(self):
        table = table2_dataset_summary(scale=0.2)
        assert isinstance(table, ExperimentTable)
        assert len(table.rows) == 6

    def test_generated_sizes_positive(self):
        table = table2_dataset_summary(scale=0.2)
        assert all(row["generated_nodes"] > 0 for row in table.rows)


class TestFigure5and6:
    def test_figure5_tables(self):
        result = figure5_ted_ted_ged(ks=(2, 3), pairs_per_k=4, scale=0.3, max_tree_size=10)
        assert set(result) == {"figure5a_time", "figure5b_values"}
        time_table = result["figure5a_time"]
        assert len(time_table.rows) == 2
        # TED* must have produced a value for every k that had pairs.
        for row in time_table.rows:
            if row["pairs"]:
                assert row["ted_star_time"] > 0

    def test_figure6_tables(self):
        result = figure6_ted_agreement(ks=(2, 3), pairs_per_k=5, scale=0.3)
        error_rows = result["figure6a_relative_error"].rows
        ratio_rows = result["figure6b_equivalency"].rows
        assert len(error_rows) == len(ratio_rows) == 2
        for row in ratio_rows:
            if row["equivalency_ratio"] is not None:
                assert 0.0 <= row["equivalency_ratio"] <= 1.0


class TestFigure7:
    def test_figure7a_buckets(self):
        table = figure7a_ted_star_vs_tree_size(pair_count=10, scale=0.3,
                                               size_buckets=((1, 30), (31, 200)))
        assert len(table.rows) == 2

    def test_figure7b_time_grows_with_k(self):
        table = figure7b_ned_vs_k(ks=(1, 3, 5), pair_count=6, scale=0.3)
        times = [row["avg_time_seconds"] for row in table.rows]
        assert times[0] < times[-1]

    def test_figure7b_distance_monotone_in_k(self):
        table = figure7b_ned_vs_k(ks=(1, 2, 3, 4), pair_count=6, scale=0.3)
        distances = [row["avg_distance"] for row in table.rows]
        assert distances == sorted(distances)


class TestFigure8:
    def test_nn_set_size_decreases_with_k(self):
        result = figure8_parameter_k(ks=(1, 3), query_count=3, candidate_count=15, scale=0.3)
        sizes = [row["avg_nn_set_size"] for row in result["figure8a_nn_set_size"].rows]
        assert sizes[0] >= sizes[-1]

    def test_ties_decrease_with_k(self):
        result = figure8_parameter_k(ks=(1, 4), query_count=3, candidate_count=15, scale=0.3)
        ties = [row["avg_ties_in_top_l"] for row in result["figure8b_ranking_ties"].rows]
        assert ties[0] >= ties[-1]


class TestFigure9:
    def test_hits_is_slowest(self):
        pytest.importorskip("numpy")
        table = figure9a_similarity_computation_time(
            datasets=("PGP",), pair_count=3, scale=0.15
        )
        row = table.rows[0]
        assert row["hits_time"] > row["ned_time"]
        assert row["hits_time"] > row["feature_time"]

    def test_vptree_prunes_relative_to_scan(self):
        table = figure9b_nearest_neighbor_query_time(
            datasets=("PGP",), candidate_count=40, query_count=3, scale=0.25
        )
        row = table.rows[0]
        assert row["ned_vptree_distance_evaluations"] <= row["feature_distance_evaluations"]
        assert row["ned_vptree_query_time"] <= row["ned_scan_query_time"] * 1.5

    def test_tier_ablation_degree_scan_beats_triangle_only(self):
        """Acceptance: on the Fig 9b workload, the degree-multiset
        bound-prune scan pays strictly fewer exact TED* evaluations than the
        paper's triangle-only VP-tree (the driver itself asserts all regimes
        return identical results)."""
        table = figure9b_tier_ablation(candidate_count=80, query_count=4, scale=0.3)
        rows = {row["configuration"]: row for row in table.rows}
        scan = rows["scan degree-multiset"]
        assert (
            scan["exact_evals_per_query"]
            < rows["vptree triangle-only"]["exact_evals_per_query"]
        )
        # The per-tier counters must show where evaluations were skipped.
        assert (
            scan["pruned_level_size"]
            + scan["pruned_degree"]
            + scan["signature_hits"]
            + scan["decided_level_size"]
            + scan["decided_degree"]
        ) > 0
        # The degree tier tightens the scan beyond level-size alone.
        assert (
            rows["scan degree-multiset"]["exact_evals_per_query"]
            <= rows["scan level-size"]["exact_evals_per_query"]
        )


class TestFigure10and11:
    def test_deanonymization_experiment_rows(self):
        table = deanonymization_experiment(
            dataset="PGP", top_l=5, ratio=0.1, scale=0.2,
            query_sample=5, candidate_sample=30, seed=1,
        )
        assert len(table.rows) == 6  # 3 schemes x 2 methods
        for row in table.rows:
            assert 0.0 <= row["precision"] <= 1.0

    def test_naive_scheme_ned_precision_is_high(self):
        table = figure10a_pgp(query_sample=5, candidate_sample=30, scale=0.2,
                              schemes=("naive",))
        ned_rows = [row for row in table.rows if row["method"] == "NED"]
        assert ned_rows[0]["precision"] >= 0.8

    def test_figure11a_rows(self):
        table = figure11a_precision_vs_permutation_ratio(
            ratios=(0.05, 0.2), query_sample=4, candidate_sample=25, scale=0.2
        )
        assert len(table.rows) == 4  # 2 ratios x 2 methods

    def test_figure11b_rows(self):
        table = figure11b_precision_vs_top_l(
            top_ls=(1, 5), query_sample=4, candidate_sample=25, scale=0.2
        )
        assert len(table.rows) == 4


class TestAblations:
    def test_bound_tiers_dominate_and_sandwich(self):
        table = ablation_bound_tiers(pair_count=20, scale=0.3)
        row = table.rows[0]
        assert row["dominance_violations"] == 0
        assert row["sandwich_violations"] == 0
        assert row["avg_degree_lower"] >= row["avg_level_size_lower"]
        assert row["degree_exact_evals"] <= row["level_size_exact_evals"]

    def test_deanonymization_engine_tiers_match_full_cascade(self):
        level_size = deanonymization_experiment(
            dataset="PGP", top_l=5, ratio=0.1, scale=0.2, query_sample=4,
            candidate_sample=25, seed=3, schemes=("perturbation",),
            engine_mode="bound-prune", engine_tiers=("signature", "level-size"),
        )
        full = deanonymization_experiment(
            dataset="PGP", top_l=5, ratio=0.1, scale=0.2, query_sample=4,
            candidate_sample=25, seed=3, schemes=("perturbation",),
            engine_mode="bound-prune",
        )
        ned = lambda table: next(r for r in table.rows if r["method"] == "NED")  # noqa: E731
        assert ned(level_size)["precision"] == ned(full)["precision"]
        assert ned(full)["exact_ted_star_evals"] <= ned(level_size)["exact_ted_star_evals"]

    def test_bounds_hold(self):
        table = ablation_bounds(pair_count=5, scale=0.3)
        row = table.rows[0]
        assert row["ged_bound_violations"] == 0
        assert row["ted_bound_violations"] == 0

    def test_monotonicity_holds(self):
        table = ablation_monotonicity(pair_count=5, ks=(1, 2, 3), scale=0.3)
        assert all(row["monotonicity_violations"] == 0 for row in table.rows)

    def test_matching_backends_agree(self):
        table = ablation_matching_backend(sizes=(8, 16), trials=3)
        assert all(row["cost_mismatches"] == 0 for row in table.rows)
