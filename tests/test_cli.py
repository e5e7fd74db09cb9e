"""Tests for the experiment CLI argument handling.

The full harness is exercised by the benchmark suite; here only the argument
parsing and selection logic is tested, with the heavy ``run_all_experiments``
call replaced by a stub.
"""

import pytest

from repro.experiments import cli
from repro.experiments.reporting import ExperimentTable


@pytest.fixture
def stub_results(monkeypatch):
    table_a = ExperimentTable(title="A", columns=["x"])
    table_a.add_row(x=1)
    table_b = ExperimentTable(title="B", columns=["y"])
    table_b.add_row(y=2)
    results = {"exp_a": table_a, "exp_b": table_b}
    monkeypatch.setattr(cli, "run_all_experiments", lambda quick=True: results)
    return results


class TestParser:
    def test_defaults(self):
        args = cli.build_parser().parse_args([])
        assert not args.full
        assert args.only is None
        assert not args.list

    def test_full_and_only(self):
        args = cli.build_parser().parse_args(["--full", "--only", "x", "y"])
        assert args.full
        assert args.only == ["x", "y"]


class TestMain:
    def test_list_prints_names(self, stub_results, capsys):
        assert cli.main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "exp_a" in output and "exp_b" in output

    def test_prints_all_tables(self, stub_results, capsys):
        assert cli.main([]) == 0
        output = capsys.readouterr().out
        assert "=== exp_a ===" in output and "=== exp_b ===" in output

    def test_only_selects_subset(self, stub_results, capsys):
        assert cli.main(["--only", "exp_b"]) == 0
        output = capsys.readouterr().out
        assert "exp_b" in output and "=== exp_a ===" not in output

    def test_unknown_name_errors(self, stub_results, capsys):
        assert cli.main(["--only", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestMergeCache:
    def _sidecar(self, tmp_path, name, k=3):
        from repro.engine import TreeStore
        from repro.graph.generators import grid_road_graph
        from repro.ted.resolver import DEFAULT_CACHE_SIZE, BoundedNedDistance

        store = TreeStore.from_graph(grid_road_graph(4, 4, seed=1), k=k)
        resolver = BoundedNedDistance(k=k, cache_size=DEFAULT_CACHE_SIZE)
        entries = store.entries()
        resolver.exact(entries[0], entries[5])
        path = tmp_path / name
        resolver.cache.save(path)
        return path

    def test_merge_cache_subcommand(self, tmp_path, capsys):
        first = self._sidecar(tmp_path, "w0.ned")
        second = self._sidecar(tmp_path, "w1.ned")
        output = tmp_path / "merged.ned"
        assert cli.main(["merge-cache", str(output), str(first), str(second)]) == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "merged 2 sidecar(s)" in out

    def test_merge_cache_mismatch_fails_cleanly(self, tmp_path, capsys):
        first = self._sidecar(tmp_path, "w0.ned", k=3)
        second = self._sidecar(tmp_path, "w1.ned", k=2)
        output = tmp_path / "merged.ned"
        assert cli.main(["merge-cache", str(output), str(first), str(second)]) == 2
        assert "merge-cache failed" in capsys.readouterr().err
        assert not output.exists()

    def test_merge_cache_missing_input_fails_cleanly(self, tmp_path, capsys):
        output = tmp_path / "merged.ned"
        missing = tmp_path / "nope.ned"
        assert cli.main(["merge-cache", str(output), str(missing)]) == 2
        assert "merge-cache failed" in capsys.readouterr().err
