"""Shared helpers for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper: it
runs the corresponding experiment driver (at laptop-scale parameters), prints
the resulting rows/series with ``emit_table``, and times a representative
kernel through the ``pytest-benchmark`` fixture so `pytest benchmarks/
--benchmark-only` produces both the paper-style tables and machine-readable
timings.

pytest captures test output at the file-descriptor level, so the tables are
printed through the capture manager's "disabled" context (installed by
``benchmarks/conftest.py``); they are also appended to
``benchmark_tables.txt`` in the working directory as a persistent artifact.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments.reporting import ExperimentTable, format_table

# Set by the autouse fixture in benchmarks/conftest.py; None when the bench
# modules are imported outside pytest.
CAPTURE_MANAGER = None

TABLES_FILE = Path("benchmark_tables.txt")


def _write_visible(text: str) -> None:
    """Print ``text`` so it reaches the real stdout despite pytest capture."""
    manager = CAPTURE_MANAGER
    if manager is not None:
        with manager.global_and_fixture_disabled():
            print(text)
            sys.stdout.flush()
    else:
        print(text)


def emit_table(table: ExperimentTable) -> None:
    """Print an experiment table and append it to the tables artifact file.

    This is what makes ``pytest benchmarks/ --benchmark-only`` reproduce the
    paper's rows and series alongside the timing table.
    """
    rendered = format_table(table)
    _write_visible("\n" + rendered)
    try:
        with TABLES_FILE.open("a", encoding="utf-8") as handle:
            handle.write(rendered + "\n\n")
    except OSError:
        # The artifact file is best-effort; the printed output is the record.
        pass


def emit_tables(tables) -> None:
    """Print every table in a mapping or iterable."""
    if isinstance(tables, dict):
        tables = tables.values()
    for table in tables:
        emit_table(table)
