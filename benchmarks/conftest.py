"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section VI) on the scaled-down dataset stand-ins and writes the formatted
rows to ``benchmarks/results/latest/<experiment>.txt`` so the numbers behind
each figure can be inspected after a run.  That directory is gitignored: a
test run never rewrites the reports checked in under ``benchmarks/results/``.

The scale factor below trades fidelity for wall-clock time; raise it (e.g. to
1.0) for a slower, closer-to-the-paper run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

# One knob for the whole harness: fraction of the default stand-in size.
BENCH_SCALE = 0.35
# Datasets grouped the way the paper's figures group them.
GENERATED_DATASETS = ("Themarker", "Google", "DBLP", "Flixster", "Pokec")
REAL_ATTRIBUTE_DATASETS = ("Aminer",)
FAST_DATASETS = ("DBLP", "Aminer")

RESULTS_DIR = Path(__file__).parent / "results" / "latest"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where each benchmark drops its formatted report."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: Path, name: str, report: str) -> None:
    """Persist a formatted experiment report next to the benchmark results."""
    (results_dir / f"{name}.txt").write_text(report + "\n", encoding="utf-8")
