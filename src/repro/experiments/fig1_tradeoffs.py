"""Fig. 1: the trade-off matrix and workload-mix probabilities.

Static classification over the database — its campaign plan is empty.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tradeoffs import tradeoff_matrix
from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    get_database,
)
from repro.workloads.categories import classify_suite
from repro.workloads.scenarios import (
    PAPER_SCENARIO_WEIGHTS,
    category_counts_from,
    scenario_weights,
)

__all__ = ["specs", "render"]


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # static: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del results
    cfg = cfg.effective()
    db = get_database(4, cfg.seed)
    counts = category_counts_from(classify_suite(db))
    cells = tradeoff_matrix(counts)
    weights = scenario_weights(counts)

    rows = []
    for cell in cells:
        rows.append(
            [
                cell.label,
                f"{100 * cell.probability:.1f}%",
                f"S{cell.scenario}",
                cell.rm1,
                cell.rm2,
                cell.rm3,
            ]
        )
    notes = [
        "scenario weights (measured vs paper): "
        + ", ".join(
            f"S{s}: {100 * weights[s]:.1f}% vs {100 * PAPER_SCENARIO_WEIGHTS[s]:.1f}%"
            for s in sorted(weights)
        )
    ]
    return ExperimentResult(
        name="fig1",
        headers=["mix", "cell prob", "scenario", "RM1", "RM2", "RM3"],
        rows=rows,
        notes=notes,
        data={"counts": counts, "weights": weights, "cells": cells},
    )

