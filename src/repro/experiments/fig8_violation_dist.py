"""Fig. 8: distribution of QoS-violation magnitudes per model.

X-axis: violation magnitude bins; Y-axis: weighted occurrence counts
normalised to the maximum count across the three models (the paper's
normalisation).  The expected shape: Model3 may show slightly more mass in
the smallest bin but a substantially smaller total and a much shorter tail.

Analytic sweep over the database — its campaign plan is empty.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.stats import qos_violation_study
from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    get_database,
)

__all__ = ["specs", "render"]


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # analytic: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del results
    cfg = cfg.effective()
    db = get_database(4, cfg.seed)
    bins = np.arange(0.0, 0.525, 0.05)

    studies = {
        m: qos_violation_study(db, m, bins=bins)
        for m in ("Model1", "Model2", "Model3")
    }
    peak = max(float(r.histogram.counts.max()) for r in studies.values())

    rows = []
    for i in range(len(bins) - 1):
        row = [f"{100 * bins[i]:.0f}-{100 * bins[i + 1]:.0f}%"]
        for m in ("Model1", "Model2", "Model3"):
            norm = studies[m].histogram.normalised_to(peak)
            row.append(f"{norm[i]:.3f}")
        rows.append(row)

    tails = {
        m: float(studies[m].histogram.counts[2:].sum()) for m in studies
    }  # mass above 10%
    notes = [
        "counts normalised to the max bin across models (paper's y-axis)",
        f"tail mass (>10% violations), normalised: "
        + ", ".join(f"{m}: {tails[m] / max(max(tails.values()), 1e-12):.2f}" for m in tails),
    ]
    return ExperimentResult(
        name="fig8",
        headers=["violation bin", "Model1", "Model2", "Model3"],
        rows=rows,
        notes=notes,
        data={"results": studies, "bins": bins, "tails": tails},
    )

