"""Fig. 7: QoS violation probability, expected value and std per model.

An analytic sweep over the database (no simulator runs), so its campaign
plan is empty; everything happens in :func:`render`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import QoSStudyResult, qos_violation_study
from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    get_database,
)

__all__ = ["specs", "render"]

#: The paper's reported relative improvements of Model3.
PAPER_REDUCTIONS = {
    "probability_vs_model1": 0.46,
    "probability_vs_model2": 0.32,
    "ev_vs_model2": 0.49,
    "std_vs_model2": 0.26,
}


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # analytic: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del results
    cfg = cfg.effective()
    db = get_database(4, cfg.seed)

    studies: Dict[str, QoSStudyResult] = {}
    rows = []
    for model in ("Model1", "Model2", "Model3"):
        r = qos_violation_study(db, model)
        studies[model] = r
        rows.append(
            [
                model,
                f"{100 * r.probability:.2f}%",
                f"{100 * r.expected_value:.2f}%",
                f"{100 * r.std:.2f}%",
            ]
        )

    m1, m2, m3 = (studies[m] for m in ("Model1", "Model2", "Model3"))
    reductions = {
        "probability_vs_model1": 1 - m3.probability / m1.probability,
        "probability_vs_model2": 1 - m3.probability / m2.probability,
        "ev_vs_model2": 1 - m3.expected_value / m2.expected_value,
        "std_vs_model2": 1 - m3.std / m2.std,
    }
    notes = [
        f"Model3 reductions (measured vs paper): "
        f"P vs M1 {100 * reductions['probability_vs_model1']:.0f}% vs 46%; "
        f"P vs M2 {100 * reductions['probability_vs_model2']:.0f}% vs 32%; "
        f"EV vs M2 {100 * reductions['ev_vs_model2']:.0f}% vs 49%; "
        f"std vs M2 {100 * reductions['std_vs_model2']:.0f}% vs 26%",
    ]
    return ExperimentResult(
        name="fig7",
        headers=["model", "P(violation)", "E[violation]", "std"],
        rows=rows,
        notes=notes,
        data={"results": studies, "reductions": reductions},
    )

