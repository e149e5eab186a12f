"""Table II: application categories.

Classifies the calibrated suite with the Section IV-C rules and compares
against the paper's published table — the reproduction is exact by
construction (the suite is calibrated to it), and this experiment proves it
from the measured database statistics, not the calibration intent.

Analytic classification over the database — its campaign plan is empty.
"""

from __future__ import annotations

from typing import List

from repro.campaign import ResultSet, RunSpec
from repro.config import CoreSize
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    get_database,
)
from repro.workloads.categories import classify_suite
from repro.workloads.suite import TABLE2_CATEGORIES

__all__ = ["specs", "render"]


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # analytic: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del results
    cfg = cfg.effective()
    db = get_database(4, cfg.seed)
    cats = classify_suite(db)

    rows = []
    mismatches = []
    for name in sorted(cats):
        spec = db.apps[name]
        weights = spec.phase_weights()
        recs = db.records[name]

        def avg(fn):
            return sum(w * fn(r) for w, r in zip(weights, recs))

        mpki8 = avg(lambda r: r.mpki_at(8))
        mpki4 = avg(lambda r: r.mpki_at(4))
        mpki12 = avg(lambda r: r.mpki_at(12))
        mlp_s = avg(lambda r: r.mlp_at(CoreSize.S, 8))
        mlp_l = avg(lambda r: r.mlp_at(CoreSize.L, 8))
        expected = TABLE2_CATEGORIES[name]
        ok = cats[name] == expected
        if not ok:
            mismatches.append(name)
        rows.append(
            [
                name,
                cats[name].value,
                expected.value,
                "ok" if ok else "MISMATCH",
                round(mpki4, 2),
                round(mpki8, 2),
                round(mpki12, 2),
                round(mlp_s, 2),
                round(mlp_l, 2),
            ]
        )
    notes = [f"{len(cats) - len(mismatches)}/{len(cats)} match the paper's Table II"]
    if mismatches:
        notes.append("mismatches: " + ", ".join(mismatches))
    return ExperimentResult(
        name="table2",
        headers=[
            "application",
            "measured",
            "paper",
            "status",
            "mpki@4w",
            "mpki@8w",
            "mpki@12w",
            "mlp@S",
            "mlp@L",
        ],
        rows=rows,
        notes=notes,
        data={"categories": cats, "mismatches": mismatches},
    )

