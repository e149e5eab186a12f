"""Fig. 2: two-core workload study per scenario, perfect models, no overheads.

The paper's Fig. 2 runs one representative two-core workload per scenario
"with perfect assumptions regarding modeling accuracy and overheads" to
demonstrate the four regimes:

* Scenario 1 — RM3 saves substantially more than RM2,
* Scenario 2 — RM2 and RM3 are comparable,
* Scenario 3 — only RM3 is effective,
* Scenario 4 — no manager is effective.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    RM_KINDS,
)
from repro.simulator.metrics import energy_savings

__all__ = ["specs", "render", "REPRESENTATIVE_MIXES"]

#: One representative mix per scenario (category structure per Fig. 1).
REPRESENTATIVE_MIXES: Dict[int, Tuple[str, str]] = {
    1: ("mcf", "omnetpp"),          # CS-PS x CS-PS
    2: ("xalancbmk", "hmmer"),      # CS-PI x CS-PI
    3: ("libquantum", "bwaves"),    # CI-PS x CI-PS
    4: ("gamess", "sjeng"),         # CI-PI x CI-PI
}


def _spec(cfg: ExperimentConfig, apps: Tuple[str, str], kind: str) -> RunSpec:
    return RunSpec(
        seed=cfg.seed,
        n_cores=2,
        rm_kind=kind,
        model=None if kind == "idle" else "Perfect",
        apps=apps,
        horizon_intervals=cfg.horizon_intervals or 24,
        charge_overheads=False,
    )


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    cfg = cfg.effective()
    return [
        _spec(cfg, apps, kind)
        for _scenario, apps in sorted(REPRESENTATIVE_MIXES.items())
        for kind in ("idle",) + RM_KINDS
    ]


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    cfg = cfg.effective()
    rows: List[List] = []
    savings: Dict[int, Dict[str, float]] = {}
    for scenario, apps in sorted(REPRESENTATIVE_MIXES.items()):
        idle = results[_spec(cfg, apps, "idle")]
        per_rm = {
            kind: energy_savings(results[_spec(cfg, apps, kind)], idle)
            for kind in RM_KINDS
        }
        savings[scenario] = per_rm
        rows.append(
            [
                f"Scenario {scenario}",
                "+".join(apps),
                f"{100 * per_rm['rm1']:.1f}%",
                f"{100 * per_rm['rm2']:.1f}%",
                f"{100 * per_rm['rm3']:.1f}%",
            ]
        )

    s = savings
    notes = [
        "paper shapes: S1 RM3 >> RM2; S2 RM2 ~ RM3 (~5%); S3 only RM3 (~11%); S4 ~0",
        f"S1 RM3/RM2 ratio: {s[1]['rm3'] / max(s[1]['rm2'], 1e-9):.1f}x "
        f"(paper reports RM3 ~70% higher than RM2 on its S1 mix)",
    ]
    return ExperimentResult(
        name="fig2",
        headers=["scenario", "workload", "RM1", "RM2", "RM3"],
        rows=rows,
        notes=notes,
        data={"savings": savings},
    )

