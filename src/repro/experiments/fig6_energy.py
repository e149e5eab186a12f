"""Fig. 6: energy savings of RM1/RM2/RM3 on 4- and 8-core workloads.

Six scenario-constrained random workloads per scenario and core count (the
paper's Section IV-C generation), online models (RM3 and the others run on
the proposed Model3) with all overheads charged.  Scenario averages are
combined with the Fig. 1 probability weights (47 / 22.1 / 22.1 / 8.8 %)
exactly as in Section V-A, alongside the plain average.

Declarative plan: :func:`specs` names one Idle baseline plus one run per
manager for every generated mix; the Idle and RM3/Model3 runs are shared
(deduped) with Fig. 9 when both render from one merged campaign.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    RM_KINDS,
    get_database,
)
from repro.simulator.metrics import energy_savings, weighted_scenario_average
from repro.workloads.categories import classify_suite
from repro.workloads.mixes import WorkloadMix, generate_workloads
from repro.workloads.scenarios import PAPER_SCENARIO_WEIGHTS

__all__ = ["specs", "render", "scenario_mixes", "mix_spec"]


@lru_cache(maxsize=None)
def scenario_mixes(
    cfg: ExperimentConfig, n_cores: int
) -> Dict[int, List[WorkloadMix]]:
    """The Section IV-C workload mixes for one core count.

    Deterministic in ``(cfg, n_cores)`` and consumed by fig6/fig9 specs
    *and* renders, hence memoised (callers must not mutate the result).
    """
    categories = classify_suite(get_database(n_cores, cfg.seed))
    return {
        scenario: generate_workloads(
            categories, scenario, n_cores, cfg.workloads_per_scenario,
            seed=cfg.seed,
        )
        for scenario in (1, 2, 3, 4)
    }


def mix_spec(
    cfg: ExperimentConfig,
    n_cores: int,
    mix: WorkloadMix,
    rm_kind: str,
    model: str | None = None,
) -> RunSpec:
    """One scenario-workload run; shared with Fig. 9 so the Idle and
    RM3/Model3 specs of both experiments are identical by construction
    (that identity is what makes the merged campaign dedupe them)."""
    return RunSpec(
        seed=cfg.seed, n_cores=n_cores, rm_kind=rm_kind, model=model,
        apps=mix.apps, horizon_intervals=cfg.horizon_intervals,
    )


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    cfg = cfg.effective()
    out: List[RunSpec] = []
    for n_cores in cfg.core_counts:
        for _scenario, mixes in sorted(scenario_mixes(cfg, n_cores).items()):
            for mix in mixes:
                out.append(mix_spec(cfg, n_cores, mix, "idle"))
                out.extend(
                    mix_spec(cfg, n_cores, mix, k, "Model3") for k in RM_KINDS
                )
    return out


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    cfg = cfg.effective()
    rows: List[List] = []
    summary: Dict[int, Dict[str, Dict[int, List[float]]]] = {}

    for n_cores in cfg.core_counts:
        per_scenario: Dict[str, Dict[int, List[float]]] = {
            kind: {s: [] for s in (1, 2, 3, 4)} for kind in RM_KINDS
        }
        for scenario, mixes in sorted(scenario_mixes(cfg, n_cores).items()):
            for mix in mixes:
                idle = results[mix_spec(cfg, n_cores, mix, "idle")]
                row = [mix.label, "+".join(mix.apps)]
                for kind in RM_KINDS:
                    res = results[mix_spec(cfg, n_cores, mix, kind, "Model3")]
                    saving = energy_savings(res, idle)
                    per_scenario[kind][scenario].append(saving)
                    row.append(f"{100 * saving:.1f}%")
                rows.append(row)

        for kind in RM_KINDS:
            weighted = weighted_scenario_average(
                per_scenario[kind], dict(PAPER_SCENARIO_WEIGHTS)
            )
            flat = [v for vs in per_scenario[kind].values() for v in vs]
            rows.append(
                [
                    f"{n_cores}-core {kind.upper()} average",
                    "",
                    f"plain {100 * sum(flat) / len(flat):.1f}%",
                    f"weighted {100 * weighted:.1f}%",
                    f"max {100 * max(flat):.1f}%",
                ]
            )
        summary[n_cores] = per_scenario

    notes = [
        "paper headline: RM3 saves up to ~18%, ~10% on (weighted) average;",
        "scenario expectations: S1 RM3 > RM2 (paper ~14% vs ~11%); "
        "S3 RM3 ~8.5% vs RM2 ~1.7%; S2/S4 small",
    ]
    return ExperimentResult(
        name="fig6",
        headers=["workload", "apps", "RM1", "RM2", "RM3"],
        rows=rows,
        notes=notes,
        data={"summary": summary},
    )

