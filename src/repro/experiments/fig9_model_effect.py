"""Fig. 9: effect of the performance model on RM3's energy savings.

Runs the same scenario workloads as Fig. 6 with RM3 under each of Model1,
Model2, Model3 and the Perfect oracle (which also predicts phase
transitions exactly).  The paper's expectation: Model3's savings sit closest
to the perfect-model envelope.

Declarative plan: the Idle baselines and the RM3/Model3 runs are the same
specs Fig. 6 plans, so one merged campaign simulates them once for both.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    MODEL_NAMES,
)
from repro.experiments.fig6_energy import mix_spec, scenario_mixes
from repro.simulator.metrics import energy_savings

__all__ = ["specs", "render"]


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    cfg = cfg.effective()
    out: List[RunSpec] = []
    for n_cores in cfg.core_counts:
        for _scenario, mixes in sorted(scenario_mixes(cfg, n_cores).items()):
            for mix in mixes:
                out.append(mix_spec(cfg, n_cores, mix, "idle"))
                out.extend(
                    mix_spec(cfg, n_cores, mix, "rm3", m) for m in MODEL_NAMES
                )
    return out


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    cfg = cfg.effective()
    rows: List[List] = []
    summary: Dict[int, Dict[str, List[float]]] = {}

    for n_cores in cfg.core_counts:
        per_model: Dict[str, List[float]] = {m: [] for m in MODEL_NAMES}
        for _scenario, mixes in sorted(scenario_mixes(cfg, n_cores).items()):
            for mix in mixes:
                idle = results[mix_spec(cfg, n_cores, mix, "idle")]
                row = [mix.label]
                for model in MODEL_NAMES:
                    res = results[mix_spec(cfg, n_cores, mix, "rm3", model)]
                    saving = energy_savings(res, idle)
                    per_model[model].append(saving)
                    row.append(f"{100 * saving:.1f}%")
                rows.append(row)
        for model in MODEL_NAMES:
            vals = per_model[model]
            rows.append(
                [f"{n_cores}-core {model} average"]
                + [f"{100 * sum(vals) / len(vals):.1f}%"]
                + [""] * (len(MODEL_NAMES) - 1)
            )
        summary[n_cores] = per_model

    # gap of each online model to the perfect envelope
    notes = []
    for n_cores, per_model in summary.items():
        perfect = sum(per_model["Perfect"]) / len(per_model["Perfect"])
        gaps = {
            m: perfect - sum(v) / len(v)
            for m, v in per_model.items()
            if m != "Perfect"
        }
        best = min(gaps, key=gaps.get)
        notes.append(
            f"{n_cores}-core gap to perfect: "
            + ", ".join(f"{m}: {100 * g:.1f}pp" for m, g in gaps.items())
            + f" -> closest: {best} (paper: Model3)"
        )
    return ExperimentResult(
        name="fig9",
        headers=["workload"] + list(MODEL_NAMES),
        rows=rows,
        notes=notes,
        data={"summary": summary},
    )

