"""Extension: the QoS relaxation knob alpha (Eq. 3).

The paper fixes alpha to 1 ("its value is fixed to 1 in this study") but
carries it in Eq. 3 precisely because operators may accept a bounded
slowdown for more energy.  This experiment sweeps alpha for RM3/Model3 over
one representative workload per scenario and reports the energy/slowdown
frontier: savings grow with alpha while the *realised* worst-interval
slowdown stays within the granted budget plus the model-error band measured
in Fig. 7.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
)
from repro.simulator.metrics import energy_savings

__all__ = ["specs", "render", "ALPHA_LADDER", "SWEEP_WORKLOADS"]

ALPHA_LADDER = (1.0, 1.05, 1.10, 1.20)

#: One representative 4-core workload per scenario.
SWEEP_WORKLOADS = {
    1: ("mcf", "omnetpp", "libquantum", "xalancbmk"),
    2: ("xalancbmk", "gcc", "hmmer", "gromacs"),
    3: ("libquantum", "bwaves", "zeusmp", "wrf"),
    4: ("gamess", "sjeng", "perlbench", "dealII"),
}


def _idle_spec(cfg: ExperimentConfig, apps: Tuple[str, ...]) -> RunSpec:
    return RunSpec(
        seed=cfg.seed, n_cores=4, rm_kind="idle", model=None, apps=apps,
        horizon_intervals=cfg.horizon_intervals, charge_overheads=False,
    )


def _alpha_spec(
    cfg: ExperimentConfig, apps: Tuple[str, ...], alpha: float
) -> RunSpec:
    return RunSpec(
        seed=cfg.seed, n_cores=4, rm_kind="rm3", model="Model3", apps=apps,
        alpha=alpha, horizon_intervals=cfg.horizon_intervals,
    )


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    cfg = cfg.effective()
    out: List[RunSpec] = []
    for _scenario, apps in sorted(SWEEP_WORKLOADS.items()):
        out.append(_idle_spec(cfg, apps))
        out.extend(_alpha_spec(cfg, apps, a) for a in ALPHA_LADDER)
    return out


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    cfg = cfg.effective()
    rows: List[List] = []
    data: Dict = {}
    for scenario, apps in sorted(SWEEP_WORKLOADS.items()):
        idle = results[_idle_spec(cfg, apps)]
        per_alpha = {}
        for alpha in ALPHA_LADDER:
            res = results[_alpha_spec(cfg, apps, alpha)]
            per_alpha[alpha] = {
                "saving": energy_savings(res, idle),
                "worst_violation": max(res.violations, default=0.0),
            }
        data[scenario] = per_alpha
        rows.append(
            [f"S{scenario}", "+".join(apps)]
            + [f"{100 * per_alpha[a]['saving']:.1f}%" for a in ALPHA_LADDER]
        )
        rows.append(
            [f"S{scenario} worst slowdown", ""]
            + [
                f"{100 * (per_alpha[a]['worst_violation'] + 1 - a):.1f}% over budget"
                for a in ALPHA_LADDER
            ]
        )

    notes = [
        "alpha relaxes Eq. 3: T(target) <= alpha x T(base); the paper fixes alpha=1",
        "worst slowdown is reported relative to the granted budget (alpha - 1)",
    ]
    return ExperimentResult(
        name="ext-alpha",
        headers=["workload", "apps"] + [f"alpha={a}" for a in ALPHA_LADDER],
        rows=rows,
        notes=notes,
        data=data,
    )

