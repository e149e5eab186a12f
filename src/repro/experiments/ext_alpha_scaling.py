"""EXT: QoS relaxation across core counts — the alpha x cores plane.

``ext-alpha`` sweeps Eq. 3's relaxation knob on the paper's 4-core
system; ``ext-scaling`` sweeps core counts at the paper's fixed
alpha = 1.  This experiment fills in the plane between them: does a
relaxed QoS budget buy *more* energy at scale (more cores means more
contention, hence more shared-resource slack to trade), or does the
coordination space dilute the knob?

Scenario-constrained workloads are reused verbatim from the scaling
sweep (:func:`repro.experiments.ext_scaling.scaling_mixes`), so in a
merged campaign the alpha = 1 column and every Idle baseline dedupe
against ``ext-scaling``'s runs — the marginal cost of the whole plane is
only the relaxed-alpha cells.  All simulation goes through the campaign
engine with overheads charged.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
)
from repro.experiments.ext_scaling import mix_spec, scaling_mixes
from repro.simulator.metrics import energy_savings
from repro.workloads.mixes import WorkloadMix

__all__ = ["specs", "render", "ALPHA_LADDER", "plane_core_counts"]

#: Relaxations swept at every core count (1.0 is the paper's setting and
#: dedupes against the scaling sweep's RM3 runs).
ALPHA_LADDER = (1.0, 1.05, 1.10)

#: Scenarios sampled for the plane (cache-sensitive-heavy and mixed).
_SCENARIOS = (1, 3)


def plane_core_counts(cfg: ExperimentConfig) -> Tuple[int, ...]:
    """Core counts of the alpha x cores plane: the scaling sweep's ends."""
    counts = cfg.effective().scaling_core_counts
    return (counts[0],) if len(counts) == 1 else (counts[0], counts[-1])


def _mixes(cfg: ExperimentConfig, n_cores: int) -> List[WorkloadMix]:
    per_scenario = scaling_mixes(cfg, n_cores)
    return [m for s in _SCENARIOS for m in per_scenario[s]]


def _alpha_spec(
    cfg: ExperimentConfig, n_cores: int, mix: WorkloadMix, alpha: float
) -> RunSpec:
    return RunSpec(
        seed=cfg.seed,
        n_cores=n_cores,
        rm_kind="rm3",
        model="Model3",
        apps=mix.apps,
        alpha=alpha,
        horizon_intervals=cfg.horizon_intervals,
    )


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    cfg = cfg.effective()
    out: List[RunSpec] = []
    for n_cores in plane_core_counts(cfg):
        for mix in _mixes(cfg, n_cores):
            out.append(mix_spec(cfg, n_cores, mix, "idle"))
            out.extend(
                _alpha_spec(cfg, n_cores, mix, a) for a in ALPHA_LADDER
            )
    return out


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    cfg = cfg.effective()
    rows: List[List] = []
    data: Dict[int, Dict[float, Dict[str, float]]] = {}
    for n_cores in plane_core_counts(cfg):
        mixes = _mixes(cfg, n_cores)
        per_alpha: Dict[float, Dict[str, float]] = {}
        for alpha in ALPHA_LADDER:
            savings: List[float] = []
            vio_rates: List[float] = []
            worst: float = 0.0
            for mix in mixes:
                idle = results[mix_spec(cfg, n_cores, mix, "idle")]
                res = results[_alpha_spec(cfg, n_cores, mix, alpha)]
                savings.append(energy_savings(res, idle))
                vio_rates.append(res.violation_rate)
                worst = max(worst, max(res.violations, default=0.0))
            per_alpha[alpha] = {
                "mean_saving": sum(savings) / len(savings),
                "mean_violation_rate": sum(vio_rates) / len(vio_rates),
                "worst_violation": worst,
            }
        data[n_cores] = per_alpha
        rows.append(
            [n_cores]
            + [f"{100 * per_alpha[a]['mean_saving']:.1f}%" for a in ALPHA_LADDER]
            + [
                f"{100 * per_alpha[a]['mean_violation_rate']:.1f}%"
                for a in ALPHA_LADDER
            ]
        )

    notes = [
        "RM3/Model3 vs Idle, overheads charged; workloads are the scaling "
        f"sweep's scenario mixes (scenarios {_SCENARIOS})",
        "alpha relaxes Eq. 3: T(target) <= alpha x T(base); violations are "
        "checked against the same relaxed budget",
    ]
    return ExperimentResult(
        name="ext-alpha-scaling",
        headers=(
            ["cores"]
            + [f"saving a={a}" for a in ALPHA_LADDER]
            + [f"viol a={a}" for a in ALPHA_LADDER]
        ),
        rows=rows,
        notes=notes,
        data={"plane": data},
    )

