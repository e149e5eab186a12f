"""Experiment registry and the merged-campaign batch runner.

``run_all`` does not run experiments one after another: it collects every
module's declarative plan into **one** campaign, dedupes it (the Idle
baselines and RM3/Model3 runs Fig. 6 and Fig. 9 share collapse to single
specs), executes each unique run exactly once — optionally across a
process pool — and only then renders every artefact from the shared
results.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, List, Optional

from repro.campaign import Campaign, ResultSet
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    run_declarative,
)

__all__ = ["EXPERIMENTS", "run_experiment", "run_all", "plan_all", "render_all"]


def _registry() -> Dict[str, ModuleType]:
    from repro.experiments import (
        ext_alpha,
        ext_alpha_scaling,
        ext_scaling,
        ext_sensitivity,
        fig1_tradeoffs,
        fig2_twocore,
        fig6_energy,
        fig7_qos,
        fig8_violation_dist,
        fig9_model_effect,
        overheads_table,
        table1_config,
        table2_categories,
    )

    return {
        "table1": table1_config,
        "table2": table2_categories,
        "fig1": fig1_tradeoffs,
        "fig2": fig2_twocore,
        "fig6": fig6_energy,
        "fig7": fig7_qos,
        "fig8": fig8_violation_dist,
        "fig9": fig9_model_effect,
        "overheads": overheads_table,
        "ext-sensitivity": ext_sensitivity,
        "ext-alpha": ext_alpha,
        "ext-scaling": ext_scaling,
        "ext-alpha-scaling": ext_alpha_scaling,
    }


EXPERIMENTS = tuple(_registry().keys())


def run_experiment(
    name: str,
    cfg: ExperimentConfig | None = None,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment module through its own campaign."""
    registry = _registry()
    if name not in registry:
        raise ValueError(f"unknown experiment {name!r}; options: {sorted(registry)}")
    module = registry[name]
    # Looked up at call time: the end-to-end benchmark's probes wrap
    # ``specs`` and ``render`` by attribute.
    return run_declarative(module.specs, module.render, cfg, n_workers)


def plan_all(cfg: ExperimentConfig | None = None) -> Campaign:
    """The merged, deduped run matrix behind every experiment."""
    cfg = (cfg or ExperimentConfig()).effective()
    campaign = Campaign()
    for module in _registry().values():
        campaign.add(module.specs(cfg))
    return campaign


def render_all(
    cfg: ExperimentConfig | None, results: ResultSet
) -> List[ExperimentResult]:
    """Render every artefact from one campaign's results."""
    cfg = (cfg or ExperimentConfig()).effective()
    return [module.render(cfg, results) for module in _registry().values()]


def run_all(
    cfg: ExperimentConfig | None = None, n_workers: Optional[int] = None
) -> List[ExperimentResult]:
    """Simulate one merged campaign, then render every artefact."""
    cfg = (cfg or ExperimentConfig()).effective()
    return render_all(cfg, plan_all(cfg).run(n_workers=n_workers))
