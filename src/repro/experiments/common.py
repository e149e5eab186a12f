"""Shared experiment infrastructure.

``ExperimentConfig`` carries the knobs every experiment respects — most
importantly ``quick``, which shrinks workload counts and horizons so the
benchmark suite stays fast (``python -m repro <experiment> --quick``);
without it, the default, every experiment runs at paper scale.

Experiments are *declarative plans* over the campaign engine: each module
exposes ``specs(cfg) -> list[RunSpec]`` naming every simulation it needs
and ``render(cfg, results) -> ExperimentResult`` turning the campaign's
results into the paper artefact.  :func:`run_declarative` wires one module
through its own campaign; :func:`repro.experiments.runner.run_all` merges
every module's specs into a single campaign so shared runs (e.g. the Idle
baselines of Fig. 6 and Fig. 9) simulate exactly once.

:func:`run_workload` remains the pre-campaign serial reference path — the
differential tests assert the engine is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import Campaign, ResultSet, RunSpec, get_database
from repro.campaign.executor import make_model
from repro.campaign.spec import MODEL_NAMES, RM_KINDS
from repro.config import SystemConfig
from repro.core.managers import ResourceManager, make_rm
from repro.database.builder import SimDatabase
from repro.simulator.metrics import SimResult
from repro.simulator.rmsim import MulticoreRMSimulator

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "get_database",
    "make_model",
    "run_declarative",
    "run_workload",
    "MODEL_NAMES",
    "RM_KINDS",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    seed: int = 2020
    quick: bool = False
    #: Workloads generated per (scenario, core count); the paper uses six.
    workloads_per_scenario: int = 6
    #: Core counts evaluated by the multi-core experiments.
    core_counts: Tuple[int, ...] = (4, 8)
    #: Core counts swept by the decision-kernel scaling experiment
    #: (None resolves to 4..64, shrunk in quick mode; an explicit tuple —
    #: e.g. from ``--scaling-cores`` — is honoured as-is).
    scaling_core_counts: Tuple[int, ...] | None = None
    #: Horizon override in intervals (None = the paper's longest-app rule).
    horizon_intervals: int | None = None

    def effective(self) -> "ExperimentConfig":
        """Resolve quick-mode shrinkage and defaulted fields."""
        cfg = self
        if cfg.scaling_core_counts is None:
            cfg = replace(
                cfg,
                scaling_core_counts=(4, 16) if cfg.quick else (4, 8, 16, 32, 64),
            )
        if not cfg.quick:
            return cfg
        return replace(
            cfg,
            workloads_per_scenario=min(cfg.workloads_per_scenario, 2),
            core_counts=(4,),
            horizon_intervals=cfg.horizon_intervals or 12,
        )


@dataclass
class ExperimentResult:
    """Uniform experiment output: named rows plus a rendered table."""

    name: str
    headers: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def rendered(self) -> str:
        from repro.util.tables import format_table

        text = format_table(self.headers, self.rows, title=f"[{self.name}]")
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text

    def to_csv(self) -> str:
        """The result rows as RFC-4180 CSV (headers first)."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def write_csv(self, path) -> None:
        """Persist :meth:`to_csv` output to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.to_csv())


def run_declarative(
    specs_fn: Callable[[ExperimentConfig], List[RunSpec]],
    render_fn: Callable[[ExperimentConfig, ResultSet], ExperimentResult],
    cfg: ExperimentConfig | None = None,
    n_workers: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment module through its own campaign."""
    cfg = (cfg or ExperimentConfig()).effective()
    results = Campaign(specs_fn(cfg)).run(n_workers=n_workers)
    return render_fn(cfg, results)


def run_workload(
    db: SimDatabase,
    rm_kind: str,
    model_name: str | None,
    apps,
    horizon_intervals: int | None = None,
    charge_overheads: bool = True,
) -> SimResult:
    """Run one workload serially (the campaign engine's reference path)."""
    system: SystemConfig = db.system
    if rm_kind == "idle":
        rm: ResourceManager = make_rm("idle", system)
    else:
        if model_name is None:
            raise ValueError("non-idle managers need a model name")
        rm = make_rm(rm_kind, system, make_model(model_name))
    sim = MulticoreRMSimulator(db, rm, charge_overheads=charge_overheads)
    return sim.run(list(apps), horizon_intervals=horizon_intervals)
