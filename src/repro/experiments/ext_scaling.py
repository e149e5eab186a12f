"""EXT: decision-kernel scaling — RM3 vs Idle from 4 to 64 cores.

Section III-A's headline argument is that pairwise curve reduction makes
coordinated (c, f, w) management *polynomial* in core count; the paper
evaluates 4- and 8-core systems.  This extension finally measures the
claim at scale: scenario-constrained workloads are synthesised at every
core count in ``cfg.scaling_core_counts`` (up to 64-core systems by
default, NUMA-node-sized sharing domains) and RM3/Model3 runs against
the Idle baseline with all overheads charged, reporting

* energy savings and QoS violation rate — does the benefit survive the
  larger coordination space?
* RM overhead scaling — charged RM instructions per invocation and as a
  fraction of executed work, and
* the decision-kernel work itself — per-invocation DP cells of the
  default incremental kernel next to the ``full_rebuild`` accounting, the
  deterministic counterpart of the wall-clock timings of
  ``benchmarks/test_bench_decision.py``.

Workload counts are intentionally small (this is a scaling study, not a
statistics study): two per scenario at full scale, one in quick mode.
All simulation goes through the campaign engine, so core counts re-use
the one database build (records rebind) and the sweep dedupes against any
other experiment in a merged campaign.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from repro.campaign import ResultSet, RunSpec
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    get_database,
    run_declarative,
)
from repro.experiments.overheads_table import measure_invocation
from repro.simulator.metrics import energy_savings
from repro.workloads.categories import classify_suite
from repro.workloads.mixes import WorkloadMix, generate_workloads

__all__ = ["run", "specs", "render", "scaling_mixes", "mix_spec"]

_SCENARIOS = (1, 2, 3, 4)


def _workloads_per_scenario(cfg: ExperimentConfig) -> int:
    return 1 if cfg.quick else min(cfg.workloads_per_scenario, 2)


@lru_cache(maxsize=None)
def scaling_mixes(
    cfg: ExperimentConfig, n_cores: int
) -> Dict[int, List[WorkloadMix]]:
    """Scenario-constrained mixes for one swept core count (memoised)."""
    categories = classify_suite(get_database(n_cores, cfg.seed))
    return {
        scenario: generate_workloads(
            categories, scenario, n_cores, _workloads_per_scenario(cfg),
            seed=cfg.seed,
        )
        for scenario in _SCENARIOS
    }


def mix_spec(
    cfg: ExperimentConfig, n_cores: int, mix: WorkloadMix, rm_kind: str
) -> RunSpec:
    return RunSpec(
        seed=cfg.seed,
        n_cores=n_cores,
        rm_kind=rm_kind,
        model=None if rm_kind == "idle" else "Model3",
        apps=mix.apps,
        horizon_intervals=cfg.horizon_intervals,
    )


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    cfg = cfg.effective()
    out: List[RunSpec] = []
    for n_cores in cfg.scaling_core_counts:
        for _scenario, mixes in sorted(scaling_mixes(cfg, n_cores).items()):
            for mix in mixes:
                out.append(mix_spec(cfg, n_cores, mix, "idle"))
                out.append(mix_spec(cfg, n_cores, mix, "rm3"))
    return out


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    cfg = cfg.effective()
    rows: List[List] = []
    summary: Dict[int, Dict[str, float]] = {}

    for n_cores in cfg.scaling_core_counts:
        savings: List[float] = []
        vio_rates: List[float] = []
        instr_per_inv: List[float] = []
        for scenario, mixes in sorted(scaling_mixes(cfg, n_cores).items()):
            for mix in mixes:
                idle = results[mix_spec(cfg, n_cores, mix, "idle")]
                rm3 = results[mix_spec(cfg, n_cores, mix, "rm3")]
                saving = energy_savings(rm3, idle)
                per_inv = rm3.rm_instructions / max(rm3.rm_invocations, 1)
                work_frac = rm3.rm_instructions / (
                    n_cores * rm3.horizon_instructions
                )
                savings.append(saving)
                vio_rates.append(rm3.violation_rate)
                instr_per_inv.append(per_inv)
                rows.append(
                    [
                        n_cores,
                        mix.label,
                        f"{100 * saving:.1f}%",
                        f"{100 * rm3.violation_rate:.1f}%",
                        f"{per_inv / 1000:.0f}K",
                        f"{100 * work_frac:.3f}%",
                    ]
                )

        # Deterministic kernel-work measurement for this core count: one
        # warm RM3 invocation, billed in both reduction modes (no
        # simulation).
        _, dp_full, dp_incr = measure_invocation(
            get_database(n_cores, cfg.seed), "rm3"
        )
        ratio = dp_full / dp_incr if dp_incr else float("inf")
        rows.append(
            [
                n_cores,
                "average / kernel cells",
                f"{100 * sum(savings) / len(savings):.1f}%",
                f"{100 * sum(vio_rates) / len(vio_rates):.1f}%",
                f"{sum(instr_per_inv) / len(instr_per_inv) / 1000:.0f}K",
                f"dp {dp_full} -> {dp_incr} ({ratio:.1f}x)",
            ]
        )
        summary[n_cores] = {
            "mean_saving": sum(savings) / len(savings),
            "mean_violation_rate": sum(vio_rates) / len(vio_rates),
            "mean_rm_instructions_per_invocation": (
                sum(instr_per_inv) / len(instr_per_inv)
            ),
            "dp_operations_full_rebuild": dp_full,
            "dp_operations_incremental": dp_incr,
        }

    notes = [
        "RM3/Model3 vs Idle, overheads charged; workloads per scenario: "
        f"{_workloads_per_scenario(cfg)}",
        "kernel cells: DP cells of one warm observe, full_rebuild vs the "
        "persistent incremental tree (wall-clock: "
        "benchmarks/test_bench_decision.py)",
    ]
    return ExperimentResult(
        name="ext-scaling",
        headers=[
            "cores",
            "workload",
            "RM3 saving",
            "violation rate",
            "RM instr/invocation",
            "RM work fraction",
        ],
        rows=rows,
        notes=notes,
        data={"summary": summary},
    )


def run(
    cfg: ExperimentConfig | None = None, n_workers: int | None = None
) -> ExperimentResult:
    return run_declarative(specs, render, cfg, n_workers)


if __name__ == "__main__":
    print(run().rendered())
