"""Table I: the baseline configuration.

Regenerates the paper's configuration table from :mod:`repro.config` so any
drift between documentation and code is impossible.  Entirely static — its
campaign plan is empty.
"""

from __future__ import annotations

from typing import List

from repro.campaign import ResultSet, RunSpec
from repro.config import CORE_PARAMS, CoreSize, default_system
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
)

__all__ = ["specs", "render"]


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # static: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del cfg, results  # configuration-independent
    system = default_system(4)
    rows = []
    for size in reversed(CoreSize.all()):  # L, M, S as in the paper
        p = CORE_PARAMS[size]
        rows.append(
            [
                f"core {size.name}",
                f"issue {p.issue_width}",
                f"ROB {p.rob}",
                f"RS {p.rs}",
                f"LSQ {p.lsq}",
            ]
        )
    c = system.cache
    rows.append(
        ["L1-I/D", f"{c.l1_kb} KB", f"{c.l1_assoc}-way", "private", ""]
    )
    rows.append(["L2", f"{c.l2_kb} KB", f"{c.l2_assoc}-way", "private", ""])
    rows.append(
        [
            "L3",
            f"{c.llc_mb_per_core} MB x cores",
            f"{c.llc_ways_per_core}-way x cores",
            "shared",
            f"alloc {c.w_min}..{c.w_max} ways",
        ]
    )
    m = system.memory
    rows.append(
        [
            "DRAM",
            f"{m.base_latency_ns:.0f} ns",
            f"{m.bandwidth_gbps_per_core:.0f} GB/s per core",
            "contention queue",
            "",
        ]
    )
    d = system.dvfs
    rows.append(
        [
            "DVFS",
            f"base {d.f_base_ghz} GHz / {d.v_base:.2f} V",
            f"{d.f_min_ghz}-{d.f_max_ghz} GHz",
            f"{d.v_min}-{d.v_max} V",
            f"switch {d.transition_time_s*1e6:.0f} us / {d.transition_energy_j*1e6:.0f} uJ",
        ]
    )
    return ExperimentResult(
        name="table1",
        headers=["component", "value", "detail", "scope", "extra"],
        rows=rows,
        data={"system": system},
    )

