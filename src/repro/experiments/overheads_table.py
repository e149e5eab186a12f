"""Section III-E: RM execution overhead versus core count.

Counts the abstract operations (local model-grid evaluations + curve
reduction cell updates) of one RM invocation on 2/4/8-core systems, converts
them with the calibrated :class:`~repro.core.overheads.RMCostModel`, and
tabulates them against the paper's measured instruction counts
(RM3: 51K/73K/100K, RM2: 18K/40K/67K).  The overhead fraction of a
100M-instruction interval is reported as in the paper (0.1% for RM3 at
8 cores).

The paper-comparable columns bill the ``full_rebuild`` reduction — the
paper's C implementation re-runs the whole curve reduction every
invocation, so that is the accounting its instruction counts describe.
A final column reports the DP cells of the default *incremental* kernel
next to it, the per-invocation work the persistent tree actually
performs.  Both bills come from one primed manager
(:func:`measure_invocation`).  A note gives the hardware cost of the MLP
counter array (Fig. 4) next to the paper's "< 300 bytes per core".

Measures single RM invocations, not simulations — its campaign plan is
empty.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.atd.mlp import MLPCounterArray
from repro.campaign import ResultSet, RunSpec
from repro.core.global_opt import partition_ways
from repro.core.managers import make_rm
from repro.core.overheads import PAPER_RM_INSTRUCTIONS, RMCostModel
from repro.core.perf_models import ModelInputs
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    get_database,
    make_model,
)

__all__ = ["specs", "render", "measure_invocation"]


def measure_invocation(db, rm_kind: str) -> Tuple[int, int, int]:
    """(local evaluations, full-rebuild DP cells, incremental DP cells)
    of one warm RM invocation.

    Every core is primed with one observation first so the reduction runs
    over real curves (the cost the paper measures is for the steady
    state).  One incremental manager is primed; the ``full_rebuild``
    bill is the stateless :func:`partition_ways` over its effective
    curves — exactly the reduction a ``full_rebuild`` manager runs on its
    last invocation, since both modes hold the same curves and select
    the same decisions.
    """
    system = db.system
    rm = make_rm(rm_kind, system, make_model("Model3"))
    base = system.baseline_setting()
    names = db.app_names()
    for core in range(system.n_cores):
        record = db.records[names[core % len(names)]][0]
        inputs = ModelInputs(counters=record.counters_at(base), atd=record.atd_report())
        decision = rm.observe(core, inputs)
    full = partition_ways(rm.effective_curves, system.total_ways)
    return decision.local_evaluations, full.dp_operations, decision.dp_operations


def specs(cfg: ExperimentConfig) -> List[RunSpec]:
    del cfg  # invocation counting: no simulation runs
    return []


def render(cfg: ExperimentConfig, results: ResultSet) -> ExperimentResult:
    del results
    cfg = cfg.effective()
    cost = RMCostModel()
    interval = 100_000_000

    rows: List[List] = []
    data: Dict = {}
    for rm_kind, label in (("rm2", "w+f"), ("rm3", "w+f+c")):
        for n_cores in (2, 4, 8):
            db = get_database(n_cores, cfg.seed)
            evals, dp, dp_incr = measure_invocation(db, rm_kind)
            instr = cost.instructions(n_cores, evals, dp)
            paper = PAPER_RM_INSTRUCTIONS[label][n_cores]
            rows.append(
                [
                    f"{rm_kind.upper()} ({label})",
                    n_cores,
                    evals,
                    dp,
                    f"{instr / 1000:.0f}K",
                    f"{paper / 1000:.0f}K",
                    f"{100 * cost.overhead_fraction(instr, interval):.3f}%",
                    dp_incr,
                ]
            )
            data[(rm_kind, n_cores)] = {
                "evaluations": evals,
                "dp_operations": dp,
                "dp_operations_incremental": dp_incr,
                "instructions": instr,
                "paper_instructions": paper,
            }
    notes = [
        "conversion constants calibrated once against the paper's six points",
        "paper: 0.1% overhead for RM3 on an 8-core system per 100M-instruction interval",
        "'DP cells' columns: full_rebuild mode (the paper's accounting) vs the "
        "incremental kernel's per-invocation work",
        f"MLP counter array: {MLPCounterArray().storage_bits // 8} bytes per core "
        "(paper Section III-E: < 300 bytes per core)",
    ]
    return ExperimentResult(
        name="overheads",
        headers=[
            "manager",
            "cores",
            "local evals",
            "DP cells",
            "instr (est.)",
            "instr (paper)",
            "interval overhead",
            "DP cells (incr.)",
        ],
        rows=rows,
        notes=notes,
        data=data,
    )

