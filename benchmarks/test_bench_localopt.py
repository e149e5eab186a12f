"""Local-decision kernel benchmarks: warm ``observe`` latency + memo hits.

Times one warm round of resource-manager invocations — every core
observes its steady-state statistics once — at 4/8/16/32/64 cores in
both local modes:

* ``always_recompute`` — every observe runs the fused grid kernel
  (:class:`~repro.core.local_opt.LocalOptKernel`), and
* ``memoized`` — recurring phase statistics replay their
  :class:`~repro.core.local_opt.LocalOptResult` from the per-manager LRU
  and, via curve identity, skip the reduction-tree recombine as well.

Steady-state inputs recur by construction (that is the workload property
the memo exploits: phases repeat), so the memoized rows run at their hit
rate ceiling; ``BENCH_localopt.json`` at the repo root keeps the current
baseline (regenerate with ``python -m repro bench --emit localopt``).
The memo hit rate and the (mode-invariant) operation accounting ride
along as ``extra_info``.
"""

from __future__ import annotations

import pytest

from repro.bench import primed_rm

CORE_COUNTS = (4, 8, 16, 32, 64)


def _observe_round(rm, inputs):
    for core, core_inputs in enumerate(inputs):
        decision = rm.observe(core, core_inputs)
    return decision


@pytest.mark.parametrize("local_mode", ["always_recompute", "memoized"])
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_bench_observe_local(benchmark, n_cores, local_mode):
    rm, inputs = primed_rm(n_cores, local_mode)
    decision = benchmark.pedantic(
        _observe_round, args=(rm, inputs), rounds=5, iterations=5, warmup_rounds=1
    )
    assert sum(s.ways for s in decision.settings.values()) == rm.system.total_ways
    memo = rm.local_memo
    benchmark.extra_info.update(
        {
            "n_cores": n_cores,
            "local_mode": local_mode,
            "observes_per_round": n_cores,
            "local_evaluations": decision.local_evaluations,
            "dp_operations": decision.dp_operations,
            "memo_hit_rate": memo.hit_rate if memo is not None else None,
        }
    )


@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_localopt_accounting_mode_invariant(n_cores):
    """Deterministic sanity next to the timings: both local modes charge
    the same local evaluations and DP cells for the same warm observe."""
    rm_cold, inputs = primed_rm(n_cores, "always_recompute")
    rm_memo, _ = primed_rm(n_cores, "memoized")
    for core in range(n_cores):
        d_cold = rm_cold.observe(core, inputs[core])
        d_memo = rm_memo.observe(core, inputs[core])
        assert d_memo.settings == d_cold.settings
        assert d_memo.local_evaluations == d_cold.local_evaluations
        assert d_memo.dp_operations == d_cold.dp_operations
    # Stats are reset after priming, so the warm round is pure hits.
    assert rm_memo.local_memo.hit_rate == 1.0

