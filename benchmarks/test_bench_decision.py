"""Decision-kernel benchmarks: RM ``observe`` latency across core counts.

Times a round of warm resource-manager invocations, one per core —
local optimisation plus the global curve reduction — at 4/8/16/32 cores
in both reduction modes:

* ``full_rebuild`` — the whole tree recombines and every core's setting
  is derived afresh every invocation (the prior-work cost profile the
  overheads table bills, and the manager's oracle), and
* ``incremental`` — the persistent tree re-runs only the invoker's
  leaf-to-root path combines plus the root window evaluation, and the
  last settings map is replayed.

No committed baseline reads these timings: run the file with
pytest-benchmark to compare two trees.  Their deterministic counterpart
— DP cells touched per invocation — is recorded as ``extra_info`` and
asserted to scale in ``tests/test_decision_kernel.py``.
"""

from __future__ import annotations

import pytest

from repro.bench import primed_rm

CORE_COUNTS = (4, 8, 16, 32)


def _observe_round(rm, inputs):
    for core, core_inputs in enumerate(inputs):
        decision = rm.observe(core, core_inputs)
    return decision


@pytest.mark.parametrize("reduction", ["full_rebuild", "incremental"])
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_bench_observe(benchmark, n_cores, reduction):
    rm, inputs = primed_rm(n_cores, "memoized", reduction)
    decision = benchmark.pedantic(
        _observe_round, args=(rm, inputs), rounds=5, iterations=5, warmup_rounds=1
    )
    assert sum(s.ways for s in decision.settings.values()) == rm.system.total_ways
    benchmark.extra_info.update(
        {
            "n_cores": n_cores,
            "reduction": reduction,
            "observes_per_round": n_cores,
            "dp_operations": decision.dp_operations,
            "local_evaluations": decision.local_evaluations,
        }
    )


@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_kernel_work_scales(n_cores):
    """Deterministic sanity next to the timings: the incremental kernel
    touches far fewer DP cells than the rebuild at every core count."""
    rm_full, inputs = primed_rm(n_cores, "memoized", "full_rebuild")
    rm_incr, _ = primed_rm(n_cores, "memoized", "incremental")
    d_full = rm_full.observe(0, inputs[0])
    d_incr = rm_incr.observe(0, inputs[0])
    assert d_incr.settings == d_full.settings
    assert d_incr.dp_operations < d_full.dp_operations
    if n_cores >= 16:
        assert d_full.dp_operations / d_incr.dp_operations >= 4.0
