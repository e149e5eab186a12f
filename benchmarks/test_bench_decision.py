"""Decision-kernel benchmarks: RM ``observe`` latency across core counts.

Times one warm resource-manager invocation — local optimisation plus the
global curve reduction — at 4/8/16/32 cores in both reduction modes:

* ``full_rebuild`` — the whole tree recombines every invocation (the
  prior-work cost profile, preserved for the overheads table), and
* ``incremental`` — the persistent tree re-runs only the invoker's
  leaf-to-root path combines plus the root window evaluation.

No committed baseline reads these timings: run the file with
pytest-benchmark to compare two trees.  Their deterministic counterpart
— DP cells touched per invocation — is recorded as ``extra_info`` and
asserted to scale in ``tests/test_decision_kernel.py``.
"""

from __future__ import annotations

import pytest

from repro.campaign.executor import make_model
from repro.core.perf_models import ModelInputs
from repro.core.managers import make_rm
from repro.experiments.common import get_database

CORE_COUNTS = (4, 8, 16, 32)
SEED = 2020


def _primed_rm(n_cores: int, reduction: str):
    """A warm RM3/Model3 at ``n_cores`` plus per-core steady-state inputs."""
    db = get_database(n_cores, SEED)
    system = db.system
    rm = make_rm("rm3", system, make_model("Model3"), reduction=reduction)
    base = system.baseline_setting()
    names = db.app_names()
    inputs = []
    for core in range(n_cores):
        record = db.records[names[core % len(names)]][0]
        inputs.append(
            ModelInputs(counters=record.counters_at(base), atd=record.atd_report())
        )
        rm.observe(core, inputs[core])
    return rm, inputs


def _observe_round(rm, inputs):
    for core, core_inputs in enumerate(inputs):
        decision = rm.observe(core, core_inputs)
    return decision


@pytest.mark.parametrize("reduction", ["full_rebuild", "incremental"])
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_bench_observe(benchmark, n_cores, reduction):
    rm, inputs = _primed_rm(n_cores, reduction)
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
    rm_full, inputs = _primed_rm(n_cores, "full_rebuild")
    rm_incr, _ = _primed_rm(n_cores, "incremental")
    d_full = rm_full.observe(0, inputs[0])
    d_incr = rm_incr.observe(0, inputs[0])
    assert d_incr.settings == d_full.settings
    assert d_incr.dp_operations < d_full.dp_operations
    if n_cores >= 16:
        assert d_full.dp_operations / d_incr.dp_operations >= 4.0
