"""Simulator event-loop benchmarks: the wave loop against the scalar loop.

End-to-end RM3/Model3 runs (fresh manager per round, the campaign-worker
shape) in both event-loop modes:

* ``scalar`` — the PR-4 loop, preserved as the differential oracle and
  perf baseline,
* ``step`` — the wave loop.

``BENCH_simloop.json`` at the repo root keeps the committed baseline
(regenerate with ``python -m repro bench --emit simloop`` — the emitter
measures in-process with interleaved rounds, which keeps the headline
*ratio* honest under CPU-frequency drift).  The deterministic acceptance
test below gates the same ratio at 64 cores: the wave loop must stay at
least 3x the scalar oracle with a >= 90% memo hit rate.
"""

from __future__ import annotations

import pytest

from repro.bench import SIMLOOP_HORIZON, measure_simloop
from repro.campaign.executor import make_model
from repro.core.managers import make_rm
from repro.experiments.common import get_database
from repro.simulator.rmsim import MulticoreRMSimulator

CORE_COUNTS = (4, 16, 64)
SEED = 2020


def _fresh_run(db, apps, wave):
    rm = make_rm("rm3", db.system, make_model("Model3"))
    sim = MulticoreRMSimulator(db, rm, wave=wave)
    return sim.run(apps, horizon_intervals=SIMLOOP_HORIZON)


def _workload(n_cores):
    db = get_database(n_cores, SEED)
    names = db.app_names()
    return db, [names[i % len(names)] for i in range(n_cores)]


@pytest.mark.parametrize("wave", ["scalar", "step"])
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_bench_sim_loop(benchmark, n_cores, wave):
    """One end-to-end run per round, fresh manager."""
    db, apps = _workload(n_cores)
    _fresh_run(db, apps, wave)  # warm db-level caches
    result = benchmark.pedantic(
        _fresh_run, args=(db, apps, wave), rounds=3, iterations=1
    )
    benchmark.extra_info.update(
        {
            "n_cores": n_cores,
            "wave": wave,
            "events": result.rm_invocations,
        }
    )


def test_wave_speedup_floor_64c():
    """Acceptance gate: the wave loop >= 3x scalar at 64 cores, with a
    >= 90% memo hit rate (interleaved medians, noise-robust)."""
    row = measure_simloop(64, rounds=3)
    speedup = row["scalar_s"] / row["wave_s"]
    assert speedup >= 3.0, (
        f"wave 64-core speedup collapsed: {speedup:.2f}x "
        f"(scalar {row['scalar_s']:.3f}s, wave {row['wave_s']:.3f}s)"
    )
    assert row["memo_hit_rate"] >= 0.90, row
