"""Simulator event-loop benchmarks: wave batching + persistent memo.

End-to-end RM3/Model3 runs (fresh manager per round, the campaign-worker
shape) in the three event-loop flavours:

* ``scalar`` — the PR-4 loop, preserved as the differential oracle and
  perf baseline,
* ``wave`` cold — the wave-batched loop without a persistent memo,
* ``wave`` warm — the wave-batched loop with ``REPRO_LOCAL_MEMO`` primed
  on disk, so every fresh manager starts with the whole phase library
  one read away (the repeated-campaign / warm-CI scenario).

``BENCH_simloop.json`` at the repo root keeps the committed baseline
(regenerate with ``python -m repro bench --emit simloop`` — the emitter
measures in-process with interleaved rounds, which keeps the headline
*ratio* honest under CPU-frequency drift).  The deterministic acceptance
test below gates the same ratio at 64 cores: wave + warm memo must stay
at least 3x the scalar oracle with a >= 90% memo hit rate.
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


def _fresh_run(db, apps, wave, horizon=SIMLOOP_HORIZON):
    rm = make_rm("rm3", db.system, make_model("Model3"))
    sim = MulticoreRMSimulator(db, rm, wave=wave)
    return sim.run(apps, horizon_intervals=horizon), rm


def _workload(n_cores):
    db = get_database(n_cores, SEED)
    names = db.app_names()
    return db, [names[i % len(names)] for i in range(n_cores)]


@pytest.mark.parametrize("wave", ["scalar", "step"])
@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_bench_sim_loop(benchmark, n_cores, wave, monkeypatch):
    """One end-to-end run per round, fresh manager, no persistent tier."""
    monkeypatch.delenv("REPRO_LOCAL_MEMO", raising=False)
    db, apps = _workload(n_cores)
    _fresh_run(db, apps, wave)  # warm db-level caches
    result, _ = benchmark.pedantic(
        _fresh_run, args=(db, apps, wave), rounds=3, iterations=1
    )
    benchmark.extra_info.update(
        {
            "n_cores": n_cores,
            "wave": wave,
            "events": result.rm_invocations,
        }
    )


@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_bench_sim_loop_warm_memo(benchmark, n_cores, tmp_path, monkeypatch):
    """Wave loop with the persistent local memo primed on disk."""
    monkeypatch.setenv("REPRO_LOCAL_MEMO", str(tmp_path))
    db, apps = _workload(n_cores)
    _fresh_run(db, apps, "step")  # prime the store
    result, rm = benchmark.pedantic(
        _fresh_run, args=(db, apps, "step"), rounds=3, iterations=1
    )
    benchmark.extra_info.update(
        {
            "n_cores": n_cores,
            "wave": "step+persistent",
            "events": result.rm_invocations,
            "memo_hit_rate": rm.local_memo.hit_rate,
        }
    )


def test_wave_speedup_floor_64c():
    """Acceptance gate: wave + warm memo >= 3x scalar at 64 cores, with
    a >= 90% memo hit rate (interleaved medians, noise-robust)."""
    row = measure_simloop(64, rounds=3)
    speedup = row["scalar_s"] / row["wave_warm_s"]
    assert speedup >= 3.0, (
        f"wave-warm 64-core speedup collapsed: {speedup:.2f}x "
        f"(scalar {row['scalar_s']:.3f}s, warm {row['wave_warm_s']:.3f}s)"
    )
    assert row["memo_hit_rate"] >= 0.90, row


def test_repeated_run_memo_warm_start_hit_rate(tmp_path, monkeypatch):
    """A repeated campaign-shaped run starts >= 90% warm from disk:
    fresh managers, second pass served by the persistent tier."""
    monkeypatch.setenv("REPRO_LOCAL_MEMO", str(tmp_path))
    db, apps = _workload(16)
    _, cold_rm = _fresh_run(db, apps, "step", horizon=12)
    assert cold_rm.local_memo.store.writes > 0
    _, warm_rm = _fresh_run(db, apps, "step", horizon=12)
    memo = warm_rm.local_memo
    total = memo.hits + memo.misses
    assert total > 0
    assert memo.hits / total >= 0.90
    assert memo.store.disk_hits > 0
    assert memo.store.writes == 0  # nothing new on the second pass
