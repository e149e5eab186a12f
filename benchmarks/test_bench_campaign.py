"""End-to-end campaign benchmarks: ``python -m repro all --quick``.

Times the merged, deduped campaign behind ``run_all`` — serially, across
a 2-worker pool and with a warm result store — and records the plan
shape (planned vs unique runs) as ``extra_info``.  ``BENCH_campaign.json``
at the repo root keeps the current baseline so future PRs have a perf
trajectory (regenerate with ``python -m repro bench --emit campaign``).

The pool only beats serial when the host has more than one CPU; the
assertions therefore bound the pool overhead instead of demanding a
speedup, and the baseline records ``cpu_count`` so numbers are read in
context.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign import clear_result_memo
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import plan_all, run_all

N_EXPERIMENTS = 13


@pytest.fixture(autouse=True)
def _no_disk_result_cache(monkeypatch):
    """Rounds must simulate, not replay a REPRO_RESULT_CACHE directory."""
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)


@pytest.fixture(scope="module")
def quick_cfg() -> ExperimentConfig:
    return ExperimentConfig(quick=True)


def _cold_run_all(cfg: ExperimentConfig, n_workers: int):
    clear_result_memo()
    return run_all(cfg, n_workers=n_workers)


def _plan_info(cfg: ExperimentConfig):
    campaign = plan_all(cfg)
    return {"planned_runs": campaign.planned, "unique_runs": len(campaign)}


def test_bench_campaign_all_quick_serial(benchmark, quick_cfg):
    results = benchmark.pedantic(
        _cold_run_all, args=(quick_cfg, 1), rounds=1, iterations=1
    )
    assert len(results) == N_EXPERIMENTS
    benchmark.extra_info.update(_plan_info(quick_cfg))


def test_bench_campaign_all_quick_workers2(benchmark, quick_cfg):
    results = benchmark.pedantic(
        _cold_run_all, args=(quick_cfg, 2), rounds=1, iterations=1
    )
    assert len(results) == N_EXPERIMENTS
    benchmark.extra_info.update(_plan_info(quick_cfg))
    benchmark.extra_info["cpu_count"] = os.cpu_count()


def test_bench_campaign_all_quick_serial_journaled(
    benchmark, quick_cfg, tmp_path, monkeypatch
):
    """Fault-tolerance overhead guard on the fault-free path: with a
    (cold) result store configured, every run also pays atomic
    publication plus the fsynced campaign journal — this must stay
    within noise of the storeless serial run."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "store"))
    results = benchmark.pedantic(
        _cold_run_all, args=(quick_cfg, 1), rounds=1, iterations=1
    )
    assert len(results) == N_EXPERIMENTS


def test_bench_campaign_all_quick_warm(benchmark, quick_cfg):
    """Render-only cost: every simulation answered by the result store."""
    clear_result_memo()
    run_all(quick_cfg, n_workers=1)  # prime
    results = benchmark.pedantic(
        run_all, args=(quick_cfg, 1), rounds=1, iterations=1
    )
    assert len(results) == N_EXPERIMENTS


def _warm_disk_store(cfg: ExperimentConfig, monkeypatch, store) -> None:
    """Prime an on-disk result store; rounds then replay from *disk*
    (the memo is cleared per round), exercising the read path."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
    clear_result_memo()
    run_all(cfg, n_workers=1)


def test_bench_campaign_all_quick_warm_disk(
    benchmark, quick_cfg, tmp_path, monkeypatch
):
    """Disk-replay cost with read verification *off*: the pre-integrity
    read path (parse-and-serve), the denominator of
    ``verified_read_overhead``."""
    _warm_disk_store(quick_cfg, monkeypatch, tmp_path / "store")
    monkeypatch.setenv("REPRO_VERIFY_READS", "0")
    results = benchmark.pedantic(
        _cold_run_all, args=(quick_cfg, 1), rounds=1, iterations=1
    )
    assert len(results) == N_EXPERIMENTS


def test_bench_campaign_all_quick_warm_disk_verified(
    benchmark, quick_cfg, tmp_path, monkeypatch
):
    """Disk-replay cost with read verification *on* (the default): every
    served entry is digest-checked against its attestation sidecar.
    ``BENCH_campaign.json`` commits the ratio to the row above as
    ``verified_read_overhead``; `bench --check campaign` guards it."""
    _warm_disk_store(quick_cfg, monkeypatch, tmp_path / "store")
    monkeypatch.setenv("REPRO_VERIFY_READS", "1")
    results = benchmark.pedantic(
        _cold_run_all, args=(quick_cfg, 1), rounds=1, iterations=1
    )
    assert len(results) == N_EXPERIMENTS


def test_campaign_dedupe_shrinks_plan(quick_cfg):
    """The merged plan must be strictly smaller than the sum of parts —
    the structural source of the ``all`` wall-clock win (runs shared by
    Fig. 6 and Fig. 9 simulate once)."""
    info = _plan_info(quick_cfg)
    assert info["unique_runs"] < info["planned_runs"]
