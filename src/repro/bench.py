"""Benchmark baseline tooling: one entry point for every ``BENCH_*.json``.

The repo keeps small, stable perf baselines at its root —
``BENCH_campaign.json`` (end-to-end ``all --quick``),
``BENCH_localopt.json`` (the local-decision kernel) and
``BENCH_simloop.json`` (the simulator's wave event loop against the
scalar loop).  Each has an emitter and a ``--check`` that reads it.
``campaign`` and ``localopt`` are distilled from a pytest-benchmark run
of the matching file under ``benchmarks/`` (``simloop`` measures
in-process with interleaved rounds — its headline is a ratio, which
frequency drift would otherwise skew); this module is the single
implementation behind

    python -m repro bench --emit simloop         # regenerate one
    python -m repro bench --emit all             # regenerate every one
    python -m repro bench --check localopt       # CI smoke: no regression

Every emitted JSON carries an ``environment`` block — python/machine/cpu
plus the *git commit* and the decision-kernel knobs (``reduction``,
``local_mode``) in effect — so a BENCH trajectory across PRs is
attributable to the code that produced it.

``--check`` is deliberately in-process and generous: each check
re-measures one committed headline (local-decision speedup, wave-loop
speedup, verified-read overhead) at small scale and only fails on a
collapse (a hit rate far below the committed baseline, a speedup a
quarter of it), so CI timing noise cannot flake it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "CHECKS",
    "EMITTERS",
    "check_localopt",
    "check_simloop",
    "emit_campaign",
    "emit_localopt",
    "emit_simloop",
    "environment_block",
    "main",
    "measure_localopt",
    "measure_simloop",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"

#: Core counts re-measured by the CI check (small: CI boxes are slow).
CHECK_CORE_COUNTS = (4, 16)
BENCH_SEED = 2020


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------
def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment_block(**knobs) -> Dict:
    """Reproducibility facts every emitted baseline records.

    ``knobs`` are benchmark-specific settings that changed hands across
    PRs before (reduction mode, local mode, engines) — recording them
    makes the BENCH trajectory attributable: a faster number next to a
    different knob is a configuration change, not a win.
    """
    block: Dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        # A "-dirty" suffix: measured on uncommitted changes to that commit.
        "git_commit": _git_commit(),
    }
    block.update(knobs)
    return block


def _run_pytest_benchmark(test_file: str) -> Dict:
    """Run one benchmark file, return pytest-benchmark's raw JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(BENCH_DIR / test_file),
                "-q",
                "--benchmark-json",
                str(raw_path),
            ],
            cwd=REPO_ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"benchmark run failed ({test_file}: exit {proc.returncode})"
            )
        return json.loads(raw_path.read_text())


def _write(path: Path, payload: Dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
def emit_campaign() -> int:
    """Regenerate ``BENCH_campaign.json`` (end-to-end campaign baseline)."""
    raw = _run_pytest_benchmark("test_bench_campaign.py")

    benches = {}
    for entry in raw["benchmarks"]:
        record = {
            "mean_s": entry["stats"]["mean"],
            "rounds": entry["stats"]["rounds"],
        }
        record.update(entry.get("extra_info", {}))
        benches[entry["name"]] = record

    serial = benches.get("test_bench_campaign_all_quick_serial", {})
    workers2 = benches.get("test_bench_campaign_all_quick_workers2", {})
    warm = benches.get("test_bench_campaign_all_quick_warm", {})
    journaled = benches.get(
        "test_bench_campaign_all_quick_serial_journaled", {}
    )
    summary = {}
    if serial.get("mean_s") and journaled.get("mean_s"):
        # The fault-tolerance machinery's fault-free cost: journal
        # appends (fsync per record) + atomic store publication.
        summary["journaled_overhead_vs_serial"] = round(
            journaled["mean_s"] / serial["mean_s"], 3
        )
    if serial.get("mean_s") and workers2.get("mean_s"):
        summary["workers2_speedup_vs_serial"] = round(
            serial["mean_s"] / workers2["mean_s"], 2
        )
    if serial.get("mean_s") and warm.get("mean_s"):
        summary["warm_cache_speedup_vs_cold"] = round(
            serial["mean_s"] / warm["mean_s"], 2
        )
    warm_disk = benches.get("test_bench_campaign_all_quick_warm_disk", {})
    warm_disk_verified = benches.get(
        "test_bench_campaign_all_quick_warm_disk_verified", {}
    )
    if warm_disk.get("mean_s") and warm_disk_verified.get("mean_s"):
        # What checking the bit-identical contract costs on the serve
        # path: disk replay with attestation-digest verification on vs
        # off (`REPRO_VERIFY_READS`).
        summary["verified_read_overhead"] = round(
            warm_disk_verified["mean_s"] / warm_disk["mean_s"], 3
        )
    if serial.get("planned_runs") and serial.get("unique_runs"):
        summary["dedupe_runs_saved"] = (
            serial["planned_runs"] - serial["unique_runs"]
        )

    _write(
        REPO_ROOT / "BENCH_campaign.json",
        {
            "description": "Campaign benchmark baseline "
            "(benchmarks/test_bench_campaign.py; `all --quick` end-to-end)",
            "environment": environment_block(
                reduction="incremental", local_mode="memoized"
            ),
            "campaign_summary": summary,
            "benchmarks": benches,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# local-decision kernel
# ---------------------------------------------------------------------------
def primed_rm(n_cores: int, local_mode: str, reduction: str = "incremental"):
    """A warm RM3/Model3 plus per-core steady-state inputs (bench helper)."""
    from repro.campaign.executor import make_model
    from repro.core.managers import make_rm
    from repro.core.perf_models import ModelInputs
    from repro.experiments.common import get_database

    db = get_database(n_cores, BENCH_SEED)
    system = db.system
    rm = make_rm(
        "rm3",
        system,
        make_model("Model3"),
        reduction=reduction,
        local_mode=local_mode,
    )
    base = system.baseline_setting()
    names = db.app_names()
    inputs = []
    for core in range(n_cores):
        record = db.records[names[core % len(names)]][0]
        inputs.append(
            ModelInputs(
                counters=record.counters_at(base), atd=record.atd_report()
            )
        )
        rm.observe(core, inputs[core])
    if rm.local_memo is not None:
        # Report steady-state hit rates: the priming misses above are
        # setup, and counting them would make the rate depend on how
        # many timed observes follow (emit and check use different
        # counts — the gate must compare like with like).
        rm.local_memo.reset_stats()
    return rm, inputs


def measure_localopt(
    n_cores: int, local_mode: str, rounds: int = 5, iterations: int = 5
) -> Dict:
    """Warm-observe latency + memo stats for one (core count, local mode)."""
    rm, inputs = primed_rm(n_cores, local_mode)
    n = len(inputs)

    def observe_round():
        for core in range(n):
            decision = rm.observe(core, inputs[core])
        return decision

    observe_round()  # warmup
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(iterations):
            decision = observe_round()
        elapsed = (time.perf_counter() - t0) / (iterations * n)
        best = min(best, elapsed)
    memo = rm.local_memo
    return {
        "observe_us": best * 1e6,
        "local_evaluations": decision.local_evaluations,
        "dp_operations": decision.dp_operations,
        "memo_hit_rate": memo.hit_rate if memo is not None else None,
        "memo_entries": len(memo) if memo is not None else 0,
    }


def emit_localopt() -> int:
    """Regenerate ``BENCH_localopt.json`` (local-decision kernel baseline)."""
    raw = _run_pytest_benchmark("test_bench_localopt.py")

    per_mode: Dict = {}
    for entry in raw["benchmarks"]:
        info = entry.get("extra_info", {})
        if "local_mode" not in info:
            continue
        n = int(info["n_cores"])
        observe_s = entry["stats"]["mean"] / info["observes_per_round"]
        per_mode.setdefault(info["local_mode"], {})[n] = {
            "observe_us": observe_s * 1e6,
            "memo_hit_rate": info.get("memo_hit_rate"),
            "local_evaluations": info["local_evaluations"],
        }

    speedups = {}
    for n, cold in sorted(per_mode.get("always_recompute", {}).items()):
        memo = per_mode.get("memoized", {}).get(n)
        if memo:
            speedups[str(n)] = {
                "observe_speedup": cold["observe_us"] / memo["observe_us"],
                "memo_hit_rate": memo["memo_hit_rate"],
            }

    payload = {
        "description": "Local-decision kernel baseline "
        "(benchmarks/test_bench_localopt.py; warm RM3/Model3 observes)",
        "environment": environment_block(
            reduction="incremental",
            local_modes=["always_recompute", "memoized"],
        ),
        "modes": {
            mode: {str(n): rec for n, rec in sorted(rows.items())}
            for mode, rows in per_mode.items()
        },
        "memoized_vs_always_recompute": speedups,
    }
    _write(REPO_ROOT / "BENCH_localopt.json", payload)
    if speedups:
        n_top = max(speedups, key=int)
        top = speedups[n_top]
        print(
            f"{n_top}-core warm observe: {top['observe_speedup']:.2f}x faster "
            f"memoized vs always_recompute "
            f"(hit rate {top['memo_hit_rate']:.2f})"
        )
    return 0


def check_localopt() -> int:
    """CI smoke: the memoized kernel must not regress vs the baseline.

    Generous on purpose — re-measures at small scale in-process and only
    fails when the win collapses (speedup under a quarter of the
    committed figure or below 1.2x, hit rate 10 points under baseline),
    so shared-runner timing noise cannot flake the job.
    """
    path = REPO_ROOT / "BENCH_localopt.json"
    committed = json.loads(path.read_text())
    failures: List[str] = []
    for n in CHECK_CORE_COUNTS:
        base = committed["memoized_vs_always_recompute"].get(str(n))
        if base is None:
            continue
        cold = measure_localopt(n, "always_recompute", rounds=3, iterations=3)
        warm = measure_localopt(n, "memoized", rounds=3, iterations=3)
        speedup = cold["observe_us"] / warm["observe_us"]
        floor = max(1.2, base["observe_speedup"] / 4.0)
        hit_floor = (base.get("memo_hit_rate") or 0.0) - 0.10
        line = (
            f"{n} cores: speedup {speedup:.2f}x (committed "
            f"{base['observe_speedup']:.2f}x, floor {floor:.2f}x), "
            f"hit rate {warm['memo_hit_rate']:.2f} (floor {hit_floor:.2f})"
        )
        print(line)
        if speedup < floor:
            failures.append(f"speedup regression at {n} cores: {line}")
        if warm["memo_hit_rate"] < hit_floor:
            failures.append(f"hit-rate regression at {n} cores: {line}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("localopt check passed")
    return 0


# ---------------------------------------------------------------------------
# simulator event loop
# ---------------------------------------------------------------------------
#: Core counts measured by the simulator event-loop baseline.
SIMLOOP_CORE_COUNTS = (4, 16, 64)
#: Instruction horizon (in intervals) of the measured end-to-end runs.
SIMLOOP_HORIZON = 20


def measure_simloop(
    n_cores: int, horizon: int = SIMLOOP_HORIZON, rounds: int = 5
) -> Dict:
    """End-to-end RM3/Model3 run wall-clock in both loop modes.

    Measures ``scalar`` (the PR-4 oracle) against ``step`` (the wave
    loop) with the rounds *interleaved* and summarised by
    median, so CPU-frequency drift hits both modes equally instead of
    whichever ran last.  Each round builds fresh managers, so the memo
    hit rate is a fresh in-memory memo's; only OS/db-level state stays
    warm, exactly as it would for a campaign worker.
    """
    from repro.campaign.executor import make_model
    from repro.core.managers import make_rm
    from repro.experiments.common import get_database
    from repro.simulator.rmsim import MulticoreRMSimulator

    db = get_database(n_cores, BENCH_SEED)
    names = db.app_names()
    apps = [names[i % len(names)] for i in range(n_cores)]

    def run(wave):
        rm = make_rm("rm3", db.system, make_model("Model3"))
        sim = MulticoreRMSimulator(db, rm, wave=wave)
        return sim.run(apps, horizon_intervals=horizon), rm

    def med(xs):
        xs = sorted(xs)
        return xs[len(xs) // 2]

    times: Dict[str, List[float]] = {"scalar": [], "wave": []}
    run("step")  # warm JIT/db-level caches
    result = None
    hit_rate = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        result, _ = run("scalar")
        times["scalar"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _, rm = run("step")
        times["wave"].append(time.perf_counter() - t0)
        memo = rm.local_memo
        hit_rate = memo.hit_rate if memo is not None else 0.0
    return {
        "scalar_s": med(times["scalar"]),
        "wave_s": med(times["wave"]),
        "events": result.rm_invocations,
        "memo_hit_rate": hit_rate,
        "rounds": rounds,
    }


def emit_simloop() -> int:
    """Regenerate ``BENCH_simloop.json`` (event-loop end-to-end baseline).

    Deliberately in-process (not a pytest-benchmark distillation): the
    scalar-vs-wave ratio is the headline number and only interleaved
    rounds keep it honest on machines with frequency drift.
    """
    from repro.core import _native_opt

    per_cores: Dict[str, Dict] = {}
    for n in SIMLOOP_CORE_COUNTS:
        row = measure_simloop(n)
        row["wave_speedup_vs_scalar"] = row["scalar_s"] / row["wave_s"]
        per_cores[str(n)] = row
        print(
            f"{n:>3} cores: scalar {row['scalar_s']*1e3:7.1f} ms, "
            f"wave {row['wave_s']*1e3:7.1f} ms "
            f"({row['wave_speedup_vs_scalar']:.2f}x, "
            f"hit rate {row['memo_hit_rate']:.2f})"
        )

    top = per_cores[str(max(SIMLOOP_CORE_COUNTS))]
    payload = {
        "description": "Simulator event-loop baseline (wave loop "
        "vs the scalar PR-4 oracle; end-to-end RM3/Model3 runs, fresh "
        "manager per run, interleaved medians)",
        "environment": environment_block(
            wave_modes=["scalar", "step"],
            reduction="incremental",
            local_mode="memoized",
            native_combine_available=_native_opt.available(),
            horizon_intervals=SIMLOOP_HORIZON,
        ),
        "cores": per_cores,
        "simloop_summary": {
            "wave_64c_speedup_vs_scalar": round(
                top["wave_speedup_vs_scalar"], 2
            ),
            "wave_64c_memo_hit_rate": round(top["memo_hit_rate"], 3),
        },
    }
    _write(REPO_ROOT / "BENCH_simloop.json", payload)
    return 0


def check_simloop() -> int:
    """CI smoke: the wave loop must not collapse vs the baseline.

    Same philosophy as :func:`check_localopt` — re-measure at a CI-sized
    scale in-process and fail only when the win collapses (speedup under
    a quarter of the committed 16-core figure or below 1.2x, hit rate 10
    points under baseline), so shared-runner noise cannot flake the job.
    """
    path = REPO_ROOT / "BENCH_simloop.json"
    committed = json.loads(path.read_text())
    base = committed["cores"]["16"]
    row = measure_simloop(16, rounds=3)
    speedup = row["scalar_s"] / row["wave_s"]
    floor = max(1.2, base["wave_speedup_vs_scalar"] / 4.0)
    hit_floor = (base.get("memo_hit_rate") or 0.0) - 0.10
    line = (
        f"16 cores: wave speedup {speedup:.2f}x (committed "
        f"{base['wave_speedup_vs_scalar']:.2f}x, floor {floor:.2f}x), "
        f"hit rate {row['memo_hit_rate']:.2f} (floor {hit_floor:.2f})"
    )
    print(line)
    failures: List[str] = []
    if speedup < floor:
        failures.append(f"wave speedup collapse: {line}")
    if row["memo_hit_rate"] < hit_floor:
        failures.append(f"memo hit-rate collapse: {line}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("simloop check passed")
    return 0


def check_campaign() -> int:
    """CI smoke: verified reads must stay nearly free on the serve path.

    Re-measures the warm-from-disk quick campaign in-process with
    attestation-digest read verification off and on (memo cleared per
    round so every result is read back from disk): the median on/off
    ratio of five back-to-back pairs, alternately ordered, so one slowed
    run moves one ratio, not the result.  Verification must cost under
    5% end-to-end; the gate adds a small noise margin on top of the
    committed ``verified_read_overhead`` so shared runners cannot flake
    it, while an accidental O(entry) verification scheme fails loudly.
    """
    from repro import settings
    from repro.campaign.results import clear_result_memo
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import run_all

    path = REPO_ROOT / "BENCH_campaign.json"
    committed = (
        json.loads(path.read_text())
        .get("campaign_summary", {})
        .get("verified_read_overhead")
    )
    cfg = ExperimentConfig(quick=True)
    ratios: List[float] = []
    try:
        with tempfile.TemporaryDirectory(
            prefix="repro-check-"
        ) as store, settings.override(result_cache=store):
            clear_result_memo()
            run_all(cfg, n_workers=1)  # prime the disk store
            for i in range(5):
                took = {}
                for verify in (False, True) if i % 2 else (True, False):
                    with settings.override(verify_reads=verify):
                        clear_result_memo()
                        t0 = time.perf_counter()
                        run_all(cfg, n_workers=1)
                        took[verify] = time.perf_counter() - t0
                ratios.append(took[True] / took[False])
    finally:
        clear_result_memo()
    overhead = sorted(ratios)[len(ratios) // 2]
    ceiling = max(1.05, (committed or 1.0) + 0.05)
    line = (
        f"verified-read overhead {overhead:.3f}x (committed "
        f"{committed if committed is not None else 'n/a'}, "
        f"ceiling {ceiling:.3f}x; rounds "
        f"{' '.join(f'{r:.3f}' for r in ratios)})"
    )
    print(line)
    if overhead > ceiling:
        print(f"FAIL: verified-read overhead blown: {line}", file=sys.stderr)
        return 1
    print("campaign check passed")
    return 0


EMITTERS: Dict[str, Callable[[], int]] = {
    "campaign": emit_campaign,
    "localopt": emit_localopt,
    "simloop": emit_simloop,
}

CHECKS: Dict[str, Callable[[], int]] = {
    "campaign": check_campaign,
    "localopt": check_localopt,
    "simloop": check_simloop,
}


def main(emit: Optional[str], check: Optional[str]) -> int:
    """Dispatch for ``python -m repro bench``."""
    if (emit is None) == (check is None):
        print("bench: pass exactly one of --emit NAME|all or --check NAME",
              file=sys.stderr)
        return 2
    if emit is not None:
        names = list(EMITTERS) if emit == "all" else [emit]
        for name in names:
            if name not in EMITTERS:
                print(
                    f"bench: unknown baseline {name!r}; "
                    f"options: {sorted(EMITTERS)} or all",
                    file=sys.stderr,
                )
                return 2
            rc = EMITTERS[name]()
            if rc:
                return rc
        return 0
    if check not in CHECKS:
        print(
            f"bench: unknown check {check!r}; options: {sorted(CHECKS)}",
            file=sys.stderr,
        )
        return 2
    return CHECKS[check]()
