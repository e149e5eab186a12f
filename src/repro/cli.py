"""Command-line entry point.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig7                 # one experiment, full scale
    python -m repro fig6 --quick         # shrunk workloads/horizons
    python -m repro all --quick          # everything, one merged campaign
    python -m repro all --quick --workers 4   # ... across 4 processes
    python -m repro all --quick --csv-dir out # ... persisting CSV tables
    python -m repro fig6 --seed 7 --workloads 3 --cores 4
    python -m repro ext-scaling --scaling-cores 16 64   # kernel sweep
    python -m repro ext-scaling --wave scalar    # event-loop oracle mode
    python -m repro cache                  # database cache + result-store stats
    python -m repro cache --prune --max-mb 256   # ... dead files, LRU to 256 MiB
    python -m repro verify                 # attestation coverage + digests
    python -m repro verify --sample 8      # ... plus re-execution audit
    python -m repro campaign --status      # journaled campaign progress
    python -m repro bench --check simloop  # CI smoke: no perf collapse

Every experiment plans its simulations through the campaign engine;
``all`` merges the plans so shared runs simulate exactly once.  The
``--workers`` flag (or ``REPRO_CAMPAIGN_WORKERS``) fans unique runs out
over a process pool — results are bit-identical for any worker count.
Every ``REPRO_*`` knob is declared and validated in :mod:`repro.settings`;
``--wave`` overrides its knob for this process, and a malformed knob
fails before anything runs.
The ``cache`` subcommand reports the database cache (``REPRO_CACHE_DIR``:
database files and compiled kernel objects; ``--prune`` deletes the dead
database files and the stale objects) and manages the on-disk result
store named by ``REPRO_RESULT_CACHE`` (cap: ``REPRO_RESULT_CACHE_MAX_MB``);
``bench --check`` runs one of the CI perf-collapse checks
(:mod:`repro.bench`); ``campaign --status`` reports progress, failure and
pool-failure tallies from the crash-safe run journals kept under the
result store (failed, crashed and interrupted campaigns resume by
re-running the same command).  ``verify`` audits the result store's
integrity layer (:mod:`repro.campaign.attest`): attestation coverage, a
digest sweep of every entry, and — with ``--sample N`` — deterministic
re-execution of N stored fingerprints whose bytes must match the store
(``--cross-mode`` re-executes each sampled spec in both event-loop
modes).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro import settings
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import (
    EXPERIMENTS,
    plan_all,
    render_all,
    run_experiment,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qoscap",
        description=(
            "Reproduction of 'Coordinated Management of Processor "
            "Configuration and Cache Partitioning to Optimize Energy under "
            "QoS Constraints' (Nejat et al., IPDPS 2020)"
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name, 'all', 'list', 'cache', 'verify', "
            "'campaign', or 'bench'"
        ),
    )
    parser.add_argument("--quick", action="store_true", help="shrunk quick mode")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--workloads", type=int, default=6, help="workloads per scenario"
    )
    parser.add_argument(
        "--cores",
        type=int,
        nargs="+",
        default=None,
        help="core counts for the multi-core experiments (default: 4 8)",
    )
    parser.add_argument(
        "--scaling-cores",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help=(
            "core counts swept by ext-scaling "
            "(default: 4 8 16 32 64, shrunk to 4 16 with --quick)"
        ),
    )
    parser.add_argument(
        "--wave",
        default=None,
        choices=["step", "scalar"],
        help=(
            "simulator event-loop mode (default: REPRO_SIM_WAVE or "
            "'step'; both modes are bit-identical — 'scalar' is the "
            "slow differential oracle)"
        ),
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help=(
            "with 'campaign': report journaled campaign progress and "
            "failure tallies from the result store's run journals"
        ),
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help=(
            "with 'cache': delete dead database files and stale kernel "
            "objects, and LRU-evict results down to the size cap"
        ),
    )
    parser.add_argument(
        "--max-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "with 'cache --prune': result-store size cap override "
            "(default: REPRO_RESULT_CACHE_MAX_MB)"
        ),
    )
    parser.add_argument(
        "--sample",
        type=int,
        nargs="?",
        const=4,
        default=0,
        metavar="N",
        help=(
            "with 'verify': re-execute a deterministic sample of N "
            "stored fingerprints (bare --sample: 4) and byte-compare "
            "against the store"
        ),
    )
    parser.add_argument(
        "--cross-mode",
        action="store_true",
        help=(
            "with 'verify --sample': re-execute each sampled spec in "
            "both event-loop modes (step and scalar) — each must "
            "reproduce the stored bytes"
        ),
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="NAME",
        help=(
            "with 'bench': re-measure one perf headline and fail only "
            "on a collapse (campaign|localopt|simloop)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "campaign worker processes (default: REPRO_CAMPAIGN_WORKERS "
            "or an automatic rule; results are identical for any value)"
        ),
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        metavar="PATH",
        help="write each experiment's table as <PATH>/<name>.csv",
    )
    return parser


def _emit(result, csv_dir: Path | None) -> None:
    print(result.rendered())
    print()
    if csv_dir is not None:
        result.write_csv(csv_dir / f"{result.name}.csv")


def _cache_command(prune: bool, max_mb: float | None) -> int:
    """Report on, or prune, the database cache and the result store.

    Databases are the ``<key>.cols.npz`` files; a bare ``<key>.npz`` of
    an earlier layout is dead, since no code reads it.  Pruning the
    database cache deletes the dead database files and the stale kernel
    objects and leaves every other file alone: whether a ``.cols.npz``
    is stale cannot be read from the file.
    """
    from repro.campaign.results import (
        cache_stats,
        prune_result_cache,
        result_cache_dir,
    )
    from repro.database.store import cache_dir, database_files, kernel_objects

    databases, dead = database_files()
    current, stale = kernel_objects()
    if prune:
        for path in dead + stale:
            path.unlink(missing_ok=True)
        print(
            f"database cache: removed {len(stale)} stale kernel objects "
            f"and {len(dead)} dead database files"
        )
        dead, stale = [], []
    mib = sum(path.stat().st_size for path in databases) / 1048576
    print(
        f"database cache @ {cache_dir()}: databases {len(databases)} "
        f"({mib:.1f} MiB), {len(dead)} dead; kernel objects "
        f"{len(current) + len(stale)} ({len(stale)} stale)"
    )
    root = result_cache_dir()
    if root is None:
        print("no on-disk results store (REPRO_RESULT_CACHE is unset)")
        return 0
    if prune:
        outcome = prune_result_cache(max_mb)
        line = (
            f"results: pruned {outcome['removed_files']} entries "
            f"({outcome['removed_bytes'] / 1048576:.1f} MiB); "
            f"kept {outcome['kept_files']} "
            f"({outcome['kept_bytes'] / 1048576:.1f} MiB) in {root}"
        )
        if outcome.get("removed_sidecars"):
            line += (
                f"; {outcome['removed_sidecars']} orphaned "
                f"attestation sidecars removed"
            )
        print(line)
        return 0
    stats = cache_stats()
    cap = settings.current().result_cache_max_mb if max_mb is None else max_mb
    cap_text = f"{cap:.0f} MiB" if cap else "unbounded"
    line = (
        f"results @ {root}: {stats['files']:.0f} entries, "
        f"{stats['mb']:.1f} MiB (cap: {cap_text})"
    )
    if "attested" in stats:
        line += (
            f"; attested {stats['attested']:.0f}/{stats['files']:.0f} "
            f"({stats['attestation_coverage'] * 100.0:.1f}%)"
        )
    if stats.get("quarantined"):
        line += f"; {stats['quarantined']:.0f} quarantined"
    if stats.get("divergence_events"):
        # Divergence evidence is counted apart from corrupt-entry
        # quarantine: contested bytes, not damaged ones.
        line += (
            f"; {stats['divergence_events']:.0f} divergence events "
            f"(never pruned)"
        )
    print(line)
    return 0


def _verify_command(args) -> int:
    """Audit the result store's integrity layer (``repro verify``)."""
    from repro.campaign.attest import verify_store
    from repro.campaign.results import result_cache_dir

    root = result_cache_dir()
    if root is None:
        print(
            "nothing to verify (REPRO_RESULT_CACHE is unset)", file=sys.stderr
        )
        return 2
    report = verify_store(
        root,
        sample=args.sample,
        cross_mode=args.cross_mode,
        seed=args.seed,
    )
    return 1 if report["divergences"] else 0


def _campaign_command(args) -> int:
    """Report journaled campaign progress (``repro campaign --status``)."""
    from repro.campaign.journal import journal_status
    from repro.campaign.results import result_cache_dir

    if not args.status:
        print("the 'campaign' subcommand requires --status", file=sys.stderr)
        return 2
    root = result_cache_dir()
    if root is None:
        print("no campaign journals (REPRO_RESULT_CACHE is unset)")
        return 0
    summaries = journal_status(root)
    if not summaries:
        print(f"no campaign journals under {root}")
        return 0
    for s in summaries:
        if s["complete"]:
            state = (
                "complete"
                if not s["permanent_failures"]
                else f"FAILED ({s['permanent_failures']} specs)"
            )
        elif s["interrupted"]:
            state = "interrupted (resumable)"
        else:
            state = "in progress or killed (resumable)"
        line = (
            f"campaign {s['campaign']}: {s['done']}/{s['unique']} done "
            f"({s['cached']} cached at last start), {state}"
        )
        tallies = []
        if s["failed_attempts"]:
            tallies.append(
                f"{s['failed_attempts']} failed attempts "
                f"on {s['failed_specs']} specs"
            )
        if s["pool_failures"]:
            tallies.append(f"{s['pool_failures']} pool failures")
        if s.get("divergences"):
            tallies.append(f"{s['divergences']} divergences")
        if s["runs"] > 1:
            tallies.append(f"{s['runs']} runs")
        if tallies:
            line += f" [{', '.join(tallies)}]"
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Execution-strategy flags override their knobs for this process
    # only: results stay bit-identical, and every knob is validated here,
    # before anything runs.
    flags = {"wave": args.wave} if args.wave else {}
    with settings.override(**flags):
        return _run(args)


def _run(args) -> int:
    if args.experiment == "bench":
        from repro.bench import main as bench_main

        return bench_main(args.check)
    if args.check is not None:
        # Fail fast instead of silently dropping the bench flag on the
        # floor (worst case: launching a full experiment run instead).
        print(
            "--check requires the 'bench' subcommand "
            f"(got {args.experiment!r})",
            file=sys.stderr,
        )
        return 2
    if args.experiment == "list":
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0
    if args.experiment == "cache":
        return _cache_command(args.prune, args.max_mb)
    if args.experiment == "verify":
        return _verify_command(args)
    if args.experiment == "campaign":
        return _campaign_command(args)

    cfg = ExperimentConfig(
        seed=args.seed,
        quick=args.quick,
        workloads_per_scenario=args.workloads,
        core_counts=tuple(args.cores) if args.cores else (4, 8),
        scaling_core_counts=(
            tuple(args.scaling_cores) if args.scaling_cores else None
        ),
    )
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    if args.experiment == "all":
        results = plan_all(cfg).run(n_workers=args.workers)
        print(f"[campaign: {results.stats.summary()}]", file=sys.stderr)
        for result in render_all(cfg, results):
            _emit(result, args.csv_dir)
    else:
        _emit(
            run_experiment(args.experiment, cfg, n_workers=args.workers),
            args.csv_dir,
        )
    print(f"[done in {time.monotonic() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
