"""Campaign planning and (parallel) execution.

A :class:`Campaign` collects :class:`~repro.campaign.spec.RunSpec`s from
any number of experiments, dedupes them by fingerprint and executes only
the unique remainder that the result store cannot already answer.

Runs are mutually independent and deterministic in their spec (the
simulator holds no RNG and the database build is content-addressed), so
the executor is free to partition them across a ``concurrent.futures``
process pool: results are keyed by fingerprint, making the outcome
bit-identical for any worker count, including serial.  Worker count
resolves from the explicit ``n_workers`` argument, then
``REPRO_CAMPAIGN_WORKERS`` (:mod:`repro.settings`), then an automatic
rule that only engages the pool for campaigns big enough to amortise
process startup and the per-worker database load.

Each spec gets one attempt.  A run is a pure function of its spec, so
an exception its simulation raises would recur on any retry: the spec
fails at once, the journal records it, the other specs still run, and
:class:`CampaignExecutionError` names it.  Re-running the same plan
resumes from the result store.  What the executor recovers from is what
one host can suffer:

* a pool worker killed mid-spec (say, by the out-of-memory killer): the
  broken pool is rebuilt and only the unfinished specs re-dispatch;
  after :data:`POOL_FAILURES` breakages the remainder runs serially,
* ``KeyboardInterrupt``: pending work is cancelled, every finished
  result is flushed to the store and journal, and a resume hint is
  printed,
* a campaign killed outright: with an on-disk result store every run is
  journaled (:mod:`repro.campaign.journal`), and a re-run resumes where
  it died.

Deterministic fault injection for these paths lives in
:mod:`repro.util.faults` (``REPRO_FAULT_PLAN``); with it unset the hooks
cost one attribute read each.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import settings
from repro.campaign.attest import ResultDivergenceError
from repro.campaign.database import get_database
from repro.campaign.journal import CampaignJournal
from repro.campaign.results import (
    cached_result,
    memoize_result,
    prune_result_cache,
    result_cache_dir,
    store_result,
)
from repro.campaign.spec import MODEL_NAMES, RunSpec
from repro.core.managers import ResourceManager, make_rm
from repro.simulator.metrics import SimResult
from repro.simulator.rmsim import MulticoreRMSimulator
from repro.util import faults

__all__ = [
    "Campaign",
    "CampaignExecutionError",
    "CampaignStats",
    "ResultSet",
    "execute_spec",
    "make_model",
    "resolve_campaign_workers",
    "run_campaign",
]

#: Pool breakages tolerated before degrading to serial execution.
POOL_FAILURES = 3

#: Auto mode engages the pool only for at least this many pending runs.
_AUTO_POOL_MIN_RUNS = 16


class CampaignExecutionError(RuntimeError):
    """Specs whose one attempt raised; the rest of the campaign ran."""

    def __init__(self, failures: Dict[str, str], journal_path: Optional[str]):
        self.failures = dict(failures)
        lines = [f"{len(failures)} spec(s) failed:"]
        for fp, error in sorted(failures.items()):
            lines.append(f"  {fp[:16]}: {error}")
        if journal_path:
            lines.append(f"journal: {journal_path}")
        super().__init__("\n".join(lines))


def make_model(name: str):
    """Instantiate a performance model by its paper name."""
    from repro.core.perf_models import Model1, Model2, Model3, PerfectModel

    models = dict(zip(MODEL_NAMES, (Model1, Model2, Model3, PerfectModel)))
    if name not in models:
        raise ValueError(f"unknown model {name!r}; options: {sorted(models)}")
    return models[name]()


def _simulate(spec: RunSpec, wave: Optional[str] = None) -> SimResult:
    """Run one spec's simulation (no caching — see :func:`execute_spec`).

    ``wave`` picks the event loop (None: ``REPRO_SIM_WAVE``); every mode
    produces the same bytes.
    """
    db = get_database(spec.n_cores, spec.seed)
    system = db.system
    if spec.rm_kind == "idle":
        rm: ResourceManager = make_rm("idle", system)
    elif spec.alpha is None or spec.alpha == system.qos_alpha:
        rm = make_rm(spec.rm_kind, system, make_model(spec.model))
    else:
        # Eq. 3's relaxation knob: the RM optimises against the relaxed
        # budget and the simulator checks violations against the same one.
        relaxed = replace(system, qos_alpha=spec.alpha)
        rm = make_rm(spec.rm_kind, relaxed, make_model(spec.model))
    sim = MulticoreRMSimulator(
        db, rm, charge_overheads=spec.charge_overheads, wave=wave
    )
    return sim.run(list(spec.apps), horizon_intervals=spec.horizon_intervals)


def execute_spec(spec: RunSpec) -> SimResult:
    """Result for one spec, via the store when warm."""
    hit = cached_result(spec.fingerprint)
    if hit is not None:
        return hit
    result = _simulate(spec)
    store_result(spec.fingerprint, result, spec=spec)
    return result


def _worker_init() -> None:
    """Pool workers must not spawn nested database-build pools."""
    settings.install(build_workers=1)


def _execute_task(spec: RunSpec) -> Tuple[SimResult, float]:
    """One attempt at a spec: its result and execution time, clocked
    where it runs, so time a pool task spends queued never counts."""
    t0 = time.monotonic()
    faults.on_spec(spec.fingerprint)
    result = execute_spec(spec)
    return result, time.monotonic() - t0


def resolve_campaign_workers(n_workers: Optional[int], n_pending: int) -> int:
    """Worker count for a campaign with ``n_pending`` uncached runs.

    Priority: explicit argument, then ``REPRO_CAMPAIGN_WORKERS``, then
    an automatic rule — parallelise only when enough independent runs
    are pending for pool startup and per-worker database loads to pay
    off.
    """
    if n_workers is None:
        n_workers = settings.current().campaign_workers
    if n_workers is None:
        if n_pending >= _AUTO_POOL_MIN_RUNS:
            n_workers = min(os.cpu_count() or 1, 8)
        else:
            n_workers = 1
    return max(1, min(int(n_workers), max(1, n_pending)))


class CampaignStats:
    """Execution accounting of one :meth:`Campaign.run`."""

    #: Always 0, since each spec gets one attempt; perfbench's campaign
    #: probe reads it as ``campaign.retries``.
    retries = 0

    def __init__(
        self,
        planned: int,
        unique: int,
        simulated: int,
        workers: int,
        pool_failures: int = 0,
    ):
        self.planned = planned
        self.unique = unique
        self.simulated = simulated
        self.cached = unique - simulated
        self.workers = workers
        self.pool_failures = pool_failures

    def summary(self) -> str:
        text = (
            f"{self.planned} planned -> {self.unique} unique runs "
            f"({self.simulated} simulated, {self.cached} cached) "
            f"on {self.workers} worker{'s' if self.workers != 1 else ''}"
        )
        if self.pool_failures:
            text += f", {self.pool_failures} pool failures"
        return text


class _ExecState:
    """Accounting shared by the serial and pool drivers."""

    def __init__(self, journal: Optional[CampaignJournal]):
        self.journal = journal
        self.results: Dict[str, SimResult] = {}
        self.failures: Dict[str, str] = {}
        self.pool_failures = 0

    def record_done(self, fp: str, result: SimResult, seconds: float) -> None:
        self.results[fp] = result
        if self.journal is not None:
            self.journal.done(fp, seconds)

    def record_failure(self, fp: str, exc: Exception) -> None:
        """Fail ``fp`` for good: a spec gets one attempt."""
        self.failures[fp] = repr(exc)
        if self.journal is None:
            return
        if isinstance(exc, ResultDivergenceError):
            # The bit-identical contract was violated; both byte
            # versions are already quarantined as evidence.
            self.journal.divergence(fp, [exc.digest_a, exc.digest_b])
        else:
            self.journal.failed(fp, repr(exc))


def _run_serial(specs: Sequence[RunSpec], state: _ExecState) -> None:
    """Serial driver: one attempt per spec, in order."""
    for spec in specs:
        try:
            result, seconds = _execute_task(spec)
        except Exception as exc:
            state.record_failure(spec.fingerprint, exc)
            continue
        state.record_done(spec.fingerprint, result, seconds)
        faults.on_completion(len(state.results))


def _run_pool(
    ordered: Sequence[RunSpec], workers: int, state: _ExecState
) -> None:
    """Process-pool dispatch, with pool rebuilds and a serial fallback.

    Every spec is submitted at once.  A worker that dies mid-spec breaks
    the pool: it is rebuilt and only the unfinished specs re-dispatch,
    and after :data:`POOL_FAILURES` rebuilds the rest runs serially in
    this process.  Specs are deterministic and results
    content-addressed, so every such schedule merges to the same result
    set.
    """
    remaining: Dict[str, RunSpec] = {s.fingerprint: s for s in ordered}

    def finish(fp: str, result: SimResult, seconds: float) -> None:
        del remaining[fp]
        memoize_result(fp, result)
        state.record_done(fp, result, seconds)

    while True:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
        inflight: Dict[Future, str] = {}
        try:
            try:
                for fp, spec in remaining.items():
                    inflight[pool.submit(_execute_task, spec)] = fp
            except BrokenProcessPool:
                pass  # a worker died during dispatch: drain what was sent
            for fut in as_completed(inflight):
                fp = inflight[fut]
                try:
                    result, seconds = fut.result()
                except BrokenProcessPool:
                    continue
                except Exception as exc:
                    del remaining[fp]
                    state.record_failure(fp, exc)
                    continue
                finish(fp, result, seconds)
                faults.on_completion(len(state.results))
        except KeyboardInterrupt:
            # Results that finished before the interrupt must not be
            # lost: record them before handing the interrupt on.
            for fut, fp in inflight.items():
                if (
                    fp in remaining
                    and fut.done()
                    and not fut.cancelled()
                    and fut.exception() is None
                ):
                    finish(fp, *fut.result())
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if not remaining:
            return
        # Specs left unfinished mean the pool broke.
        state.pool_failures += 1
        degrade = state.pool_failures > POOL_FAILURES
        if state.journal is not None:
            state.journal.pool_failure(state.pool_failures, degrade)
        if degrade:
            # Graceful degradation: finish the remainder serially in
            # this process, slower but immune to pool decay.
            _run_serial(list(remaining.values()), state)
            return


class ResultSet:
    """Results of one campaign, addressable by spec."""

    def __init__(self, results: Dict[str, SimResult], stats: CampaignStats):
        self._results = results
        self.stats = stats

    def __getitem__(self, spec: RunSpec) -> SimResult:
        try:
            return self._results[spec.fingerprint]
        except KeyError:
            raise KeyError(
                f"run not in this campaign: {spec.label()}"
            ) from None

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.fingerprint in self._results

    def __len__(self) -> int:
        return len(self._results)


class Campaign:
    """Plan a deduped run matrix and execute it once."""

    def __init__(self, specs: Iterable[RunSpec] = ()):  # noqa: D107
        self._specs: Dict[str, RunSpec] = {}
        self._planned = 0
        self.add(specs)

    def add(self, specs: Iterable[RunSpec]) -> "Campaign":
        """Collect specs (duplicates merge); returns self for chaining."""
        for spec in specs:
            self._planned += 1
            self._specs.setdefault(spec.fingerprint, spec)
        return self

    @property
    def unique_specs(self) -> List[RunSpec]:
        """The deduped plan, in first-added order."""
        return list(self._specs.values())

    @property
    def planned(self) -> int:
        """How many specs were added, duplicates included."""
        return self._planned

    def __len__(self) -> int:
        return len(self._specs)

    def run(self, n_workers: Optional[int] = None) -> ResultSet:
        """Execute every unique run once; warm results are free.

        Bit-identical for any ``n_workers`` and any pool breakage (each
        run is independent and deterministic in its spec; pool rebuilds
        only change scheduling).  A spec whose attempt raises fails the
        campaign with :class:`CampaignExecutionError` once the other
        specs have run.  With an on-disk result store configured the run
        is journaled and resumable: re-running the same plan after a
        failure, crash or interrupt picks up exactly where it stopped.
        """
        # Every knob is parsed here: a malformed value must fail before
        # hours of simulation, not mid-campaign.
        knobs = settings.resolve()

        specs = self.unique_specs
        results: Dict[str, SimResult] = {}
        pending: List[RunSpec] = []
        for spec in specs:
            hit = cached_result(spec.fingerprint)
            if hit is not None:
                results[spec.fingerprint] = hit
            else:
                pending.append(spec)

        workers = resolve_campaign_workers(n_workers, len(pending))
        # Sorted (seed, n_cores) order keeps each worker's database
        # loads/rebinds few and makes the dispatch order — and with it
        # any ``spec=N`` fault-plan ordinal — deterministic.
        ordered = sorted(
            pending, key=lambda s: (s.seed, s.n_cores, s.fingerprint)
        )
        journal = (
            CampaignJournal.for_campaign(
                result_cache_dir(), [s.fingerprint for s in specs]
            )
            if pending
            else None
        )
        state = _ExecState(journal)
        if journal is not None:
            journal.begin(
                planned=self._planned,
                unique=len(specs),
                cached=len(results),
                pending=len(pending),
                workers=workers,
            )
        faults.prepare_for_campaign([s.fingerprint for s in ordered])
        try:
            if workers > 1 and len(pending) > 1:
                # Warm every needed database in the parent first: each
                # build happens once (and lands in the on-disk cache)
                # instead of once per worker, and forked workers inherit
                # the binding.
                for n_cores, seed in sorted(
                    {(s.n_cores, s.seed) for s in pending}
                ):
                    get_database(n_cores, seed)
                _run_pool(ordered, workers, state)
            else:
                _run_serial(ordered, state)
        except KeyboardInterrupt:
            # Workers persist each finished result to the on-disk store
            # themselves and the pool driver flushed finished futures, so
            # nothing simulated is lost — say so, and how to resume.
            results.update(state.results)
            if journal is not None:
                journal.interrupted(
                    done=len(state.results),
                    remaining=len(pending) - len(state.results),
                )
            hint = (
                f"[campaign interrupted: {len(state.results)}/{len(pending)} "
                f"pending runs finished and stored; re-run the same command "
                f"to resume"
            )
            if journal is not None:
                hint += f"; journal: {journal.path}"
            print(hint + "]", file=sys.stderr)
            raise

        results.update(state.results)
        if state.failures:
            if journal is not None:
                journal.complete(
                    done=len(state.results), failed=len(state.failures)
                )
            raise CampaignExecutionError(
                state.failures,
                str(journal.path) if journal is not None else None,
            )
        if journal is not None:
            journal.complete(done=len(state.results), failed=0)

        if pending and knobs.result_cache_max_mb is not None:
            # Long campaigns must not grow the on-disk store without
            # bound: enforce the LRU size cap once per campaign (the
            # results just produced carry the freshest mtimes, so they
            # are the last to go).
            prune_result_cache(knobs.result_cache_max_mb)

        stats = CampaignStats(
            planned=self._planned,
            unique=len(specs),
            simulated=len(pending),
            workers=workers,
            pool_failures=state.pool_failures,
        )
        return ResultSet(results, stats)


def run_campaign(
    specs: Sequence[RunSpec], n_workers: Optional[int] = None
) -> ResultSet:
    """One-shot convenience: plan, dedupe and execute ``specs``."""
    return Campaign(specs).run(n_workers=n_workers)

