"""Campaign planning and fault-tolerant (parallel) execution.

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

The same content-addressing is what makes the executor *fault-tolerant*
without ever compromising the bit-identical-results contract: any spec
may be attempted any number of times, in any process, in any order — the
first successful attempt's result is the (unique, deterministic) answer.
On top of that invariant sit

* per-spec timeouts (``REPRO_SPEC_TIMEOUT``, enforced worker-side via a
  SIGALRM deadline so even a hung simulation turns into a retryable
  failure; a pool worker that sails far past it is abandoned by the
  parent's wedge watchdog),
* bounded retries (:data:`SPEC_RETRIES`) with a deterministic,
  jitter-free exponential backoff (:data:`RETRY_BACKOFF`),
* ``BrokenProcessPool`` recovery: the pool is rebuilt and only the
  unfinished specs are re-dispatched; after :data:`POOL_FAILURES`
  breakages execution degrades gracefully to serial,
* a crash-safe run journal (:mod:`repro.campaign.journal`) whenever an
  on-disk result store is configured, so an interrupted campaign resumes
  exactly where it died, and
* ``KeyboardInterrupt`` handling that cancels pending work, flushes
  every finished result to the store/journal and prints a resume hint.

Deterministic fault injection for all of these paths lives in
:mod:`repro.util.faults` (``REPRO_FAULT_PLAN``); with it unset the hooks
cost one attribute read each.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
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
from repro.core.qos import QoSPolicy
from repro.simulator.metrics import SimResult
from repro.simulator.rmsim import MulticoreRMSimulator
from repro.util import faults

__all__ = [
    "Campaign",
    "CampaignExecutionError",
    "CampaignStats",
    "ResultSet",
    "SpecTimeout",
    "execute_spec",
    "make_model",
    "resolve_campaign_workers",
    "run_campaign",
]

#: Retries per spec after its first failed attempt.
SPEC_RETRIES = 2

#: Base of the deterministic exponential backoff schedule in seconds
#: (delay before attempt k+1 = base * 2**(k-1); no jitter — schedules
#: must replay identically).
RETRY_BACKOFF = 0.05

#: Pool breakages tolerated before degrading to serial execution.
POOL_FAILURES = 3

#: Auto mode engages the pool only for at least this many pending runs.
_AUTO_POOL_MIN_RUNS = 16

#: Parent scheduling tick: how often the wait loop checks retries and
#: wedged pools.
_TICK_S = 0.05

#: Specs kept in flight per pool worker: one running, one queued behind
#: it, so a spec's parent-side clock starts at most one spec early.
_INFLIGHT_PER_WORKER = 2

#: Wedge watchdog horizon: a pool spec in flight longer than
#: ``max(_WEDGE_FACTOR * timeout, timeout + _WEDGE_SLACK_S)`` seconds
#: ignored its own deadline, and the pool is abandoned.
_WEDGE_FACTOR = 3.0
_WEDGE_SLACK_S = 10.0


class SpecTimeout(RuntimeError):
    """A spec exceeded ``REPRO_SPEC_TIMEOUT`` (retryable)."""


class CampaignExecutionError(RuntimeError):
    """Specs failed permanently (retries exhausted)."""

    def __init__(self, failures: Dict[str, str], journal_path: Optional[str]):
        self.failures = dict(failures)
        lines = [f"{len(failures)} spec(s) failed after all retries:"]
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
        rm = make_rm(
            spec.rm_kind, relaxed, make_model(spec.model),
            qos=QoSPolicy(spec.alpha),
        )
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


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`SpecTimeout` after ``seconds`` of wall clock.

    SIGALRM-based, so it interrupts even a spec stuck in a sleeping
    syscall.  Only armable from a main thread on platforms with
    ``setitimer`` — elsewhere it degrades to no enforcement and the
    parent's wedge watchdog takes over.
    """
    if (
        not seconds
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _timed_out(signum, frame):
        raise SpecTimeout(f"spec exceeded {seconds:g}s (REPRO_SPEC_TIMEOUT)")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_attempt(spec: RunSpec) -> SimResult:
    """One attempt at a spec: fault hooks + timeout around the store path."""
    with _deadline(settings.current().spec_timeout):
        faults.on_spec(spec.fingerprint)
        return execute_spec(spec)


def _execute_task(spec: RunSpec) -> Tuple[SimResult, float]:
    """Pool task: the result and its execution time, clocked in the
    worker so time spent queued never counts as run time."""
    t0 = time.monotonic()
    result = _execute_attempt(spec)
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

    def __init__(
        self,
        planned: int,
        unique: int,
        simulated: int,
        workers: int,
        retries: int = 0,
        pool_failures: int = 0,
        divergences: int = 0,
    ):
        self.planned = planned
        self.unique = unique
        self.simulated = simulated
        self.cached = unique - simulated
        self.workers = workers
        self.retries = retries
        self.pool_failures = pool_failures
        self.divergences = divergences

    def summary(self) -> str:
        text = (
            f"{self.planned} planned -> {self.unique} unique runs "
            f"({self.simulated} simulated, {self.cached} cached) "
            f"on {self.workers} worker{'s' if self.workers != 1 else ''}"
        )
        if self.retries or self.pool_failures or self.divergences:
            tallies = [
                f"{self.retries} retries",
                f"{self.pool_failures} pool failures",
            ]
            if self.divergences:
                tallies.append(f"{self.divergences} divergences")
            text += f" [{', '.join(tallies)}]"
        return text


class _ExecState:
    """Mutable accounting shared by the serial and pool drivers."""

    def __init__(self, journal: Optional[CampaignJournal]):
        self.journal = journal
        self.results: Dict[str, SimResult] = {}
        self.failures: Dict[str, str] = {}
        self.attempts: Dict[str, int] = {}  # failed attempts per fp
        self.retries = 0
        self.pool_failures = 0
        self.divergences = 0

    def record_done(self, fp: str, seconds: float) -> None:
        if self.journal is not None:
            self.journal.done(fp, self.attempts.get(fp, 0) + 1, seconds)

    def record_failure(self, fp: str, exc: Exception) -> bool:
        """Count one failed attempt; True when a retry is still allowed."""
        if isinstance(exc, ResultDivergenceError):
            # The bit-identical contract was violated: both byte versions
            # are already quarantined, and retrying would just republish
            # one of the contested versions — fail the spec loudly now.
            self.divergences += 1
            if self.journal is not None:
                self.journal.divergence(fp, [exc.digest_a, exc.digest_b])
            self.failures[fp] = repr(exc)
            return False
        attempt = self.attempts.get(fp, 0) + 1
        self.attempts[fp] = attempt
        if self.journal is not None:
            self.journal.failed(fp, attempt, repr(exc))
        if attempt > SPEC_RETRIES:
            self.failures[fp] = repr(exc)
            return False
        self.retries += 1
        return True

    def backoff_delay(self, fp: str, base: float) -> float:
        """Deterministic, jitter-free exponential schedule."""
        return base * (2.0 ** (self.attempts.get(fp, 1) - 1))


def _run_serial(specs: Sequence[RunSpec], state: _ExecState) -> None:
    """Serial driver: per-spec timeout + bounded deterministic retries."""
    for spec in specs:
        fp = spec.fingerprint
        if fp in state.results:
            continue
        while True:
            t0 = time.monotonic()
            try:
                result = _execute_attempt(spec)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                if not state.record_failure(fp, exc):
                    break
                time.sleep(state.backoff_delay(fp, RETRY_BACKOFF))
                continue
            state.results[fp] = result
            state.record_done(fp, time.monotonic() - t0)
            faults.on_completion(len(state.results))
            break


def _run_pool(
    ordered: Sequence[RunSpec], workers: int, state: _ExecState
) -> None:
    """Process-pool dispatch: retries, rebuilds, wedge watchdog, fallback.

    At most :data:`_INFLIGHT_PER_WORKER` specs per worker are submitted
    at a time, topped up as they finish, so the watchdog's parent-side
    clock never counts a long queue as run time.  Any schedule this loop
    produces — retries landing on other workers, rebuilt pools — merges
    to the same result set: specs are deterministic and results
    content-addressed, so the first successful attempt *is* the answer.
    """
    import heapq

    timeout = settings.current().spec_timeout
    capacity = _INFLIGHT_PER_WORKER * workers
    remaining: Dict[str, RunSpec] = {
        s.fingerprint: s for s in ordered if s.fingerprint not in state.results
    }
    queue = deque(remaining)  # ready to dispatch, in dispatch order
    inflight: Dict[Future, str] = {}
    started: Dict[Future, float] = {}
    retry_at: List[Tuple[float, str]] = []
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)

    def fill() -> bool:
        """Top the pool up to capacity; False when it refuses (broken)."""
        while queue and len(inflight) < capacity:
            try:
                fut = pool.submit(_execute_task, remaining[queue[0]])
            except (BrokenProcessPool, RuntimeError):
                return False
            inflight[fut] = queue.popleft()
            started[fut] = time.monotonic()
        return True

    def finish(fp: str, result: SimResult, seconds: float) -> None:
        remaining.pop(fp)
        memoize_result(fp, result)
        state.results[fp] = result
        state.record_done(fp, seconds)

    def harvest_finished() -> None:
        """Flush results that finished before an interrupt (satellite:
        completed-but-unstored futures must not be lost)."""
        for fut, fp in list(inflight.items()):
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                finish(fp, *fut.result())

    try:
        broken = not fill()
        while remaining:
            done_futs: List[Future] = []
            if inflight and not broken:
                done_set, _ = wait(
                    list(inflight), timeout=_TICK_S,
                    return_when=FIRST_COMPLETED,
                )
                done_futs = list(done_set)
            elif not broken:
                time.sleep(_TICK_S)
            for fut in done_futs:
                fp = inflight.pop(fut)
                started.pop(fut)
                try:
                    result, seconds = fut.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if state.record_failure(fp, exc):
                        heapq.heappush(
                            retry_at,
                            (
                                time.monotonic()
                                + state.backoff_delay(fp, RETRY_BACKOFF),
                                fp,
                            ),
                        )
                    else:
                        remaining.pop(fp)
                    continue
                finish(fp, result, seconds)
                faults.on_completion(len(state.results))
            now = time.monotonic()
            if not broken and timeout is not None and inflight:
                # Wedge watchdog: a worker that sailed far past the
                # deadline cannot be interrupted (no SIGALRM, or stuck in
                # native code) — the only recourse is abandoning the pool.
                wedge_after = max(
                    _WEDGE_FACTOR * timeout, timeout + _WEDGE_SLACK_S
                )
                broken = any(
                    now - t0 > wedge_after for t0 in started.values()
                )
            if broken:
                broken = False
                state.pool_failures += 1
                degrade = state.pool_failures > POOL_FAILURES
                if state.journal is not None:
                    state.journal.pool_failure(state.pool_failures, degrade)
                pool.shutdown(wait=False, cancel_futures=True)
                inflight.clear()
                started.clear()
                if degrade:
                    # Graceful degradation: finish the remainder serially
                    # in this process — slower, but immune to pool decay.
                    _run_serial(list(remaining.values()), state)
                    return
                pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=_worker_init
                )
                scheduled = {fp for _, fp in retry_at}
                queue = deque(fp for fp in remaining if fp not in scheduled)
            while retry_at and retry_at[0][0] <= now:
                queue.append(heapq.heappop(retry_at)[1])
            broken = not fill()
        pool.shutdown(wait=False, cancel_futures=True)
    except KeyboardInterrupt:
        harvest_finished()
        pool.shutdown(wait=False, cancel_futures=True)
        raise


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
        """Execute every unique run exactly once; warm results are free.

        Bit-identical for any ``n_workers`` *and any failure pattern*
        (each run is independent and deterministic in its spec; retries
        and pool rebuilds only change scheduling).  With an on-disk result
        store configured the run is journaled and resumable: re-running
        the same plan after a crash or interrupt picks up exactly where it
        died.
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
            retries=state.retries,
            pool_failures=state.pool_failures,
            divergences=state.divergences,
        )
        return ResultSet(results, stats)


def run_campaign(
    specs: Sequence[RunSpec], n_workers: Optional[int] = None
) -> ResultSet:
    """One-shot convenience: plan, dedupe and execute ``specs``."""
    return Campaign(specs).run(n_workers=n_workers)

