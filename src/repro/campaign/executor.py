"""Campaign planning and fault-tolerant (parallel) execution.

A :class:`Campaign` collects :class:`~repro.campaign.spec.RunSpec`s from
any number of experiments, dedupes them by fingerprint and executes only
the unique remainder that the result store cannot already answer.

Runs are mutually independent and deterministic in their spec (the
simulator holds no RNG and the database build is content-addressed), so
the executor is free to partition them across a ``concurrent.futures``
process pool: results are keyed by fingerprint, making the outcome
bit-identical for any worker count, including serial.  Worker count
resolves from the explicit ``n_workers`` argument, then the
``REPRO_CAMPAIGN_WORKERS`` environment variable, then an automatic rule
that only engages the pool for campaigns big enough to amortise process
startup and the per-worker database load.

The same content-addressing is what makes the executor *fault-tolerant*
without ever compromising the bit-identical-results contract: any spec
may be attempted any number of times, in any process, in any order — the
first successful attempt's result is the (unique, deterministic) answer.
On top of that invariant sit

* per-spec timeouts (``REPRO_SPEC_TIMEOUT``, enforced worker-side via a
  SIGALRM deadline so even a hung simulation turns into a retryable
  failure),
* bounded retries with a deterministic, jitter-free exponential backoff
  (``REPRO_SPEC_RETRIES``, ``REPRO_RETRY_BACKOFF``),
* ``BrokenProcessPool`` recovery: the pool is rebuilt and only the
  unfinished specs are re-dispatched; after ``REPRO_POOL_FAILURES``
  breakages execution degrades gracefully to serial,
* straggler re-dispatch: a spec running longer than
  ``REPRO_STRAGGLER_FACTOR`` times the median completed runtime is
  speculatively resubmitted (duplicates are harmless — results are
  content-addressed and identical),
* a crash-safe run journal (:mod:`repro.campaign.journal`) whenever an
  on-disk result store is configured, so an interrupted campaign resumes
  exactly where it died, and
* ``KeyboardInterrupt`` handling that cancels pending work, flushes
  every finished result to the store/journal and prints a resume hint.

Deterministic fault injection for all of these paths lives in
:mod:`repro.util.faults` (``REPRO_FAULT_PLAN``); with it unset the hooks
cost one dict probe each.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.attest import ResultDivergenceError
from repro.campaign.database import get_database
from repro.campaign.journal import CampaignJournal
from repro.campaign.results import (
    cached_result,
    memoize_result,
    prune_result_cache,
    result_cache_dir,
    result_cache_max_mb,
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

#: Environment override for the campaign worker count.
WORKERS_ENV = "REPRO_CAMPAIGN_WORKERS"

#: Per-spec wall-clock timeout in seconds (unset/0 = none).  Enforced in
#: the executing process via SIGALRM, so a hung spec becomes a retryable
#: :class:`SpecTimeout` instead of stalling the campaign forever.
SPEC_TIMEOUT_ENV = "REPRO_SPEC_TIMEOUT"

#: Retries per spec after its first failed attempt (default 2).
SPEC_RETRIES_ENV = "REPRO_SPEC_RETRIES"

#: Base of the deterministic exponential backoff schedule in seconds
#: (delay before attempt k+1 = base * 2**(k-1); default 0.05, no jitter —
#: schedules must replay identically).
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Pool breakages tolerated before degrading to serial execution
#: (default 3).
POOL_FAILURES_ENV = "REPRO_POOL_FAILURES"

#: Straggler multiple: a spec in flight longer than this factor times the
#: median completed runtime is speculatively re-dispatched (default 8;
#: 0 disables).  Duplicates are correctness-free: first finish wins.
STRAGGLER_FACTOR_ENV = "REPRO_STRAGGLER_FACTOR"

#: Auto mode engages the pool only for at least this many pending runs.
_AUTO_POOL_MIN_RUNS = 16

#: Parent scheduling tick: how often the wait loop checks retries,
#: stragglers and wedged pools.
_TICK_S = 0.05

#: Completed-run samples needed before the straggler median is trusted.
_STRAGGLER_MIN_SAMPLES = 3

#: Floor under the straggler threshold so tiny-spec campaigns never
#: duplicate work on scheduling noise.
_STRAGGLER_FLOOR_S = 5.0


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


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def spec_timeout() -> Optional[float]:
    """The per-spec timeout in seconds, or None when disabled."""
    value = _env_float(SPEC_TIMEOUT_ENV, 0.0)
    return value if value > 0 else None


def spec_retries() -> int:
    return max(0, _env_int(SPEC_RETRIES_ENV, 2))


def retry_backoff() -> float:
    return max(0.0, _env_float(RETRY_BACKOFF_ENV, 0.05))


def max_pool_failures() -> int:
    return max(0, _env_int(POOL_FAILURES_ENV, 3))


def straggler_factor() -> Optional[float]:
    value = _env_float(STRAGGLER_FACTOR_ENV, 8.0)
    return value if value > 0 else None


def make_model(name: str):
    """Instantiate a performance model by its paper name."""
    from repro.core.perf_models import Model1, Model2, Model3, PerfectModel

    models = dict(zip(MODEL_NAMES, (Model1, Model2, Model3, PerfectModel)))
    if name not in models:
        raise ValueError(f"unknown model {name!r}; options: {sorted(models)}")
    return models[name]()


def _simulate(spec: RunSpec) -> SimResult:
    """Run one spec's simulation (no caching — see :func:`execute_spec`)."""
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
        db, rm, charge_overheads=spec.charge_overheads, wave=spec.wave
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
    os.environ["REPRO_BUILD_WORKERS"] = "1"


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
        raise SpecTimeout(f"spec exceeded {seconds:g}s ({SPEC_TIMEOUT_ENV})")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_attempt(spec: RunSpec) -> SimResult:
    """One attempt at a spec: fault hooks + timeout around the store path."""
    with _deadline(spec_timeout()):
        faults.on_spec(spec.fingerprint)
        return execute_spec(spec)


def _execute_task(spec: RunSpec) -> Tuple[str, SimResult]:
    return spec.fingerprint, _execute_attempt(spec)


def resolve_campaign_workers(n_workers: Optional[int], n_pending: int) -> int:
    """Worker count for a campaign with ``n_pending`` uncached runs.

    Priority: explicit argument, then :data:`WORKERS_ENV`, then an
    automatic rule — parallelise only when enough independent runs are
    pending for pool startup and per-worker database loads to pay off.
    """
    if n_workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
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
        lease_expiries: int = 0,
        divergences: int = 0,
    ):
        self.planned = planned
        self.unique = unique
        self.simulated = simulated
        self.cached = unique - simulated
        self.workers = workers
        self.retries = retries
        self.pool_failures = pool_failures
        self.lease_expiries = lease_expiries
        self.divergences = divergences

    def summary(self) -> str:
        text = (
            f"{self.planned} planned -> {self.unique} unique runs "
            f"({self.simulated} simulated, {self.cached} cached) "
            f"on {self.workers} worker{'s' if self.workers != 1 else ''}"
        )
        if (
            self.retries
            or self.pool_failures
            or self.lease_expiries
            or self.divergences
        ):
            tallies = [
                f"{self.retries} retries",
                f"{self.pool_failures} pool failures",
            ]
            if self.lease_expiries:
                tallies.append(f"{self.lease_expiries} lease expiries")
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
        self.durations: List[float] = []

    def record_done(
        self, fp: str, seconds: float, worker: Optional[str] = None
    ) -> None:
        self.durations.append(seconds)
        if self.journal is not None:
            self.journal.done(
                fp, self.attempts.get(fp, 0) + 1, seconds, worker=worker
            )

    def record_failure(self, fp: str, exc: Exception, retries: int) -> bool:
        """Count one failed attempt; True when a retry is still allowed."""
        if isinstance(exc, ResultDivergenceError):
            # The bit-identical contract was violated: both byte versions
            # are already quarantined, and retrying would just republish
            # one of the contested versions — fail the spec loudly now.
            self.divergences += 1
            if self.journal is not None:
                self.journal.divergence(fp, None, [exc.digest_a, exc.digest_b])
            self.failures[fp] = repr(exc)
            return False
        attempt = self.attempts.get(fp, 0) + 1
        self.attempts[fp] = attempt
        if self.journal is not None:
            self.journal.failed(fp, attempt, repr(exc))
        if attempt > retries:
            self.failures[fp] = repr(exc)
            return False
        self.retries += 1
        return True

    def backoff_delay(self, fp: str, base: float) -> float:
        """Deterministic, jitter-free exponential schedule."""
        return base * (2.0 ** (self.attempts.get(fp, 1) - 1))


def _run_serial(specs: Sequence[RunSpec], state: _ExecState) -> None:
    """Serial driver: per-spec timeout + bounded deterministic retries."""
    retries = spec_retries()
    base = retry_backoff()
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
                if not state.record_failure(fp, exc, retries):
                    break
                time.sleep(state.backoff_delay(fp, base))
                continue
            state.results[fp] = result
            state.record_done(fp, time.monotonic() - t0)
            faults.on_completion(len(state.results))
            break


def _run_pool(
    ordered: Sequence[RunSpec], workers: int, state: _ExecState
) -> None:
    """Pool driver: retries, pool rebuilds, stragglers, serial fallback.

    Any schedule this loop produces — retries landing on other workers,
    duplicated stragglers, rebuilt pools — merges to the same result set:
    specs are deterministic and results content-addressed, so the first
    successful attempt *is* the answer.
    """
    import heapq

    retries = spec_retries()
    base = retry_backoff()
    timeout = spec_timeout()
    factor = straggler_factor()
    max_fail = max_pool_failures()

    remaining: Dict[str, RunSpec] = {
        s.fingerprint: s for s in ordered if s.fingerprint not in state.results
    }
    inflight: Dict[Future, str] = {}
    started: Dict[Future, float] = {}
    retry_at: List[Tuple[float, str]] = []
    duplicated: set = set()
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)

    def submit(fp: str) -> bool:
        """False when the pool refuses (broken between ticks)."""
        try:
            fut = pool.submit(_execute_task, remaining[fp])
        except (BrokenProcessPool, RuntimeError):
            return False
        inflight[fut] = fp
        started[fut] = time.monotonic()
        return True

    def harvest_finished() -> None:
        """Flush results that finished before an interrupt (satellite:
        completed-but-unstored futures must not be lost)."""
        for fut, fp in list(inflight.items()):
            if fp not in remaining or not fut.done() or fut.cancelled():
                continue
            if fut.exception() is not None:
                continue
            _, result = fut.result()
            remaining.pop(fp, None)
            memoize_result(fp, result)
            state.results[fp] = result
            state.record_done(fp, time.monotonic() - started[fut])

    try:
        broken = not all(submit(fp) for fp in list(remaining))
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
                t0 = started.pop(fut)
                if fp not in remaining:
                    continue  # straggler duplicate of a finished spec
                try:
                    _, result = fut.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if state.record_failure(fp, exc, retries):
                        heapq.heappush(
                            retry_at,
                            (
                                time.monotonic()
                                + state.backoff_delay(fp, base),
                                fp,
                            ),
                        )
                    else:
                        remaining.pop(fp)
                    continue
                remaining.pop(fp)
                duplicated.discard(fp)
                memoize_result(fp, result)
                state.results[fp] = result
                state.record_done(fp, time.monotonic() - t0)
                faults.on_completion(len(state.results))
            now = time.monotonic()
            if not broken and timeout is not None and inflight:
                # Wedge watchdog: a worker that sailed far past the
                # deadline cannot be interrupted (no SIGALRM, or stuck in
                # native code) — the only recourse is abandoning the pool.
                wedge_after = max(3.0 * timeout, timeout + 10.0)
                broken = any(
                    now - started[f] > wedge_after
                    for f, fp in inflight.items()
                    if fp in remaining
                )
            if broken:
                broken = False
                state.pool_failures += 1
                degrade = state.pool_failures > max_fail
                if state.journal is not None:
                    state.journal.pool_failure(state.pool_failures, degrade)
                pool.shutdown(wait=False, cancel_futures=True)
                inflight.clear()
                started.clear()
                duplicated.clear()
                if degrade:
                    # Graceful degradation: finish the remainder serially
                    # in this process — slower, but immune to pool decay.
                    _run_serial(list(remaining.values()), state)
                    return
                pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=_worker_init
                )
                scheduled = {fp for _, fp in retry_at}
                broken = not all(
                    submit(fp) for fp in list(remaining)
                    if fp not in scheduled
                )
                continue
            while retry_at and retry_at[0][0] <= now:
                _, fp = heapq.heappop(retry_at)
                if fp in remaining and not submit(fp):
                    broken = True
                    heapq.heappush(retry_at, (now, fp))
                    break
            if (
                factor is not None
                and inflight
                and len(state.durations) >= _STRAGGLER_MIN_SAMPLES
            ):
                threshold = max(
                    factor * statistics.median(state.durations),
                    _STRAGGLER_FLOOR_S,
                )
                for fut, fp in list(inflight.items()):
                    if (
                        fp in remaining
                        and fp not in duplicated
                        and now - started[fut] > threshold
                    ):
                        # Speculative re-dispatch: whichever copy finishes
                        # first supplies the (identical) result.
                        duplicated.add(fp)
                        if not submit(fp):
                            broken = True
                            break
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
        (each run is independent and deterministic in its spec; retries,
        pool rebuilds and straggler duplicates only change scheduling).
        With an on-disk result store configured the run is journaled and
        resumable: re-running the same plan after a crash or interrupt
        picks up exactly where it died.
        """
        # Resolve every env knob up-front: a malformed
        # REPRO_RESULT_CACHE_MAX_MB / REPRO_SPEC_TIMEOUT / ... must fail
        # before hours of simulation, not mid-campaign.
        from repro.campaign import remote

        cache_cap_mb = result_cache_max_mb()
        for knob in (
            spec_timeout,
            spec_retries,
            retry_backoff,
            max_pool_failures,
            straggler_factor,
        ):
            knob()
        distributed = remote.remote_enabled()
        if distributed:
            if result_cache_dir() is None:
                raise ValueError(
                    f"{remote.REMOTE_ENV} requires a shared result store "
                    "(set REPRO_RESULT_CACHE)"
                )
            for knob in (
                remote.lease_ttl,
                remote.lease_batch,
                remote.remote_tick,
                remote.remote_grace,
                remote.suspect_strikes,
            ):
                knob()
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
        if distributed:
            # In remote mode "workers" means fabric workers to spawn
            # (0 = external workers registered via `campaign --work`).
            workers = remote.remote_workers(workers)
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
            if distributed and pending:
                remote.run_remote(ordered, state, workers)
            elif workers > 1 and len(pending) > 1:
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

        if pending and cache_cap_mb is not None:
            # Long campaigns must not grow the on-disk store without
            # bound: enforce the LRU size cap once per campaign (the
            # results just produced carry the freshest mtimes, so they
            # are the last to go).
            prune_result_cache(cache_cap_mb)

        stats = CampaignStats(
            planned=self._planned,
            unique=len(specs),
            simulated=len(pending),
            workers=workers,
            retries=state.retries,
            pool_failures=state.pool_failures,
            lease_expiries=getattr(state, "lease_expiries", 0),
            divergences=state.divergences,
        )
        return ResultSet(results, stats)


def run_campaign(
    specs: Sequence[RunSpec], n_workers: Optional[int] = None
) -> ResultSet:
    """One-shot convenience: plan, dedupe and execute ``specs``."""
    return Campaign(specs).run(n_workers=n_workers)

