"""Distributed campaign fabric: lease-based execution over a shared store.

The remote tier shards a campaign's pending (uncached) fingerprints
across worker processes/hosts with *no scheduler state of its own* —
everything lives as small files in the shared result store, under
``<store>/fabric/``:

``fabric/campaign.json``
    Coordinator-published meta (campaign id, pending count).
``fabric/tasks/<fp>.json``
    One serialised :class:`~repro.campaign.spec.RunSpec` per pending
    fingerprint (workers re-derive the fingerprint from their own code —
    version skew surfaces as a refusal, not a mis-filed result).
``fabric/leases/<fp>.json``
    Exclusive-create claim: two workers racing resolve through
    ``O_EXCL`` / ``set -C``; exactly one wins.
``fabric/workers/<id>.json``
    Per-worker heartbeat, atomically rewritten every ``ttl/4``.
``fabric/done/<fp>.json`` / ``fabric/failed/<fp>.<attempt>.json``
    Completion / failed-attempt markers the coordinator harvests.
``fabric/suspects/<id>.json``
    Workers the coordinator demoted after :data:`SUSPECT_STRIKES`
    divergence events; a demoted worker stops claiming work.

A lease is *live* while its worker's heartbeat is fresher than
``REPRO_LEASE_TTL``; the coordinator breaks stale leases and the
fingerprints become claimable again.  Reassignment — and any duplicate
execution it causes (a partitioned worker keeps running) — is always
safe: specs are deterministic and results content-addressed, so every
copy of an execution publishes the identical bytes and the merge is a
no-op.  That single invariant, inherited from the PR 6 executor, is what
lets the whole transport be this simple — and since PR 10 it is
*checked*, not assumed: done markers carry the digest of the bytes the
worker computed, the coordinator cross-checks it against the stored
bytes before harvesting, and a mismatch quarantines the evidence,
expires the lease for re-dispatch, and (after
:data:`SUSPECT_STRIKES` divergences from one worker) demotes the
worker as suspect.

Results flow through the existing crash-safe store path: file-transport
workers point their result store at the shared store so
``execute_spec`` publishes directly; SSH workers simulate locally and
push the result JSON through the transport's atomic publish.  The
completion marker is written only *after* the result, so a marker always
implies a readable result (a torn marker or evicted entry is detected at
harvest and the fingerprint is simply reassigned).

The coordinator journals every observed claim, expiry, completion and
fallback in the PR 6 campaign journal (single writer — workers never
touch it), which is what makes ``repro campaign --remote`` kill-and-
resume safe on both sides: a resumed coordinator re-probes the store,
re-publishes missing tasks and harvests markers workers published while
it was dead; a killed worker just loses its lease.

With no live workers (none spawned, all dead, or all partitioned) the
coordinator degrades gracefully: after ``REPRO_REMOTE_GRACE`` without
progress it claims fingerprints itself — under the same lease protocol —
and executes them inline, so ``--remote`` can never do worse than hang.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import settings
from repro.campaign.attest import (
    _retire_entry,
    attest_rel,
    attestation_payload,
    attestation_to_json,
    digest_text,
    read_attestation,
    record_divergence,
)
from repro.campaign.executor import (
    RETRY_BACKOFF,
    SPEC_RETRIES,
    _ExecState,
    _execute_attempt,
)
from repro.campaign.results import (
    cached_result,
    drop_memo_entry,
    result_cache_dir,
    result_to_json,
)
from repro.campaign.spec import RunSpec
from repro.campaign.transport import FileTransport, Transport, transport_for
from repro.util import faults
from repro.util.diskcache import read_text_guarded

__all__ = [
    "COORDINATOR_ID",
    "Fabric",
    "SUSPECT_STRIKES",
    "fabric_status",
    "run_remote",
    "run_worker",
    "spawn_local_workers",
]

#: Divergence events from one worker before the coordinator demotes it
#: as suspect (one divergence could be a disk fault local to that write;
#: a pattern is a skewed worker).
SUSPECT_STRIKES = 2

#: Worker id the coordinator claims under when degrading to local
#: execution.
COORDINATOR_ID = "coordinator"


class Fabric:
    """The lease protocol, expressed over a transport's six primitives.

    Coordinator and workers share this one class (and with it one
    protocol); only the transport underneath differs.  Fault hooks fire
    on lease and done-marker writes when the transport has a local twin
    (``store=lease`` / ``store=done`` directives tear exactly the write
    that just happened).
    """

    META = "fabric/campaign.json"

    def __init__(self, transport: Transport):
        self.transport = transport

    # -- relative paths ----------------------------------------------------
    @staticmethod
    def task_path(fp: str) -> str:
        return f"fabric/tasks/{fp}.json"

    @staticmethod
    def lease_path(fp: str) -> str:
        return f"fabric/leases/{fp}.json"

    @staticmethod
    def done_path(fp: str) -> str:
        return f"fabric/done/{fp}.json"

    @staticmethod
    def failed_path(fp: str, attempt: int) -> str:
        return f"fabric/failed/{fp}.{attempt}.json"

    @staticmethod
    def worker_path(worker: str) -> str:
        return f"fabric/workers/{worker}.json"

    @staticmethod
    def suspect_path(worker: str) -> str:
        return f"fabric/suspects/{worker}.json"

    def _store_hook(self, store: str, name: str, rel: str) -> None:
        path = self.transport.local_path(rel)
        if path is not None:
            faults.on_store_write(store, name, path)

    # -- campaign meta -----------------------------------------------------
    def write_meta(self, campaign: str, pending: int) -> None:
        self.transport.put(
            self.META,
            json.dumps({"campaign": campaign, "pending": pending}),
        )

    def read_meta(self) -> Optional[Dict]:
        text = self.transport.get(self.META)
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return None

    # -- tasks -------------------------------------------------------------
    def publish_task(self, spec: RunSpec) -> None:
        """Idempotent: an existing task file (resume) is left as is."""
        self.transport.put_new(self.task_path(spec.fingerprint), spec.to_json())

    def tasks(self) -> List[str]:
        return [
            name[:-5]
            for name in self.transport.listdir("fabric/tasks")
            if name.endswith(".json")
        ]

    def read_task(self, fp: str) -> Optional[str]:
        return self.transport.get(self.task_path(fp))

    # -- leases ------------------------------------------------------------
    def claim(self, fp: str, worker: str) -> bool:
        """Exclusive-create the lease; exactly one claimant wins."""
        won = self.transport.put_new(
            self.lease_path(fp),
            json.dumps({"worker": worker, "t": time.time()}),
        )
        if won:
            self._store_hook("lease", fp, self.lease_path(fp))
        return won

    def leased(self) -> List[str]:
        return [
            name[:-5]
            for name in self.transport.listdir("fabric/leases")
            if name.endswith(".json")
        ]

    def lease_worker(self, fp: str) -> Optional[str]:
        """The lease's claimant, or None when missing/torn."""
        text = self.transport.get(self.lease_path(fp))
        if text is None:
            return None
        try:
            worker = json.loads(text).get("worker")
        except (json.JSONDecodeError, AttributeError):
            return None
        return worker if isinstance(worker, str) else None

    def lease_age(self, fp: str) -> Optional[float]:
        return self.transport.age(self.lease_path(fp))

    def lease_owned(self, fp: str, worker: str) -> bool:
        return self.lease_worker(fp) == worker

    def break_lease(self, fp: str) -> bool:
        return self.transport.delete(self.lease_path(fp))

    release = break_lease  # a worker releasing its own lease is the same op

    # -- heartbeats --------------------------------------------------------
    def heartbeat(self, worker: str) -> None:
        if faults.on_heartbeat(worker):
            return  # injected partition: the write never lands
        self.transport.put(
            self.worker_path(worker),
            json.dumps({"worker": worker, "t": time.time()}),
        )

    def heartbeat_age(self, worker: str) -> Optional[float]:
        return self.transport.age(self.worker_path(worker))

    def workers(self) -> List[str]:
        return [
            name[:-5]
            for name in self.transport.listdir("fabric/workers")
            if name.endswith(".json")
        ]

    # -- suspects ----------------------------------------------------------
    def demote(self, worker: str, strikes: int) -> None:
        """Mark a worker suspect; it stops claiming work when it notices.

        Sticky by design: :meth:`clear` leaves suspect markers in place,
        so a worker demoted in one campaign stays demoted for the next
        campaign on the same store until an operator clears it.
        """
        self.transport.put(
            self.suspect_path(worker),
            json.dumps(
                {"worker": worker, "strikes": strikes, "t": time.time()}
            ),
        )

    def is_suspect(self, worker: str) -> bool:
        return self.transport.get(self.suspect_path(worker)) is not None

    def suspects(self) -> List[str]:
        return [
            name[:-5]
            for name in self.transport.listdir("fabric/suspects")
            if name.endswith(".json")
        ]

    # -- completion / failure markers --------------------------------------
    def publish_done(
        self, fp: str, worker: str, seconds: float, digest: Optional[str] = None
    ) -> None:
        """Written strictly *after* the result, so marker ⇒ result.

        ``digest`` is the worker's claim about the bytes it computed —
        the coordinator cross-checks it against the stored entry before
        harvesting, so a store poisoned between compute and harvest is
        rejected rather than merged.  Markers without a digest (older
        workers) are accepted unverified.
        """
        fields = {"worker": worker, "s": round(seconds, 6), "t": time.time()}
        if digest is not None:
            fields["digest"] = digest
        payload = json.dumps(fields)
        self.transport.put(self.done_path(fp), payload)
        self._store_hook("done", fp, self.done_path(fp))
        if faults.on_done_publish(fp):
            # Injected duplicate delivery: the completion lands again
            # (ack lost, sender retried).  Harvest must treat it as the
            # idempotent no-op it is.
            self.transport.put(self.done_path(fp), payload)

    def done_fps(self) -> List[str]:
        return [
            name[:-5]
            for name in self.transport.listdir("fabric/done")
            if name.endswith(".json")
        ]

    def read_done(self, fp: str) -> Optional[Dict]:
        text = self.transport.get(self.done_path(fp))
        if text is None:
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            return None
        return data if isinstance(data, dict) else None

    def publish_failed(
        self, fp: str, worker: str, attempt: int, error: str, permanent: bool
    ) -> None:
        self.transport.put(
            self.failed_path(fp, attempt),
            json.dumps(
                {
                    "fp": fp,
                    "worker": worker,
                    "attempt": attempt,
                    "error": error[:500],
                    "permanent": permanent,
                    "t": time.time(),
                }
            ),
        )

    def failed_markers(self) -> List[Dict]:
        markers = []
        for name in self.transport.listdir("fabric/failed"):
            text = self.transport.get(f"fabric/failed/{name}")
            if text is None:
                continue
            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                continue
            if isinstance(data, dict) and "fp" in data:
                markers.append(data)
        return markers

    # -- results -----------------------------------------------------------
    def put_result(self, fp: str, text: str) -> bool:
        return self.transport.put(f"{fp}.json", text)

    def put_attestation(self, fp: str, text: str) -> bool:
        """Push a result's attestation sidecar (SSH-transport workers —
        file-transport workers write it through ``store_result``)."""
        return self.transport.put(attest_rel(fp), text)

    # -- cleanup -----------------------------------------------------------
    def clear(self, fps: Sequence[str]) -> None:
        """Remove this campaign's fabric files (heartbeats are left —
        external workers may serve other campaigns)."""
        fps = set(fps)
        for fp in fps:
            self.transport.delete(self.task_path(fp))
            self.transport.delete(self.lease_path(fp))
            self.transport.delete(self.done_path(fp))
        for name in self.transport.listdir("fabric/failed"):
            if name.split(".", 1)[0] in fps:
                self.transport.delete(f"fabric/failed/{name}")
        self.transport.delete(self.META)


def fabric_status(store_root: Path) -> Dict:
    """Live fabric state for ``repro campaign --status``.

    Returns worker heartbeat ages and per-lease liveness, judged against
    the configured TTL — purely observational (nothing is broken or
    claimed).
    """
    fabric = Fabric(FileTransport(Path(store_root)))
    ttl = settings.current().lease_ttl
    workers = {}
    for worker in fabric.workers():
        age = fabric.heartbeat_age(worker)
        workers[worker] = {
            "heartbeat_age": age,
            "live": age is not None and age <= ttl,
        }
    leases = []
    for fp in fabric.leased():
        worker = fabric.lease_worker(fp)
        age = fabric.heartbeat_age(worker) if worker else None
        if age is None:
            age = fabric.lease_age(fp)
        leases.append(
            {
                "fp": fp,
                "worker": worker,
                "age": age,
                "live": age is not None and age <= ttl,
            }
        )
    suspects = {}
    for worker in fabric.suspects():
        text = fabric.transport.get(fabric.suspect_path(worker))
        strikes = None
        if text is not None:
            try:
                strikes = json.loads(text).get("strikes")
            except json.JSONDecodeError:
                pass
        suspects[worker] = strikes
    return {
        "workers": workers,
        "leases": leases,
        "ttl": ttl,
        "suspects": suspects,
    }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_execute(fabric: Fabric, spec: RunSpec, worker: str) -> bool:
    """Execute one leased spec with the standard retry/timeout discipline.

    Success publishes result-then-marker; a permanently failed spec
    publishes a ``permanent`` failure marker.  Either way the lease is
    released so the coordinator's view converges.
    """
    fp = spec.fingerprint
    attempt = 0
    t0 = time.monotonic()
    while True:
        attempt += 1
        try:
            result = _execute_attempt(spec)
        except KeyboardInterrupt:
            fabric.release(fp)
            raise
        except Exception as exc:  # noqa: BLE001 - every failure is retryable
            permanent = attempt > SPEC_RETRIES
            fabric.publish_failed(fp, worker, attempt, repr(exc), permanent)
            if permanent:
                fabric.release(fp)
                return False
            time.sleep(RETRY_BACKOFF * (2.0 ** (attempt - 1)))
            continue
        text = result_to_json(result)
        if fabric.transport.local_path(f"{fp}.json") is None:
            # Remote store: execute_spec published to the worker-local
            # cache only — push the bytes through the transport's atomic
            # publish (sidecar first, same ordering as store_result)
            # before the marker that advertises them.
            fabric.put_attestation(
                fp, attestation_to_json(attestation_payload(fp, text, spec=spec))
            )
            fabric.put_result(fp, text)
        fabric.publish_done(
            fp, worker, time.monotonic() - t0, digest=digest_text(text)
        )
        fabric.release(fp)
        return True


def run_worker(
    store: str,
    worker_id: Optional[str] = None,
    idle_exit: Optional[float] = None,
    runner=None,
) -> int:
    """Fabric worker main loop: heartbeat, claim batches, execute, publish.

    Runs until ``idle_exit`` seconds pass with nothing claimable (None =
    forever, for long-lived external workers).  Returns the number of
    specs this worker completed.
    """
    knobs = settings.resolve()
    transport = transport_for(store, runner=runner)
    if isinstance(transport, FileTransport):
        # Publish results straight into the shared store: execute_spec's
        # store-through write *is* the delivery.
        knobs = settings.install(result_cache=transport.root)
    fabric = Fabric(transport)
    worker_id = worker_id or knobs.worker_id or f"w{os.getpid()}"
    tick = knobs.remote_tick
    ttl = knobs.lease_ttl
    batch = knobs.lease_batch

    fabric.heartbeat(worker_id)
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(max(0.05, ttl / 4.0)):
            fabric.heartbeat(worker_id)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()

    completed = 0
    # Fingerprints this worker permanently failed (or refused): the lease
    # is released so *another* worker may still try, but reclaiming them
    # here would just spin on the same failure until the coordinator
    # harvests the permanent marker and ends the spec.
    refused: set = set()
    idle_since = time.monotonic()
    try:
        while True:
            if fabric.is_suspect(worker_id):
                # The coordinator demoted us after repeated divergences:
                # stop claiming work — anything we publish would be
                # rejected at harvest anyway.
                break
            claimed: List[str] = []
            done = set(fabric.done_fps())
            for fp in fabric.tasks():
                if len(claimed) >= batch:
                    break
                if fp in done or fp in refused:
                    continue
                if fabric.lease_worker(fp) is not None:
                    continue
                if fabric.claim(fp, worker_id):
                    claimed.append(fp)
            if not claimed:
                if (
                    idle_exit is not None
                    and time.monotonic() - idle_since > idle_exit
                ):
                    break
                time.sleep(tick)
                continue
            idle_since = time.monotonic()
            for fp in claimed:
                if not fabric.lease_owned(fp, worker_id):
                    # The coordinator expired our lease (we looked dead or
                    # partitioned) and someone else owns the work now —
                    # abandon the rest of the batch rather than fight.
                    continue
                text = fabric.read_task(fp)
                if text is None:
                    fabric.release(fp)
                    continue
                try:
                    spec = RunSpec.from_json(text)
                except (ValueError, KeyError, TypeError) as exc:
                    # Version/calibration skew or a torn task file:
                    # refusing loudly beats executing under the wrong
                    # content address.
                    fabric.publish_failed(
                        fp, worker_id, 1, repr(exc), permanent=True
                    )
                    refused.add(fp)
                    fabric.release(fp)
                    continue
                if _worker_execute(fabric, spec, worker_id):
                    completed += 1
                else:
                    refused.add(fp)
    finally:
        stop.set()
    return completed


def spawn_local_workers(
    n: int, store: Path, idle_exit: float
) -> List[subprocess.Popen]:
    """Start ``n`` worker subprocesses against a file-transport store.

    Workers receive this process's settings through one export — CLI
    flags and the campaign-resolved fault plan and ledger included, so
    fault directives fire inside real fabric workers — with their own
    worker id and no nested build pool, plus an explicit ``PYTHONPATH``
    entry for this package (the coordinator may not have exported one).
    """
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    procs = []
    for i in range(n):
        env = settings.child_env(
            worker_id=f"w{i + 1}-{os.getpid()}", build_workers=1
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        procs.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "campaign",
                    "--work",
                    "--store",
                    str(store),
                    "--idle-exit",
                    f"{idle_exit:g}",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )
    return procs


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def _coordinator_execute(
    fabric: Fabric, spec: RunSpec, state: _ExecState
) -> None:
    """Graceful-degradation path: the coordinator executes one claimed
    spec inline, with the standard retry discipline and journaling."""
    fp = spec.fingerprint
    t0 = time.monotonic()
    while True:
        try:
            result = _execute_attempt(spec)
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001
            if not state.record_failure(fp, exc):
                fabric.release(fp)
                return
            time.sleep(state.backoff_delay(fp, RETRY_BACKOFF))
            continue
        seconds = time.monotonic() - t0
        state.results[fp] = result
        state.record_done(fp, seconds, worker=COORDINATOR_ID)
        fabric.publish_done(
            fp, COORDINATOR_ID, seconds, digest=digest_text(result_to_json(result))
        )
        fabric.release(fp)
        faults.on_completion(len(state.results))
        return


def run_remote(
    ordered: Sequence[RunSpec], state: _ExecState, n_workers: int
) -> None:
    """Coordinator loop: publish tasks, harvest markers, expire leases.

    Fills ``state`` exactly like the serial/pool drivers do, so
    ``Campaign.run`` needs no special-casing downstream (interrupts,
    permanent failures, stats all behave identically).
    """
    root = result_cache_dir()
    if root is None:
        raise ValueError(
            "REPRO_REMOTE requires REPRO_RESULT_CACHE "
            "(the shared result store)"
        )
    journal = state.journal
    fabric = Fabric(FileTransport(root))
    knobs = settings.current()
    ttl = knobs.lease_ttl
    tick = knobs.remote_tick
    grace = knobs.remote_grace

    pending: Dict[str, RunSpec] = {
        s.fingerprint: s for s in ordered if s.fingerprint not in state.results
    }
    if not pending:
        return
    all_fps = list(pending)
    campaign = journal.campaign if journal is not None else "adhoc"
    fabric.write_meta(campaign, len(pending))
    for spec in pending.values():
        fabric.publish_task(spec)
    if journal is not None:
        journal.remote_begin(fabric.transport.kind, n_workers, len(pending))

    state.lease_expiries = 0
    procs = (
        spawn_local_workers(n_workers, root, idle_exit=max(10.0, 4.0 * ttl))
        if n_workers > 0
        else []
    )
    seen_claims: set = set()
    seen_failures: set = set()
    strikes: Dict[str, int] = {}
    demoted: set = set(fabric.suspects())  # sticky across campaigns
    fell_back = False
    last_progress = time.monotonic()
    try:
        while pending:
            progressed = False

            # 1. Observe (and journal) new claims.
            leased = fabric.leased()
            if journal is not None:
                claims: Dict[str, int] = {}
                for fp in leased:
                    worker = fabric.lease_worker(fp)
                    if worker is None or (fp, worker) in seen_claims:
                        continue
                    seen_claims.add((fp, worker))
                    claims[worker] = claims.get(worker, 0) + 1
                for worker, count in claims.items():
                    journal.claim(worker, count)

            # 2. Harvest completions.  A marker for an already-merged
            # fingerprint (duplicate delivery, re-executed expired lease)
            # is skipped — the dedup the content-address contract promises.
            # Markers that claim a digest are cross-checked against the
            # *disk* bytes first (not the memo, which may hold the clean
            # result the worker computed before the store was poisoned).
            for fp in fabric.done_fps():
                if fp not in pending:
                    continue
                marker = fabric.read_done(fp) or {}
                worker = marker.get("worker")
                claimed = marker.get("digest")
                stored = (
                    read_text_guarded(root / f"{fp}.json")
                    if isinstance(claimed, str)
                    else None
                )
                if stored is not None and digest_text(stored) != claimed:
                    # Divergence: the store holds bytes the completing
                    # worker did not compute.  Quarantine the evidence,
                    # reject the marker, and reassign the work; repeated
                    # offenders are demoted as suspect.
                    record_divergence(
                        root,
                        fp,
                        versions=[("stored", stored, read_attestation(root, fp))],
                        reason="done marker digest mismatch",
                        worker=worker,
                        claimed_digest=claimed,
                    )
                    _retire_entry(root, fp)
                    drop_memo_entry(fp)
                    state.divergences += 1
                    if journal is not None:
                        journal.divergence(
                            fp, worker, [claimed, digest_text(stored)]
                        )
                    fabric.transport.delete(fabric.done_path(fp))
                    fabric.break_lease(fp)
                    if isinstance(worker, str) and worker != COORDINATOR_ID:
                        strikes[worker] = strikes.get(worker, 0) + 1
                        if (
                            strikes[worker] >= SUSPECT_STRIKES
                            and worker not in demoted
                        ):
                            demoted.add(worker)
                            fabric.demote(worker, strikes[worker])
                            if journal is not None:
                                journal.worker_demoted(worker, strikes[worker])
                    continue
                result = cached_result(fp)
                if result is None:
                    # Marker without a readable result (torn marker racing
                    # our listing, or a pruned/quarantined entry): drop the
                    # marker and lease so the work is simply reassigned.
                    fabric.transport.delete(fabric.done_path(fp))
                    fabric.break_lease(fp)
                    continue
                pending.pop(fp)
                state.results[fp] = result
                state.record_done(
                    fp,
                    float(marker.get("s", 0.0)),
                    worker=worker,
                )
                progressed = True
                faults.on_completion(len(state.results))

            # 3. Harvest failed attempts; permanent ones end the spec.
            for marker in fabric.failed_markers():
                key = (marker["fp"], marker.get("attempt", 0))
                if key in seen_failures:
                    continue
                seen_failures.add(key)
                fp = marker["fp"]
                attempt = int(marker.get("attempt", 1))
                state.attempts[fp] = max(state.attempts.get(fp, 0), attempt)
                if journal is not None:
                    journal.failed(fp, attempt, marker.get("error", ""))
                if marker.get("permanent") and fp in pending:
                    state.failures[fp] = marker.get("error", "permanent")
                    pending.pop(fp)
                    progressed = True
                elif not marker.get("permanent"):
                    state.retries += 1

            # 4. Expire stale leases: worker heartbeat (or, for a torn
            # lease, the lease file itself) older than the TTL.  Leases
            # held by demoted workers are broken immediately — their
            # results would be rejected at harvest anyway.
            for fp in leased:
                if fp not in pending:
                    continue
                worker = fabric.lease_worker(fp)
                if worker is not None and worker in demoted:
                    if fabric.break_lease(fp):
                        state.lease_expiries += 1
                        if journal is not None:
                            journal.lease_expired(worker, fp)
                    continue
                age = (
                    fabric.heartbeat_age(worker)
                    if worker is not None
                    else None
                )
                if age is None:
                    age = fabric.lease_age(fp)
                if age is None or age <= ttl:
                    continue
                if fabric.break_lease(fp):
                    state.lease_expiries += 1
                    if journal is not None:
                        journal.lease_expired(worker or "?", fp)

            # 5. Graceful degradation: no live workers and no progress
            # for the grace period — execute unclaimed work ourselves,
            # one spec per tick, under the same lease protocol.
            if progressed:
                last_progress = time.monotonic()
            elif pending and time.monotonic() - last_progress > grace:
                live = any(
                    (a := fabric.heartbeat_age(w)) is not None and a <= ttl
                    for w in fabric.workers()
                    # Demoted workers may still heartbeat until they
                    # notice; they no longer count as capacity.
                    if w != COORDINATOR_ID and w not in demoted
                )
                claimable = [
                    fp
                    for fp in pending
                    if fabric.lease_worker(fp) is None
                    and fabric.lease_age(fp) is None
                ]
                if claimable and not live:
                    if not fell_back:
                        fell_back = True
                        if journal is not None:
                            journal.fallback("no live workers", len(claimable))
                    fp = claimable[0]
                    if fabric.claim(fp, COORDINATOR_ID):
                        spec = pending[fp]
                        _coordinator_execute(fabric, spec, state)
                        if fp in state.results or fp in state.failures:
                            pending.pop(fp, None)
                        last_progress = time.monotonic()
                    continue

            if pending and not progressed:
                time.sleep(tick)
    except KeyboardInterrupt:
        # Leave tasks/leases/markers in place: they are exactly the
        # resume state.  Spawned workers are stopped — external ones
        # keep their leases and finish (their results harvest on resume).
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except (subprocess.TimeoutExpired, OSError):
                proc.kill()
    fabric.clear(all_fps)
