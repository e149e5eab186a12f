"""Append-only campaign run journal: crash-safe progress + resume state.

Every campaign with an on-disk result store (``REPRO_RESULT_CACHE``) also
keeps a journal at ``<store>/journal/<campaign-id>.jsonl`` — one JSON
line per event, appended and flushed (not fsynced), so a ``kill -9`` at
any instant loses at most a partial trailing line (which readers skip).
An OS crash can lose flushed lines, as it can the result store's
entries.  The campaign id is a content hash of the plan's sorted spec
fingerprints: re-running the same plan (the resume case) appends to the
same file, and ``repro campaign --status`` reconstructs progress and
failure tallies from it.

The journal is observability and accounting, not the source of truth for
results: a resumed campaign re-probes the result store per spec, so specs
that finished before a crash are *cached*, not re-simulated — the journal
records that a resume happened and how far each attempt got.

Events (each line also carries a ``t`` wall-clock timestamp):

``begin``
    A run (first or resumed) started: planned/unique/cached/pending
    counts and the worker count.
``done``
    One spec simulated and stored (fingerprint, attempt number, seconds).
``failed``
    One attempt failed (fingerprint, attempt number, error text).
``divergence``
    Duplicate executions of one spec produced *different bytes*: the
    bit-identical contract was violated, both versions were quarantined
    under ``<store>/divergence/``.
``pool_failure``
    The process pool broke and was rebuilt (or execution degraded to
    serial).
``interrupted``
    KeyboardInterrupt: completed results were flushed, the rest is
    resumable.
``complete``
    The run finished (done / permanently-failed counts).

Readers skip event kinds they do not know and fields they do not use,
so journals written by older versions still summarise.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.util.diskcache import append_line, read_text_guarded

__all__ = [
    "CampaignJournal",
    "campaign_id",
    "journal_dir",
    "journal_status",
    "protected_fingerprints",
    "read_journal",
    "summarize_events",
]


def campaign_id(fingerprints: Iterable[str]) -> str:
    """Stable id of a plan: content hash of its sorted spec fingerprints."""
    h = hashlib.blake2b(digest_size=8)
    for fp in sorted(fingerprints):
        h.update(fp.encode())
        h.update(b"|")
    return h.hexdigest()


def journal_dir(store_root: Path) -> Path:
    return Path(store_root) / "journal"


class CampaignJournal:
    """Appender for one campaign's journal file (a flushed line per record)."""

    def __init__(self, path: Path, campaign: str):
        self.path = Path(path)
        self.campaign = campaign

    @classmethod
    def for_campaign(
        cls, store_root: Optional[Path], fingerprints: Iterable[str]
    ) -> Optional["CampaignJournal"]:
        """The journal under ``store_root``, or None when storeless."""
        if store_root is None:
            return None
        cid = campaign_id(fingerprints)
        return cls(journal_dir(store_root) / f"{cid}.jsonl", cid)

    def _append(self, event: str, **fields) -> None:
        record = {"event": event, "t": time.time(), **fields}
        append_line(self.path, json.dumps(record, sort_keys=True))

    # -- events ------------------------------------------------------------
    def begin(
        self, planned: int, unique: int, cached: int, pending: int, workers: int
    ) -> None:
        self._append(
            "begin",
            planned=planned,
            unique=unique,
            cached=cached,
            pending=pending,
            workers=workers,
        )

    def done(self, fingerprint: str, attempt: int, seconds: float) -> None:
        self._append(
            "done", fp=fingerprint, attempt=attempt, s=round(seconds, 6)
        )

    def failed(self, fingerprint: str, attempt: int, error: str) -> None:
        self._append(
            "failed", fp=fingerprint, attempt=attempt, error=error[:500]
        )

    def pool_failure(self, count: int, degraded_to_serial: bool) -> None:
        self._append(
            "pool_failure", count=count, degraded_to_serial=degraded_to_serial
        )

    def interrupted(self, done: int, remaining: int) -> None:
        self._append("interrupted", done=done, remaining=remaining)

    def divergence(self, fingerprint: str, digests: List[str]) -> None:
        self._append("divergence", fp=fingerprint, digests=digests)

    def complete(self, done: int, failed: int) -> None:
        self._append("complete", done=done, failed=failed)


def read_journal(path: Path) -> List[Dict]:
    """All well-formed events of one journal file (partial lines skipped)."""
    text = read_text_guarded(Path(path))
    if text is None:
        return []
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            # A kill mid-append leaves at most one partial trailing line;
            # anything unparseable is simply not an event.
            continue
        if isinstance(record, dict) and "event" in record:
            events.append(record)
    return events


def summarize_events(events: List[Dict]) -> Optional[Dict]:
    """Progress summary of one journal (None for an empty/foreign file).

    Totals come from the *last* ``begin`` (each resume re-counts what the
    store already holds as ``cached``); ``done`` events after it are the
    run's own simulations, so overall progress is ``cached + done``.
    Failure tallies span the whole file — attempts before a resume still
    happened.
    """
    last_begin = None
    for i, ev in enumerate(events):
        if ev["event"] == "begin":
            last_begin = i
    if last_begin is None:
        return None
    begin = events[last_begin]
    done_after = {
        ev["fp"] for ev in events[last_begin:] if ev["event"] == "done"
    }
    failed_attempts = [ev for ev in events if ev["event"] == "failed"]
    pool_failures = sum(1 for ev in events if ev["event"] == "pool_failure")
    interrupted = any(
        ev["event"] == "interrupted" for ev in events[last_begin:]
    )
    complete = next(
        (ev for ev in events[last_begin:] if ev["event"] == "complete"), None
    )
    unique = begin.get("unique", 0)
    done_total = begin.get("cached", 0) + len(done_after)
    # Integrity tallies span the whole file, like failures: a divergence
    # before a resume still violated the contract.
    divergences = sum(1 for ev in events if ev["event"] == "divergence")
    return {
        "runs": sum(1 for ev in events if ev["event"] == "begin"),
        "unique": unique,
        "cached": begin.get("cached", 0),
        "done": done_total,
        "remaining": max(0, unique - done_total),
        "failed_attempts": len(failed_attempts),
        "failed_specs": len({ev["fp"] for ev in failed_attempts}),
        "pool_failures": pool_failures,
        "interrupted": interrupted,
        "complete": complete is not None,
        "permanent_failures": complete.get("failed", 0) if complete else 0,
        "divergences": divergences,
        "updated": max(ev.get("t", 0.0) for ev in events),
    }


def protected_fingerprints(store_root: Optional[Path]) -> frozenset:
    """Fingerprints an *in-flight* campaign journal still depends on.

    A journal that has no ``complete`` event for its latest run is a
    resumable campaign: every fingerprint it has recorded as ``done`` is
    checkpointed progress living in the result store, and LRU pruning
    must not evict it (doing so would silently convert the checkpoint
    back into pending simulation on resume).  Completed campaigns
    release their entries to normal LRU policy.
    """
    if store_root is None:
        return frozenset()
    jdir = journal_dir(Path(store_root))
    if not jdir.is_dir():
        return frozenset()
    protected = set()
    for path in jdir.glob("*.jsonl"):
        events = read_journal(path)
        summary = summarize_events(events)
        if summary is None or summary["complete"]:
            continue
        protected.update(
            ev["fp"] for ev in events if ev["event"] == "done"
        )
    return frozenset(protected)


def journal_status(store_root: Optional[Path]) -> List[Dict]:
    """Summaries of every journal under ``store_root`` (newest first)."""
    if store_root is None:
        return []
    jdir = journal_dir(store_root)
    if not jdir.is_dir():
        return []
    summaries = []
    for path in sorted(jdir.glob("*.jsonl")):
        summary = summarize_events(read_journal(path))
        if summary is None:
            continue
        summary["campaign"] = path.stem
        summary["path"] = str(path)
        summaries.append(summary)
    summaries.sort(key=lambda s: s["updated"], reverse=True)
    return summaries
