"""Phase-level memoization of local-optimisation results.

A :class:`~repro.core.local_opt.LocalOptResult` is a pure function of

    (past-interval statistics, ATD report, [next record for the oracle],
     performance model, energy model, capabilities, QoS policy, system)

and the last five are fixed for a resource manager's lifetime.  Phases
recur across intervals (that is what a phase *is*), so the same
statistics reach :meth:`ResourceManager.observe` over and over — and the
whole grid pipeline can be skipped by keying results on the content of
the varying inputs.

The key is exact: :class:`~repro.database.records.IntervalCounters` is a
frozen dataclass of scalars (hashed directly), the ATD report contributes
a cached content hash of its arrays, and — only when the model declares
``uses_next_record`` (the Perfect oracle) — the next record's content
fingerprint.  Equal keys therefore imply bit-identical optimiser inputs,
which is what makes ``local_mode="memoized"`` differentially
bit-identical to ``"always_recompute"`` (settings, energies, histories
*and* operation accounting: a hit still charges the same
``local_evaluations`` as the run it replayed).

The memo is a plain LRU: bounded, per-manager (never shared across
systems/models/capabilities), with hit/miss/eviction counters that the
local-decision benchmarks report.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Hashable, Optional, Tuple

from repro.core.local_opt import LocalOptResult
from repro.core.perf_models import ModelInputs, PerformanceModel
from repro.core.qos import QoSPolicy
from repro.util import faults
from repro.util.diskcache import (
    atomic_write_text,
    bump_mtime,
    dir_stats,
    parse_max_mb,
    prune_lru,
    read_text_guarded,
)

__all__ = [
    "LocalOptMemo",
    "PersistentLocalMemo",
    "local_memo_dir",
    "local_memo_key",
    "local_memo_max_mb",
    "local_memo_scope",
    "local_memo_stats",
    "persistent_memo_for",
    "prune_local_memo",
]

#: Environment variable naming the on-disk local-memo directory.
LOCAL_MEMO_ENV = "REPRO_LOCAL_MEMO"

#: Environment variable capping the on-disk memo size in MiB (unset or
#: non-positive = unbounded).
LOCAL_MEMO_MAX_MB_ENV = "REPRO_LOCAL_MEMO_MAX_MB"

#: Default per-manager capacity; at ~1 KB per entry the memo stays small
#: while covering far more recurring (phase, setting) pairs than any
#: workload in the suite exhibits.
DEFAULT_CAPACITY = 1024


def local_memo_key(
    inputs: ModelInputs, perf_model: PerformanceModel, qos: QoSPolicy
) -> Hashable:
    """Exact content key for one local optimisation's varying inputs."""
    if getattr(perf_model, "uses_next_record", False):
        if inputs.next_record is None:
            next_fp: Optional[str] = None
        else:
            next_fp = inputs.next_record.fingerprint
    else:
        # Online models must not read the oracle record; excluding it
        # keeps recurring phases hitting even as the *next* phase varies.
        next_fp = None
    return (inputs.counters, inputs.atd.fingerprint, next_fp, qos.alpha)


def _key_digest(key: Hashable) -> Optional[str]:
    """Stable content hash of a :func:`local_memo_key` tuple.

    Folds every scalar through fixed-width little-endian doubles (exact —
    no decimal round trip), so equal digests imply bit-identical optimiser
    inputs.  Returns None for keys that do not have the canonical shape
    (ad-hoc keys used by tests stay in-memory only).
    """
    try:
        counters, atd_fp, next_fp, alpha = key
        s = counters.setting
        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<qdq", int(s.core), s.f_ghz, s.ways))
        h.update(
            struct.pack(
                "<10d",
                counters.n_instructions,
                counters.time_s,
                counters.t1_cycles,
                counters.mem_time_s,
                counters.misses_current,
                counters.lm_current,
                counters.llc_accesses,
                counters.core_dynamic_j,
                counters.core_static_j,
                alpha,
            )
        )
        h.update(atd_fp.encode())
        h.update(b"|")
        h.update((next_fp or "").encode())
    except (AttributeError, TypeError, ValueError, struct.error):
        return None
    return h.hexdigest()


def local_memo_scope(
    db_fingerprint: str, model_name: str, caps_label: str
) -> str:
    """Scope prefix isolating persistent entries by everything a key omits.

    A memo key covers only the *varying* inputs (counters, ATD content,
    oracle record, alpha); the fixed inputs — database content (which
    folds in the system configuration), performance model, capability set
    — plus the campaign's ``RESULT_VERSION`` (bumped on any semantic
    change) are folded here.  A change to any of them changes the scope,
    so stale on-disk entries are simply never addressed again and age out
    of the LRU cap — the result-store invalidation pattern.
    """
    from repro.campaign.spec import RESULT_VERSION

    h = hashlib.blake2b(digest_size=12)
    h.update(
        f"{RESULT_VERSION}|{db_fingerprint}|{model_name}|{caps_label}".encode()
    )
    return h.hexdigest()


def local_memo_dir() -> Optional[Path]:
    """On-disk memo root, or None when :data:`LOCAL_MEMO_ENV` is unset."""
    root = os.environ.get(LOCAL_MEMO_ENV)
    return Path(root) if root else None


def local_memo_max_mb() -> Optional[float]:
    """The configured size cap in MiB, or None when unbounded."""
    return parse_max_mb(LOCAL_MEMO_MAX_MB_ENV)


def local_memo_stats() -> Dict[str, float]:
    """On-disk memo shape: file count and total size in bytes/MiB."""
    return dir_stats(local_memo_dir())


def prune_local_memo(max_mb: Optional[float] = None) -> Dict[str, float]:
    """Evict least-recently-used memo entries down to the size cap.

    Same contract as the result store's prune: ``max_mb`` defaults to
    :data:`LOCAL_MEMO_MAX_MB_ENV`, hits bump mtime, and with no cap or no
    directory this only reports stats.
    """
    if max_mb is None:
        max_mb = local_memo_max_mb()
    return prune_lru(local_memo_dir(), max_mb)


class PersistentLocalMemo:
    """Disk tier of the local-decision memo (the result-store pattern).

    One JSON file per entry under the :data:`LOCAL_MEMO_ENV` directory,
    named ``<scope>-<key digest>.json`` — the scope isolates database
    content, model, capabilities and ``RESULT_VERSION``; the digest the
    exact varying inputs.  Floats serialise via ``repr`` and round-trip
    exactly, so a disk hit replays a bit-identical
    :class:`~repro.core.local_opt.LocalOptResult`.  Corrupt, truncated or
    foreign files read as misses (the caller recomputes — never crashes),
    and they are overwritten by the next store of that key.
    """

    def __init__(self, root: Path, scope: str):
        self.root = Path(root)
        self.scope = scope
        self.disk_hits = 0
        self.disk_misses = 0
        self.writes = 0

    def _path(self, digest: str) -> Path:
        return self.root / f"{self.scope}-{digest}.json"

    def get(self, key: Hashable) -> Optional[LocalOptResult]:
        digest = _key_digest(key)
        if digest is None:
            return None
        path = self._path(digest)
        text = read_text_guarded(path)
        if text is None:
            self.disk_misses += 1
            return None
        try:
            result = LocalOptResult.from_payload(json.loads(text))
        except (KeyError, TypeError, ValueError):
            self.disk_misses += 1
            return None
        bump_mtime(path)
        self.disk_hits += 1
        return result

    def put(self, key: Hashable, result: LocalOptResult) -> None:
        digest = _key_digest(key)
        if digest is None or not isinstance(result, LocalOptResult):
            return
        path = self._path(digest)
        if atomic_write_text(path, json.dumps(result.to_payload())):
            self.writes += 1
            faults.on_store_write("memo", f"{self.scope}-{digest}", path)


def persistent_memo_for(
    db, model_name: str, caps_label: str
) -> Optional[PersistentLocalMemo]:
    """The env-configured disk tier for one (database, manager) pairing.

    None when :data:`LOCAL_MEMO_ENV` is unset.  ``db`` is any object with
    a ``content_fingerprint`` (a :class:`~repro.database.builder.SimDatabase`).
    """
    root = local_memo_dir()
    if root is None:
        return None
    scope = local_memo_scope(db.content_fingerprint, model_name, caps_label)
    return PersistentLocalMemo(root, scope)


class LocalOptMemo:
    """Bounded LRU map from input keys to :class:`LocalOptResult`.

    Results are frozen and their arrays are never mutated by the
    managers, so returning the same object for recurring inputs is safe
    — and deliberate: the managers use result *identity* to prove a
    core's curve is unchanged and skip the global recombine as well.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, LocalOptResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.seeds = 0
        #: Optional :class:`PersistentLocalMemo` second tier.
        self.store: Optional[PersistentLocalMemo] = None

    def __len__(self) -> int:
        return len(self._entries)

    def attach_store(self, store: Optional[PersistentLocalMemo]) -> None:
        """Back this memo with a disk tier (None detaches).

        In-memory misses fall through to the store (a hit is promoted and
        counted as a memo hit — it spares the same grid pipeline), and
        every result stored here is written through, so the *next*
        process starts warm.
        """
        self.store = store

    def _lookup(self, key: Hashable) -> Optional[LocalOptResult]:
        """Two-tier probe: in-memory entry, else disk (promoted on hit).

        Counter-free — :meth:`get` and :meth:`peek` share it and differ
        only in their accounting.
        """
        entry = self._entries.get(key)
        if entry is None and self.store is not None:
            entry = self.store.get(key)
            if entry is not None:
                self._insert(key, entry)
        return entry

    def get(self, key: Hashable) -> Optional[LocalOptResult]:
        entry = self._lookup(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: Hashable) -> Optional[LocalOptResult]:
        """Non-counting probe (speculative wave lookups).

        Consults both tiers but touches neither the hit/miss counters nor
        the in-memory recency order, so speculation cannot skew the
        hit-rate the benchmarks gate on; a disk hit is still promoted (the
        read was paid — the boundary's real ``get`` should be free).
        """
        return self._lookup(key)

    def _insert(self, key: Hashable, result: LocalOptResult) -> None:
        entries = self._entries
        entries[key] = result
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def put(self, key: Hashable, result: LocalOptResult) -> None:
        self._insert(key, result)
        if self.store is not None:
            self.store.put(key, result)

    def seed(self, key: Hashable, result: LocalOptResult) -> None:
        """Insert a speculatively batched result (write-through, counted
        separately from demand ``put``s so hit/miss stats stay a property
        of the observe stream alone)."""
        self.seeds += 1
        self._insert(key, result)
        if self.store is not None:
            self.store.put(key, result)

    def clear(self) -> None:
        """Drop entries; cumulative counters survive (bench reporting)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters, keeping entries.

        Benchmarks call this after priming so the reported hit rate
        covers only the steady-state window — comparable across runs
        with different observe counts.
        """
        self.hits = self.misses = self.evictions = self.seeds = 0
        if self.store is not None:
            self.store.disk_hits = self.store.disk_misses = 0
            self.store.writes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Tuple[int, int, int]:
        return self.hits, self.misses, self.evictions
