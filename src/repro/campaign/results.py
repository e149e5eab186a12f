"""Result store: in-memory memo plus the optional on-disk cache.

Results are keyed by the :class:`~repro.campaign.spec.RunSpec`
fingerprint, which already folds in the database fingerprint and a
result-format version — a hit can therefore be trusted without
re-checking inputs.  The in-memory memo makes repeated plans within one
process (``run_all`` after a single experiment, benchmark rounds, test
fixtures) free; setting ``REPRO_RESULT_CACHE`` to a directory extends
that across processes via one JSON file per result.

JSON keeps the store transparent and diff-able; Python's ``repr``-based
float serialisation round-trips exactly, so a cache hit is bit-identical
to the simulation that produced it (covered by the differential tests).

The on-disk store is garbage-collected: ``REPRO_RESULT_CACHE_MAX_MB``
caps its size, with least-recently-*used* files evicted first (disk hits
bump mtime, so a long campaign's working set survives while abandoned
fingerprints — old seeds, stale result versions — age out).  The cap is
enforced after every campaign (:meth:`repro.campaign.Campaign.run`) and
on demand via ``python -m repro cache --prune``.

The store is *attested* (:mod:`repro.campaign.attest`): every publish
writes a digest + provenance sidecar under ``<store>/attest/``, a write
to an occupied fingerprint byte-compares before touching anything
(identical bytes are the normal duplicate-execution merge; different
bytes are a divergence event — both versions quarantined under
``<store>/divergence/``, the spec failed loudly), and reads re-verify
the digest so valid-JSON bit rot is caught instead of served.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro import settings
from repro.campaign.attest import (
    ATTEST_DIRNAME,
    ResultDivergenceError,
    attestation_payload,
    attestation_stats,
    digest_text,
    divergence_stats,
    quarantine_attestation,
    read_attestation,
    record_divergence,
    write_attestation,
)
from repro.campaign.spec import RunSpec
from repro.config import CoreSize, Setting
from repro.power.energy import EnergyBreakdown
from repro.simulator.metrics import SettingChange, SimResult
from repro.util import faults
from repro.util.diskcache import (
    atomic_write_text,
    bump_mtime,
    dir_stats,
    prune_lru,
    quarantine_entry,
    read_text_guarded,
)

__all__ = [
    "cache_stats",
    "cached_result",
    "clear_result_memo",
    "drop_memo_entry",
    "memo_size",
    "memoize_result",
    "prune_result_cache",
    "quarantine_stats",
    "result_cache_dir",
    "result_from_json",
    "result_to_json",
    "store_result",
]

_MEMO: Dict[str, SimResult] = {}

_ENERGY_FIELDS = (
    "core_dynamic_j",
    "core_static_j",
    "memory_j",
    "uncore_j",
    "overhead_j",
)


def result_to_json(result: SimResult) -> str:
    """Serialise a :class:`SimResult` (history included when collected)."""
    history = None
    if result.history is not None:
        history = [
            [
                ch.time_s,
                ch.core_id,
                ch.setting.core.name,
                ch.setting.f_ghz,
                ch.setting.ways,
            ]
            for ch in result.history
        ]
    return json.dumps(
        {
            "rm_name": result.rm_name,
            "apps": list(result.apps),
            "per_core_energy": [
                [getattr(e, f) for f in _ENERGY_FIELDS]
                for e in result.per_core_energy
            ],
            "uncore_j": result.uncore_j,
            "t_end_s": result.t_end_s,
            "horizon_instructions": result.horizon_instructions,
            "intervals_completed": result.intervals_completed,
            "qos_checks": result.qos_checks,
            "violations": list(result.violations),
            "rm_invocations": result.rm_invocations,
            "rm_instructions": result.rm_instructions,
            "history": history,
        }
    )


def result_from_json(text: str) -> SimResult:
    data = json.loads(text)
    history = None
    if data["history"] is not None:
        history = [
            SettingChange(
                time_s=t,
                core_id=core_id,
                setting=Setting(core=CoreSize[size], f_ghz=f, ways=ways),
            )
            for t, core_id, size, f, ways in data["history"]
        ]
    return SimResult(
        rm_name=data["rm_name"],
        apps=tuple(data["apps"]),
        per_core_energy=[
            EnergyBreakdown(**dict(zip(_ENERGY_FIELDS, vals)))
            for vals in data["per_core_energy"]
        ],
        uncore_j=data["uncore_j"],
        t_end_s=data["t_end_s"],
        horizon_instructions=data["horizon_instructions"],
        intervals_completed=data["intervals_completed"],
        qos_checks=data["qos_checks"],
        violations=list(data["violations"]),
        rm_invocations=data["rm_invocations"],
        rm_instructions=data["rm_instructions"],
        history=history,
    )


def result_cache_dir() -> Optional[Path]:
    """On-disk cache root, or None when ``REPRO_RESULT_CACHE`` is unset."""
    return settings.current().result_cache


def cached_result(fingerprint: str) -> Optional[SimResult]:
    """Memo hit, then disk hit (promoted to the memo), else None."""
    root = result_cache_dir()
    hit = _MEMO.get(fingerprint)
    if hit is not None:
        if root is not None:
            # Memo hits must keep the on-disk twin LRU-hot too, or a
            # capped store evicts results a long-lived process is
            # actively using through the memo.
            bump_mtime(root / f"{fingerprint}.json")
        return hit
    if root is None:
        return None
    file = root / f"{fingerprint}.json"
    text = read_text_guarded(file)
    if text is None:
        return None
    if settings.current().verify_reads:
        attestation = read_attestation(root, fingerprint)
        if attestation is not None and attestation.get("digest") != digest_text(
            text
        ):
            # The bytes no longer match what their own attestation says
            # was published — bit rot (or in-place tampering) that may
            # still parse as perfectly valid JSON.  Quarantine entry and
            # sidecar together and let the caller resimulate.
            quarantine_entry(file, root)
            quarantine_attestation(root, fingerprint)
            return None
    try:
        result = result_from_json(text)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError):
        # A truncated/corrupt entry (kill mid-write on an old code
        # revision, disk damage, a fault-plan injection): quarantine it —
        # visible via ``repro cache`` — instead of silently re-parsing a
        # broken file on every probe, and let the caller resimulate.
        quarantine_entry(file, root)
        quarantine_attestation(root, fingerprint)
        return None
    # LRU bump: eviction is by mtime, so a hit marks the file used.
    bump_mtime(file)
    _MEMO[fingerprint] = result
    return result


def memoize_result(fingerprint: str, result: SimResult) -> None:
    """Record a result in the in-memory memo only (no disk write) —
    for results a pool worker already persisted."""
    _MEMO[fingerprint] = result


def store_result(
    fingerprint: str, result: SimResult, spec: Optional[RunSpec] = None
) -> None:
    """Record a result in the memo and (attested, atomically) on disk.

    An occupied on-disk slot is byte-compared first — never blindly
    overwritten.  Identical bytes are the normal duplicate-execution
    merge (the slot just gets its LRU bump and, if missing, a sidecar).
    Different bytes are a *divergence event*: both versions are
    quarantined with their provenance under ``<store>/divergence/``,
    the slot is emptied (neither version can be trusted) and
    :class:`~repro.campaign.attest.ResultDivergenceError` is raised so
    the spec fails loudly.  One exception: an occupant that fails its
    *own* attestation digest is rotten, not a second live computation —
    it is quarantined as corruption and the incoming bytes publish.

    ``spec`` (when the caller has it) is embedded in the attestation
    sidecar so ``repro verify`` can later re-execute the entry.
    """
    text = result_to_json(result)
    root = result_cache_dir()
    if root is not None:
        path = root / f"{fingerprint}.json"
        existing = read_text_guarded(path)
        if existing is not None and existing != text:
            attestation = read_attestation(root, fingerprint)
            if attestation is not None and attestation.get(
                "digest"
            ) != digest_text(existing):
                # Rot superseded: the occupant cannot even vouch for
                # itself, so this is corruption evidence, not a rival
                # computation.
                quarantine_entry(path, root)
                quarantine_attestation(root, fingerprint)
            else:
                record_divergence(
                    root,
                    fingerprint,
                    versions=[
                        ("stored", existing, attestation),
                        (
                            "incoming",
                            text,
                            attestation_payload(fingerprint, text, spec=spec),
                        ),
                    ],
                    reason="duplicate execution produced different bytes",
                )
                for stale in (path, root / ATTEST_DIRNAME / f"{fingerprint}.json"):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
                _MEMO.pop(fingerprint, None)
                raise ResultDivergenceError(
                    fingerprint, digest_text(existing), digest_text(text)
                )
        _MEMO[fingerprint] = result
        if existing == text:
            # Duplicate execution converged, as the contract demands:
            # the merge is a no-op plus an LRU bump.  Backfill the
            # sidecar for entries published by pre-attestation code.
            bump_mtime(path)
            if read_attestation(root, fingerprint) is None:
                write_attestation(root, fingerprint, text, spec=spec)
            return
        # Sidecar first, entry second: any visible entry already has its
        # digest on disk, so a reader can always verify what it just
        # read.
        write_attestation(root, fingerprint, text, spec=spec)
        if atomic_write_text(path, text):
            faults.on_store_write("results", fingerprint, path)
        return
    _MEMO[fingerprint] = result


def clear_result_memo() -> None:
    """Drop the in-memory memo (tests/benchmarks; disk is untouched)."""
    _MEMO.clear()


def drop_memo_entry(fingerprint: str) -> None:
    """Forget one memoised result (a retired/contested entry must not
    keep answering probes from memory)."""
    _MEMO.pop(fingerprint, None)


def memo_size() -> int:
    return len(_MEMO)


def cache_stats() -> Dict[str, float]:
    """On-disk store shape: entry count/size, quarantine tallies and
    attestation coverage.

    ``quarantined`` counts single-version corruption captures
    (``quarantine/``); ``divergence_events`` counts quarantined
    divergence evidence (``divergence/``) — deliberately separate
    tallies, because rot and contract violations have different causes
    and different remedies.
    """
    root = result_cache_dir()
    stats = dir_stats(root)
    stats["quarantined"] = quarantine_stats()["files"]
    attest = attestation_stats(root)
    stats["attested"] = attest["attested"]
    stats["attestation_coverage"] = attest["coverage"]
    stats["divergence_events"] = divergence_stats(root)["events"]
    return stats


def quarantine_stats() -> Dict[str, float]:
    """Shape of the corrupt-entry quarantine (``<store>/quarantine/``).

    Counts damaged *entries* only: the ``.attest.json`` sidecars that
    ride along as evidence of what the bytes should have been are
    excluded, so one quarantined result always counts as one file.
    """
    root = result_cache_dir()
    stats = dir_stats(
        root / "quarantine" if root is not None else None, "*", protect=False
    )
    if root is None:
        return stats
    qdir = root / "quarantine"
    if not qdir.is_dir():
        return stats
    for file in qdir.glob("*.attest.json*"):
        try:
            if not file.is_file():
                continue
            size = file.stat().st_size
        except OSError:
            continue
        stats["files"] -= 1
        stats["bytes"] -= size
    stats["mb"] = stats["bytes"] / (1024 * 1024)
    return stats


def prune_result_cache(max_mb: Optional[float] = None) -> Dict[str, float]:
    """Evict least-recently-used results until the store fits ``max_mb``.

    ``max_mb`` defaults to ``REPRO_RESULT_CACHE_MAX_MB``; with neither
    set — or a non-positive cap, which means *unbounded* exactly as the
    knob documents — or no cache directory, this is a no-op.
    Eviction is by ascending mtime — :func:`cached_result` bumps mtime
    on every hit (memo or disk), making this LRU rather than FIFO.
    Entries an in-flight (resumable, not-yet-complete) campaign journal
    has recorded as done are exempt: evicting them would silently turn
    checkpointed progress back into pending simulation on resume.
    Divergence evidence (``divergence/``) is never evicted — it lives
    outside the pruned namespace by construction — and an evicted
    entry's attestation sidecar goes with it (orphan sidecars would
    inflate coverage and leak disk).  Returns eviction accounting
    (files/bytes removed/kept, plus orphan sidecars cleaned).
    """
    from repro.campaign.journal import protected_fingerprints

    if max_mb is None:
        max_mb = settings.current().result_cache_max_mb
    root = result_cache_dir()
    outcome = prune_lru(
        root, max_mb, protected_stems=protected_fingerprints(root)
    )
    outcome["removed_sidecars"] = 0
    if root is not None:
        adir = root / ATTEST_DIRNAME
        if adir.is_dir():
            for sidecar in adir.glob("*.json"):
                if (root / sidecar.name).exists():
                    continue
                try:
                    sidecar.unlink()
                except OSError:
                    continue
                outcome["removed_sidecars"] += 1
    return outcome
