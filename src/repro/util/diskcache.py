"""Shared plumbing for on-disk stores.

The campaign result store (:mod:`repro.campaign.results`) keeps one JSON
file per content-fingerprinted entry, publishes atomically through a
per-process tmp file, and bumps mtime on every hit so a size cap evicts
least-recently-*used* files first.  This module holds those
store-agnostic pieces, which the journal and the attestation sidecars
reuse for their own crash-safe writes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "PROTECTED_DIRS",
    "append_line",
    "atomic_write_text",
    "bump_mtime",
    "dir_stats",
    "prune_lru",
    "quarantine_entry",
    "read_text_guarded",
]

#: Store sub-directories that hold bookkeeping, not cache entries: the
#: campaign run journal, quarantined corrupt entries, attestation
#: sidecars and quarantined divergence evidence.  LRU pruning and size
#: accounting must never touch them — divergence evidence in particular
#: is post-mortem state that no cache policy may evict.
PROTECTED_DIRS = ("journal", "quarantine", "attest", "divergence")


def atomic_write_text(path: Path, text: str) -> bool:
    """Best-effort atomic publish: write a per-pid tmp, then rename.

    Concurrent writers of one entry (e.g. two CI jobs sharing a cache)
    must never interleave on an inode one of them then publishes, and a
    reader must only ever see a complete previous or complete new entry —
    never a truncated in-progress write.
    Returns False (without raising) when the filesystem refuses.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        return False
    return True


def append_line(path: Path, line: str) -> bool:
    """Append one line (journal records survive a ``kill -9``).

    Opens, appends and closes (so flushes) per call: the caller never
    holds a file descriptor that forked pool workers could inherit, and
    a kill at any point leaves at worst one partial *trailing* line,
    which readers skip.  No fsync: the page cache keeps a flushed line
    through a process kill, and an OS crash may lose it just as it may
    lose the result store's entries, which are not fsynced either.
    Returns False (without raising) when the filesystem refuses.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(line if line.endswith("\n") else line + "\n")
    except OSError:
        return False
    return True


def quarantine_entry(path: Path, root: Path) -> Optional[Path]:
    """Move a corrupt entry into ``<root>/quarantine/`` (never raises).

    Quarantining instead of deleting keeps the evidence for post-mortems
    while guaranteeing the store never re-parses (or silently re-misses
    on) the same damaged file.  Name collisions get a pid suffix; any
    filesystem refusal returns None and leaves the entry in place.
    """
    qdir = root / "quarantine"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 0
        while target.exists():
            # Same entry quarantined repeatedly (each resimulation can be
            # damaged again): every capture must survive as evidence.
            n += 1
            target = qdir / f"{path.name}.{os.getpid()}.{n}"
        os.replace(path, target)
    except OSError:
        return None
    return target


def read_text_guarded(path: Path) -> Optional[str]:
    """File contents, or None when missing/unreadable (never raises)."""
    try:
        return path.read_text()
    except OSError:
        return None


def bump_mtime(path: Path) -> None:
    """Mark an entry used (LRU eviction is by mtime); never raises."""
    try:
        os.utime(path)
    except OSError:
        pass


def dir_stats(
    root: Optional[Path], pattern: str = "*.json", protect: bool = True
) -> Dict[str, float]:
    """Store shape: file count and total size in bytes/MiB.

    ``protect=False`` lifts the journal/quarantine exclusion — for
    counting those bookkeeping directories themselves.
    """
    files = 0
    size = 0
    if root is not None and root.is_dir():
        for file in root.glob(pattern):
            if protect and _is_protected(file):
                continue
            if not protect:
                try:
                    if not file.is_file():
                        continue
                except OSError:
                    continue
            try:
                # A concurrent pruner/writer may remove the file between
                # glob and stat (CI shares stores via actions/cache);
                # vanished entries are simply not counted.
                stat = file.stat()
            except OSError:
                continue
            size += stat.st_size
            files += 1
    return {"files": files, "bytes": size, "mb": size / (1024 * 1024)}


def _is_protected(file: Path) -> bool:
    """True for journal/quarantine bookkeeping (and anything not a file)."""
    if any(part in PROTECTED_DIRS for part in file.parts):
        return True
    try:
        return not file.is_file()
    except OSError:
        return True


def prune_lru(
    root: Optional[Path],
    max_mb: Optional[float],
    pattern: str = "*.json",
    protected_stems: Optional[frozenset] = None,
) -> Dict[str, float]:
    """Evict oldest-mtime entries until the store fits ``max_mb``.

    ``max_mb`` of None (or non-positive, which the size-cap knob
    documents as *unbounded*) or a missing root makes this a stats-only
    no-op.
    ``protected_stems`` names entries (by file stem, i.e. fingerprint)
    that must survive eviction regardless of age — the result store
    passes the fingerprints an in-flight campaign journal still depends
    on, so pruning mid-campaign can never erase resume progress.  Such
    entries still count toward the size total (they really occupy the
    disk), they are just never the ones removed.
    Returns eviction accounting (files/bytes removed, files/bytes kept).
    """
    if max_mb is not None and max_mb <= 0:
        max_mb = None
    removed = {"removed_files": 0, "removed_bytes": 0}
    if root is None or max_mb is None or not root.is_dir():
        stats = dir_stats(root, pattern)
        return {**removed, "kept_files": stats["files"], "kept_bytes": stats["bytes"]}
    protected_stems = protected_stems or frozenset()
    entries = []
    total = 0
    for file in root.glob(pattern):
        if _is_protected(file):
            # Journal and quarantine bookkeeping is not LRU-evictable
            # cache content — pruning it would erase resume state or
            # corruption evidence.
            continue
        if file.stem in protected_stems:
            # Referenced by an in-flight campaign journal: evicting it
            # would silently convert checkpointed progress back into
            # pending simulation on resume.
            try:
                total += file.stat().st_size
            except OSError:
                pass
            continue
        try:
            stat = file.stat()
        except OSError:
            # Concurrent writers/pruners race us (shared CI stores);
            # a vanished file is already "evicted".
            continue
        entries.append((stat.st_mtime, stat.st_size, file))
        total += stat.st_size
    entries.sort()
    budget = max_mb * 1024 * 1024
    for _mtime, size, file in entries:
        if total <= budget:
            break
        try:
            file.unlink()
        except FileNotFoundError:
            # Someone else unlinked it first; its bytes are gone either
            # way, so count it against the total but not as our eviction.
            total -= size
            continue
        except OSError:
            continue
        total -= size
        removed["removed_files"] += 1
        removed["removed_bytes"] += size
    kept = len(entries) - removed["removed_files"]
    return {**removed, "kept_files": kept, "kept_bytes": total}
