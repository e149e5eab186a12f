"""Disk cache for simulation databases.

Database builds are deterministic but take tens of seconds for the full
27-application suite, so records are cached as a single ``.npz`` per
(suite, system, seed) fingerprint under ``.cache/repro-db`` (or
``REPRO_CACHE_DIR``).  The
fingerprint hashes the *content* of the specs and configuration — any change
to a phase parameter, a power constant or the seed produces a new key.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import settings
from repro.config import SystemConfig
from repro.database.records import PhaseRecord
from repro.trace.spec import AppSpec

__all__ = [
    "cache_dir",
    "database_fingerprint",
    "load_cached_database",
    "save_database_cache",
]

#: Bump whenever trace-generation or model semantics change, so stale
#: cached databases can never leak across code revisions.
CODE_VERSION = 4

#: Array fields of PhaseRecord, in serialisation order.
_ARRAY_FIELDS = (
    "ipc_by_size",
    "dep_stall_cycles",
    "cache_stall_curve",
    "miss_curve",
    "lm_true",
    "atd_miss_curve",
    "lm_heur",
    "time_grid",
    "mem_time_grid",
    "core_dyn_grid",
    "core_static_power_grid",
    "mem_energy_curve",
    "frequencies_ghz",
)
_SCALAR_FIELDS = ("n_instructions", "branch_cycles", "llc_accesses")


def cache_dir() -> Path:
    """Cache root (override with ``REPRO_CACHE_DIR``)."""
    root = settings.current().cache_dir
    if root is not None:
        return root
    return Path(__file__).resolve().parents[3] / ".cache" / "repro-db"


def _stable_json(obj) -> str:
    """Deterministic JSON for fingerprinting nested dataclasses."""

    def default(o):
        if is_dataclass(o) and not isinstance(o, type):
            return asdict(o)
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if hasattr(o, "name") and hasattr(o, "value"):  # IntEnum keys/values
            return f"{type(o).__name__}.{o.name}"
        if isinstance(o, tuple):
            return list(o)
        raise TypeError(f"cannot fingerprint {type(o)!r}")

    def normalise(o):
        if isinstance(o, dict):
            return {str(k): normalise(v) for k, v in sorted(o.items(), key=lambda kv: str(kv[0]))}
        if isinstance(o, (list, tuple)):
            return [normalise(v) for v in o]
        return o

    try:
        raw = json.loads(json.dumps(obj, default=default))
    except TypeError:
        raw = repr(obj)
    return json.dumps(normalise(raw), sort_keys=True)


def database_fingerprint(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
) -> str:
    """Content hash identifying one database build."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"v{CODE_VERSION}".encode())
    h.update(_stable_json(system).encode())
    h.update(str(seed).encode())
    for spec in suite:
        h.update(_stable_json(spec).encode())
    return h.hexdigest()


def save_database_cache(db, suite: Sequence[AppSpec], seed: int) -> Optional[Path]:
    """Persist all records of a database; returns the file path or None."""
    path = cache_dir()
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    key = database_fingerprint(suite, db.system, seed)
    file = path / f"{key}.npz"
    payload = {}
    meta = {}
    for app, records in db.records.items():
        meta[app] = len(records)
        for idx, rec in enumerate(records):
            prefix = f"{app}/{idx}/"
            for fname in _ARRAY_FIELDS:
                payload[prefix + fname] = getattr(rec, fname)
            payload[prefix + "scalars"] = np.array(
                [getattr(rec, s) for s in _SCALAR_FIELDS], dtype=float
            )
            payload[prefix + "phase"] = np.array(rec.phase)
    payload["__meta__"] = np.array(json.dumps(meta))
    # Per-process tmp name: concurrent writers (e.g. campaign pool
    # workers racing a cold cache) must not interleave on one inode.
    tmp = file.with_suffix(f".tmp{os.getpid()}.npz")
    try:
        np.savez_compressed(tmp, **payload)
        os.replace(tmp, file)
    except OSError:
        return None
    return file


def load_cached_database(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
):
    """Load a cached database if present; None on any miss or error."""
    from repro.database.builder import SimDatabase

    key = database_fingerprint(suite, system, seed)
    file = cache_dir() / f"{key}.npz"
    if not file.exists():
        return None
    try:
        with np.load(file, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
            apps = {spec.name: spec for spec in suite}
            if set(meta) != set(apps):
                return None
            db = SimDatabase(system=system, apps=apps)
            for app, count in meta.items():
                records = []
                for idx in range(count):
                    prefix = f"{app}/{idx}/"
                    scalars = data[prefix + "scalars"]
                    kwargs = {
                        fname: data[prefix + fname] for fname in _ARRAY_FIELDS
                    }
                    kwargs.update(
                        dict(zip(_SCALAR_FIELDS, (float(x) for x in scalars)))
                    )
                    records.append(
                        PhaseRecord(
                            app=app, phase=str(data[prefix + "phase"]), **kwargs
                        )
                    )
                db.records[app] = records
            return db
    except (OSError, KeyError, ValueError, json.JSONDecodeError):
        return None
