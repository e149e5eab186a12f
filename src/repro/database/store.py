"""Disk cache for simulation databases.

Database builds are deterministic, and a cold build of the full
27-application suite takes under a second on the compiled stream kernels.
Each seed's records are cached as one ``<key>.cols.npz`` under
``.cache/repro-db`` (or ``REPRO_CACHE_DIR``), keyed on the *content* of
the suite specs, the seed and every system field but ``n_cores``, which
no record reads: every core count of a seed loads the same file, and any
change to a phase parameter, a power constant or the seed produces a new
key.

The file holds one member per :class:`PhaseRecord` array field with one
row per record (the setting grid fixes each field's shape), one
``scalars`` member (a row of the scalar fields per record) and an
``index`` member, the JSON list of ``[app, phase]`` in record order.  A
load reads each column once and gives every record row views of it.
Files of the earlier layouts, each a plain ``<key>.npz`` (one member per
record, and one file per core count before that), are never read again;
``repro cache --prune`` deletes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
import zlib
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.config import SystemConfig
from repro.database.records import PhaseRecord
from repro.trace.spec import AppSpec
from repro.util.nativebuild import object_name

__all__ = [
    "cache_dir",
    "database_files",
    "database_fingerprint",
    "kernel_objects",
    "load_cached_database",
    "save_database_cache",
]

#: Bump whenever trace-generation or model semantics change, so stale
#: cached databases can never leak across code revisions.  The digests
#: in ``tests/test_database.py::TestContentPins`` fail, naming this
#: constant, when a record's content moves without a bump.
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


#: The name both earlier layouts gave a database file: a bare key.
_DEAD_DATABASE = re.compile(r"[0-9a-f]{32}\.npz")


def database_files() -> Tuple[List[Path], List[Path]]:
    """``(live, dead)`` database files in the cache root.

    Live files are today's ``<key>.cols.npz``.  A ``<key>.npz`` file
    (a bare 32-hex key) is dead: both earlier layouts used that name,
    and no code reads it.  Any other file is neither.
    """
    root = cache_dir()
    dead = [
        path
        for path in sorted(root.glob("*.npz"))
        if _DEAD_DATABASE.fullmatch(path.name)
    ]
    return sorted(root.glob("*.cols.npz")), dead


def kernel_objects() -> Tuple[List[Path], List[Path]]:
    """``(current, stale)`` compiled kernel objects under ``native/``.

    Each kernel module publishes ``<prefix>_<digest>.so``, the digest
    covering its source and flag sets; an object of a known prefix whose
    name today's source and flags would not produce is stale (an edited
    kernel leaves its old object behind).
    """
    from repro.cache import _native
    from repro.core import _native_opt

    native = cache_dir() / "native"
    current: List[Path] = []
    stale: List[Path] = []
    for prefix, source, flag_sets in (_native.BUILD, _native_opt.BUILD):
        name = object_name(prefix, source, flag_sets)
        for path in sorted(native.glob(f"{prefix}_*.so")):
            (current if path.name == name else stale).append(path)
    return current, stale


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

    # An unserialisable field raises: a ``repr`` fallback would key a
    # database on text that can hide content (NumPy elides long arrays).
    raw = json.loads(json.dumps(obj, default=default))
    return json.dumps(normalise(raw), sort_keys=True)


def _spec_json(spec: AppSpec) -> str:
    """:func:`_stable_json` of one app spec, kept on the (frozen) spec.

    The canonical suite is built once per process, so its specs are
    serialised once however many keys a command derives; a
    ``dataclasses.replace``d spec is a new object with no text of its
    own, so a changed suite never reuses a stale one.
    """
    text = spec.__dict__.get("_stable_json")
    if text is None:
        text = _stable_json(spec)
        object.__setattr__(spec, "_stable_json", text)
    return text


def database_fingerprint(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
) -> str:
    """Content hash identifying one database build."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"v{CODE_VERSION}".encode())
    h.update(_stable_json(system).encode())
    h.update(str(seed).encode())
    for spec in suite:
        h.update(_spec_json(spec).encode())
    return h.hexdigest()


def _cache_file(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
) -> Path:
    """The seed's ``<key>.cols.npz``: keyed like :func:`database_fingerprint`
    on the system's field dict (which is how that serialises the system)
    less ``n_cores``, so every core count of a seed shares one file."""
    fields = asdict(system)
    del fields["n_cores"]
    return cache_dir() / f"{database_fingerprint(suite, fields, seed)}.cols.npz"


def save_database_cache(db, suite: Sequence[AppSpec], seed: int) -> Optional[Path]:
    """Persist all records of a database; returns the file path or None.

    Writes a per-process tmp file (concurrent writers, e.g. campaign pool
    workers racing a cold cache, must not interleave on one inode) and
    renames it over the file; a failed write removes its tmp file.
    """
    file = _cache_file(suite, db.system, seed)
    records = [rec for app_records in db.records.values() for rec in app_records]
    payload = {
        name: np.stack([getattr(rec, name) for rec in records])
        for name in _ARRAY_FIELDS
    }
    payload["scalars"] = np.array(
        [[getattr(rec, s) for s in _SCALAR_FIELDS] for rec in records], dtype=float
    )
    payload["index"] = np.array(json.dumps([[rec.app, rec.phase] for rec in records]))
    # Not ``*.npz``: an unfinished write is never counted as a database.
    tmp = file.with_name(f"{file.name}.tmp{os.getpid()}")
    try:
        file.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
        os.replace(tmp, file)
    except OSError:
        tmp.unlink(missing_ok=True)
        return None
    return file


def load_cached_database(
    suite: Sequence[AppSpec], system: SystemConfig, seed: int
):
    """Load the seed's cached records bound to ``system`` if present;
    None on any miss or error.  A damaged file (empty, truncated, a
    corrupt member, columns whose row counts disagree with the index)
    is a miss: the caller rebuilds the records and replaces the file."""
    from repro.database.builder import SimDatabase

    file = _cache_file(suite, system, seed)
    if not file.exists():
        return None
    try:
        with np.load(file, allow_pickle=False) as data:
            index = json.loads(str(data["index"]))
            scalars = data["scalars"]
            columns = {name: data[name] for name in _ARRAY_FIELDS}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    n = len(index)
    if scalars.shape != (n, len(_SCALAR_FIELDS)) or any(
        col.shape[:1] != (n,) for col in columns.values()
    ):
        return None
    apps = {spec.name: spec for spec in suite}
    if {app for app, _phase in index} != set(apps):
        return None
    db = SimDatabase(system=system, apps=apps)
    for row, ((app, phase), values) in enumerate(zip(index, scalars.tolist())):
        record = PhaseRecord(
            app=app,
            phase=phase,
            **{name: col[row] for name, col in columns.items()},
            **dict(zip(_SCALAR_FIELDS, values)),
        )
        db.records.setdefault(app, []).append(record)
    return db
