"""Shared in-process database cache with core-count rebinding.

Phase records do not depend on the core count (grids span the full
per-core setting space; the way budget only matters to the optimiser), so
one build per seed is re-bound to every requested system.  The first
request for a seed pays the build (or the load of the seed's one on-disk
``.npz``, which every core count shares — see
:mod:`repro.database.store`); any later core count — larger or smaller —
reuses those records.

This cache serves the *canonical* calibrated suite only (the suite
:class:`~repro.campaign.spec.RunSpec` fingerprints assert); custom suites
go through :func:`repro.database.builder.build_database` directly, which
keeps every content-addressed campaign result trustworthy.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import default_system
from repro.database.builder import SimDatabase, build_database
from repro.workloads.suite import spec_suite

__all__ = ["get_database", "clear_database_cache"]

_DB_CACHE: Dict[Tuple[int, int], SimDatabase] = {}


def get_database(n_cores: int, seed: int = 2020) -> SimDatabase:
    """Database for a core count (records shared across core counts).

    Any cached build with the same seed — regardless of the core count it
    was first requested for — donates its records; only the system binding
    changes.  Requesting 8 cores before 4 therefore builds exactly once.
    """
    key = (n_cores, seed)
    if key in _DB_CACHE:
        return _DB_CACHE[key]
    base = next(
        (db for (_n, s), db in _DB_CACHE.items() if s == seed), None
    )
    if base is not None:
        db = SimDatabase(
            system=default_system(n_cores), apps=base.apps, records=base.records
        )
    else:
        db = build_database(spec_suite(), default_system(n_cores), seed=seed)
    _DB_CACHE[key] = db
    return db


def clear_database_cache() -> None:
    """Drop every cached binding (tests; the on-disk cache is untouched)."""
    _DB_CACHE.clear()
