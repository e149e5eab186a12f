"""Execution settings: every ``REPRO_*`` knob, declared and validated once.

Results depend only on the fingerprinted :class:`~repro.campaign.spec.RunSpec`;
:class:`Settings` holds everything else — stores, worker counts, event
loop, compiled kernels, the fault harness — one field per knob, each
declaring its environment variable, default and parser.  No knob changes
a result byte.

Resolution is per process: CLI flags (applied with :func:`override`),
then the environment, then the default.  The entry points — the CLI
and ``Campaign.run`` — call :func:`resolve`, which parses every knob at
once, so a malformed value raises a ``ValueError`` naming its variable
before anything simulates; everything else reads :func:`current`.
Forked pool workers inherit the parent's settings.  Booleans accept
``1/true/yes/on`` and ``0/false/no/off`` or empty, in any case; for
every other knob an empty value means unset.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = [
    "ENV",
    "EXEMPT",
    "Settings",
    "WAVE_MODES",
    "current",
    "install",
    "override",
    "parse_bool",
    "reset",
    "resolve",
]

#: Simulator event-loop modes: ``scalar`` is the differential oracle,
#: ``step`` the wave loop, the fast path; results are bit-identical.
WAVE_MODES = ("scalar", "step")

#: ``REPRO_*`` names used in this repository that are not program knobs.
EXEMPT = {"REPRO_BENCH_NO_PRIME": "benchmarks/conftest.py: skip the prime"}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off", "")


def parse_bool(raw: Any) -> bool:
    """The one boolean parser every boolean knob shares."""
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError("must be a boolean (1/true/yes/on or 0/false/no/off)")


def _number(kind: type) -> Callable[[Any], Any]:
    """Parse an int or float."""

    def parse(raw: Any):
        try:
            return kind(raw)
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"must be {what}") from None

    return parse


def _positive_or_none(raw: Any) -> Optional[float]:
    value = _number(float)(raw)
    return value if value > 0 else None


def _choice(options) -> Callable[[Any], str]:
    def parse(raw: Any) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw

    return parse


def _fault_plan(raw: Any) -> str:
    from repro.util.faults import parse_plan

    parse_plan(raw)
    return raw


def _knob(env: str, default: Any, parse: Callable[[Any], Any]):
    return field(default=default, metadata={"env": env, "parse": parse})


@dataclass(frozen=True)
class Settings:
    """Every execution knob of this process, parsed and validated.

    The README's Settings table documents each field's effect.
    """

    result_cache: Optional[Path] = _knob("REPRO_RESULT_CACHE", None, Path)
    result_cache_max_mb: Optional[float] = _knob(
        "REPRO_RESULT_CACHE_MAX_MB", None, _positive_or_none
    )
    cache_dir: Optional[Path] = _knob("REPRO_CACHE_DIR", None, Path)
    campaign_workers: Optional[int] = _knob(
        "REPRO_CAMPAIGN_WORKERS", None, _number(int)
    )
    build_workers: Optional[int] = _knob(
        "REPRO_BUILD_WORKERS", None, _number(int)
    )
    spec_timeout: Optional[float] = _knob(
        "REPRO_SPEC_TIMEOUT", None, _positive_or_none
    )
    wave: str = _knob("REPRO_SIM_WAVE", "step", _choice(WAVE_MODES))
    no_native: bool = _knob("REPRO_NO_NATIVE", False, parse_bool)
    fault_plan: Optional[str] = _knob("REPRO_FAULT_PLAN", None, _fault_plan)
    fault_ledger: Optional[Path] = _knob("REPRO_FAULT_LEDGER", None, Path)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            env = f.metadata["env"]
            try:
                value = f.metadata["parse"](value)
            except ValueError as exc:
                msg = str(exc)
                if not msg.startswith(env):
                    msg = f"{env} {msg}, got {value!r}"
                raise ValueError(msg) from None
            object.__setattr__(self, f.name, value)


#: Field name -> environment variable, for messages and exports.
ENV: Dict[str, str] = {f.name: f.metadata["env"] for f in fields(Settings)}

_lock = threading.RLock()
_overrides: Dict[str, Any] = {}
_current: Optional[Settings] = None


def _from_env(overrides: Dict[str, Any]) -> Settings:
    raw: Dict[str, Any] = {}
    for f in fields(Settings):
        value = os.environ.get(f.metadata["env"])
        # Empty means unset, except for booleans (where it means false).
        if value or (value == "" and f.metadata["parse"] is parse_bool):
            raw[f.name] = value
    raw.update(overrides)
    return Settings(**raw)


def current() -> Settings:
    """This process's settings (resolved on first use)."""
    knobs = _current
    return knobs if knobs is not None else resolve()


def resolve() -> Settings:
    """Re-read the environment under this process's overrides.

    Every knob is parsed and validated here, so entry points call this
    before any work starts.
    """
    global _current
    with _lock:
        _current = _from_env(_overrides)
        return _current


def install(**changes: Any) -> Settings:
    """Change settings for the rest of this process.

    The changes survive later :func:`resolve` calls, the way an
    exported environment variable would.
    """
    global _current
    with _lock:
        updated = replace(current(), **changes)
        _overrides.update(changes)
        _current = updated
        return updated


@contextmanager
def override(**changes: Any) -> Iterator[Settings]:
    """Resolve with ``changes`` on top of the environment for a block;
    :func:`install` calls made inside it end with it."""
    global _current
    with _lock:
        saved = dict(_overrides)
        updated = _from_env({**saved, **changes})
        _overrides.update(changes)
        _current = updated
    try:
        yield updated
    finally:
        with _lock:
            _overrides.clear()
            _overrides.update(saved)
            _current = None


def reset(*names: str) -> None:
    """Forget overrides (all, or those of ``names``) and the resolution."""
    global _current
    with _lock:
        for name in names or list(_overrides):
            _overrides.pop(name, None)
        _current = None
