"""Deterministic fault injection for the campaign execution stack.

``REPRO_FAULT_PLAN`` names a schedule of faults that the executor and the
on-disk result store honour, making every recovery path *differentially*
testable: the fault-free serial run is the oracle, and any injected-fault
run must converge to bit-identical merged results.  Each kind stands for
a failure one host can suffer.  The plan is a semicolon-separated list
of directives::

    crash:spec=3                     # worker calls os._exit on the 3rd spec
    truncate:store=results,fp=       # truncate the next result-store write
    corrupt:store=results,fp=        # garbage the next result-store write
    interrupt:after=2                # KeyboardInterrupt after 2 completions

``spec=N`` addresses the N-th spec (1-based) of the campaign's
deterministic dispatch order; :func:`prepare_for_campaign` resolves it to
that spec's fingerprint before any worker starts, so every process agrees
on the target.  ``fp=<prefix>`` matches a spec fingerprint (crash) or a
store entry name (truncate / corrupt; the empty prefix matches every
entry).  ``times`` bounds how often a directive fires (default 1).

Fires are counted in a *ledger* directory (``REPRO_FAULT_LEDGER``) as one
marker file per fire, recorded durably **before** the fault executes —
that is what keeps a ``crash`` directive from killing every rebuilt pool
worker, and a resumed campaign, forever.  Each marker is claimed by
exclusive create, so pool workers racing for a directive's last fire
cannot both win it.  Without a ledger the counts are
per-process (fine for serial in-process tests); :func:`prepare_for_campaign`
creates a shared ledger automatically when a plan is active and installs
the resolved plan in :mod:`repro.settings`, so forked pool workers always
agree with the parent.

With ``REPRO_FAULT_PLAN`` unset every hook is a single attribute read —
the production fast path stays fault-free and overhead-free.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import settings

__all__ = [
    "FaultDirective",
    "FaultPlan",
    "active_plan",
    "on_completion",
    "on_spec",
    "on_store_write",
    "parse_plan",
    "prepare_for_campaign",
    "reset",
]

#: Exit code of an injected worker crash (recognisable in tests/CI).
CRASH_EXIT_CODE = 13

_STORE_KINDS = ("truncate", "corrupt")
_KINDS = ("crash",) + _STORE_KINDS + ("interrupt",)
_STORES = ("results",)


@dataclass
class FaultDirective:
    """One parsed ``kind:key=value,...`` clause of the plan."""

    kind: str
    index: int
    fp: Optional[str] = None
    ordinal: Optional[int] = None
    store: Optional[str] = None
    times: int = 1
    after: int = 1

    def matches(self, name: str) -> bool:
        """Prefix match against a spec fingerprint or store entry name."""
        return self.fp is not None and name.startswith(self.fp)

    def to_text(self) -> str:
        parts = []
        if self.fp is not None:
            parts.append(f"fp={self.fp}")
        if self.ordinal is not None:
            parts.append(f"spec={self.ordinal}")
        if self.store is not None:
            parts.append(f"store={self.store}")
        if self.kind == "interrupt":
            parts.append(f"after={self.after}")
        parts.append(f"times={self.times}")
        return f"{self.kind}:{','.join(parts)}"


def parse_plan(text: str) -> List[FaultDirective]:
    """Parse a plan string; malformed input fails loudly, naming the var."""
    knob = settings.ENV["fault_plan"]

    def bad(msg: str) -> ValueError:
        return ValueError(f"{knob}: {msg} (in {text!r})")

    directives: List[FaultDirective] = []
    for index, clause in enumerate(filter(None, (c.strip() for c in text.split(";")))):
        kind, _, rest = clause.partition(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise bad(f"unknown fault kind {kind!r}; options: {sorted(_KINDS)}")
        d = FaultDirective(kind=kind, index=index)
        for item in filter(None, (i.strip() for i in rest.split(","))):
            key, eq, value = item.partition("=")
            if not eq:
                raise bad(f"expected key=value, got {item!r}")
            try:
                if key == "fp":
                    d.fp = value
                elif key == "spec":
                    d.ordinal = int(value)
                elif key == "store":
                    if value not in _STORES:
                        raise bad(f"unknown store {value!r}; options: {_STORES}")
                    d.store = value
                elif key == "times":
                    d.times = int(value)
                elif key == "after":
                    d.after = int(value)
                else:
                    raise bad(f"unknown key {key!r}")
            except ValueError as exc:
                if exc.args and str(exc.args[0]).startswith(knob):
                    raise
                raise bad(f"bad value for {key}: {value!r}") from None
        if d.kind == "crash" and d.fp is None and d.ordinal is None:
            raise bad(f"{d.kind} needs fp= or spec=")
        if d.kind in _STORE_KINDS:
            if d.store is None:
                raise bad(f"{d.kind} needs store={'|'.join(_STORES)}")
            if d.fp is None:
                d.fp = ""  # empty prefix: first matching write
        directives.append(d)
    return directives


class FaultPlan:
    """A parsed plan plus its (ledger- or memory-backed) fire counts."""

    def __init__(self, directives: List[FaultDirective], ledger: Optional[Path]):
        self.directives = directives
        self.ledger = ledger
        self._memory: Dict[int, int] = {}

    # -- fire accounting ---------------------------------------------------
    def _fire_if_due(self, d: FaultDirective) -> bool:
        """Durably count a fire *before* the fault executes (crash-safe).

        With a ledger, fire ``k`` is the file ``d<index>-<k>``: creating
        it with ``O_EXCL`` is the claim, so concurrent processes fire a
        directive exactly ``times`` times between them.
        """
        if self.ledger is None:
            fired = self._memory.get(d.index, 0)
            if fired >= d.times:
                return False
            self._memory[d.index] = fired + 1
            return True
        self.ledger.mkdir(parents=True, exist_ok=True)
        for k in range(d.times):
            try:
                fd = os.open(
                    self.ledger / f"d{d.index}-{k}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    # -- hooks -------------------------------------------------------------
    def on_spec(self, fingerprint: str) -> None:
        """Executor hook: may crash the process."""
        for d in self.directives:
            if d.kind != "crash" or not d.matches(fingerprint):
                continue
            if self._fire_if_due(d):
                os._exit(CRASH_EXIT_CODE)

    def on_store_write(self, store: str, name: str, path: Path) -> None:
        """Store hook: may truncate or corrupt the published entry."""
        for d in self.directives:
            if d.kind not in _STORE_KINDS or d.store != store:
                continue
            if not d.matches(name) or not self._fire_if_due(d):
                continue
            try:
                if d.kind == "truncate":
                    size = path.stat().st_size
                    with open(path, "r+b") as fh:
                        fh.truncate(size // 2)
                else:
                    path.write_text('{"corrupt": tru')
            except OSError:
                pass

    def on_completion(self, done: int) -> None:
        """Parent-loop hook: deterministic mid-campaign interrupt."""
        for d in self.directives:
            if d.kind != "interrupt" or done < d.after:
                continue
            if self._fire_if_due(d):
                raise KeyboardInterrupt(
                    f"injected interrupt after {done} completions"
                )

    def to_text(self) -> str:
        return ";".join(d.to_text() for d in self.directives)


#: Parse cache keyed on (plan text, ledger) — plans are tiny, but the
#: in-memory fire counts must survive across hook calls in one process.
_CACHE: Dict[Tuple[str, Optional[Path]], FaultPlan] = {}


def active_plan() -> Optional[FaultPlan]:
    """The configured plan, or None (the production fast path)."""
    knobs = settings.current()
    if not knobs.fault_plan:
        return None
    key = (knobs.fault_plan, knobs.fault_ledger)
    plan = _CACHE.get(key)
    if plan is None:
        plan = FaultPlan(parse_plan(knobs.fault_plan), knobs.fault_ledger)
        _CACHE[key] = plan
    return plan


def reset() -> None:
    """Drop cached plans, their in-memory fire counts and any
    campaign-resolved plan, so the environment's plan applies (tests)."""
    _CACHE.clear()
    settings.reset("fault_plan", "fault_ledger")


def prepare_for_campaign(fingerprints: Sequence[str]) -> None:
    """Resolve ``spec=N`` ordinals and ensure a shared ledger exists.

    Called once per campaign with the deterministic dispatch order,
    *before* any worker starts: ordinal directives are rewritten to the
    matching fingerprint, a ledger is minted when the plan has none, and
    both are installed as this process's settings, which every forked
    pool worker inherits.  A no-op when no plan is active.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.ledger is None:
        # A fresh directory per mint (not a fixed pid-based name): stale
        # markers from an earlier plan in this process must never count
        # against this campaign's directives.
        plan.ledger = Path(tempfile.mkdtemp(prefix="repro-fault-ledger-"))
    for d in plan.directives:
        if d.ordinal is None:
            continue
        # Out-of-range ordinals resolve to a prefix no hex fingerprint
        # can ever start with — the directive simply never fires.
        d.fp = (
            fingerprints[d.ordinal - 1]
            if 1 <= d.ordinal <= len(fingerprints)
            else "~unmatched"
        )
        d.ordinal = None
    # Re-key the cache so this resolved instance (with its counts)
    # answers the installed plan.
    text = plan.to_text()
    _CACHE[(text, plan.ledger)] = plan
    settings.install(fault_plan=text, fault_ledger=plan.ledger)


def on_spec(fingerprint: str) -> None:
    """Module-level executor hook (no-op without an active plan)."""
    plan = active_plan()
    if plan is not None:
        plan.on_spec(fingerprint)


def on_store_write(store: str, name: str, path: Path) -> None:
    """Module-level store hook (no-op without an active plan)."""
    plan = active_plan()
    if plan is not None:
        plan.on_store_write(store, name, path)


def on_completion(done: int) -> None:
    """Module-level parent-loop hook (no-op without an active plan)."""
    plan = active_plan()
    if plan is not None:
        plan.on_completion(done)
