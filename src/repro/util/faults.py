"""Deterministic fault injection for the campaign execution stack.

``REPRO_FAULT_PLAN`` names a schedule of faults that the executor and the
on-disk stores honour, making every recovery path *differentially*
testable: the fault-free serial run is the oracle, and any injected-fault
run must converge to bit-identical merged results.  The plan is a
semicolon-separated list of directives::

    crash:spec=3                     # worker calls os._exit on the 3rd spec
    fail:fp=ab12,times=2             # raise InjectedFault twice on prefix ab12
    hang:fp=ab12,secs=30             # sleep 30 s (the spec timeout's prey)
    truncate:store=results,fp=       # truncate the next result-store write
    corrupt:store=results,fp=        # garbage the next result-store write
    divergent:store=results,fp=      # perturb the published bytes: still
                                     # valid JSON, different values (the
                                     # skewed-worker poison the attestation
                                     # layer exists to catch)
    interrupt:after=2                # KeyboardInterrupt after 2 completions
    partition:worker=w1,times=3      # suppress 3 heartbeats of worker w1*
    dupdone:fp=ab12                  # publish that completion marker twice

``spec=N`` addresses the N-th spec (1-based) of the campaign's
deterministic dispatch order; :func:`prepare_for_campaign` resolves it to
that spec's fingerprint before any worker starts, so every process agrees
on the target.  ``fp=<prefix>`` matches a spec fingerprint (crash / fail /
hang / dupdone) or a store entry name (truncate / corrupt; the empty
prefix matches every entry).  ``times`` bounds how often a directive
fires (default 1 — fire once, then let the retry succeed).

The transport kinds model distributed-fabric failures: ``partition``
suppresses a worker's next ``times`` heartbeat writes (its lease expires
and the coordinator reassigns the work while the worker keeps executing —
the classic duplicate-execution scenario), and ``dupdone`` republishes a
completion marker a second time (duplicate delivery).  ``truncate`` /
``corrupt`` additionally accept ``store=lease`` and ``store=done`` to
tear the fabric's lease-claim and completion-marker writes.

``divergent`` models a worker whose published bytes silently differ
from what it computed (skewed toolchain, flipped bit between compute
and publish): the just-written entry is rewritten with one float
nudged — still perfectly parseable, caught only by the digest and
byte-compare checks of :mod:`repro.campaign.attest`.  Store kinds also
accept ``worker=<prefix>`` to fire only in fabric-worker processes
whose ``REPRO_WORKER_ID`` matches — that is how a test pins the poison
to one worker of a multi-worker run (and how the coordinator's K-strike
demotion is exercised deterministically).

Fires are counted in a *ledger* directory (``REPRO_FAULT_LEDGER``) as one
marker file per fire, recorded durably **before** the fault executes —
that is what keeps a ``crash`` directive from killing every retry and
every rebuilt pool worker forever.  Without a ledger the counts are
per-process (fine for serial in-process tests); :func:`prepare_for_campaign`
creates a shared ledger automatically when a plan is active and installs
the resolved plan in :mod:`repro.settings`, so forked pool workers and
spawned fabric workers always agree with the parent.

With ``REPRO_FAULT_PLAN`` unset every hook is a single attribute read —
the production fast path stays fault-free and overhead-free.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import settings

__all__ = [
    "FaultDirective",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "on_completion",
    "on_done_publish",
    "on_heartbeat",
    "on_spec",
    "on_store_write",
    "parse_plan",
    "prepare_for_campaign",
    "reset",
]

#: Exit code of an injected worker crash (recognisable in tests/CI).
CRASH_EXIT_CODE = 13

_SPEC_KINDS = ("crash", "fail", "hang")
_STORE_KINDS = ("truncate", "corrupt", "divergent")
_TRANSPORT_KINDS = ("partition", "dupdone")
_KINDS = _SPEC_KINDS + _STORE_KINDS + _TRANSPORT_KINDS + ("interrupt",)
_STORES = ("results", "lease", "done")


class InjectedFault(RuntimeError):
    """A deterministic test-plan failure (retryable, never seen in prod)."""


@dataclass
class FaultDirective:
    """One parsed ``kind:key=value,...`` clause of the plan."""

    kind: str
    index: int
    fp: Optional[str] = None
    ordinal: Optional[int] = None
    store: Optional[str] = None
    worker: Optional[str] = None
    times: int = 1
    secs: float = 3600.0
    after: int = 1

    def matches(self, name: str) -> bool:
        """Prefix match against a spec fingerprint or store entry name."""
        return self.fp is not None and name.startswith(self.fp)

    def matches_worker(self, worker_id: str) -> bool:
        """Prefix match against a fabric worker id (partition targeting)."""
        return self.worker is not None and worker_id.startswith(self.worker)

    def to_text(self) -> str:
        parts = []
        if self.fp is not None:
            parts.append(f"fp={self.fp}")
        if self.ordinal is not None:
            parts.append(f"spec={self.ordinal}")
        if self.store is not None:
            parts.append(f"store={self.store}")
        if self.worker is not None:
            parts.append(f"worker={self.worker}")
        if self.kind == "interrupt":
            parts.append(f"after={self.after}")
        parts.append(f"times={self.times}")
        if self.kind == "hang":
            parts.append(f"secs={self.secs:g}")
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
                elif key == "worker":
                    d.worker = value
                elif key == "times":
                    d.times = int(value)
                elif key == "secs":
                    d.secs = float(value)
                elif key == "after":
                    d.after = int(value)
                else:
                    raise bad(f"unknown key {key!r}")
            except ValueError as exc:
                if exc.args and str(exc.args[0]).startswith(knob):
                    raise
                raise bad(f"bad value for {key}: {value!r}") from None
        if d.kind in _SPEC_KINDS and d.fp is None and d.ordinal is None:
            raise bad(f"{d.kind} needs fp= or spec=")
        if d.kind in _STORE_KINDS:
            if d.store is None:
                raise bad(f"{d.kind} needs store={'|'.join(_STORES)}")
            if d.fp is None:
                d.fp = ""  # empty prefix: first matching write
        if d.kind == "partition" and d.worker is None:
            d.worker = ""  # empty prefix: every worker
        if d.kind == "dupdone" and d.fp is None and d.ordinal is None:
            d.fp = ""  # empty prefix: first completion published
        directives.append(d)
    return directives


class FaultPlan:
    """A parsed plan plus its (ledger- or memory-backed) fire counts."""

    def __init__(self, directives: List[FaultDirective], ledger: Optional[Path]):
        self.directives = directives
        self.ledger = ledger
        self._memory: Dict[int, int] = {}

    # -- fire accounting ---------------------------------------------------
    def _fired(self, d: FaultDirective) -> int:
        if self.ledger is None:
            return self._memory.get(d.index, 0)
        try:
            return len(list(self.ledger.glob(f"d{d.index}-*")))
        except OSError:
            return 0

    def _record_fire(self, d: FaultDirective) -> None:
        """Durably count a fire *before* the fault executes (crash-safe)."""
        if self.ledger is None:
            self._memory[d.index] = self._memory.get(d.index, 0) + 1
            return
        self.ledger.mkdir(parents=True, exist_ok=True)
        fd, _ = tempfile.mkstemp(prefix=f"d{d.index}-", dir=self.ledger)
        os.close(fd)

    def _fire_if_due(self, d: FaultDirective) -> bool:
        if self._fired(d) >= d.times:
            return False
        self._record_fire(d)
        return True

    # -- hooks -------------------------------------------------------------
    def on_spec(self, fingerprint: str) -> None:
        """Executor hook: may crash the process, raise, or hang."""
        for d in self.directives:
            if d.kind not in _SPEC_KINDS or not d.matches(fingerprint):
                continue
            if not self._fire_if_due(d):
                continue
            if d.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if d.kind == "fail":
                raise InjectedFault(
                    f"injected failure on spec {fingerprint[:12]}"
                )
            time.sleep(d.secs)  # hang; the spec timeout's prey

    def on_store_write(self, store: str, name: str, path: Path) -> None:
        """Store hook: may truncate, corrupt or diverge the published entry."""
        for d in self.directives:
            if d.kind not in _STORE_KINDS or d.store != store:
                continue
            if d.worker is not None and not (
                # Store kinds accept worker= so a multi-worker test can pin
                # the poison to one fabric worker; coordinator and other
                # workers (different REPRO_WORKER_ID, or none) skip it.
                settings.current().worker_id or ""
            ).startswith(d.worker):
                continue
            if not d.matches(name) or not self._fire_if_due(d):
                continue
            try:
                if d.kind == "truncate":
                    size = path.stat().st_size
                    with open(path, "r+b") as fh:
                        fh.truncate(size // 2)
                elif d.kind == "divergent":
                    _perturb_entry(path)
                else:
                    path.write_text('{"corrupt": tru')
            except OSError:
                pass

    def on_heartbeat(self, worker_id: str) -> bool:
        """Transport hook: True = suppress this heartbeat write.

        Models a network partition / stalled worker: the worker believes
        it is healthy and keeps executing, but its heartbeat never lands,
        so its lease expires and the coordinator reassigns the batch —
        the canonical duplicate-execution scenario the content-addressed
        store must absorb.
        """
        for d in self.directives:
            if d.kind != "partition" or not d.matches_worker(worker_id):
                continue
            if self._fire_if_due(d):
                return True
        return False

    def on_done_publish(self, fingerprint: str) -> bool:
        """Transport hook: True = publish this completion marker twice."""
        for d in self.directives:
            if d.kind != "dupdone" or not d.matches(fingerprint):
                continue
            if self._fire_if_due(d):
                return True
        return False

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


def _perturb_entry(path: Path) -> None:
    """Nudge the first float of a JSON entry by +1.0 and rewrite it.

    The result stays perfectly parseable — unlike ``truncate`` and
    ``corrupt`` it models *silently wrong values* (a skewed worker), the
    failure mode only the attestation digest / byte-compare layer sees.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return

    def nudge(node):  # first float wins, depth-first
        if isinstance(node, dict):
            for key, value in node.items():
                hit, value = nudge(value)
                if hit:
                    node[key] = value
                    return True, node
        elif isinstance(node, list):
            for i, value in enumerate(node):
                hit, value = nudge(value)
                if hit:
                    node[i] = value
                    return True, node
        elif isinstance(node, float):
            return True, node + 1.0
        return False, node

    hit, payload = nudge(payload)
    if hit:
        path.write_text(json.dumps(payload))


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
    both are installed as this process's settings, which every worker
    inherits or receives (:func:`repro.settings.child_env`).  A no-op
    when no plan is active.
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


def on_heartbeat(worker_id: str) -> bool:
    """Module-level transport hook (False without an active plan)."""
    plan = active_plan()
    return plan is not None and plan.on_heartbeat(worker_id)


def on_done_publish(fingerprint: str) -> bool:
    """Module-level transport hook (False without an active plan)."""
    plan = active_plan()
    return plan is not None and plan.on_done_publish(fingerprint)
