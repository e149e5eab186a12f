"""Result attestation: digests, provenance, divergence evidence, audits.

Every fault-tolerance layer above the result store leans on one
invariant: *duplicate execution of a spec merges to identical bytes*.
This module is what turns that assumption into a checked contract:

* every published result gains an **attestation sidecar** under
  ``<store>/attest/<fp>.json`` — the content digest of the exact bytes
  published, a provenance block (host, python/numpy versions,
  native-kernel availability, wave mode, code ``RESULT_VERSION``) and
  the spec's wire form, so an entry can later be re-executed from the
  store alone.  Attestation is metadata *about* a result, never an
  input: nothing here is folded into spec fingerprints, so adding or
  re-writing a sidecar can never split the cache.
* a write to an already-occupied fingerprint whose bytes differ is a
  **divergence event**: both versions are quarantined with their
  provenance under ``<store>/divergence/<fp>/`` (never pruned — it is
  post-mortem evidence, not cache content), and the caller fails the
  spec loudly via :class:`ResultDivergenceError` instead of silently
  keeping either version.
* every read re-verifies the stored bytes against the sidecar digest
  (:func:`contradicts_attestation`), so bit rot that still parses as
  valid JSON no longer slips through.
* :func:`verify_store` is the audit engine behind ``repro verify``: a
  full digest sweep of the store plus deterministic-sample re-execution
  (optionally cross-mode: wave vs scalar) diffed byte-for-byte
  against the stored entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import settings
from repro.campaign.spec import RESULT_VERSION, RunSpec
from repro.util.diskcache import atomic_write_text, read_text_guarded

__all__ = [
    "ATTEST_DIRNAME",
    "DIVERGENCE_DIRNAME",
    "ResultDivergenceError",
    "attestation_payload",
    "attestation_stats",
    "contradicts_attestation",
    "digest_text",
    "divergence_stats",
    "provenance_block",
    "quarantine_attestation",
    "read_attestation",
    "record_divergence",
    "verify_store",
    "write_attestation",
]

#: Sidecar directory under the result store (one JSON file per entry).
ATTEST_DIRNAME = "attest"

#: Divergence-evidence directory under the result store (one directory
#: per event, holding every contested byte version plus provenance).
DIVERGENCE_DIRNAME = "divergence"

#: Digest length in bytes — matches the spec-fingerprint width so both
#: identifiers read alike in journals and sidecars.
_DIGEST_SIZE = 16


class ResultDivergenceError(RuntimeError):
    """Two executions of one fingerprint produced different bytes.

    Not retryable noise: the store slot has been emptied and both byte
    versions quarantined with their provenance — retrying would simply
    republish one of the contested versions.  Picklable (pool workers
    raise it across a process boundary).
    """

    def __init__(self, fingerprint: str, digest_a: str, digest_b: str):
        self.fingerprint = fingerprint
        self.digest_a = digest_a
        self.digest_b = digest_b
        super().__init__(
            f"result divergence on {fingerprint[:16]}: stored bytes digest "
            f"{digest_a[:12]} != incoming {digest_b[:12]} — both versions "
            f"quarantined under the store's {DIVERGENCE_DIRNAME}/ directory"
        )

    def __reduce__(self):
        return (
            ResultDivergenceError,
            (self.fingerprint, self.digest_a, self.digest_b),
        )


def digest_text(text: str) -> str:
    """Content digest of the exact bytes a result was published as."""
    return hashlib.blake2b(
        text.encode(), digest_size=_DIGEST_SIZE
    ).hexdigest()


@lru_cache(maxsize=1)
def _host_block() -> Dict:
    """The per-process-constant half of the provenance block."""
    import numpy

    from repro.util.nativebuild import find_compiler

    try:
        host = socket.gethostname()
    except OSError:
        host = "?"
    return {
        "host": host,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_kernels": find_compiler() is not None,
    }


def provenance_block(wave: Optional[str] = None) -> Dict:
    """Who/what produced a result: enough to explain a divergence.

    Records exactly the heterogeneity axes that could plausibly skew
    bytes across hosts — interpreter and numpy versions, machine, native
    kernel availability, the event-loop mode — plus the publishing
    process id and the code's ``RESULT_VERSION``.
    ``wave`` is the mode a re-execution ran in (None: this process's
    ``REPRO_SIM_WAVE``).
    """
    return {
        **_host_block(),
        "pid": os.getpid(),
        "wave": wave or settings.current().wave,
        "result_version": RESULT_VERSION,
        "t": time.time(),
    }


def _attest_path(root: Path, fingerprint: str) -> Path:
    return root / ATTEST_DIRNAME / f"{fingerprint}.json"


def attestation_payload(
    fingerprint: str,
    text: str,
    spec: Optional[RunSpec] = None,
    wave: Optional[str] = None,
) -> Dict:
    """The sidecar contents for one published result ``text``.

    The spec's wire form is embedded when known so audits can re-execute
    the fingerprint from the store alone (:func:`verify_store`); its
    own recorded fingerprint doubles as a sidecar/entry pairing check.
    """
    payload = {
        "fp": fingerprint,
        "digest": digest_text(text),
        "bytes": len(text.encode()),
        "provenance": provenance_block(wave=wave),
    }
    if spec is not None:
        payload["spec"] = json.loads(spec.to_json())
    return payload


def attestation_to_json(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True)


def write_attestation(
    root: Path,
    fingerprint: str,
    text: str,
    spec: Optional[RunSpec] = None,
) -> bool:
    """Publish the sidecar for ``text`` (best-effort, atomic)."""
    return atomic_write_text(
        _attest_path(root, fingerprint),
        attestation_to_json(attestation_payload(fingerprint, text, spec=spec)),
    )


def read_attestation(root: Path, fingerprint: str) -> Optional[Dict]:
    """The entry's sidecar, or None when missing/unparseable."""
    text = read_text_guarded(_attest_path(root, fingerprint))
    if text is None:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, dict) else None


def contradicts_attestation(root: Path, fingerprint: str, text: str) -> bool:
    """True when ``text`` is not what the entry's own sidecar says was
    published: bit rot (or in-place tampering) that may still parse as
    valid JSON.  An entry without a readable sidecar contradicts
    nothing."""
    attestation = read_attestation(root, fingerprint)
    if attestation is None:
        return False
    return attestation.get("digest") != digest_text(text)


def quarantine_attestation(root: Path, fingerprint: str) -> None:
    """Move an entry's sidecar into ``quarantine/`` alongside its entry.

    Called when the entry itself is quarantined (rot, parse failure):
    the sidecar is evidence of what the bytes *should* have been, and
    leaving it behind would mis-count attestation coverage.  The
    ``.attest.json`` suffix keeps it from colliding with the entry's own
    quarantine capture.  Never raises.
    """
    path = _attest_path(root, fingerprint)
    text = read_text_guarded(path)
    if text is None:
        return
    qdir = root / "quarantine"
    target = qdir / f"{fingerprint}.attest.json"
    n = 0
    while target.exists():
        n += 1
        target = qdir / f"{fingerprint}.attest.json.{os.getpid()}.{n}"
    if atomic_write_text(target, text):
        try:
            path.unlink()
        except OSError:
            pass


def record_divergence(
    root: Path,
    fingerprint: str,
    versions: Sequence[Tuple[str, str, Optional[Dict]]],
    reason: str,
    **meta,
) -> Optional[Path]:
    """Quarantine contested byte versions as post-mortem evidence.

    ``versions`` is ``(label, text, attestation-or-None)`` per contested
    copy; each lands as ``<label>.json`` (plus ``<label>.attest.json``
    when provenance is known) under a fresh
    ``<store>/divergence/<fp>[.pid.N]/`` directory, with a ``meta.json``
    recording the digests, the reason and any extra fields (such as the
    re-execution mode).  The directory is deliberately *outside* the
    LRU-pruned namespace — divergence evidence is never evicted.
    Returns the evidence directory (None when the filesystem refuses).
    """
    base = root / DIVERGENCE_DIRNAME / fingerprint
    evidence = base
    n = 0
    while evidence.exists():
        # Each recurrence of a contested fingerprint is its own event;
        # every capture must survive.
        n += 1
        evidence = base.with_name(f"{base.name}.{os.getpid()}.{n}")
    try:
        evidence.mkdir(parents=True)
    except OSError:
        return None
    digests = {}
    for label, text, attestation in versions:
        digests[label] = digest_text(text)
        atomic_write_text(evidence / f"{label}.json", text)
        if attestation is not None:
            atomic_write_text(
                evidence / f"{label}.attest.json",
                json.dumps(attestation, sort_keys=True),
            )
    atomic_write_text(
        evidence / "meta.json",
        json.dumps(
            {
                "fp": fingerprint,
                "reason": reason,
                "digests": digests,
                "observer": provenance_block(),
                "t": time.time(),
                **meta,
            },
            sort_keys=True,
        ),
    )
    return evidence


def attestation_stats(root: Optional[Path]) -> Dict[str, float]:
    """Coverage: how many live entries carry a matching-name sidecar."""
    entries = 0
    attested = 0
    if root is not None and root.is_dir():
        for file in root.glob("*.json"):
            if not file.is_file():
                continue
            entries += 1
            if _attest_path(root, file.stem).is_file():
                attested += 1
    coverage = (attested / entries) if entries else 1.0
    return {"entries": entries, "attested": attested, "coverage": coverage}


def divergence_stats(root: Optional[Path]) -> Dict[str, float]:
    """Shape of the divergence-evidence quarantine (events + size)."""
    events = 0
    files = 0
    size = 0
    if root is not None:
        ddir = root / DIVERGENCE_DIRNAME
        if ddir.is_dir():
            for event_dir in ddir.iterdir():
                if not event_dir.is_dir():
                    continue
                events += 1
                for file in event_dir.iterdir():
                    try:
                        stat = file.stat()
                    except OSError:
                        continue
                    files += 1
                    size += stat.st_size
    return {
        "events": events,
        "files": files,
        "bytes": size,
        "mb": size / (1024 * 1024),
    }


def _sample_order(fingerprints: Sequence[str], seed: int) -> List[str]:
    """Deterministic, seed-keyed sample order over the store's entries.

    Hash-ranked rather than sliced-sorted so successive audits with
    different seeds cover different entries, while one seed always
    selects the same sample on the same store.
    """
    return sorted(
        fingerprints,
        key=lambda fp: hashlib.blake2b(
            f"{seed}:{fp}".encode(), digest_size=8
        ).hexdigest(),
    )


def verify_store(
    root: Path,
    sample: int = 0,
    cross_mode: bool = False,
    seed: int = 0,
    out: Callable[[str], None] = print,
) -> Dict:
    """Audit the result store: digest sweep + sampled re-execution.

    Phase 1 digest-checks *every* entry against its sidecar (cheap: one
    read + one hash each).  Phase 2 re-executes a deterministic sample
    of ``sample`` attested fingerprints from their embedded specs and
    byte-compares the fresh serialisation against the stored entry —
    the only check that can catch a self-consistent poison (wrong bytes
    published with a matching digest).  Divergent entries are retired
    from the store with their evidence quarantined under
    ``divergence/`` exactly like a live divergence event.

    Returns the audit report; ``out`` receives the human-readable lines
    (pass ``lambda _: None`` for a silent audit).
    """
    from repro.campaign.executor import _simulate
    from repro.campaign.results import drop_memo_entry, result_to_json

    report: Dict = {
        "entries": 0,
        "attested": 0,
        "coverage": 1.0,
        "unattested": [],
        "digest_divergent": [],
        "reexecuted": 0,
        "reexec_divergent": [],
        "skewed": [],
        "modes": [],
    }
    entries = sorted(
        file.stem
        for file in root.glob("*.json")
        if file.is_file()
    )
    report["entries"] = len(entries)
    sidecars: Dict[str, Dict] = {}
    for fp in entries:
        text = read_text_guarded(root / f"{fp}.json")
        if text is None:
            continue
        attestation = read_attestation(root, fp)
        if attestation is None:
            report["unattested"].append(fp)
            continue
        report["attested"] += 1
        if attestation.get("digest") != digest_text(text):
            record_divergence(
                root,
                fp,
                versions=[("stored", text, attestation)],
                reason="audit: stored bytes do not match attestation digest",
            )
            _retire_entry(root, fp)
            drop_memo_entry(fp)
            report["digest_divergent"].append(fp)
        else:
            sidecars[fp] = attestation
    report["coverage"] = (
        report["attested"] / report["entries"] if report["entries"] else 1.0
    )

    candidates = [fp for fp in _sample_order(sorted(sidecars), seed)
                  if "spec" in sidecars[fp]]
    for fp in candidates[: max(0, sample)]:
        attestation = sidecars[fp]
        stored = read_text_guarded(root / f"{fp}.json")
        if stored is None:
            continue
        try:
            spec = RunSpec.from_json(
                json.dumps(attestation["spec"], sort_keys=True)
            )
        except (ValueError, KeyError, TypeError):
            # The sidecar's spec no longer reproduces this fingerprint:
            # code/calibration skew since the entry was stored.  A
            # re-execution could not arbitrate, so report it separately
            # instead of calling it a divergence.
            report["skewed"].append(fp)
            continue
        report["reexecuted"] += 1
        divergent = False
        # Both event loops are differentially tested bit-identical, which
        # makes them independent witnesses: any disagreement with the
        # stored bytes is a real divergence, not a mode artefact.  None
        # runs this process's REPRO_SIM_WAVE.
        for mode in ("step", "scalar") if cross_mode else (None,):
            if mode not in report["modes"]:
                report["modes"].append(mode)
            fresh = result_to_json(_simulate(spec, wave=mode))
            if fresh != stored:
                record_divergence(
                    root,
                    fp,
                    versions=[
                        ("stored", stored, attestation),
                        (
                            f"reexecuted-{mode or 'default'}",
                            fresh,
                            attestation_payload(
                                fp, fresh, spec=spec, wave=mode
                            ),
                        ),
                    ],
                    reason="audit: re-execution produced different bytes",
                    mode=mode,
                )
                divergent = True
        if divergent:
            _retire_entry(root, fp)
            drop_memo_entry(fp)
            report["reexec_divergent"].append(fp)

    divergent_total = len(report["digest_divergent"]) + len(
        report["reexec_divergent"]
    )
    out(f"result store @ {root}: {report['entries']} entries")
    out(
        f"attestation coverage: {report['attested']}/{report['entries']} "
        f"({report['coverage'] * 100.0:.1f}%)"
    )
    if report["unattested"]:
        out(
            "unattested entries (no digest to verify): "
            + ", ".join(fp[:16] for fp in report["unattested"][:8])
            + ("..." if len(report["unattested"]) > 8 else "")
        )
    out(
        f"digest sweep: {report['attested']} attested entries checked, "
        f"{len(report['digest_divergent'])} divergent"
    )
    if sample > 0:
        modes = ", ".join(m or "default" for m in report["modes"]) or "default"
        out(
            f"re-executed {report['reexecuted']} sampled fingerprints "
            f"(modes: {modes}): {len(report['reexec_divergent'])} divergent"
            + (
                f"; {len(report['skewed'])} skipped (version/calibration skew)"
                if report["skewed"]
                else ""
            )
        )
    out(
        f"divergences: {divergent_total}"
        + (
            f" (evidence under {root / DIVERGENCE_DIRNAME})"
            if divergent_total
            else ""
        )
    )
    report["divergences"] = divergent_total
    return report


def _retire_entry(root: Path, fingerprint: str) -> None:
    """Remove a contested entry (and sidecar) from live service.

    Only called *after* the bytes have been captured as divergence
    evidence — the store must stop serving them, and the next execution
    republishes cleanly into the empty slot.  Never raises.
    """
    for path in (
        root / f"{fingerprint}.json",
        _attest_path(root, fingerprint),
    ):
        try:
            path.unlink()
        except OSError:
            pass
