"""The declarative unit of work: one simulation run, content-addressed.

A :class:`RunSpec` captures everything that determines a
:class:`~repro.simulator.metrics.SimResult` for the canonical calibrated
suite: the database identity (suite seed, core count), the manager and
model, the workload, the QoS relaxation, the horizon and whether
enforcement overheads are charged.  Specs are frozen and hashable so the
planner can dedupe them, and each one carries a stable *fingerprint* —
a content hash that also folds in the database fingerprint (suite specs,
system configuration, seed) and a result-format version, so cached
results can never leak across code or calibration changes.

Every field reaches the fingerprint.  How a run is executed — event-loop
mode, compiled kernels, workers, stores — is not an input and lives in
:mod:`repro.settings`; every execution mode produces the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

__all__ = ["RunSpec", "RESULT_VERSION", "MODEL_NAMES", "RM_KINDS"]

#: Bump whenever simulator/result semantics change, so stale on-disk
#: campaign results can never be returned for a new code revision.
#: v2: managers default to the incremental reduction kernel, whose
#: smaller per-invocation ``dp_operations`` changes charged RM overheads.
#: The digests in ``tests/test_database.py::TestContentPins`` fail,
#: naming this constant, when a stored result moves without a bump.
RESULT_VERSION = 2

#: Canonical model and (non-idle) manager names — the single source the
#: spec validation, the executor and the experiment layer all share.
MODEL_NAMES: Tuple[str, ...] = ("Model1", "Model2", "Model3", "Perfect")
RM_KINDS: Tuple[str, ...] = ("rm1", "rm2", "rm3")

_RM_ALL = ("idle",) + RM_KINDS


@lru_cache(maxsize=None)
def _database_key(n_cores: int, seed: int) -> str:
    """Fingerprint of the database a spec runs against (memoised)."""
    from repro.config import default_system
    from repro.database.store import database_fingerprint
    from repro.workloads.suite import spec_suite

    return database_fingerprint(spec_suite(), default_system(n_cores), seed)


@dataclass(frozen=True)
class RunSpec:
    """One simulation run over the canonical suite.

    Parameters
    ----------
    seed:
        Suite/database seed (the experiment-wide seed).
    n_cores:
        Core count of the simulated system (one app per core).
    rm_kind:
        ``"idle"``, ``"rm1"``, ``"rm2"`` or ``"rm3"``.
    model:
        Performance model name for non-idle managers (None for idle).
    apps:
        Application name per core.
    alpha:
        QoS relaxation of Eq. 3 (None = the system default, the paper's
        alpha = 1).
    horizon_intervals:
        Horizon override (None = the longest-application rule).
    charge_overheads:
        False reproduces the paper's "perfect overheads" studies.
    """

    seed: int
    n_cores: int
    rm_kind: str
    model: Optional[str]
    apps: Tuple[str, ...]
    alpha: Optional[float] = None
    horizon_intervals: Optional[int] = None
    charge_overheads: bool = True

    def __post_init__(self) -> None:
        if self.rm_kind not in _RM_ALL:
            raise ValueError(
                f"unknown RM kind {self.rm_kind!r}; options: {sorted(_RM_ALL)}"
            )
        if self.rm_kind == "idle":
            if self.model is not None:
                raise ValueError("the idle manager takes no model")
        elif self.model not in MODEL_NAMES:
            raise ValueError(
                f"unknown model {self.model!r}; options: {sorted(MODEL_NAMES)}"
            )
        if len(self.apps) != self.n_cores:
            raise ValueError(
                f"workload has {len(self.apps)} apps for {self.n_cores} cores"
            )
        if not isinstance(self.apps, tuple):
            object.__setattr__(self, "apps", tuple(self.apps))
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.alpha == 1.0:
            # The canonical system's default (the paper fixes alpha = 1);
            # normalising keeps the fingerprint of explicit-1.0 and
            # default specs identical so they dedupe.
            object.__setattr__(self, "alpha", None)
        if self.rm_kind == "idle" and self.alpha is not None:
            # The executor's idle path runs at the system default, so a
            # relaxed alpha would be silently ignored while still minting
            # a distinct fingerprint — reject it instead of caching a
            # result under a spec it does not honour.
            raise ValueError("the idle manager takes no alpha")
        if self.horizon_intervals is not None and self.horizon_intervals < 1:
            raise ValueError("horizon_intervals must be >= 1")

    @property
    def fingerprint(self) -> str:
        """Stable content hash identifying this run's result."""
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        payload = json.dumps(
            {
                "version": RESULT_VERSION,
                "database": _database_key(self.n_cores, self.seed),
                "rm_kind": self.rm_kind,
                "model": self.model,
                "apps": list(self.apps),
                "alpha": self.alpha,
                "horizon_intervals": self.horizon_intervals,
                "charge_overheads": self.charge_overheads,
            },
            sort_keys=True,
        )
        digest = hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def to_json(self) -> str:
        """Wire form embedded in attestation sidecars.

        Every field plus the fingerprint; ``repro verify --sample``
        rebuilds the spec with :meth:`from_json` and re-derives the
        fingerprint from the *current* code and database, so a version
        skew since the entry was stored surfaces as a fingerprint
        mismatch instead of a re-execution against the wrong entry.
        """
        return json.dumps(
            {
                "seed": self.seed,
                "n_cores": self.n_cores,
                "rm_kind": self.rm_kind,
                "model": self.model,
                "apps": list(self.apps),
                "alpha": self.alpha,
                "horizon_intervals": self.horizon_intervals,
                "charge_overheads": self.charge_overheads,
                "fingerprint": self.fingerprint,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Rebuild a spec from :meth:`to_json`, verifying the fingerprint.

        Raises ``ValueError`` when the recomputed fingerprint disagrees
        with the recorded one — the writer ran different code,
        calibration or RESULT_VERSION, and executing the spec would
        produce a result for a different content address.
        """
        data = json.loads(text)
        claimed = data.pop("fingerprint", None)
        # Older sidecars carry the event-loop mode, which never changed
        # a result byte: ignore it.
        data.pop("wave", None)
        data["apps"] = tuple(data["apps"])
        spec = cls(**data)
        if claimed is not None and claimed != spec.fingerprint:
            raise ValueError(
                f"spec fingerprint mismatch: recorded {claimed[:12]}, "
                f"this code computes {spec.fingerprint[:12]} — "
                "version or calibration skew"
            )
        return spec

    def label(self) -> str:
        """Human-readable one-liner (log/progress output)."""
        model = f"/{self.model}" if self.model else ""
        extras = []
        if self.alpha is not None:
            extras.append(f"alpha={self.alpha}")
        if self.horizon_intervals is not None:
            extras.append(f"h={self.horizon_intervals}")
        if not self.charge_overheads:
            extras.append("no-overheads")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return (
            f"{self.n_cores}c {self.rm_kind}{model} "
            f"{'+'.join(self.apps)}{suffix}"
        )
