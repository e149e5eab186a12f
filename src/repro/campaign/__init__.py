"""The campaign engine: plan -> dedupe -> execute -> cache simulations.

Every experiment in this repository boils down to a set of *runs*: one
multi-core simulation of a workload under a (system, resource manager,
model, QoS, horizon, overhead) combination.  The campaign engine makes
that set explicit:

* :class:`~repro.campaign.spec.RunSpec` — a frozen, hashable description
  of one run with a stable content fingerprint,
* :class:`~repro.campaign.executor.Campaign` — a planner that collects
  specs from many experiments, dedupes them by fingerprint and executes
  the unique remainder serially or across a process pool
  (``REPRO_CAMPAIGN_WORKERS``), bit-identically for any worker count,
* :mod:`~repro.campaign.results` — the in-memory result memo plus the
  optional on-disk store (``REPRO_RESULT_CACHE``) that lets repeated
  invocations (CLI, benchmarks, tests) skip simulation entirely, with an
  LRU size cap (``REPRO_RESULT_CACHE_MAX_MB``) enforced after every
  campaign and via ``python -m repro cache --prune``,
* :func:`~repro.campaign.database.get_database` — the shared database
  cache, rebinding one build per seed to any requested core count,
* :mod:`~repro.campaign.journal` — the crash-safe, append-only run
  journal written next to the result store, making campaigns resumable
  (``repro campaign --status``) and their failures inspectable.

Each spec gets one attempt: a run is deterministic in its spec, so a
spec whose simulation raises fails at once, and a re-run resumes from
the store.  Execution recovers from what one host can suffer (a pool
worker killed mid-spec, Ctrl-C, a corrupt store entry) while staying
bit-identical to the fault-free serial run — see
:mod:`repro.campaign.executor` and :mod:`repro.util.faults`.  Every
``REPRO_*`` knob named here is declared, parsed and validated once, in
:mod:`repro.settings`.

The bit-identical contract itself is *checked*, not assumed
(:mod:`repro.campaign.attest`): every published result carries a digest
+ provenance sidecar, occupied-slot writes byte-compare before merging
(different bytes = quarantined divergence event), and ``repro verify``
audits the store by digest sweep and deterministic-sample re-execution.
"""

from repro.campaign.attest import (
    ResultDivergenceError,
    attestation_stats,
    digest_text,
    divergence_stats,
    provenance_block,
    read_attestation,
    verify_store,
    write_attestation,
)
from repro.campaign.database import clear_database_cache, get_database
from repro.campaign.executor import (
    Campaign,
    CampaignExecutionError,
    ResultSet,
    execute_spec,
    resolve_campaign_workers,
    run_campaign,
)
from repro.campaign.journal import (
    CampaignJournal,
    journal_status,
    protected_fingerprints,
)
from repro.campaign.results import (
    cache_stats,
    clear_result_memo,
    drop_memo_entry,
    prune_result_cache,
    quarantine_stats,
    result_cache_dir,
    result_from_json,
    result_to_json,
)
from repro.campaign.spec import RunSpec

__all__ = [
    "Campaign",
    "CampaignExecutionError",
    "CampaignJournal",
    "ResultDivergenceError",
    "ResultSet",
    "RunSpec",
    "attestation_stats",
    "cache_stats",
    "clear_database_cache",
    "clear_result_memo",
    "digest_text",
    "divergence_stats",
    "drop_memo_entry",
    "execute_spec",
    "get_database",
    "journal_status",
    "protected_fingerprints",
    "provenance_block",
    "prune_result_cache",
    "quarantine_stats",
    "read_attestation",
    "resolve_campaign_workers",
    "result_cache_dir",
    "result_from_json",
    "result_to_json",
    "run_campaign",
    "verify_store",
    "write_attestation",
]
