"""The paper's primary contribution: the coordinated resource manager.

* :mod:`repro.core.perf_models` — the three online performance models
  (Eq. 1-2): Model1 (no MLP), Model2 (constant MLP, prior work), Model3
  (proposed, ATD/MLP-counter based) plus the Perfect oracle.
* :mod:`repro.core.energy_model` — the online energy model (Eq. 4-5).
* :mod:`repro.core.qos` — the QoS predicate (Eq. 3).
* :mod:`repro.core.local_opt` — per-core optimisation producing
  ``c*(w), f*(w)`` and the energy curve ``E(w)`` (fused kernel and
  unfused reference oracle).
* :mod:`repro.core.local_cache` — phase-level memoization of local
  results (the ``local_mode="memoized"`` layer).
* :mod:`repro.core.energy_curve` / :mod:`repro.core.global_opt` — the
  recursive pairwise curve reduction allocating LLC ways across cores.
* :mod:`repro.core.managers` — RM1 (w), RM2 (w+f), RM3 (w+f+c) and the
  idle baseline manager.
* :mod:`repro.core.overheads` — RM execution-cost accounting.
"""

from repro.core.perf_models import (
    Model1,
    Model2,
    Model3,
    ModelInputs,
    PerfectModel,
    PerformanceModel,
)
from repro.core.energy_model import OnlineEnergyModel
from repro.core.qos import QoSPolicy, violation_magnitude
from repro.core.local_cache import LocalOptMemo
from repro.core.local_opt import (
    LocalOptKernel,
    LocalOptResult,
    RMCapabilities,
    optimize_local,
)
from repro.core.energy_curve import EnergyCurve
from repro.core.global_opt import GlobalOptResult, ReductionTree, partition_ways
from repro.core.managers import (
    LOCAL_MODES,
    REDUCTION_MODES,
    RM1,
    RM2,
    RM3,
    IdleRM,
    ResourceManager,
    make_rm,
)
from repro.core.overheads import RMCostModel

__all__ = [
    "PerformanceModel",
    "Model1",
    "Model2",
    "Model3",
    "PerfectModel",
    "ModelInputs",
    "OnlineEnergyModel",
    "QoSPolicy",
    "violation_magnitude",
    "RMCapabilities",
    "LocalOptKernel",
    "LocalOptMemo",
    "LocalOptResult",
    "optimize_local",
    "EnergyCurve",
    "GlobalOptResult",
    "ReductionTree",
    "LOCAL_MODES",
    "REDUCTION_MODES",
    "partition_ways",
    "ResourceManager",
    "IdleRM",
    "RM1",
    "RM2",
    "RM3",
    "make_rm",
    "RMCostModel",
]
