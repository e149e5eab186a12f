"""Per-component prediction-error decomposition.

The QoS study (Fig. 7) aggregates total prediction error; this utility
splits the error of one (current setting, target setting) prediction into

* **compute-side** — the Eq. 1 dispatch-scaling and stall-invariance
  assumptions (``T0 x D_i/D + T1`` vs the true compute time), and
* **memory-side** — the model's stall estimate vs the true leading-miss
  stall (including contention),

which identifies *why* a model mispredicts: Model1/2 err almost entirely on
the memory side, Model3's residual is dominated by the shared compute-side
assumptions.  Used by tests and handy for calibrating new applications.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CORE_PARAMS, Setting, SystemConfig
from repro.core.perf_models import ModelInputs, PerformanceModel
from repro.database.records import PhaseRecord

__all__ = ["ErrorDecomposition", "decompose_error"]


@dataclass(frozen=True)
class ErrorDecomposition:
    """Signed error components for one prediction, in seconds.

    ``total_s = compute_s + memory_s`` up to float rounding; positive means
    the model over-predicts (conservative), negative under-predicts (QoS
    risk).
    """

    target: Setting
    predicted_s: float
    actual_s: float
    compute_s: float
    memory_s: float

    @property
    def total_s(self) -> float:
        return self.predicted_s - self.actual_s

    @property
    def relative(self) -> float:
        return self.total_s / self.actual_s


def decompose_error(
    record: PhaseRecord,
    system: SystemConfig,
    model: PerformanceModel,
    current: Setting,
    target: Setting,
) -> ErrorDecomposition:
    """Split one prediction's error into compute and memory components.

    Both the prediction and the ground truth are decomposed against the
    same boundary: compute = everything that scales with frequency,
    memory = the frequency-invariant stall (Eq. 1's structure).
    """
    counters = record.counters_at(current)
    inputs = ModelInputs(counters=counters, atd=record.atd_report())

    predicted = model.predict_time_at(inputs, system, target)
    actual = record.time_at(target)

    # predicted split
    widths = {c: CORE_PARAMS[c].issue_width for c in CORE_PARAMS}
    d_ratio = widths[current.core] / widths[target.core]
    pred_compute = (counters.t0_cycles * d_ratio + counters.t1_cycles) / (
        target.f_ghz * 1e9
    )
    pred_memory = predicted - pred_compute

    # ground-truth split
    c, wi = int(target.core), target.ways - 1
    true_memory = float(record.mem_time_grid[c, wi])
    true_compute = actual - true_memory

    return ErrorDecomposition(
        target=target,
        predicted_s=predicted,
        actual_s=actual,
        compute_s=pred_compute - true_compute,
        memory_s=pred_memory - true_memory,
    )

