"""Synthetic workload traces.

The paper drives its evaluation with SPEC CPU2006 running on Sniper.  With
neither available offline, this subpackage synthesises the only signals the
resource-management stack actually observes:

* an **LLC access stream** per program phase — addresses with controlled
  reuse (recency) behaviour, program-order instruction indices, a load→load
  dependence structure, and an emulated out-of-order *arrival order* at the
  cache (what the ATD sees),
* **compute-side rates** — ILP-limited IPC per core size, branch
  misprediction and cache-hit stall rates.

Calibrating these knobs per application reproduces the paper's CS/CI × PS/PI
categorisation (Table II), which is the property all downstream experiments
depend on.
"""

from repro.trace.spec import AppSpec, PhaseSpec
from repro.trace.reuse import (
    ReuseProfile,
    cliff_profile,
    flat_profile,
    small_ws_profile,
    streaming_profile,
)
from repro.trace.stream import FRESH, AccessStream
from repro.trace.generator import PhaseTraceGenerator, IntervalTrace

__all__ = [
    "AppSpec",
    "PhaseSpec",
    "ReuseProfile",
    "cliff_profile",
    "flat_profile",
    "small_ws_profile",
    "streaming_profile",
    "FRESH",
    "AccessStream",
    "PhaseTraceGenerator",
    "IntervalTrace",
]
