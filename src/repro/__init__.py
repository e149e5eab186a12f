"""repro — reproduction of Nejat et al., "Coordinated Management of
Processor Configuration and Cache Partitioning to Optimize Energy under QoS
Constraints" (IPDPS 2020).

The package builds the paper's entire stack in Python:

* synthetic SPEC-like workload traces (``repro.trace``, ``repro.workloads``),
* a way-partitioned LLC with ATD utility monitoring and the paper's MLP
  counter extension (``repro.cache``, ``repro.atd``),
* a mechanistic interval core model and parametric power model
  (``repro.microarch``, ``repro.power``),
* a per-phase simulation database (``repro.database``),
* the coordinated resource managers RM1/RM2/RM3 with the online
  performance/energy models of Eqs. 1-5 (``repro.core``),
* the multi-core RM simulator and evaluation metrics (``repro.simulator``),
* one experiment per paper table/figure (``repro.experiments``).

Quickstart::

    from repro import default_system, build_database, spec_suite
    from repro.core import RM3, Model3
    from repro.simulator import MulticoreRMSimulator, energy_savings

    system = default_system(n_cores=4)
    db = build_database(spec_suite(), system)
    rm = RM3(system, Model3())
    result = MulticoreRMSimulator(db, rm).run(["mcf", "omnetpp", "libquantum", "gamess"])
"""

from repro.config import (
    CORE_PARAMS,
    CoreSize,
    Setting,
    SystemConfig,
    default_system,
)
from repro.database.builder import SimDatabase, build_database
from repro.workloads.suite import spec_suite

__version__ = "1.0.0"

__all__ = [
    "CORE_PARAMS",
    "CoreSize",
    "Setting",
    "SystemConfig",
    "default_system",
    "SimDatabase",
    "build_database",
    "spec_suite",
    "__version__",
]
