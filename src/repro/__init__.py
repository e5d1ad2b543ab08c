"""repro -- a reproduction of "C3D: Mitigating the NUMA Bottleneck via
Coherent DRAM Caches" (Huang et al., MICRO 2016).

The package provides:

* ``repro.core`` -- the C3D protocol (clean DRAM caches + non-inclusive
  directory), the idealised C3D+full-directory variant, and the TLB-based
  broadcast filter;
* ``repro.coherence`` -- the coherence substrate and the baseline, snoopy and
  full-directory designs the paper compares against;
* ``repro.caches`` / ``repro.memory`` / ``repro.interconnect`` / ``repro.cpu``
  -- the simulated machine's building blocks (Table II);
* ``repro.system`` -- configuration, machine assembly and the trace-driven
  simulation driver;
* ``repro.workloads`` -- synthetic models of the PARSEC / CloudSuite / SPEC
  workloads the paper evaluates;
* ``repro.experiments`` -- one module per paper table/figure that regenerates
  its rows or series;
* ``repro.verification`` -- an explicit-state model checker for the C3D
  protocol (SWMR and per-location SC invariants).

The **supported import surface for scripts is** :mod:`repro.api`
(docs/architecture.md "Serving layer"): five verbs -- ``simulate``,
``analyze``, ``import_trace``, ``run_campaign``, ``open_store`` -- plus
re-exports of the types they consume.  Internal module paths may move
between releases; ``repro.api`` (and this package's top-level re-exports)
will not.

Quickstart::

    from repro import api

    result = api.simulate(workload="streamcluster", scale=512)
    print(result.stats.dram_cache_hit_rate(), result.total_time_ns)
"""

from . import api
from .api import analyze, import_trace, open_store, run_campaign, simulate
from .stats import SimulationStats, amat_breakdown
from .system import (
    PROTOCOL_NAMES,
    PROTOCOL_REGISTRY,
    NumaSystem,
    SimulationResult,
    Simulator,
    SystemConfig,
)
from .workloads import EVALUATED_WORKLOADS, make_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "api",
    "simulate",
    "analyze",
    "import_trace",
    "run_campaign",
    "open_store",
    "SystemConfig",
    "NumaSystem",
    "Simulator",
    "SimulationResult",
    "SimulationStats",
    "amat_breakdown",
    "PROTOCOL_NAMES",
    "PROTOCOL_REGISTRY",
    "make_workload",
    "workload_names",
    "EVALUATED_WORKLOADS",
]
