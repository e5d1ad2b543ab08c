"""Workload substrate: synthetic generators, trace files and scenario mixes.

Three frontends produce the per-thread access streams the simulator runs:

* **synthetic** (:mod:`.synthetic` + the :mod:`.registry`) -- parameterised
  generators modelling the paper's PARSEC/CloudSuite/SPEC benchmarks;
* **trace files** (:mod:`.trace_io`) -- on-disk CSV/binary traces, recorded
  from any workload for exact replay or authored externally;
* **scenarios** (:mod:`.scenario`) -- compositions of the other two into
  multi-program, multi-socket mixes.

All three implement the same workload protocol (``num_threads`` /
``stream`` / ``compiled_trace`` / ``memory_regions`` /
``serial_init_pages``) and run on both simulation engines.

The ingestion pipeline (docs/ingestion.md) feeds the trace frontend from
the outside world: :mod:`.importers` converts external memory traces
(Valgrind lackey, PIN-style CSV, SynchroTrace-style events) into trace
directories, :mod:`.analyzer` characterises any trace directory into a
JSON profile, and :mod:`.clone` fits a synthetic :class:`WorkloadSpec`
to a profile so a recorded workload becomes a scalable generator.
"""

from .analyzer import analyze_trace_dir, analyze_workload, profile_to_markdown
from .clone import fit_clone, load_clone, save_clone
from .cloudsuite import CLOUDSUITE_SPECS
from .compiled import CompiledTrace, compile_trace
from .parsec import PARSEC_SPECS
from .registry import (
    EVALUATED_WORKLOADS,
    WORKLOAD_SPECS,
    get_spec,
    make_workload,
    workload_names,
)
from .scenario import (
    SCENARIO_SPECS,
    Scenario,
    ScenarioEntry,
    ScenarioWorkload,
    build_scenario_workload,
    build_workload,
    get_scenario,
    load_scenario,
)
from .importers import IMPORTERS, ImportSummary, import_trace, importer_names
from .spec_suite import SPEC_SPECS
from .synthetic import REGION_NAMES, SyntheticWorkload, WorkloadSpec
from .trace import MemoryAccess
from .trace_io import (
    TRACE_FORMATS,
    TraceDirWorkload,
    TraceFormatError,
    compile_trace_file,
    read_trace,
    record_workload,
    write_trace,
)

__all__ = [
    "MemoryAccess",
    "CompiledTrace",
    "compile_trace",
    "TRACE_FORMATS",
    "TraceFormatError",
    "TraceDirWorkload",
    "read_trace",
    "write_trace",
    "compile_trace_file",
    "record_workload",
    "IMPORTERS",
    "ImportSummary",
    "import_trace",
    "importer_names",
    "analyze_trace_dir",
    "analyze_workload",
    "profile_to_markdown",
    "fit_clone",
    "save_clone",
    "load_clone",
    "Scenario",
    "ScenarioEntry",
    "ScenarioWorkload",
    "SCENARIO_SPECS",
    "get_scenario",
    "load_scenario",
    "build_scenario_workload",
    "build_workload",
    "WorkloadSpec",
    "SyntheticWorkload",
    "REGION_NAMES",
    "PARSEC_SPECS",
    "CLOUDSUITE_SPECS",
    "SPEC_SPECS",
    "WORKLOAD_SPECS",
    "EVALUATED_WORKLOADS",
    "workload_names",
    "make_workload",
    "get_spec",
]

