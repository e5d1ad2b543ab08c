"""`repro.api`: the stable public facade of the reproduction.

One import surface instead of six internal modules.  Scripts, notebooks
and the examples use *only* this module (CI greps ``examples/quickstart.py``
for it); the internal package layout can then keep evolving freely --
docs/architecture.md documents the compatibility contract.

Five verbs cover the workflows:

* :func:`simulate`       -- one simulation: config + workload -> result
* :func:`analyze`        -- characterise a trace directory into a profile
* :func:`import_trace`   -- convert an external trace into a trace dir
* :func:`run_campaign`   -- execute a campaign spec against a store
* :func:`open_store`     -- open a (sharded) results store

plus re-exports of the types those verbs consume and produce
(``SystemConfig``, ``make_workload``, ``ExperimentContext``, ...), resolved
lazily so ``import repro`` stays cheap.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .experiments.campaign import CampaignSpec, CampaignSummary
    from .stats.store import ResultsStore
    from .system.simulator import SimulationResult
    from .workloads.importers import ImportSummary

__all__ = [
    "simulate",
    "analyze",
    "import_trace",
    "run_campaign",
    "open_store",
    # Re-exported supporting types (lazily resolved):
    "SystemConfig",
    "NumaSystem",
    "Simulator",
    "SimulationResult",
    "SimulationStats",
    "SamplingPlan",
    "amat_breakdown",
    "make_workload",
    "record_workload",
    "TraceDirWorkload",
    "CampaignSpec",
    "CampaignSummary",
    "campaign_status",
    "merged_point_stats",
    "FailurePolicy",
    "ResultsStore",
    "ExperimentContext",
    "ExperimentSettings",
    "DESIGNS",
    "speedup",
    "format_table",
    "fit_clone",
    "load_clone",
]

#: Lazy re-export table: public name -> (module, attribute).  Resolution
#: happens on first attribute access (PEP 562), so importing :mod:`repro`
#: never drags in the experiments/service machinery.
_EXPORTS = {
    "SystemConfig": (".system.config", "SystemConfig"),
    "NumaSystem": (".system.numa_system", "NumaSystem"),
    "Simulator": (".system.simulator", "Simulator"),
    "SimulationResult": (".system.simulator", "SimulationResult"),
    "SimulationStats": (".stats.counters", "SimulationStats"),
    "SamplingPlan": (".stats.sampling", "SamplingPlan"),
    "amat_breakdown": (".stats.amat", "amat_breakdown"),
    "make_workload": (".workloads", "make_workload"),
    "record_workload": (".workloads.trace_io", "record_workload"),
    "TraceDirWorkload": (".workloads.trace_io", "TraceDirWorkload"),
    "CampaignSpec": (".experiments.campaign", "CampaignSpec"),
    "CampaignSummary": (".experiments.campaign", "CampaignSummary"),
    "campaign_status": (".experiments.campaign", "campaign_status"),
    "merged_point_stats": (".experiments.campaign", "merged_point_stats"),
    "FailurePolicy": (".experiments.runner", "FailurePolicy"),
    "ResultsStore": (".stats.store", "ResultsStore"),
    "ExperimentContext": (".experiments.common", "ExperimentContext"),
    "ExperimentSettings": (".experiments.common", "ExperimentSettings"),
    "DESIGNS": (".experiments.common", "DESIGNS"),
    "speedup": (".experiments.common", "speedup"),
    "format_table": (".stats.report", "format_table"),
    "fit_clone": (".workloads.clone", "fit_clone"),
    "load_clone": (".workloads.clone", "load_clone"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name, __package__), attribute)
    globals()[name] = value      # cache: subsequent accesses are direct
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


# ----------------------------------------------------------------------
# The five facade verbs
# ----------------------------------------------------------------------


def simulate(
    config=None,
    workload="streamcluster",
    *,
    engine: str = "compiled",
    scale: int = 512,
    accesses_per_thread: int = 2000,
    warmup_accesses_per_core: int = 0,
    prewarm: bool = True,
    sample_plan=None,
    check_invariants: bool = True,
) -> "SimulationResult":
    """Run one simulation and return its result (``result.stats`` is the
    :class:`~repro.stats.counters.SimulationStats`).

    ``config`` is a :class:`SystemConfig` (default: the paper's quad-socket
    C3D machine scaled by ``scale``); ``workload`` is a workload object
    (:func:`make_workload`, :class:`TraceDirWorkload`, a scenario) or a
    synthetic-workload name, which is then built at the same ``scale`` with
    ``accesses_per_thread`` accesses on every core of ``config``.
    ``engine`` names an execution engine from the :mod:`repro.engines`
    registry (``compiled``, ``object``, ``sampled``).  Machine
    invariants are checked after the run (``check_invariants=False`` skips).
    """
    from .system.config import SystemConfig
    from .system.numa_system import NumaSystem
    from .system.simulator import Simulator
    from .workloads import make_workload

    if config is None:
        config = SystemConfig.quad_socket(protocol="c3d").scaled(scale)
    if isinstance(workload, str):
        workload = make_workload(
            workload,
            scale=scale,
            accesses_per_thread=accesses_per_thread + warmup_accesses_per_core,
            num_threads=config.total_cores,
        )
    system = NumaSystem(config)
    result = Simulator(system, workload, engine=engine,
                       sample_plan=sample_plan).run(
        warmup_accesses_per_core=warmup_accesses_per_core, prewarm=prewarm
    )
    if check_invariants:
        violations = system.check_invariants()
        if violations:
            raise RuntimeError(
                f"machine invariants violated after simulation: {violations}"
            )
    return result


def analyze(trace_dir, **kwargs) -> Dict:
    """Characterise a trace directory into a ``workload-profile/v1`` dict.

    Footprint, read/write mix, sharing degree, reuse distances, locality --
    docs/ingestion.md documents every field.  Keyword arguments pass
    through to :func:`repro.workloads.analyzer.analyze_trace_dir`.
    """
    from .workloads.analyzer import analyze_trace_dir

    return analyze_trace_dir(Path(trace_dir), **kwargs)


def import_trace(fmt: str, src, dest, **kwargs) -> "ImportSummary":
    """Convert an external trace (``lackey``, ``pin-csv``, ``synchrotrace``)
    into a replayable trace directory (docs/ingestion.md)."""
    from .workloads.importers import import_trace as _import_trace

    return _import_trace(fmt, src, dest, **kwargs)


def run_campaign(
    spec,
    store=None,
    *,
    jobs: int = 1,
    failure_policy=None,
    stream=None,
) -> "CampaignSummary":
    """Execute a campaign against a results store, resumably.

    ``spec`` is a :class:`CampaignSpec`, a spec-shaped mapping, or a path
    to a spec JSON file; ``store`` is a :class:`ResultsStore`, a directory
    path, or ``None`` for the spec's own store directory.  Completed points
    are cache hits; failures retry/quarantine per ``failure_policy``
    (docs/campaigns.md, docs/robustness.md).
    """
    import sys

    from .experiments import campaign as campaign_module
    from .experiments.runner import FailurePolicy

    if isinstance(spec, (str, Path)):
        spec = campaign_module.CampaignSpec.from_file(spec)
    elif isinstance(spec, Mapping):
        spec = campaign_module.CampaignSpec.from_dict(spec)
    if store is None or isinstance(store, (str, Path)):
        store = open_store(spec.store_directory(store))
    return campaign_module.run_campaign(
        spec,
        store,
        jobs=jobs,
        failure_policy=failure_policy or FailurePolicy(),
        stream=stream if stream is not None else sys.stdout,
    )


def open_store(path: Union[str, Path]) -> "ResultsStore":
    """Open (or lazily create) the sharded results store at ``path``
    (docs/serving.md documents the layout and concurrency model)."""
    from .stats.store import ResultsStore

    return ResultsStore(path)
