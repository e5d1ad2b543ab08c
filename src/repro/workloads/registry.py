"""Workload registry: every benchmark the paper evaluates, by name.

The registry is the single entry point used by the examples, the experiment
harness and the benchmarks.  :data:`WORKLOAD_SPECS` merges the three suite
modules -- :data:`~repro.workloads.parsec.PARSEC_SPECS` (five multi-threaded
PARSEC 3.0 benchmarks), :data:`~repro.workloads.cloudsuite.CLOUDSUITE_SPECS`
(four server workloads) and :data:`~repro.workloads.spec_suite.SPEC_SPECS`
(the single-threaded mcf) -- and :func:`make_workload` instantiates any of
them as a :class:`~repro.workloads.synthetic.SyntheticWorkload`.  Named
multi-program compositions live in the sibling scenario registry
(:data:`repro.workloads.scenario.SCENARIO_SPECS`); see ``docs/workloads.md``
for the full tour.

>>> from repro.workloads import make_workload, workload_names
>>> workload_names()[:3]
['facesim', 'streamcluster', 'fluidanimate']
>>> wl = make_workload("streamcluster", scale=256, accesses_per_thread=5000)
>>> wl.num_threads
32
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .cloudsuite import CLOUDSUITE_SPECS
from .parsec import PARSEC_SPECS
from .spec_suite import SPEC_SPECS
from .synthetic import SyntheticWorkload, WorkloadSpec

__all__ = [
    "WORKLOAD_SPECS",
    "MICRO_SPECS",
    "EVALUATED_WORKLOADS",
    "workload_names",
    "make_workload",
    "get_spec",
]

#: Microbenchmarks used by the performance harnesses (perfbench, ``repro
#: bench``), not part of the paper's evaluation set.  ``hotset`` is
#: deliberately cache-resident: every region fits in an unscaled L1 and the
#: shared hot region is read-only, so after the cold fills virtually every
#: access is an L1 hit.  The paper's own workloads are DRAM-cache studies and
#: therefore miss-dominated by design, so ``hotset`` isolates the per-access
#: hit path: it is perfbench's ``l1-resident`` control (BENCHMARK.json).
MICRO_SPECS: Dict[str, WorkloadSpec] = {
    "hotset": WorkloadSpec(
        name="hotset",
        private_bytes_per_thread=4096,
        hot_shared_bytes=4096,
        warm_shared_bytes=0,
        cold_shared_bytes=0,
        p_private=0.50,
        p_hot=0.50,
        p_warm=0.0,
        p_cold=0.0,
        write_fraction_private=0.40,
        write_fraction_hot=0.0,
        write_fraction_warm=0.0,
        write_fraction_cold=0.0,
        mean_gap=2,
        spatial_accesses_per_block=4,
        best_policy="ft2",
        description="L1-resident microbenchmark for the per-access hit path "
        "(one private page per thread plus one read-only shared page)",
    ),
}

#: All specs known to the registry, including the single-threaded mcf.
WORKLOAD_SPECS: Dict[str, WorkloadSpec] = {}
WORKLOAD_SPECS.update(PARSEC_SPECS)
WORKLOAD_SPECS.update(CLOUDSUITE_SPECS)
WORKLOAD_SPECS.update(SPEC_SPECS)
WORKLOAD_SPECS.update(MICRO_SPECS)

#: The nine multi-threaded workloads used in the paper's main evaluation
#: (Figs. 2, 3, 6-11 and Table I), in plotting order.
EVALUATED_WORKLOADS: List[str] = [
    "facesim",
    "streamcluster",
    "fluidanimate",
    "canneal",
    "freqmine",
    "nutch",
    "cassandra",
    "classification",
    "tunkrank",
]


def workload_names(*, include_spec: bool = False) -> List[str]:
    """Names of the evaluated workloads (optionally including mcf)."""
    names = list(EVALUATED_WORKLOADS)
    if include_spec:
        names.extend(SPEC_SPECS)
    return names


def get_spec(name: str) -> WorkloadSpec:
    """Look up a workload spec by name."""
    try:
        return WORKLOAD_SPECS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown workload {name!r}; known workloads: {sorted(WORKLOAD_SPECS)}"
        ) from exc


def make_workload(
    name: str,
    *,
    scale: int = 1,
    accesses_per_thread: int = 20_000,
    num_threads: Optional[int] = None,
    seed: Optional[int] = None,
) -> SyntheticWorkload:
    """Instantiate a workload generator by benchmark name.

    Parameters
    ----------
    name:
        Benchmark name (see :data:`WORKLOAD_SPECS`).
    scale:
        Divide all region sizes by this factor; pass the same factor given to
        :meth:`repro.system.config.SystemConfig.scaled`.
    accesses_per_thread:
        Trace length per thread.
    num_threads:
        Override the spec's thread count (e.g. to match a smaller test
        machine).
    seed:
        Override the spec's RNG seed (for independent trials).
    """
    spec = get_spec(name)
    if num_threads is not None:
        spec = spec.with_threads(num_threads)
    if seed is not None:
        import dataclasses

        spec = dataclasses.replace(spec, seed=seed)
    spec = spec.scaled(scale)
    return SyntheticWorkload(spec, accesses_per_thread=accesses_per_thread)
