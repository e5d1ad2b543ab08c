"""Experiment harness: one module per reproduced table / figure.

==================  ==========================================================
module              paper content
==================  ==========================================================
``table1``          Table I   -- remote-memory access fractions
``fig2``            Fig. 2    -- NUMA bottleneck analysis (idealisations)
``fig3``            Fig. 3    -- memory accesses vs. cache capacity
``fig6``            Fig. 6    -- 4-socket speedups
``fig7``            Fig. 7    -- 2-socket speedups
``fig8``            Fig. 8    -- C3D memory traffic
``fig9``            Fig. 9    -- inter-socket traffic
``fig10``           Fig. 10   -- DRAM-cache latency sensitivity
``fig11``           Fig. 11   -- inter-socket latency sensitivity
``broadcast_filter``  section VI-C -- TLB broadcast filtering
``directory_cost``  section III-B -- directory storage arithmetic
``runner``          run everything and print a consolidated report
``campaign``        declarative, resumable sweep campaigns (JSON specs)
``report``          render stored results to Markdown/CSV (no simulation)
==================  ==========================================================

``campaign`` and ``report`` work through the persistent results store
(:mod:`repro.stats.store`); see docs/campaigns.md for the workflow.
"""

from .common import (
    DESIGNS,
    DRAM_CACHE_DESIGNS,
    ExperimentContext,
    ExperimentSettings,
    RunRecord,
    speedup,
)

__all__ = [
    "ExperimentSettings",
    "ExperimentContext",
    "RunRecord",
    "DESIGNS",
    "DRAM_CACHE_DESIGNS",
    "speedup",
]

