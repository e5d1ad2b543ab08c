"""Statistics: counters, AMAT decomposition, report formatting, persistence.

``counters`` collects every event the simulated machine reports;
``amat`` decomposes them into the paper's average-memory-access-time
argument; ``report`` renders rows/series as text or Markdown tables;
``export`` writes them as CSV; ``store`` is the persistent
append-only results store behind resumable campaigns (docs/campaigns.md);
``sampling`` is the SMARTS-style systematic-sampling machinery -- plans,
per-metric confidence intervals and the sampled statistics extension
(docs/sampling.md); ``histograms`` is the log2-bucketed counting
histogram shared with the workload analyzer (docs/ingestion.md).
"""

from .amat import AMATBreakdown, amat_breakdown
from .counters import LatencyAccumulator, SimulationStats
from .histograms import Log2Histogram, bucket_bounds, bucket_of
from .export import export_series_csv, export_table_csv, flatten_series
from .report import (
    format_markdown_table,
    format_series,
    format_table,
    geometric_mean,
    series_to_markdown,
)
from .sampling import (
    MetricEstimate,
    SampledSimulationStats,
    SamplingPlan,
    SamplingSummary,
)
from .store import (
    STORE_SCHEMA_VERSION,
    MissingRunError,
    ResultsStore,
    StoredRun,
    content_key,
)

__all__ = [
    "SimulationStats",
    "LatencyAccumulator",
    "Log2Histogram",
    "bucket_of",
    "bucket_bounds",
    "AMATBreakdown",
    "amat_breakdown",
    "format_table",
    "format_series",
    "format_markdown_table",
    "series_to_markdown",
    "geometric_mean",
    "export_series_csv",
    "export_table_csv",
    "flatten_series",
    "ResultsStore",
    "StoredRun",
    "MissingRunError",
    "content_key",
    "STORE_SCHEMA_VERSION",
    "SamplingPlan",
    "SamplingSummary",
    "MetricEstimate",
    "SampledSimulationStats",
]

