"""Statistical sampling: plans, per-metric confidence intervals, sampled stats.

SMARTS-style systematic sampling (Wunderlich et al., ISCA'03) trades bounded
statistical error for a large wall-clock win: instead of simulating every
access in detail, the measured region is divided into ``num_units`` equal
periods and each period is simulated as

* a **fast-forward** segment -- functional-only state updates (cache,
  directory and DRAM-cache contents advance; no timing, no statistics),
* a **warmup** segment -- full detailed simulation whose statistics are
  discarded (it re-establishes timing state: store buffers, channel
  occupancy) after the un-timed fast-forward, and
* a **detail** segment -- full detailed simulation that is measured.

Each detail window yields one observation per metric; the per-metric mean
and a t-based confidence interval over the windows are reported alongside
the (detail-window-only) counters.  ``docs/sampling.md`` documents the plan
schema, the error-bound semantics and when *not* to sample.

This module is pure statistics: the driver loop that alternates the phases
lives in :class:`repro.engines.SampledEngine`, and the functional access
path in :meth:`repro.system.socket.Socket.access_functional`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .counters import SimulationStats

__all__ = [
    "SamplingPlan",
    "SamplingUnit",
    "MetricEstimate",
    "SamplingSummary",
    "SampledSimulationStats",
    "WindowSample",
    "snapshot_counters",
    "ratio_estimate",
    "t_critical",
    "SAMPLED_METRICS",
    "estimate_metrics",
    "WindowOutcome",
    "merge_window_outcomes",
]

#: Confidence levels with exact two-sided Student-t critical values below.
SUPPORTED_CONFIDENCES = (0.90, 0.95, 0.99)

#: Two-sided t critical values, ``{confidence: [df=1, df=2, ..., df=30]}``;
#: degrees of freedom beyond 30 fall back to the normal quantile.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
        1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
        1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
        3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
        2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
    ),
}

_Z_VALUES = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom.

    ``confidence`` must be one of :data:`SUPPORTED_CONFIDENCES` (the values
    are tabulated exactly rather than approximated); ``df > 30`` uses the
    normal quantile, which the t distribution has converged to by then.
    """
    if confidence not in _T_TABLE:
        raise ValueError(
            f"unsupported confidence {confidence!r}; "
            f"expected one of {list(SUPPORTED_CONFIDENCES)}"
        )
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    table = _T_TABLE[confidence]
    if df <= len(table):
        return table[df - 1]
    return _Z_VALUES[confidence]


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingUnit:
    """One period of a sampling schedule, in accesses per core."""

    fastforward: int
    warmup: int
    detail: int

    @property
    def length(self) -> int:
        return self.fastforward + self.warmup + self.detail


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample the measured region of a simulation.

    ``num_units`` periods are laid out back to back over the measured region;
    each period ends with ``warmup`` unmeasured detailed accesses followed by
    ``detail`` measured accesses per core, and fast-forwards functionally
    through the rest.  With a ``seed`` the position of the warmup+detail
    window is jittered uniformly inside each period (systematic sampling with
    random offsets); without one the window sits at the end of its period.

    ``confidence`` selects the t-interval level.  ``bias_floor`` widens every
    reported interval to at least this *relative* half-width: the t interval
    only captures sampling variance, while functional warming leaves a small
    systematic bias (imperfect timing state at window starts) that variance
    cannot see -- the floor is the honest accounting for it.  Set it to 0 to
    report the raw t interval.
    """

    num_units: int = 8
    detail: int = 150
    warmup: int = 100
    confidence: float = 0.95
    bias_floor: float = 0.02
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_units < 2:
            raise ValueError("a sampling plan needs at least 2 units for an interval")
        if self.detail < 1:
            raise ValueError("detail window length must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup length must be >= 0")
        if self.bias_floor < 0:
            raise ValueError("bias_floor must be >= 0")
        t_critical(self.confidence, 1)  # validates the confidence level

    @property
    def window(self) -> int:
        """Detailed accesses per core per unit (warmup + detail)."""
        return self.warmup + self.detail

    def min_region(self) -> int:
        """Smallest measured region (accesses per core) the plan fits in."""
        return self.num_units * self.window

    def units(self, region_length: int) -> List[SamplingUnit]:
        """Lay the plan out over a measured region of ``region_length`` accesses.

        Returns one :class:`SamplingUnit` per period; the periods sum exactly
        to ``region_length`` (the first ``region_length % num_units`` periods
        are one access longer).  Raises ``ValueError`` when the region is too
        short for the plan -- sampling a region the plan would cover entirely
        in detail has no benefit and should be run exactly instead.
        """
        if region_length < self.min_region():
            raise ValueError(
                f"measured region of {region_length} accesses/core is too short "
                f"for {self.num_units} x (warmup {self.warmup} + detail "
                f"{self.detail}) sampling units; run this point exactly"
            )
        base, extra = divmod(region_length, self.num_units)
        rng = None
        if self.seed is not None:
            import random

            rng = random.Random(self.seed)
        units: List[SamplingUnit] = []
        for index in range(self.num_units):
            period = base + (1 if index < extra else 0)
            slack = period - self.window
            if rng is not None and slack > 0:
                lead = rng.randrange(slack + 1)
            else:
                lead = slack
            units.append(
                SamplingUnit(fastforward=lead, warmup=self.warmup, detail=self.detail)
            )
            # Slack after a jittered window becomes a pure fast-forward unit
            # (warmup=detail=0) so the periods stay contiguous.
            trail = slack - lead
            if trail:
                units.append(SamplingUnit(fastforward=trail, warmup=0, detail=0))
        return units

    @classmethod
    def for_region(
        cls,
        region_length: int,
        *,
        num_units: int = 8,
        confidence: float = 0.95,
        bias_floor: float = 0.02,
        seed: Optional[int] = None,
    ) -> "SamplingPlan":
        """Derive a plan that fits a measured region of ``region_length``.

        Sizes ~``num_units`` windows covering ~40% of the region (2/3 detail,
        1/3 warmup), shrinking the unit count for very short regions.  This
        is the default plan used when a caller asks for sampling without
        specifying one; explicit plans give better speedups on long regions.
        """
        if region_length < 4:
            raise ValueError(
                f"measured region of {region_length} accesses/core is too "
                "short to sample; run it exactly"
            )
        units = max(2, min(num_units, region_length // 2))
        period = region_length // units
        window = max(2, (period * 2) // 5)
        detail = max(1, (window * 2) // 3)
        warmup = window - detail
        return cls(
            num_units=units,
            detail=detail,
            warmup=warmup,
            confidence=confidence,
            bias_floor=bias_floor,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Serialisation (store keys, CLI spec strings)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """Canonical JSON form (hashed into sampled store keys)."""
        return {
            "num_units": self.num_units,
            "detail": self.detail,
            "warmup": self.warmup,
            "confidence": self.confidence,
            "bias_floor": self.bias_floor,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SamplingPlan":
        return cls(
            num_units=payload["num_units"],
            detail=payload["detail"],
            warmup=payload["warmup"],
            confidence=payload.get("confidence", 0.95),
            bias_floor=payload.get("bias_floor", 0.02),
            seed=payload.get("seed"),
        )

    @classmethod
    def from_spec(cls, spec: str) -> "SamplingPlan":
        """Parse a ``units=8,detail=150,warmup=100`` spec string.

        Unknown keys, malformed values and out-of-range parameters raise
        ``ValueError`` with a message naming the offending part.
        """
        fields_map: Dict[str, object] = {}
        converters: Dict[str, Callable[[str], object]] = {
            "units": int,
            "detail": int,
            "warmup": int,
            "confidence": float,
            "bias_floor": float,
            "seed": int,
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad sample-plan component {part!r}; expected key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in converters:
                raise ValueError(
                    f"unknown sample-plan key {key!r}; "
                    f"expected one of {sorted(converters)}"
                )
            try:
                fields_map[key] = converters[key](raw.strip())
            except ValueError:
                raise ValueError(
                    f"bad sample-plan value for {key!r}: {raw.strip()!r}"
                ) from None
        kwargs = {
            "num_units": fields_map.get("units", cls.num_units),
            "detail": fields_map.get("detail", cls.detail),
            "warmup": fields_map.get("warmup", cls.warmup),
            "confidence": fields_map.get("confidence", cls.confidence),
            "bias_floor": fields_map.get("bias_floor", cls.bias_floor),
            "seed": fields_map.get("seed", cls.seed),
        }
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Window snapshots
# ----------------------------------------------------------------------

#: A flattened view of every counter a detail window can change.
WindowSample = Dict[str, float]

#: Latency accumulators flattened as ``<name>_total`` / ``<name>_count``.
_LATENCY_FIELDS = SimulationStats._LATENCY_FIELDS


def snapshot_counters(stats: SimulationStats) -> WindowSample:
    """Flatten the scalar counters and latency sums of ``stats``."""
    sample: WindowSample = {
        name: getattr(stats, name) for name in SimulationStats._MERGE_SUM_FIELDS
    }
    for name in _LATENCY_FIELDS:
        acc = getattr(stats, name)
        sample[f"{name}_total"] = acc.total
        sample[f"{name}_count"] = acc.count
    return sample


# ----------------------------------------------------------------------
# Window outcomes: one measured window's counters, position-independent
# ----------------------------------------------------------------------


@dataclass
class WindowOutcome:
    """Everything one measured warmup+detail window produced.

    Windows are measured on an isolated copy of the architectural state at
    the window's start (the sampled engine forks a measurement child per
    window), so an outcome is a pure function of the functional chain up to
    ``unit_index``.  ``stats`` starts zeroed in the child, so its counters
    *are* the window's deltas; ``detail_elapsed`` is each core's simulated
    detail time and ``inter_socket_bytes`` the interconnect traffic of the
    detail phase.  Picklable, so the child ships it back over a pipe.
    """

    unit_index: int
    detail_executed: int
    stats: SimulationStats
    inter_socket_bytes: int
    detail_elapsed: Dict[int, float]


def merge_window_outcomes(
    stats: SimulationStats,
    outcomes: Sequence[WindowOutcome],
    core_ids: Sequence[int],
) -> Tuple[List[WindowSample], int, int, Dict[int, float]]:
    """Fold window outcomes into ``stats`` in deterministic window order.

    Counters and latency accumulators merge window by window (ascending
    ``unit_index``) whatever order ``outcomes`` arrive in, so the float
    addition order -- and therefore every derived statistic -- is fixed by
    the plan alone.  Returns the
    per-window samples for the estimators, the total detail accesses, the
    summed inter-socket bytes, and each core's accumulated detail time
    (written into ``stats.core_finish_ns`` by the caller's contract here).
    """
    samples: List[WindowSample] = []
    detail_total = 0
    inter_socket_bytes = 0
    detail_elapsed = {core_id: 0.0 for core_id in core_ids}
    for outcome in sorted(outcomes, key=lambda o: o.unit_index):
        # Window stats start zeroed in the measurement child and carry no
        # core_finish_ns entries, so a plain merge sums the scalar counters
        # and latency accumulators (maxima included) without touching the
        # completion times handled below.
        stats.merge(outcome.stats)
        samples.append(snapshot_counters(outcome.stats))
        detail_total += outcome.detail_executed
        inter_socket_bytes += outcome.inter_socket_bytes
        for core_id, elapsed in outcome.detail_elapsed.items():
            detail_elapsed[core_id] += elapsed
    for core_id, elapsed in detail_elapsed.items():
        stats.core_finish_ns[core_id] = elapsed
    return samples, detail_total, inter_socket_bytes, detail_elapsed


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------


def ratio_estimate(
    numerators: Sequence[float],
    denominators: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Ratio-of-sums estimate with a linearised confidence interval.

    Estimates ``R = sum(num) / sum(den)`` -- the same definition an exact
    run uses over its whole measured region -- and derives the interval from
    the per-unit residuals ``e_i = num_i - R * den_i`` (the classical ratio
    estimator: Cochran, *Sampling Techniques*, ch. 6)::

        Var(R) ~= (1 / n) * s_e^2 / dbar^2

    Units are expected to have comparable denominators (equal-length detail
    windows), which keeps the linearisation accurate.
    """
    if len(numerators) != len(denominators):
        raise ValueError("numerators and denominators must have equal length")
    n = len(numerators)
    if n < 2:
        raise ValueError("need at least 2 observations for a confidence interval")
    den_sum = float(sum(denominators))
    if den_sum == 0:
        raise ValueError("denominator sum is zero; the metric is undefined")
    ratio = float(sum(numerators)) / den_sum
    dbar = den_sum / n
    residuals = [num - ratio * den for num, den in zip(numerators, denominators)]
    s2 = sum(e * e for e in residuals) / (n - 1)
    half = t_critical(confidence, n - 1) * math.sqrt(s2 / n) / dbar
    return ratio, half


@dataclass(frozen=True)
class MetricEstimate:
    """Mean and confidence half-width of one sampled metric."""

    mean: float
    half_width: float
    units: int
    confidence: float

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper

    def format(self) -> str:
        return f"{self.mean:.4g} +/- {self.half_width:.2g}"

    def to_json_dict(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "half_width": self.half_width,
            "units": self.units,
            "confidence": self.confidence,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "MetricEstimate":
        return cls(
            mean=payload["mean"],
            half_width=payload["half_width"],
            units=payload["units"],
            confidence=payload["confidence"],
        )


#: The sampled metrics: ``name -> (numerator key(s), denominator key(s))``.
#: Every metric is a ratio of counter sums over a window, matching the exact
#: run's definition of the same quantity (see ``SimulationStats``).
SAMPLED_METRICS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "amat_ns": (("read_latency_total",), ("read_latency_count",)),
    "write_latency_ns": (("write_latency_total",), ("write_latency_count",)),
    "llc_miss_latency_ns": (("llc_miss_latency_total",), ("llc_miss_latency_count",)),
    "l1_hit_rate": (("l1_hits",), ("l1_hits", "l1_misses")),
    "llc_hit_rate": (("llc_hits",), ("llc_hits", "llc_misses")),
    "dram_cache_hit_rate": (
        ("dram_cache_hits",),
        ("dram_cache_hits", "dram_cache_misses"),
    ),
    "remote_memory_fraction": (
        ("memory_reads_remote", "memory_writes_remote"),
        (
            "memory_reads_local",
            "memory_reads_remote",
            "memory_writes_local",
            "memory_writes_remote",
        ),
    ),
}


def _metric_terms(sample: WindowSample, keys: Tuple[str, ...]) -> float:
    return sum(sample[key] for key in keys)


def estimate_metrics(
    samples: Sequence[WindowSample],
    *,
    confidence: float = 0.95,
    bias_floor: float = 0.0,
) -> Dict[str, MetricEstimate]:
    """Per-metric ratio estimates over the detail-window ``samples``.

    Metrics whose denominator is zero in every window (e.g. the DRAM-cache
    hit rate on the baseline design) are omitted.  ``bias_floor`` widens each
    half-width to at least ``bias_floor * |mean|`` (see
    :class:`SamplingPlan`).
    """
    estimates: Dict[str, MetricEstimate] = {}
    for name, (num_keys, den_keys) in SAMPLED_METRICS.items():
        numerators = [_metric_terms(sample, num_keys) for sample in samples]
        denominators = [_metric_terms(sample, den_keys) for sample in samples]
        if sum(denominators) == 0:
            continue
        mean, half = ratio_estimate(numerators, denominators, confidence)
        half = max(half, bias_floor * abs(mean))
        estimates[name] = MetricEstimate(
            mean=mean, half_width=half, units=len(samples), confidence=confidence
        )
    return estimates


# ----------------------------------------------------------------------
# The sampled statistics object
# ----------------------------------------------------------------------


@dataclass
class SamplingSummary:
    """What a sampled run measured, and with what confidence.

    ``metrics`` maps metric names to :class:`MetricEstimate`;
    ``detail_accesses`` / ``covered_accesses`` describe coverage (per run,
    summed over cores), and ``scale`` is the extrapolation factor from
    detail-window totals to whole-region totals
    (``covered_accesses / detail_accesses``).
    """

    plan: SamplingPlan
    metrics: Dict[str, MetricEstimate] = field(default_factory=dict)
    detail_accesses: int = 0
    covered_accesses: int = 0

    @property
    def scale(self) -> float:
        """Extrapolation factor from detail-window totals to region totals."""
        if not self.detail_accesses:
            return 1.0
        return self.covered_accesses / self.detail_accesses

    def format(self) -> str:
        """Multi-line human-readable summary (the CLI prints this)."""
        lines = [
            f"sampling: {self.plan.num_units} units x (warmup {self.plan.warmup}"
            f" + detail {self.plan.detail}) per core, "
            f"{self.detail_accesses}/{self.covered_accesses} accesses measured "
            f"({100.0 / self.scale:.1f}%), "
            f"{self.plan.confidence:.0%} confidence",
        ]
        for name, estimate in self.metrics.items():
            lines.append(f"  {name:<24s} {estimate.format()}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan.to_json_dict(),
            "metrics": {
                name: estimate.to_json_dict()
                for name, estimate in self.metrics.items()
            },
            "detail_accesses": self.detail_accesses,
            "covered_accesses": self.covered_accesses,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SamplingSummary":
        return cls(
            plan=SamplingPlan.from_json_dict(payload["plan"]),
            metrics={
                name: MetricEstimate.from_json_dict(entry)
                for name, entry in payload["metrics"].items()
            },
            detail_accesses=payload["detail_accesses"],
            covered_accesses=payload["covered_accesses"],
        )


class SampledSimulationStats(SimulationStats):
    """:class:`SimulationStats` plus per-metric sampling estimates.

    The inherited counters cover the **detail windows only** (multiply by
    ``sampling.scale`` to extrapolate totals to the whole measured region);
    ``sampling`` carries the per-metric mean/CI estimates.  Serialisation is
    a superset of the base format, so the results store round-trips sampled
    and exact records through the same machinery.
    """

    def __init__(self, sampling: Optional[SamplingSummary] = None) -> None:
        super().__init__()
        self.sampling = sampling

    def to_json_dict(self) -> Dict[str, object]:
        payload = super().to_json_dict()
        if self.sampling is not None:
            payload["sampling"] = self.sampling.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SampledSimulationStats":
        base = SimulationStats.from_json_dict(payload)
        stats = cls()
        for name in (
            SimulationStats._MERGE_SUM_FIELDS + SimulationStats._LATENCY_FIELDS
        ):
            setattr(stats, name, getattr(base, name))
        stats.core_finish_ns = base.core_finish_ns
        stats.extra = base.extra
        if payload.get("sampling") is not None:
            stats.sampling = SamplingSummary.from_json_dict(payload["sampling"])
        return stats
