"""Unit tests for the sampling statistics: plans, CI math, store keying."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.counters import SimulationStats
from repro.stats.sampling import (
    MetricEstimate,
    SampledSimulationStats,
    SamplingPlan,
    SamplingSummary,
    estimate_metrics,
    ratio_estimate,
    snapshot_counters,
    t_critical,
)
from repro.stats.store import ResultsStore, StoredRun


# ----------------------------------------------------------------------
# t critical values
# ----------------------------------------------------------------------


def test_t_critical_exact_values():
    assert t_critical(0.95, 1) == pytest.approx(12.706)
    assert t_critical(0.95, 9) == pytest.approx(2.262)
    assert t_critical(0.99, 4) == pytest.approx(4.604)
    assert t_critical(0.95, 1000) == pytest.approx(1.960)


def test_t_critical_decreases_with_df():
    for confidence in (0.90, 0.95, 0.99):
        values = [t_critical(confidence, df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)


def test_t_critical_increases_with_confidence():
    for df in (1, 5, 30, 100):
        assert t_critical(0.90, df) < t_critical(0.95, df) < t_critical(0.99, df)


def test_t_critical_rejects_unknown_confidence():
    with pytest.raises(ValueError, match="confidence"):
        t_critical(0.42, 5)
    with pytest.raises(ValueError, match="degrees of freedom"):
        t_critical(0.95, 0)


# ----------------------------------------------------------------------
# Mean / interval estimators (hypothesis)
# ----------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def mean_and_half_width(values, confidence=0.95):
    """Sample mean and t-interval half-width of ``values``: the ratio
    estimate over equal (unit) denominators."""
    return ratio_estimate(values, [1.0] * len(values), confidence)


@given(st.lists(finite_floats, min_size=2, max_size=40))
def test_mean_half_width_matches_manual_computation(values):
    mean, half = mean_and_half_width(values, confidence=0.95)
    n = len(values)
    expected_mean = sum(values) / n
    variance = sum((v - expected_mean) ** 2 for v in values) / (n - 1)
    expected_half = t_critical(0.95, n - 1) * math.sqrt(variance / n)
    assert mean == pytest.approx(expected_mean, rel=1e-12, abs=1e-9)
    assert half == pytest.approx(expected_half, rel=1e-12, abs=1e-9)
    assert half >= 0


@given(finite_floats, st.integers(min_value=2, max_value=30))
def test_constant_samples_have_zero_width(value, n):
    mean, half = mean_and_half_width([value] * n)
    assert mean == pytest.approx(value)
    assert half == pytest.approx(0.0, abs=1e-6)


@given(st.lists(finite_floats, min_size=2, max_size=40))
def test_wider_confidence_widens_interval(values):
    _, half_95 = mean_and_half_width(values, confidence=0.95)
    _, half_99 = mean_and_half_width(values, confidence=0.99)
    assert half_99 >= half_95


def test_mean_half_width_needs_two_observations():
    with pytest.raises(ValueError, match="at least 2"):
        mean_and_half_width([1.0])


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_ratio_estimate_is_ratio_of_sums(pairs):
    numerators = [num for num, _ in pairs]
    denominators = [den for _, den in pairs]
    ratio, half = ratio_estimate(numerators, denominators)
    assert ratio == pytest.approx(sum(numerators) / sum(denominators), rel=1e-9)
    assert half >= 0


@given(
    st.floats(min_value=0.01, max_value=100, allow_nan=False),
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=20),
)
def test_exact_ratio_has_zero_width(true_ratio, denominators):
    """When every unit shows the same ratio, the interval collapses."""
    numerators = [true_ratio * den for den in denominators]
    ratio, half = ratio_estimate(numerators, denominators)
    assert ratio == pytest.approx(true_ratio, rel=1e-9)
    assert half == pytest.approx(0.0, abs=1e-6 * true_ratio + 1e-9)


def test_ratio_estimate_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="equal length"):
        ratio_estimate([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least 2"):
        ratio_estimate([1.0], [2.0])
    with pytest.raises(ValueError, match="zero"):
        ratio_estimate([1.0, 2.0], [0.0, 0.0])


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_interval_coverage_on_known_distribution(seed):
    """A 99% interval over iid uniform unit means rarely misses the truth.

    Deterministic per example (seeded RNG); across the hypothesis examples
    this is a smoke-level calibration check, not a precision measurement --
    a miss probability of 1% per example keeps the test stable.
    """
    import random

    rng = random.Random(seed)
    true_mean = 0.5
    unit_means = [
        sum(rng.random() for _ in range(64)) / 64 for _ in range(12)
    ]
    mean, half = mean_and_half_width(unit_means, confidence=0.99)
    assert abs(mean - true_mean) <= half + 0.05


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


@given(
    region=st.integers(min_value=1, max_value=100_000),
    units=st.integers(min_value=2, max_value=32),
    detail=st.integers(min_value=1, max_value=200),
    warmup=st.integers(min_value=0, max_value=200),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**20)),
)
def test_plan_units_cover_region_exactly(region, units, detail, warmup, seed):
    plan = SamplingPlan(num_units=units, detail=detail, warmup=warmup, seed=seed)
    if region < plan.min_region():
        with pytest.raises(ValueError, match="too short"):
            plan.units(region)
        return
    layout = plan.units(region)
    assert sum(unit.length for unit in layout) == region
    detail_units = [unit for unit in layout if unit.detail]
    assert len(detail_units) == units
    for unit in detail_units:
        assert unit.detail == detail
        assert unit.warmup == warmup
    for unit in layout:
        assert unit.fastforward >= 0


@given(
    region=st.integers(min_value=1000, max_value=50_000),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_plan_jitter_is_deterministic_per_seed(region, seed):
    plan = SamplingPlan(num_units=4, detail=50, warmup=20, seed=seed)
    assert plan.units(region) == plan.units(region)


@given(region=st.integers(min_value=8, max_value=100_000))
def test_for_region_always_fits(region):
    plan = SamplingPlan.for_region(region)
    layout = plan.units(region)
    assert sum(unit.length for unit in layout) == region


def test_plan_spec_round_trip():
    plan = SamplingPlan(
        num_units=6, detail=75, warmup=25, confidence=0.99, bias_floor=0.05, seed=3
    )
    spec = "units=6,detail=75,warmup=25,confidence=0.99,bias_floor=0.05,seed=3"
    assert SamplingPlan.from_spec(spec) == plan
    assert SamplingPlan.from_json_dict(plan.to_json_dict()) == plan


def test_plan_spec_key_order_is_canonical():
    a = SamplingPlan.from_spec("units=4,detail=60,warmup=30")
    b = SamplingPlan.from_spec("warmup=30, detail=60, units=4")
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_plan_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown sample-plan key"):
        SamplingPlan.from_spec("bogus=1")
    with pytest.raises(ValueError, match="key=value"):
        SamplingPlan.from_spec("units")
    with pytest.raises(ValueError, match="bad sample-plan value"):
        SamplingPlan.from_spec("units=four")
    with pytest.raises(ValueError, match="at least 2 units"):
        SamplingPlan.from_spec("units=1")


# ----------------------------------------------------------------------
# Metric estimation over window samples
# ----------------------------------------------------------------------


def _window(l1_hits, l1_misses, read_total, read_count):
    stats = SimulationStats()
    stats.l1_hits = l1_hits
    stats.l1_misses = l1_misses
    stats.read_latency.total = read_total
    stats.read_latency.count = read_count
    return snapshot_counters(stats)


def test_estimate_metrics_skips_undefined_denominators():
    samples = [_window(10, 5, 100.0, 15), _window(12, 3, 90.0, 15)]
    estimates = estimate_metrics(samples)
    assert "l1_hit_rate" in estimates
    assert "amat_ns" in estimates
    # No DRAM-cache accesses in either window -> metric omitted entirely.
    assert "dram_cache_hit_rate" not in estimates
    assert estimates["l1_hit_rate"].mean == pytest.approx(22 / 30)


def test_estimate_metrics_applies_bias_floor():
    samples = [_window(10, 10, 100.0, 20), _window(10, 10, 100.0, 20)]
    estimates = estimate_metrics(samples, bias_floor=0.1)
    # Identical windows -> zero sampling variance; the floor still widens.
    assert estimates["amat_ns"].half_width == pytest.approx(0.1 * 5.0)


def test_snapshot_delta_isolates_a_window():
    stats = SimulationStats()
    stats.l1_hits = 7
    before = snapshot_counters(stats)
    stats.l1_hits += 5
    stats.read_latency.add(12.0)
    after = snapshot_counters(stats)
    delta = {name: after[name] - before[name] for name in after}
    assert delta["l1_hits"] == 5
    assert delta["read_latency_total"] == pytest.approx(12.0)
    assert delta["read_latency_count"] == 1
    assert delta["llc_hits"] == 0


# ----------------------------------------------------------------------
# Sampled stats serialisation + store keying
# ----------------------------------------------------------------------


def _sampled_stats():
    stats = SampledSimulationStats()
    stats.l1_hits = 100
    stats.read_latency.add(30.0)
    stats.core_finish_ns[0] = 123.5
    stats.sampling = SamplingSummary(
        plan=SamplingPlan(num_units=4, detail=50, warmup=25, seed=9),
        metrics={
            "amat_ns": MetricEstimate(
                mean=30.0, half_width=1.5, units=4, confidence=0.95
            )
        },
        detail_accesses=200,
        covered_accesses=1000,
    )
    return stats


def test_sampled_stats_json_round_trip():
    stats = _sampled_stats()
    rebuilt = SampledSimulationStats.from_json_dict(stats.to_json_dict())
    assert rebuilt.to_json_dict() == stats.to_json_dict()
    assert rebuilt.sampling.metrics["amat_ns"].contains(30.5)
    assert rebuilt.sampling.scale == pytest.approx(5.0)


def test_store_round_trips_sampled_stats(tmp_path):
    store = ResultsStore(tmp_path / "store")
    stats = _sampled_stats()
    store.put(
        StoredRun(
            key="sampled-key",
            params={"engine": "sampled"},
            stats=stats,
            total_time_ns=1.0,
            inter_socket_bytes=2,
            accesses_executed=3,
        )
    )
    reloaded = ResultsStore(tmp_path / "store")
    record = reloaded.get("sampled-key")
    assert isinstance(record.stats, SampledSimulationStats)
    assert record.stats.to_json_dict() == stats.to_json_dict()


def test_sweep_point_keys_separate_sampled_from_exact(tmp_path):
    from repro.experiments.runner import SweepPoint, sweep_point_key

    exact = SweepPoint(workload="facesim", protocol="c3d")
    sampled = SweepPoint(
        workload="facesim", protocol="c3d", sample_plan="units=4,detail=60,warmup=30"
    )
    k_exact = sweep_point_key(exact)
    k_sampled = sweep_point_key(sampled)
    assert k_exact != k_sampled

    # Equivalent spec strings canonicalise to the same key; different plans
    # (or an engine="sampled" auto plan) stay distinct.
    reordered = SweepPoint(
        workload="facesim", protocol="c3d", sample_plan="warmup=30,units=4,detail=60"
    )
    assert sweep_point_key(reordered) == k_sampled
    denser = SweepPoint(
        workload="facesim", protocol="c3d", sample_plan="units=8,detail=60,warmup=30"
    )
    assert sweep_point_key(denser) != k_sampled
    assert sweep_point_key(exact, engine="sampled") != k_exact
    assert sweep_point_key(exact, engine="sampled") != k_sampled

    # Both flavours of the same point coexist in one store.
    store = ResultsStore(tmp_path / "store")
    for key in (k_exact, k_sampled):
        store.put(
            StoredRun(
                key=key,
                params={},
                stats=SimulationStats(),
                total_time_ns=0.0,
                inter_socket_bytes=0,
                accesses_executed=0,
            )
        )
    assert len(store) == 2
