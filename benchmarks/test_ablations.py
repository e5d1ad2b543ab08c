"""Ablation benchmarks for C3D's individual design choices.

These are not figures from the paper; they isolate the contribution of the
individual C3D mechanisms:

* clean (write-through) DRAM cache vs. the dirty victim-cache policy,
  holding the directory organisation fixed -- i.e. c3d vs. full-dir;
* the region miss predictor on vs. off (how much of the DRAM-cache latency
  is hidden on misses);
* the TLB broadcast filter on vs. off (already covered functionally by the
  VI-C study; here we check it never hurts performance).
"""

from dataclasses import replace

from conftest import run_once

from repro.experiments.common import speedup
from repro.stats.report import format_table

ABLATION_WORKLOADS = ("streamcluster", "facesim")


def test_ablation_clean_vs_dirty_dram_cache(benchmark, context):
    """Clean write-through caches give up nothing vs. dirty caches for C3D-style
    coherence while avoiding every remote DRAM-cache read."""

    def run():
        rows = {}
        for workload in ABLATION_WORKLOADS:
            baseline = context.run(workload, "baseline")
            clean = context.run(workload, "c3d")
            dirty = context.run(workload, "full-dir")
            rows[workload] = {
                "clean (c3d)": speedup(baseline, clean),
                "dirty (full-dir)": speedup(baseline, dirty),
                "remote dram hits (dirty)": dirty.stats.served_remote_dram_cache,
            }
        return rows

    rows = run_once(benchmark, run)
    print("\n" + format_table(
        ["workload", "clean (c3d)", "dirty (full-dir)", "remote dram hits (dirty)"],
        [[w, r["clean (c3d)"], r["dirty (full-dir)"], r["remote dram hits (dirty)"]]
         for w, r in rows.items()],
        title="Ablation: clean write-through vs. dirty victim DRAM cache",
    ))
    for row in rows.values():
        assert row["clean (c3d)"] >= row["dirty (full-dir)"] - 0.02
        assert row["remote dram hits (dirty)"] > 0


def test_ablation_miss_predictor(benchmark, context):
    """Disabling the region miss predictor exposes the DRAM array latency on
    every miss and can only slow C3D down."""

    def run():
        results = {}
        for workload in ABLATION_WORKLOADS:
            with_predictor = context.run(workload, "c3d")
            config = context.make_config("c3d")
            config = replace(
                config, dram_cache=replace(config.dram_cache, predictor_entries=1)
            )
            without = context.run(workload, "c3d", config=config)
            results[workload] = (
                with_predictor.total_time_ns,
                without.total_time_ns,
            )
        return results

    results = run_once(benchmark, run)
    print("\nAblation: region miss predictor (execution time, ns)")
    for workload, (with_mp, without_mp) in results.items():
        print(f"  {workload:15s} with={with_mp:12.0f}  crippled={without_mp:12.0f}")
        # A crippled (1-entry) predictor must not be faster than the real one
        # by more than noise.
        assert without_mp > with_mp * 0.95


def test_ablation_broadcast_filter_never_hurts(benchmark, context):
    """The TLB filter can only remove work, so C3D+filter is never slower."""

    def run():
        results = {}
        for workload in ABLATION_WORKLOADS:
            plain = context.run(workload, "c3d")
            config = context.make_config("c3d", broadcast_filter=True)
            filtered = context.run(workload, "c3d", config=config)
            results[workload] = (plain.total_time_ns, filtered.total_time_ns)
        return results

    results = run_once(benchmark, run)
    for workload, (plain, filtered) in results.items():
        print(f"  {workload:15s} plain={plain:12.0f}  filtered={filtered:12.0f}")
        assert filtered <= plain * 1.05
