"""Tests for campaign specs, grid expansion and store-backed execution."""

import io
import json

import pytest

from repro.experiments.campaign import (
    CampaignError,
    CampaignSpec,
    campaign_status,
    merged_point_stats,
    run_campaign,
)
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.experiments.runner import run_sweep, sweep_point_key
from repro.memory.allocation import POLICY_NAMES, make_policy
from repro.stats.store import MissingRunError, ResultsStore

TINY_SETTINGS = {
    "scale": 4096,
    "accesses_per_thread": 150,
    "warmup_accesses_per_thread": 0,
    "num_sockets": 2,
    "cores_per_socket": 1,
}

TINY_SPEC = {
    "name": "tiny",
    "settings": TINY_SETTINGS,
    "sweeps": [
        {
            "protocols": ["baseline", "c3d"],
            "workloads": ["facesim"],
            "topologies": [{"sockets": 2, "cores_per_socket": 1}],
        }
    ],
}


# ----------------------------------------------------------------------
# Parsing / validation
# ----------------------------------------------------------------------


def test_spec_round_trip_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC))
    spec = CampaignSpec.from_file(path)
    assert spec.name == "tiny"
    assert spec.settings.scale == 4096
    assert spec.engine == "compiled"
    assert len(spec.expand()) == 2


def test_spec_default_store_directory(tmp_path):
    spec = CampaignSpec.from_dict(TINY_SPEC)
    assert str(spec.store_directory()).endswith("results/tiny")
    assert spec.store_directory("elsewhere").name == "elsewhere"
    with_store = CampaignSpec.from_dict({**TINY_SPEC, "store": "custom/dir"})
    assert str(with_store.store_directory()) == "custom/dir"


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"bogus": 1}, "unknown campaign field"),
        ({"name": ""}, "name"),
        ({"figures": ["fig99"]}, "unknown figure"),
        ({"settings": {"profile": "warp"}}, "unknown settings profile"),
        ({"settings": {"turbo": True}}, "unknown settings field"),
        ({"sweeps": [{"workloads": ["facesim"], "protocols": ["mesi"]}]},
         "unknown protocol"),
        ({"sweeps": [{"workloads": ["not-a-benchmark"]}]}, "unknown workload"),
        ({"sweeps": [{"protocols": ["c3d"]}]}, "at least one of"),
        ({"figures": [], "sweeps": []}, "nothing to run"),
        ({"engine": "compield"}, "unknown engine"),
        ({"sweeps": [{"workloads": ["facesim"],
                      "topologies": [{"sockets": "two"}]}]},
         "must be integers"),
        ({"engine": "sampled-par"}, "unknown engine"),
        ({"sweeps": [{"workloads": ["facesim"], "engine_jobs": 2}]},
         r"unknown sweeps\[0\] field"),
    ],
)
def test_spec_validation_errors(mutation, fragment):
    payload = {**TINY_SPEC, **mutation}
    with pytest.raises(CampaignError, match=fragment):
        CampaignSpec.from_dict(payload)


def test_an_allocation_policy_has_one_spelling_checked_when_a_spec_is_parsed():
    """Exactly the four ``POLICY_NAMES`` are accepted: an alias or another
    case fails in ``make_policy``, and an unknown name fails a campaign spec
    when it is parsed, in ``settings`` or in a grid, not when a point
    builds its machine."""
    for alias in ("int", "INT", "first-touch", "FT2"):
        with pytest.raises(ValueError):
            make_policy(alias, 4)
    for name in POLICY_NAMES:
        make_policy(name, 4)
        spec = CampaignSpec.from_dict(
            {**TINY_SPEC, "settings": {**TINY_SETTINGS, "allocation_policy": name}}
        )
        assert {point.allocation_policy for point in spec.expand()} == {name}
    with pytest.raises(CampaignError, match="unknown allocation_policy 'ft3'"):
        CampaignSpec.from_dict(
            {**TINY_SPEC, "settings": {**TINY_SETTINGS, "allocation_policy": "ft3"}}
        )
    grid = {**TINY_SPEC["sweeps"][0], "allocation_policy": "int"}
    with pytest.raises(CampaignError, match=r"sweeps\[0\]: unknown allocation_policy"):
        CampaignSpec.from_dict({**TINY_SPEC, "sweeps": [grid]})


def test_grid_expansion_order_and_sources():
    spec = CampaignSpec.from_dict({
        "name": "grid",
        "settings": TINY_SETTINGS,
        "sweeps": [{
            "protocols": ["baseline", "c3d"],
            "workloads": ["facesim", "streamcluster"],
            "scenarios": ["het-dual"],
            "topologies": [
                {"sockets": 2, "cores_per_socket": 1},
                {"sockets": 4, "cores_per_socket": 2},
            ],
        }],
    })
    points = spec.expand()
    # protocols x (workloads + scenarios) x topologies
    assert len(points) == 2 * 3 * 2
    # Protocol-major, source order preserved, topologies innermost.
    assert [p.protocol for p in points[:6]] == ["baseline"] * 6
    assert points[0].workload == "facesim" and points[0].num_sockets == 2
    assert points[1].num_sockets == 4 and points[1].cores_per_socket == 2
    scenario_points = [p for p in points if p.scenario is not None]
    assert len(scenario_points) == 4
    assert all(p.scenario == "het-dual" for p in scenario_points)
    # Grid scalars default to the campaign settings.
    assert all(p.scale == 4096 and p.accesses_per_thread == 150 for p in points)


def test_grid_clones_axis_expands_to_clone_points():
    spec = CampaignSpec.from_dict({
        "name": "clones",
        "settings": TINY_SETTINGS,
        "sweeps": [{
            "protocols": ["c3d"],
            "clones": ["work/clone.json"],
            "topologies": [{"sockets": 2, "cores_per_socket": 1}],
        }],
    })
    points = spec.expand()
    assert len(points) == 1
    assert points[0].clone == "work/clone.json"
    assert points[0].trace_dir is None and points[0].scenario is None


# ----------------------------------------------------------------------
# Execution: caching, resume, status
# ----------------------------------------------------------------------


def test_run_campaign_twice_is_pure_cache_hit(tmp_path):
    spec = CampaignSpec.from_dict(TINY_SPEC)
    store = ResultsStore(tmp_path / "store")
    first = run_campaign(spec, store, stream=io.StringIO())
    assert (first.executed_points, first.cached_points) == (2, 0)

    # A fresh store handle, as a separate invocation would build.
    store2 = ResultsStore(tmp_path / "store")
    second = run_campaign(spec, store2, stream=io.StringIO())
    assert (second.executed_points, second.cached_points) == (0, 2)
    assert "0 executed, 2 cached" in second.format()
    for one, two in zip(first.results, second.results):
        assert one.stats.to_json_dict() == two.stats.to_json_dict()


def test_run_sweep_store_results_preserve_input_order(tmp_path):
    spec = CampaignSpec.from_dict(TINY_SPEC)
    points = spec.expand()
    store = ResultsStore(tmp_path / "store")
    # Pre-complete only the *second* point, then run the full list.
    run_sweep(points[1:], store=store)
    results = run_sweep(points, store=store)
    assert [r.point for r in results] == points


def test_context_shares_runs_through_store(tmp_path):
    settings = ExperimentSettings(**TINY_SETTINGS)
    store = ResultsStore(tmp_path / "store")
    ExperimentContext(settings, store=store).run("facesim", "baseline")
    assert store.misses == 1 and store.hits == 0

    other = ExperimentContext(settings, store=ResultsStore(tmp_path / "store"))
    record = other.run("facesim", "baseline")
    assert other.store.hits == 1 and other.store.misses == 0
    assert record.stats.reads > 0


def test_offline_context_raises_for_missing_run(tmp_path):
    settings = ExperimentSettings(**TINY_SETTINGS)
    store = ResultsStore(tmp_path / "store")
    offline = ExperimentContext(settings, store=store, offline=True)
    with pytest.raises(MissingRunError):
        offline.run("facesim", "baseline")
    with pytest.raises(ValueError):
        ExperimentContext(settings, offline=True)   # offline needs a store


def test_campaign_status_counts_points(tmp_path):
    spec = CampaignSpec.from_dict(TINY_SPEC)
    store = ResultsStore(tmp_path / "store")
    status = campaign_status(spec, store)
    assert (status["points_done"], status["points_total"]) == (0, 2)

    run_sweep(spec.expand()[:1], store=store)
    status = campaign_status(spec, ResultsStore(tmp_path / "store"))
    assert (status["points_done"], status["points_total"]) == (1, 2)


def test_merged_point_stats_requires_complete_campaign(tmp_path):
    spec = CampaignSpec.from_dict(TINY_SPEC)
    store = ResultsStore(tmp_path / "store")
    with pytest.raises(MissingRunError):
        merged_point_stats(spec, store)
    run_campaign(spec, store, stream=io.StringIO())
    merged = merged_point_stats(spec, ResultsStore(tmp_path / "store"))
    assert merged.reads + merged.writes == sum(
        r.stats.reads + r.stats.writes
        for r in run_sweep(spec.expand(), store=store)
    )


def test_engine_is_part_of_the_store_key():
    spec = CampaignSpec.from_dict(TINY_SPEC)
    point = spec.expand()[0]
    assert sweep_point_key(point, "compiled") != sweep_point_key(point, "object")


def test_placeholder_workload_ignored_for_scenario_and_trace_points():
    from dataclasses import replace

    from repro.experiments.runner import SweepPoint

    scenario_point = SweepPoint(workload="facesim", scenario="het-dual")
    assert sweep_point_key(scenario_point) == sweep_point_key(
        replace(scenario_point, workload="mcf")
    )
    trace_point = SweepPoint(workload="facesim", trace_dir="traces/x")
    assert sweep_point_key(trace_point) == sweep_point_key(
        replace(trace_point, workload="mcf")
    )
    # For plain synthetic points the workload very much matters.
    plain = SweepPoint(workload="facesim")
    assert sweep_point_key(plain) != sweep_point_key(replace(plain, workload="mcf"))
