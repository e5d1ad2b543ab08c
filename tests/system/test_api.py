"""The `repro.api` facade: the supported import surface for scripts.

Pins the five verbs, the top-level re-exports, and the deprecation shims
left at the old import sites (docs/architecture.md).
"""

import io

import pytest

import repro
import repro.api as api


def test_package_exports_the_facade():
    assert repro.api is api
    for verb in ("simulate", "analyze", "import_trace", "run_campaign",
                 "open_store"):
        assert verb in repro.__all__ and verb in api.__all__
        assert getattr(repro, verb) is getattr(api, verb)


def test_every_api_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None
    assert "SystemConfig" in dir(api)


def test_simulate_round_trip_matches_manual_wiring():
    result = api.simulate(scale=256, accesses_per_thread=200,
                          warmup_accesses_per_core=50)
    config = api.SystemConfig.quad_socket(protocol="c3d").scaled(256)
    workload = api.make_workload("streamcluster", scale=256,
                                 accesses_per_thread=250,
                                 num_threads=config.total_cores)
    system = api.NumaSystem(config)
    manual = api.Simulator(system, workload).run(
        warmup_accesses_per_core=50, prewarm=True
    )
    assert result.stats.to_json_dict() == manual.stats.to_json_dict()
    assert result.total_time_ns == manual.total_time_ns


def test_open_store_and_run_campaign_accept_paths_and_dicts(tmp_path):
    store = api.open_store(tmp_path / "store")
    assert isinstance(store, api.ResultsStore)
    summary = api.run_campaign(
        {
            "name": "api-facade",
            "settings": {
                "scale": 4096,
                "accesses_per_thread": 100,
                "num_sockets": 2,
                "cores_per_socket": 1,
            },
            "sweeps": [
                {
                    "protocols": ["c3d"],
                    "workloads": ["facesim"],
                    "topologies": [{"sockets": 2, "cores_per_socket": 1}],
                }
            ],
        },
        tmp_path / "store",
        stream=io.StringIO(),
    )
    assert summary.executed_points == 1
    assert len(api.open_store(tmp_path / "store")) == 1


def test_analyze_and_import_trace_are_wired(tmp_path):
    workload = api.make_workload("facesim", scale=256,
                                 accesses_per_thread=100, num_threads=2)
    trace_dir = tmp_path / "trace"
    api.record_workload(workload, trace_dir)
    profile = api.analyze(trace_dir)
    assert profile["schema"] == "workload-profile/v1"
    assert profile["total_accesses"] > 0


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        api.no_such_thing
    with pytest.raises(AttributeError):
        import repro.experiments

        repro.experiments.no_such_thing
