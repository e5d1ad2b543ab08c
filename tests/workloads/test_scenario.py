"""Tests for the scenario composition layer."""

import json

import pytest

from repro.workloads.registry import make_workload
from repro.workloads.scenario import (
    ADDRESS_STRIDE,
    SCENARIO_SPECS,
    Scenario,
    ScenarioEntry,
    build_scenario_workload,
    get_scenario,
    load_scenario,
    scenario_from_dict,
)
from repro.workloads.trace_io import record_workload


def build(name, **kwargs):
    defaults = dict(num_sockets=4, cores_per_socket=2, scale=2048,
                    accesses_per_thread=60)
    defaults.update(kwargs)
    return build_scenario_workload(name, **defaults)


# ----------------------------------------------------------------------
# Entry / scenario validation
# ----------------------------------------------------------------------


def test_entry_requires_exactly_one_source():
    match = "exactly one of 'workload', 'trace_dir' or 'clone'"
    with pytest.raises(ValueError, match=match):
        ScenarioEntry(cores=(0,))
    with pytest.raises(ValueError, match=match):
        ScenarioEntry(workload="facesim", trace_dir="x", cores=(0,))
    with pytest.raises(ValueError, match=match):
        ScenarioEntry(trace_dir="x", clone="c.json", cores=(0,))


def test_entry_requires_exactly_one_core_group():
    with pytest.raises(ValueError, match="exactly one of 'cores' or 'sockets'"):
        ScenarioEntry(workload="facesim")
    with pytest.raises(ValueError, match="exactly one of 'cores' or 'sockets'"):
        ScenarioEntry(workload="facesim", cores=(0,), sockets=(0,))


def test_entry_rejects_bad_gap_scale():
    with pytest.raises(ValueError, match="gap_scale"):
        ScenarioEntry(workload="facesim", cores=(0,), gap_scale=0)


def test_scenario_needs_entries():
    with pytest.raises(ValueError, match="no entries"):
        Scenario(name="empty", entries=())


def test_core_out_of_range():
    scenario = Scenario(
        name="s", entries=(ScenarioEntry(workload="facesim", cores=(99,)),)
    )
    with pytest.raises(ValueError, match="core 99 out of range"):
        scenario.resolve_cores(num_sockets=4, cores_per_socket=2)


def test_socket_out_of_range():
    scenario = Scenario(
        name="s", entries=(ScenarioEntry(workload="facesim", sockets=(4,)),)
    )
    with pytest.raises(ValueError, match="socket 4 out of range"):
        scenario.resolve_cores(num_sockets=4, cores_per_socket=2)


def test_overlapping_cores_rejected():
    scenario = Scenario(
        name="s",
        entries=(
            ScenarioEntry(workload="facesim", sockets=(0,)),
            ScenarioEntry(workload="canneal", cores=(1,)),
        ),
    )
    with pytest.raises(ValueError, match="core 1 claimed by both entry 0 and entry 1"):
        scenario.resolve_cores(num_sockets=4, cores_per_socket=2)


def test_misaligned_base_offset_rejected():
    scenario = Scenario(
        name="s",
        entries=(ScenarioEntry(workload="facesim", sockets=(0,), base_offset=100),),
    )
    with pytest.raises(ValueError, match="multiple of the page size"):
        scenario.build(num_sockets=4, cores_per_socket=2)


def test_trace_entry_with_too_few_threads(tmp_path):
    wl = make_workload("facesim", scale=2048, accesses_per_thread=30, num_threads=1)
    directory = record_workload(wl, tmp_path / "one", trace_format="csv")
    scenario = Scenario(
        name="s",
        entries=(ScenarioEntry(trace_dir=str(directory), cores=(0, 1)),),
    )
    with pytest.raises(ValueError, match="records only 1 threads"):
        scenario.build(num_sockets=4, cores_per_socket=2)


# ----------------------------------------------------------------------
# Composition semantics
# ----------------------------------------------------------------------


def test_single_entry_covering_all_cores_equals_plain_workload():
    """One entry on every socket with offset 0 reproduces make_workload."""
    scenario = Scenario(
        name="plain",
        entries=(
            ScenarioEntry(workload="facesim", sockets=(0, 1, 2, 3), base_offset=0),
        ),
    )
    composed = build(scenario)
    plain = make_workload("facesim", scale=2048, accesses_per_thread=60, num_threads=8)
    for thread_id in range(8):
        assert list(composed.stream(thread_id)) == list(plain.stream(thread_id))
    assert composed.memory_regions() == plain.memory_regions()
    assert composed.serial_init_pages() == plain.serial_init_pages()


def test_stream_and_compiled_trace_are_bit_identical():
    composed = build("het-quad")
    for thread_id in range(composed.num_threads):
        stream = list(composed.stream(thread_id))
        compiled = composed.compiled_trace(thread_id)
        assert compiled.addrs == [a.addr for a in stream]
        assert compiled.writes == [a.is_write for a in stream]
        assert compiled.gaps == [a.gap for a in stream]


def test_entries_are_address_isolated():
    composed = build("het-quad")
    pages_per_entry = []
    for assignment in composed.assignments:
        pages = set()
        for core in assignment.cores:
            pages.update(a.addr // 4096 for a in composed.stream(core))
        pages_per_entry.append(pages)
    for i in range(len(pages_per_entry)):
        for j in range(i + 1, len(pages_per_entry)):
            assert not (pages_per_entry[i] & pages_per_entry[j])


def test_address_isolation_uses_stride():
    composed = build("het-quad")
    offsets = [assignment.offset for assignment in composed.assignments]
    assert offsets == [0, ADDRESS_STRIDE, 2 * ADDRESS_STRIDE, 3 * ADDRESS_STRIDE]


def test_gap_scale_skews_rates():
    composed = build("rate-skew-quad")
    fast = list(composed.stream(0))      # socket 0: gap_scale 1
    slow = list(composed.stream(2))      # socket 1: gap_scale 4
    assert all(access.gap % 4 == 0 for access in slow)
    assert sum(a.gap for a in slow) > sum(a.gap for a in fast)


def test_uncovered_cores_get_empty_streams():
    scenario = Scenario(
        name="sparse", entries=(ScenarioEntry(workload="facesim", cores=(5,)),)
    )
    composed = build(scenario)
    assert composed.num_threads == 6
    assert list(composed.stream(0)) == []
    assert composed.compiled_trace(0).length == 0
    assert len(list(composed.stream(5))) == 60


def test_owner_threads_remapped_to_global_cores():
    composed = build("het-quad")
    owners = {
        region["owner_thread"]
        for region in composed.memory_regions()
        if region["owner_thread"] is not None
    }
    assert owners == set(range(8))  # all global core ids, not per-entry 0..1


def test_mixed_trace_and_synthetic_entries(tmp_path):
    wl = make_workload("streamcluster", scale=2048, accesses_per_thread=40, num_threads=2)
    directory = record_workload(wl, tmp_path / "sc", trace_format="bin")
    scenario = Scenario(
        name="mixed",
        entries=(
            ScenarioEntry(workload="facesim", sockets=(0,)),
            ScenarioEntry(trace_dir=str(directory), cores=(2, 3)),
        ),
    )
    composed = build(scenario)
    # The trace entry is rebased by one stride relative to the recording.
    recorded = [a.addr for a in wl.stream(0)]
    replayed = [a.addr for a in composed.stream(2)]
    assert replayed == [addr + ADDRESS_STRIDE for addr in recorded]


# ----------------------------------------------------------------------
# Registry + JSON loading
# ----------------------------------------------------------------------


def test_builtin_registry():
    assert get_scenario("het-quad") is SCENARIO_SPECS["het-quad"]
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_builtin_scenarios_build_and_run():
    for name in ("het-quad", "rate-skew-quad", "multiprogram-mcf-quad"):
        composed = build(name)
        assert composed.num_threads == 8
    dual = build_scenario_workload(
        "het-dual", num_sockets=2, cores_per_socket=2, scale=2048,
        accesses_per_thread=30,
    )
    assert dual.num_threads == 4


def test_load_scenario_json(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(json.dumps({
        "name": "from-json",
        "entries": [
            {"workload": "facesim", "sockets": [0]},
            {"workload": "canneal", "cores": [4, 5], "gap_scale": 2},
        ],
    }))
    scenario = load_scenario(path)
    assert scenario.name == "from-json"
    assert scenario.entries[1].gap_scale == 2
    assert get_scenario(str(path)).name == "from-json"  # path fallback


def test_scenario_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario entry keys"):
        scenario_from_dict(
            {"entries": [{"workload": "facesim", "sockets": [0], "speed": 2}]}
        )


def test_scenario_json_requires_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="'entries' list"):
        load_scenario(path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid scenario JSON"):
        load_scenario(path)


def test_trace_entry_on_fewer_cores_than_recorded_threads(tmp_path):
    """Regions owned by unassigned recorded threads are dropped, not remapped."""
    wl = make_workload("facesim", scale=2048, accesses_per_thread=30, num_threads=4)
    directory = record_workload(wl, tmp_path / "four", trace_format="csv")
    scenario = Scenario(
        name="partial",
        entries=(ScenarioEntry(trace_dir=str(directory), cores=(0, 1)),),
    )
    composed = scenario.build(num_sockets=4, cores_per_socket=2)
    regions = composed.memory_regions()  # crashed with IndexError before the fix
    owners = {r["owner_thread"] for r in regions if r["owner_thread"] is not None}
    assert owners == {0, 1}
    assert len(list(composed.stream(1))) == 30


def test_build_workload_dispatch(tmp_path):
    from repro.workloads.scenario import build_workload

    synthetic = build_workload(num_sockets=2, cores_per_socket=2,
                               workload="facesim", scale=2048,
                               accesses_per_thread=20)
    assert synthetic.num_threads == 4
    composed = build_workload(num_sockets=2, cores_per_socket=2,
                              scenario="het-dual", scale=2048,
                              accesses_per_thread=20)
    assert composed.name == "het-dual"
    with pytest.raises(ValueError, match="mutually exclusive"):
        build_workload(num_sockets=2, cores_per_socket=2,
                       trace_dir="x", scenario="het-dual")
    with pytest.raises(ValueError, match="is required"):
        build_workload(num_sockets=2, cores_per_socket=2)
