"""Tests for the execution-engine registry: names, validation, the flag."""

import pytest

from repro import engines
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

from ..conftest import tiny_config

BUILTINS = ("compiled", "object", "sampled")


def test_builtins_registered_in_order():
    assert engines.names() == BUILTINS


def test_unknown_engine_error_lists_registered_names():
    with pytest.raises(ValueError) as excinfo:
        engines.get("warp-drive")
    message = str(excinfo.value)
    assert "warp-drive" in message
    for name in BUILTINS:
        assert name in message


def test_validate_returns_the_name():
    assert engines.validate("compiled") == "compiled"


def test_capability_flags_of_builtins():
    assert engines.get("sampled").supports_sampling
    assert not engines.get("compiled").supports_sampling
    assert not engines.get("object").supports_sampling


def test_simulator_rejects_sample_plan_for_non_sampling_engine():
    from repro.stats.sampling import SamplingPlan

    system = NumaSystem(tiny_config("c3d"))
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=10,
                             num_threads=2)
    with pytest.raises(ValueError, match="sampled"):
        Simulator(system, workload, engine="compiled", sample_plan=SamplingPlan())


def test_campaign_spec_validates_engine_through_registry():
    from repro.experiments.campaign import CampaignError, CampaignSpec

    with pytest.raises(CampaignError) as excinfo:
        CampaignSpec.from_dict({
            "name": "x", "engine": "warp-drive",
            "sweeps": [{"workloads": ["facesim"],
                        "topologies": [{"sockets": 2, "cores_per_socket": 1}]}],
        })
    assert "registered engines" in str(excinfo.value)


def test_run_sweep_validates_engine_up_front(tmp_path):
    from repro.experiments.runner import SweepPoint, run_sweep

    with pytest.raises(ValueError, match="registered engines"):
        run_sweep([SweepPoint()], engine="warp-drive")


def test_experiment_context_validates_engine():
    from repro.experiments.common import ExperimentContext

    with pytest.raises(ValueError, match="registered engines"):
        ExperimentContext(engine="warp-drive")
