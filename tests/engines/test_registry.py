"""Tests for the execution-engine registry and the pluggable interface."""

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
    assert engines.get("compiled").supports_trace_compile
    assert not engines.get("object").supports_trace_compile
    for name in BUILTINS:
        assert engines.get(name).deterministic
        caps = engines.get(name).capabilities()
        assert set(caps) == {
            "supports_sampling", "supports_trace_compile", "deterministic"
        }


def test_duplicate_registration_rejected_unless_replace():
    cls = engines.get("compiled")
    with pytest.raises(ValueError, match="already registered"):
        engines.register(cls)
    assert engines.register(cls, replace=True) is cls


def test_register_requires_engine_subclass_with_name():
    with pytest.raises(TypeError):
        engines.register(object)

    class Nameless(engines.ExecutionEngine):
        def run(self, context, *, max_accesses_per_core=None,
                warmup_accesses_per_core=0):
            raise NotImplementedError

    with pytest.raises(ValueError, match="name"):
        engines.register(Nameless)


def test_simulator_rejects_sample_plan_for_non_sampling_engine():
    from repro.stats.sampling import SamplingPlan

    system = NumaSystem(tiny_config("c3d"))
    workload = make_workload("streamcluster", scale=4096, accesses_per_thread=10,
                             num_threads=2)
    with pytest.raises(ValueError, match="sampled"):
        Simulator(system, workload, engine="compiled", sample_plan=SamplingPlan())


def test_third_party_engine_plugs_into_simulator():
    """A registered engine is valid everywhere at once -- the subsystem's point."""

    class TracingEngine(engines.CompiledEngine):
        name = "test-tracing"
        runs = 0

        def run(self, context, **kwargs):
            type(self).runs += 1
            return super().run(context, **kwargs)

    engines.register(TracingEngine)
    try:
        assert "test-tracing" in engines.names()

        def run(engine):
            system = NumaSystem(tiny_config("c3d"))
            workload = make_workload(
                "streamcluster", scale=4096, accesses_per_thread=50,
                num_threads=2, seed=2,
            )
            return Simulator(system, workload, engine=engine).run()

        result = run("test-tracing")
        assert TracingEngine.runs == 1
        reference = run("compiled")
        assert result.stats.as_dict() == reference.stats.as_dict()
    finally:
        engines.unregister("test-tracing")
    assert "test-tracing" not in engines.names()


def test_sweep_payload_keys_third_party_sampling_engine_under_its_name():
    """A caller-selected sampling engine keys (and runs) under its own name;
    only non-sampling engines fall back to the built-in 'sampled'."""
    from repro.experiments.runner import SweepPoint, sweep_point_payload

    class SamplingVariant(engines.SampledEngine):
        name = "test-sampling-variant"

    engines.register(SamplingVariant)
    try:
        point = SweepPoint(sample_plan="units=8,detail=150,warmup=100")
        payload = sweep_point_payload(point, "test-sampling-variant")
        assert payload["engine"] == "test-sampling-variant"
        assert sweep_point_payload(point, "compiled")["engine"] == "sampled"
    finally:
        engines.unregister("test-sampling-variant")


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
