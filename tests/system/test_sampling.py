"""System tests for the sampled engine (docs/sampling.md).

The contract under test:

* every metric an exact quick run reports lies inside the sampled run's
  confidence interval (the acceptance criterion of the sampling subsystem,
  validated at full width by ``tools/check_sampling.py``),
* sampled runs are deterministic (same plan -> bit-identical statistics),
* fast-forward preserves the coherence invariants for every design,
* the sampled statistics survive the results store bit-identically,
* no window child outlives its run, whether it or the walk fails.
"""

import importlib.util
import os
from pathlib import Path

import pytest

import repro.engines.sampled as sampled_module
from repro import engines
from repro.stats.sampling import SamplingPlan
from repro.system.config import SystemConfig
from repro.system.numa_system import NumaSystem
from repro.system.simulator import Simulator
from repro.workloads.registry import make_workload

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_sampling", REPO_ROOT / "tools" / "check_sampling.py"
)
check_sampling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_sampling)

SCALE = 1024
ACCESSES = 900
WARMUP = 200


def _build(protocol, *, sockets=2, cores_per_socket=2, seed=1):
    base = SystemConfig.dual_socket if sockets == 2 else SystemConfig.quad_socket
    config = base(
        protocol=protocol, num_sockets=sockets, cores_per_socket=cores_per_socket
    ).scaled(SCALE)
    system = NumaSystem(config)
    workload = make_workload(
        "streamcluster", scale=SCALE, accesses_per_thread=ACCESSES + WARMUP,
        num_threads=config.total_cores, seed=seed,
    )
    return system, workload


def _run(protocol, engine, plan=None, **build_kwargs):
    system, workload = _build(protocol, **build_kwargs)
    result = Simulator(system, workload, engine=engine, sample_plan=plan).run(
        warmup_accesses_per_core=WARMUP, prewarm=True
    )
    return result, system


PLAN = SamplingPlan(
    num_units=6, detail=60, warmup=40, confidence=0.99, bias_floor=0.03, seed=5
)
#: ``PLAN`` as a spec string, the form sweep points and campaigns carry.
PLAN_SPEC = "units=6,detail=60,warmup=40,confidence=0.99,bias_floor=0.03,seed=5"


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail any test that leaves a child process (a window child) behind."""
    yield
    _assert_no_child_process()


def test_sampled_engine_registered():
    assert "sampled" in engines.names()


@pytest.mark.parametrize("protocol", ["baseline", "snoopy", "full-dir", "c3d",
                                      "c3d-full-dir"])
def test_exact_metrics_inside_sampled_intervals(protocol):
    exact, _ = _run(protocol, "compiled")
    sampled, system = _run(protocol, "sampled", PLAN)

    assert system.check_invariants() == []
    summary = sampled.stats.sampling
    assert summary is not None and summary.metrics
    failures = check_sampling.check_containment(exact.stats, sampled.stats)
    assert failures == []
    # Coverage accounting: the sampled run covered the same measured region.
    assert summary.covered_accesses == exact.accesses_executed
    assert 0 < summary.detail_accesses < summary.covered_accesses
    assert summary.scale > 1.0


def test_sampled_runs_are_deterministic():
    first, _ = _run("c3d", "sampled", PLAN)
    second, _ = _run("c3d", "sampled", PLAN)
    assert first.stats.to_json_dict() == second.stats.to_json_dict()
    assert first.accesses_executed == second.accesses_executed
    assert first.inter_socket_bytes == second.inter_socket_bytes


def test_fork_and_deepcopy_window_isolation_are_state_identical(monkeypatch):
    """The deepcopy fallback path (non-POSIX platforms) must produce the
    same windows as the forked copy-on-write path."""
    forked, _ = _run("baseline", "sampled", PLAN)
    monkeypatch.setattr(sampled_module, "_FORCE_COPY_ISOLATION", True)
    copied, system = _run("baseline", "sampled", PLAN)
    assert system.check_invariants() == []
    assert copied.stats.to_json_dict() == forked.stats.to_json_dict()
    assert copied.total_time_ns == forked.total_time_ns
    assert copied.inter_socket_bytes == forked.inter_socket_bytes
    assert copied.accesses_executed == forked.accesses_executed


def test_failed_window_child_raises_naming_its_unit(monkeypatch):
    def broken_window(*args):
        raise ValueError("window broke")

    monkeypatch.setattr(sampled_module, "_run_window", broken_window)
    with pytest.raises(RuntimeError, match=r"child for unit \d+ failed"):
        _run("baseline", "sampled", PLAN)
    _assert_no_child_process()


def test_walk_failing_while_a_window_child_measures_reaps_the_child(monkeypatch):
    functional = sampled_module.SampledEngine.run_phase_functional
    calls = []

    def fail_on_second_call(self, *args):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("walk broke")
        return functional(self, *args)

    monkeypatch.setattr(
        sampled_module.SampledEngine, "run_phase_functional", fail_on_second_call
    )
    with pytest.raises(ValueError, match="walk broke"):
        _run("baseline", "sampled", PLAN)
    assert len(calls) == 2
    _assert_no_child_process()


def test_auto_plan_is_derived_when_absent():
    result, _ = _run("c3d", "sampled")
    summary = result.stats.sampling
    assert summary is not None
    assert summary.plan.min_region() <= ACCESSES
    assert summary.metrics


def test_plan_too_dense_for_region_raises():
    plan = SamplingPlan(num_units=8, detail=200, warmup=100)
    with pytest.raises(ValueError, match="too short"):
        _run("c3d", "sampled", plan)


def test_sample_plan_requires_sampled_engine():
    system, workload = _build("c3d")
    with pytest.raises(ValueError, match="sampled"):
        Simulator(system, workload, engine="compiled", sample_plan=PLAN)


def test_sampled_point_round_trips_through_store(tmp_path):
    from repro.experiments.runner import SweepPoint, run_sweep, sweep_point_key
    from repro.stats.sampling import SampledSimulationStats
    from repro.stats.store import ResultsStore

    point = SweepPoint(
        workload="streamcluster", protocol="c3d", scale=SCALE,
        accesses_per_thread=ACCESSES, warmup_accesses_per_thread=WARMUP,
        num_sockets=2, cores_per_socket=2, seed=1,
        sample_plan=PLAN_SPEC,
    )
    assert SamplingPlan.from_spec(PLAN_SPEC) == PLAN
    store = ResultsStore(tmp_path / "store")
    [fresh] = run_sweep([point], store=store)

    reloaded = ResultsStore(tmp_path / "store")
    record = reloaded.get(sweep_point_key(point))
    assert isinstance(record.stats, SampledSimulationStats)
    assert record.stats.to_json_dict() == fresh.stats.to_json_dict()

    # A second sweep over the same point is a pure cache hit.
    [cached] = run_sweep([point], store=reloaded)
    assert cached.stats.to_json_dict() == fresh.stats.to_json_dict()
    assert reloaded.misses == 0


def test_sampled_wall_clock_beats_exact_at_scale():
    """A sparse plan on a longer trace must be measurably faster than exact.

    Times one (workload, protocol) pair of the validation harness with the
    harness's own warm timing (the faster of two runs per engine); the
    harness itself checks the full quick matrix against its speed floor.
    The bar is deliberately modest (>5% faster) to stay robust on noisy CI
    runners.
    """
    _, _, exact_s, sampled_s, _ = check_sampling.run_pair(
        "streamcluster", "baseline", scale=SCALE, accesses=4000, warmup=300,
        sockets=4, cores_per_socket=8, seed=1,
        plan=SamplingPlan(num_units=8, detail=60, warmup=30),
    )
    assert sampled_s < exact_s * 0.95, (
        f"sampled {sampled_s:.2f}s not faster than exact {exact_s:.2f}s"
    )
