"""Fault-tolerant sweep execution: retries, quarantine, timeout.

These tests drive the real per-point worker subprocesses through the
deterministic fault harness (repro.testing.faults) -- no test doubles on the
execution path (docs/robustness.md).
"""

import multiprocessing
import os
import signal
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.experiments.runner import (
    FailurePolicy,
    SweepPoint,
    run_all_parallel,
    run_sweep,
    sweep_point_key,
)
from repro.stats.store import ResultsStore
from repro.testing import faults
from repro.testing.faults import FaultPlan

TINY = dict(
    scale=4096,
    accesses_per_thread=150,
    warmup_accesses_per_thread=0,
    num_sockets=2,
    cores_per_socket=1,
)

POINT = SweepPoint(workload="facesim", protocol="c3d", **TINY)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="these tests rely on fork-inherited monkeypatched state",
)


def test_failure_policy_validates_itself():
    with pytest.raises(ValueError, match="max_attempts"):
        FailurePolicy(max_attempts=0)


def test_backoff_is_deterministic_and_bounded():
    policy = FailurePolicy(backoff_s=0.5, seed=3)
    delays = [policy.backoff("some-key", attempt) for attempt in (1, 2, 3)]
    assert delays == [policy.backoff("some-key", attempt) for attempt in (1, 2, 3)]
    for attempt, delay in enumerate(delays, start=1):
        base = 0.5 * 2.0 ** (attempt - 1)
        assert base * 0.9 <= delay <= base * 1.1
    assert policy.backoff("other-key", 1) != delays[0]


def test_transient_crash_recovers_via_retry(tmp_path):
    store = ResultsStore(tmp_path / "store")
    baseline = run_sweep([POINT])[0]
    with faults.injected(FaultPlan(crash_attempts=(1,))):
        results = run_sweep(
            [POINT],
            store=store,
            failure_policy=FailurePolicy(max_attempts=2, backoff_s=0.01),
        )
    result = results[0]
    assert result is not None
    assert result.attempts == 2
    # Recovery is bit-identical to a fault-free run.
    assert result.stats.as_dict() == baseline.stats.as_dict()
    stored = store.get(sweep_point_key(POINT))
    assert stored is not None and stored.attempts == 2
    assert len(store.failure_log) == 0


def test_poison_point_is_quarantined_and_rest_completes(tmp_path):
    store = ResultsStore(tmp_path / "store")
    good = SweepPoint(workload="facesim", protocol="baseline", **TINY)
    failures = []
    plan = FaultPlan(poison=({"workload": "facesim", "protocol": "c3d"},))
    with faults.injected(plan):
        results = run_sweep(
            [POINT, good],
            store=store,
            failure_policy=FailurePolicy(max_attempts=2, backoff_s=0.01),
            on_failure=failures.append,
        )
    assert results[0] is None                      # poison point: no result
    assert results[1] is not None                  # sibling still completed
    assert [f.attempts for f in failures] == [2]
    assert "poison" in failures[0].error
    # Quarantined to the failures.jsonl sidecar with the full context.
    records = store.failure_log.records()
    assert len(records) == 1
    assert records[0].key == sweep_point_key(POINT)
    assert records[0].params["workload"] == "facesim"
    assert records[0].attempts == 2
    assert "InjectedFault" in records[0].traceback
    # The store still holds the good point (and not the poison one).
    assert sweep_point_key(good) in store
    assert sweep_point_key(POINT) not in store


def test_hung_worker_is_killed_by_watchdog(tmp_path):
    store = ResultsStore(tmp_path / "store")
    plan = FaultPlan(hang_points=({"workload": "facesim"},), hang_s=30.0)
    failures = []
    with faults.injected(plan):
        results = run_sweep(
            [POINT],
            store=store,
            failure_policy=FailurePolicy(max_attempts=1, timeout_s=1.5),
            on_failure=failures.append,
        )
    assert results == [None]
    assert len(failures) == 1
    assert "timed out" in failures[0].error


def test_worker_death_propagates_without_policy():
    with faults.injected(FaultPlan(poison=({"workload": "facesim"},))):
        with pytest.raises(Exception, match="poison"):
            run_sweep(
                [POINT, SweepPoint(workload="streamcluster", protocol="c3d", **TINY)],
                jobs=2,
            )


def test_result_sent_just_before_the_worker_exits_is_kept(monkeypatch, tmp_path):
    """A worker that sends its result and exits while the executor is between
    its pipe poll and its liveness check has not died without a result."""
    is_alive = BaseProcess.is_alive

    def slow_is_alive(self):
        time.sleep(0.2)  # widens the gap between the poll and the check
        return is_alive(self)

    monkeypatch.setattr(BaseProcess, "is_alive", slow_is_alive)
    tiny = dict(TINY, cores_per_socket=2)
    points = [
        SweepPoint(workload=workload, protocol=protocol, **tiny)
        for workload in ("facesim", "streamcluster")
        for protocol in ("baseline", "c3d")
    ]
    store = ResultsStore(tmp_path / "store")
    failures = []
    results = run_sweep(
        points, store=store, failure_policy=FailurePolicy(),
        on_failure=failures.append,
    )
    assert failures == []
    assert len(store.failure_log) == 0
    assert [result.attempts for result in results] == [1] * len(points)
    assert all(result is not None for result in run_sweep(points, jobs=2))


@fork_only
def test_killed_worker_is_quarantined_with_its_exit_code(monkeypatch, tmp_path):
    """A SIGKILLed worker's pipe reads EOF at once; the failure still names
    the signal that ended it."""
    from repro.experiments import runner as runner_module

    def killed(point, engine="compiled", attempt=1):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(runner_module, "_run_sweep_point", killed)
    store = ResultsStore(tmp_path / "store")
    failures = []
    results = run_sweep(
        [POINT], store=store, failure_policy=FailurePolicy(max_attempts=1),
        on_failure=failures.append,
    )
    assert results == [None]
    assert len(failures) == 1
    assert "worker died without a result (exit code -9" in failures[0].error
    assert [record.error for record in store.failure_log.records()] == [failures[0].error]


def test_store_append_oserror_does_not_lose_the_result(tmp_path):
    store = ResultsStore(tmp_path / "store")
    plan = FaultPlan(store_error_rate=1.0)
    with faults.injected(plan):
        with pytest.warns(RuntimeWarning, match="append failed"):
            results = run_sweep(
                [POINT],
                store=store,
                failure_policy=FailurePolicy(max_attempts=1),
            )
    assert results[0] is not None                  # result survived
    assert sweep_point_key(POINT) not in ResultsStore(tmp_path / "store")


@fork_only
def test_run_all_parallel_keeps_partial_results(monkeypatch):
    import io

    from repro.experiments import runner as runner_module

    def good(_context):
        return {"value": 1}

    def bad(_context):
        raise RuntimeError("injected experiment failure")

    def fmt(result):
        return f"value={result['value']}"

    monkeypatch.setattr(
        runner_module,
        "_EXPERIMENTS",
        {"good_a": (good, fmt, False), "bad": (bad, fmt, False),
         "good_b": (good, fmt, False)},
    )
    stream = io.StringIO()
    reports = run_all_parallel(
        jobs=2, names=["good_a", "bad", "good_b"], stream=stream
    )
    # Completed reports survive the failing sibling, in registry order.
    assert list(reports) == ["good_a", "bad", "good_b"]
    assert reports["good_a"] == "value=1"
    assert reports["good_b"] == "value=1"
    assert reports["bad"].startswith("FAILED:")
    assert "injected experiment failure" in reports["bad"]
    out = stream.getvalue()
    assert "### bad  FAILED" in out
    assert "1/3 experiments failed: bad" in out
