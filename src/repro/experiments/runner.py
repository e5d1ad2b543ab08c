"""Run every reproduced table and figure and print a consolidated report.

Usage::

    python -m repro.experiments.runner                  # default settings
    python -m repro.experiments.runner --quick          # CI-sized runs
    python -m repro.experiments.runner --full           # ExperimentSettings.full()
    python -m repro.experiments.runner --jobs 4         # fan out over workers
    python -m repro.experiments.runner --store results  # persist every run
    python -m repro.experiments.runner --store results --jobs 4

Sequentially, the runner shares one
:class:`~repro.experiments.common.ExperimentContext` across experiments so
that e.g. the Fig. 6 runs are reused by Fig. 8/9.  With ``--jobs N`` the
figures are fanned out over a ``multiprocessing`` pool; each worker builds
its own context, so *in-process* memoisation is per-worker -- but with
``--store DIR`` every worker reads and writes the same persistent
:class:`~repro.stats.store.ResultsStore`, which restores cross-figure run
sharing across processes (and across invocations: a second run of the same
command is pure cache hits).  Without ``--store``, ``--jobs N`` still trades
memoised-run sharing for parallelism, exactly as before.

Once a store is populated, ``repro report --store DIR`` regenerates every
figure table from it without re-simulating, and ``repro campaign`` runs
declarative sweep grids against the same store (docs/campaigns.md).

The module also provides the generic sweep machinery the figures are built
from: :func:`run_sweep` executes a list of :class:`SweepPoint` simulations --
optionally in parallel worker processes, optionally through a results store
that skips already-completed points; :meth:`SimulationStats.merge
<repro.stats.counters.SimulationStats.merge>` folds the per-point statistics
into one aggregate.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import sys
import time
import traceback as traceback_module
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import (
    broadcast_filter,
    directory_cost,
    fig2,
    fig3,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
)
from ..stats.counters import SimulationStats
from ..stats.store import (
    STORE_SCHEMA_VERSION,
    FailureRecord,
    ResultsStore,
    StoredRun,
    content_key,
)
from ..testing import faults
from .common import ExperimentContext, ExperimentSettings

__all__ = [
    "run_all",
    "run_all_parallel",
    "main",
    "SweepPoint",
    "SweepResult",
    "FailurePolicy",
    "PointFailure",
    "sweep_point_payload",
    "sweep_point_key",
    "run_sweep",
]


# ----------------------------------------------------------------------
# Generic parallel sweep machinery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One (workload, design, machine) simulation of a figure sweep.

    The workload comes from any of the three frontends (docs/workloads.md):
    ``workload`` names a synthetic benchmark from the registry; setting
    ``trace_dir`` replays a recorded trace directory instead; setting
    ``scenario`` (a built-in name or a scenario JSON path) builds a composed
    multi-program mix; setting ``clone`` instantiates a fitted clone-spec
    JSON (``repro analyze --clone-out``, docs/ingestion.md).  The three are
    mutually exclusive and each overrides ``workload``.

    ``sample_plan`` (a :meth:`~repro.stats.sampling.SamplingPlan.from_spec`
    string such as ``"units=8,detail=150,warmup=100"``) switches the point to
    the ``sampled`` engine (docs/sampling.md); sampled points hash to store
    keys distinct from exact ones, so the two never collide in a results
    store.
    """

    workload: str = "facesim"
    protocol: str = "c3d"
    scale: int = 512
    accesses_per_thread: int = 3000
    warmup_accesses_per_thread: int = 1000
    num_sockets: int = 4
    cores_per_socket: int = 8
    allocation_policy: str = "first_touch"
    prewarm: bool = True
    broadcast_filter: bool = False
    seed: Optional[int] = None
    trace_dir: Optional[str] = None
    scenario: Optional[str] = None
    clone: Optional[str] = None
    sample_plan: Optional[str] = None


@dataclass
class SweepResult:
    """Outcome of one sweep point (picklable across worker processes)."""

    point: SweepPoint
    stats: SimulationStats
    total_time_ns: float
    inter_socket_bytes: int
    accesses_executed: int
    wall_clock_s: float = 0.0
    #: Execution attempts this result took (1 = first try; >1 = retried).
    attempts: int = 1


def sweep_point_payload(point: SweepPoint, engine: str = "compiled") -> Dict:
    """The outcome-determining payload hashed into a sweep point's store key.

    Every outcome-shaping :class:`SweepPoint` field participates, plus the
    engine and the store schema version.  When ``trace_dir``/``scenario``/
    ``clone`` is set the ``workload`` field is ignored by the workload
    builder, so it is normalised out of the payload -- two callers selecting
    the same scenario with different placeholder workloads share one cached
    point.  Note that ``trace_dir``/``scenario``/``clone`` are keyed by
    *path*, not file content -- editing a trace in place requires
    ``repro campaign clean`` (see docs/campaigns.md).

    A ``sample_plan`` switches the payload to the ``sampled`` engine, the one
    engine that samples, and is normalised to the plan's canonical JSON
    form, so equivalent spec strings (key order, defaulted fields) share one
    key while any *semantic* plan difference -- and the exact/sampled
    distinction itself -- yields a different key.
    """
    payload = asdict(point)
    if point.trace_dir is not None or point.scenario is not None or point.clone is not None:
        payload["workload"] = None
    if point.clone is None:
        # Absent from the payload unless used, so every pre-clone store key
        # (pinned in tests/engines/test_store_keys.py) is preserved.
        payload.pop("clone")
    if point.broadcast_filter and point.prewarm:
        # These points' statistics changed when prewarm began classifying
        # its pages shared; the marker keeps results stored before that from
        # being served, without moving any other key (docs/campaigns.md).
        payload["prewarm_marks_shared"] = True
    if point.sample_plan is not None:
        from ..stats.sampling import SamplingPlan

        payload["sample_plan"] = SamplingPlan.from_spec(point.sample_plan).to_json_dict()
        engine = "sampled"
    payload.update(kind="sweep-point", schema=STORE_SCHEMA_VERSION, engine=engine)
    return payload


def sweep_point_key(point: SweepPoint, engine: str = "compiled") -> str:
    """Content key of one sweep point (see :func:`sweep_point_payload`)."""
    return content_key(sweep_point_payload(point, engine))


def _run_sweep_point(
    point: SweepPoint, engine: str = "compiled", attempt: int = 1
) -> SweepResult:
    """Worker entry point: build and run one simulation."""
    # Imports kept local so forked/spawned workers only pay for what they use.
    from ..system.config import SystemConfig
    from ..system.numa_system import NumaSystem
    from ..system.simulator import Simulator
    from ..workloads.scenario import build_workload

    # Chaos hook (docs/robustness.md): when a FaultPlan is installed in the
    # environment, this worker may crash, hang, or both -- deterministically,
    # keyed by (seed, point key, attempt) -- before any real work starts.
    plan = faults.active()
    if plan is not None:
        plan.inject_point_faults(
            sweep_point_key(point, engine), sweep_point_payload(point, engine), attempt
        )

    base = SystemConfig.dual_socket if point.num_sockets == 2 else SystemConfig.quad_socket
    config = base(
        protocol=point.protocol,
        num_sockets=point.num_sockets,
        cores_per_socket=point.cores_per_socket,
        allocation_policy=point.allocation_policy,
        broadcast_filter=point.broadcast_filter,
    ).scaled(point.scale)
    system = NumaSystem(config)
    workload = build_workload(
        num_sockets=point.num_sockets,
        cores_per_socket=point.cores_per_socket,
        workload=point.workload,
        trace_dir=point.trace_dir,
        scenario=point.scenario,
        clone=point.clone,
        scale=point.scale,
        accesses_per_thread=point.accesses_per_thread + point.warmup_accesses_per_thread,
        seed=point.seed,
    )
    sample_plan = None
    if point.sample_plan is not None:
        from ..stats.sampling import SamplingPlan

        sample_plan = SamplingPlan.from_spec(point.sample_plan)
        # Mirrors sweep_point_payload, so the executed engine always matches
        # the store key.
        engine = "sampled"
    started = time.time()
    result = Simulator(system, workload, engine=engine, sample_plan=sample_plan).run(
        warmup_accesses_per_core=point.warmup_accesses_per_thread,
        prewarm=point.prewarm,
    )
    return SweepResult(
        point=point,
        stats=result.stats,
        total_time_ns=result.total_time_ns,
        inter_socket_bytes=result.inter_socket_bytes,
        accesses_executed=result.accesses_executed,
        wall_clock_s=time.time() - started,
    )


def _stored_from_sweep(result: SweepResult, key: str, engine: str) -> StoredRun:
    return StoredRun(
        key=key,
        params=sweep_point_payload(result.point, engine),
        stats=result.stats,
        total_time_ns=result.total_time_ns,
        inter_socket_bytes=result.inter_socket_bytes,
        accesses_executed=result.accesses_executed,
        wall_clock_s=result.wall_clock_s,
        attempts=result.attempts,
    )


def _sweep_from_stored(point: SweepPoint, stored: StoredRun) -> SweepResult:
    return SweepResult(
        point=point,
        stats=stored.stats,
        total_time_ns=stored.total_time_ns,
        inter_socket_bytes=stored.inter_socket_bytes,
        accesses_executed=stored.accesses_executed,
        wall_clock_s=stored.wall_clock_s,
        attempts=stored.attempts,
    )


# ----------------------------------------------------------------------
# Failure-domain layer: per-point isolation, retries, quarantine
# ----------------------------------------------------------------------


#: Each retry waits this many times longer than the one before.
BACKOFF_FACTOR = 2.0
#: Relative jitter applied to every retry delay (0.1 = +/-10%).
BACKOFF_JITTER = 0.1


@dataclass(frozen=True)
class FailurePolicy:
    """How campaign execution reacts to a failing or hanging sweep point.

    Every point runs in its own worker process (one failure domain per
    point), watched by the parent: an exception, a death (e.g. SIGKILL/OOM)
    or a wall-clock timeout fails *that attempt*, the point is retried up to
    ``max_attempts`` times with exponential backoff, and a point that
    exhausts its attempts is quarantined to the store's ``failures.jsonl``
    sidecar while the rest of the campaign completes (docs/robustness.md).

    The backoff jitter is *deterministically seeded* -- a pure function of
    ``(seed, point key, attempt)`` -- so two invocations of the same
    campaign schedule retries identically; there is no global RNG state.
    """

    #: Total attempts per point (1 = no retry).
    max_attempts: int = 3
    #: Per-point wall-clock budget in seconds; ``None`` disables the
    #: watchdog (a hung worker then blocks its slot forever, as before).
    timeout_s: Optional[float] = None
    #: First retry delay; attempt ``n`` waits
    #: ``backoff_s * BACKOFF_FACTOR**(n-1)``, jittered by ``BACKOFF_JITTER``.
    backoff_s: float = 0.25
    #: Seed of the deterministic jitter.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff(self, key: str, attempt: int) -> float:
        """Seconds to wait before retrying ``attempt`` (which just failed)."""
        base = self.backoff_s * BACKOFF_FACTOR ** (attempt - 1)
        token = f"{self.seed}|backoff|{key}|{attempt}".encode("utf-8")
        draw = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") / 2.0**64
        return max(0.0, base * (1.0 + BACKOFF_JITTER * (2.0 * draw - 1.0)))


@dataclass
class PointFailure:
    """A sweep point that exhausted its attempts and was quarantined."""

    point: SweepPoint
    key: str
    attempts: int
    error: str
    traceback: str
    engine: str

    def to_failure_record(self) -> FailureRecord:
        return FailureRecord(
            key=self.key,
            params=sweep_point_payload(self.point, self.engine),
            attempts=self.attempts,
            error=self.error,
            traceback=self.traceback,
            engine=self.engine,
        )


@dataclass
class _PointTask:
    """One point's execution state inside the isolated executor."""

    index: int
    point: SweepPoint
    attempt: int = 1
    not_before: float = 0.0


def _isolated_point_worker(conn, point: SweepPoint, engine: str, attempt: int) -> None:
    """Child-process entry: run one point, ship the outcome over the pipe."""
    try:
        outcome = ("ok", _run_sweep_point(point, engine, attempt=attempt))
    except BaseException as exc:  # noqa: BLE001 - the whole point is isolation
        outcome = ("error", repr(exc), traceback_module.format_exc(), exc)
    try:
        conn.send(outcome)
    except Exception:
        if outcome[0] == "ok":
            # The result itself failed to pickle; report that instead.
            conn.send(
                ("error", "result could not be pickled back to the parent",
                 traceback_module.format_exc(), None)
            )
        else:
            # The exception object failed to pickle; resend without it.
            conn.send((outcome[0], outcome[1], outcome[2], None))
    finally:
        conn.close()


def _kill_worker(process) -> None:
    """Terminate a hung worker: SIGTERM, short grace, then SIGKILL."""
    process.terminate()
    process.join(timeout=0.5)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


def _run_points_isolated(
    tasks: List[Tuple[int, SweepPoint]],
    *,
    jobs: int,
    engine: str,
    policy: FailurePolicy,
    propagate: bool,
    finish: Callable[[int, SweepResult], None],
    quarantine: Callable[[PointFailure], None],
) -> None:
    """Run points in per-point worker processes under ``policy``.

    Async submission with a watchdog: up to ``jobs`` workers run
    concurrently, each on its own :class:`multiprocessing.Process` and pipe.
    A worker that returns a result finishes its point; one that raises, dies
    or exceeds ``policy.timeout_s`` fails *that attempt* -- the point is
    rescheduled (exponential backoff, deterministic jitter) until its
    attempts are exhausted, then handed to ``quarantine`` (or, with
    ``propagate=True``, re-raised after in-flight workers are stopped).
    """
    context = multiprocessing.get_context()
    ready = deque(_PointTask(index=index, point=point) for index, point in tasks)
    waiting: List[_PointTask] = []      # backing off until ``not_before``
    inflight: Dict[object, Tuple[_PointTask, object, Optional[float]]] = {}

    def fail_attempt(task: _PointTask, error: str, trace: str, exc) -> None:
        now = time.monotonic()
        if task.attempt < policy.max_attempts:
            task.not_before = now + policy.backoff(
                sweep_point_key(task.point, engine), task.attempt
            )
            task.attempt += 1
            waiting.append(task)
            return
        failure = PointFailure(
            point=task.point,
            key=sweep_point_key(task.point, engine),
            attempts=task.attempt,
            error=error,
            traceback=trace,
            engine=engine,
        )
        if propagate:
            for process, (_task, conn, _deadline) in list(inflight.items()):
                _kill_worker(process)
                conn.close()
            inflight.clear()
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(
                f"sweep point failed ({error}); worker traceback:\n{trace}"
            )
        quarantine(failure)

    try:
        while ready or waiting or inflight:
            now = time.monotonic()
            if waiting:
                due = [task for task in waiting if task.not_before <= now]
                if due:
                    waiting[:] = [t for t in waiting if t.not_before > now]
                    ready.extend(due)

            while ready and len(inflight) < jobs:
                task = ready.popleft()
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_isolated_point_worker,
                    args=(child_conn, task.point, engine, task.attempt),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                deadline = (
                    time.monotonic() + policy.timeout_s
                    if policy.timeout_s is not None else None
                )
                inflight[process] = (task, parent_conn, deadline)

            if not inflight:
                if waiting:
                    pause = min(task.not_before for task in waiting) - time.monotonic()
                    time.sleep(min(max(pause, 0.001), 0.25))
                continue

            completed = []
            for process, (task, conn, deadline) in inflight.items():
                outcome = None
                # Liveness first: a worker seen to have exited has already
                # put any result it sent into the pipe, so the poll below
                # cannot miss a result sent just before the exit.
                exited = not process.is_alive()
                if conn.poll(0):
                    try:
                        outcome = conn.recv()
                    except (EOFError, OSError):
                        # EOF: every write end is closed, so the worker is
                        # gone (or going) without having sent a result.
                        exited = True
                if outcome is not None:
                    process.join()
                elif exited:
                    process.join()
                    outcome = (
                        "error",
                        f"worker died without a result "
                        f"(exit code {process.exitcode}, e.g. killed or OOM)",
                        "", None,
                    )
                elif deadline is not None and time.monotonic() > deadline:
                    _kill_worker(process)
                    outcome = (
                        "error",
                        f"point timed out after {policy.timeout_s:.1f}s "
                        f"(worker killed by the watchdog)",
                        "", None,
                    )
                if outcome is not None:
                    completed.append((process, task, conn, outcome))

            for process, task, conn, outcome in completed:
                del inflight[process]
                conn.close()
                if outcome[0] == "ok":
                    result: SweepResult = outcome[1]
                    result.attempts = task.attempt
                    finish(task.index, result)
                else:
                    _tag, error, trace, exc = outcome
                    fail_attempt(task, error, trace, exc)

            if not completed:
                time.sleep(0.005)
    finally:
        for process, (_task, conn, _deadline) in inflight.items():
            _kill_worker(process)
            conn.close()


def run_sweep(
    points: Sequence[SweepPoint],
    *,
    jobs: Optional[int] = None,
    store: Optional[ResultsStore] = None,
    engine: str = "compiled",
    failure_policy: Optional[FailurePolicy] = None,
    on_failure: Optional[Callable[[PointFailure], None]] = None,
) -> List[Optional[SweepResult]]:
    """Run a list of sweep points, optionally over worker processes.

    ``jobs=None`` or ``jobs<=1`` runs in-process (deterministic order, no
    pickling); otherwise up to ``jobs`` worker processes execute points
    concurrently -- one process per point, so a crash or hang is confined to
    its own failure domain.  Results are always returned in input order.
    ``engine`` is validated against the :mod:`repro.engines` registry up
    front, so a typo fails before any simulation starts.

    With a ``store``, points whose content key is already persisted are
    loaded instead of simulated, and every freshly simulated point is
    appended to the store *as soon as it completes* -- interrupting a sweep
    loses at most the in-flight points, and re-running it resumes from the
    completed ones (docs/campaigns.md walks through this).

    Without a ``failure_policy`` a failing point propagates and aborts the
    sweep (completed points are already persisted when a store is in use).
    With one, every point -- even under ``jobs=1`` -- runs in an isolated
    worker process governed by the policy's retries and timeout;
    points that exhaust their attempts are quarantined to the store's
    ``failures.jsonl`` (and reported through ``on_failure``), their result
    slots are returned as ``None``, and the sweep completes the rest
    (docs/robustness.md).
    """
    from .. import engines

    engines.validate(engine)
    points = list(points)
    results: List[Optional[SweepResult]] = [None] * len(points)

    pending: List[int] = []
    if store is not None:
        for index, point in enumerate(points):
            stored = store.get(sweep_point_key(point, engine))
            if stored is not None:
                results[index] = _sweep_from_stored(point, stored)
            else:
                pending.append(index)
    else:
        pending = list(range(len(points)))

    def finish(index: int, result: SweepResult) -> None:
        results[index] = result
        if store is not None:
            key = sweep_point_key(points[index], engine)
            record = _stored_from_sweep(result, key, engine)
            if failure_policy is None:
                store.put(record)
                return
            try:
                store.put(record)
            except OSError as exc:
                # A failed append must not take the computed result down
                # with it: keep the in-memory result, warn, move on.  The
                # point simply re-runs on the next invocation.
                warnings.warn(
                    f"results store append failed for key {key[:12]}... "
                    f"({exc}); continuing without persisting this point",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def quarantine(failure: PointFailure) -> None:
        if store is not None:
            store.failure_log.append(failure.to_failure_record())
        if on_failure is not None:
            on_failure(failure)

    if failure_policy is None:
        if jobs is None or jobs <= 1 or len(pending) <= 1:
            for index in pending:
                finish(index, _run_sweep_point(points[index], engine))
        else:
            _run_points_isolated(
                [(index, points[index]) for index in pending],
                jobs=min(jobs, len(pending)),
                engine=engine,
                policy=FailurePolicy(max_attempts=1),
                propagate=True,
                finish=finish,
                quarantine=lambda failure: None,
            )
    else:
        _run_points_isolated(
            [(index, points[index]) for index in pending],
            jobs=max(1, min(jobs or 1, max(1, len(pending)))),
            engine=engine,
            policy=failure_policy,
            propagate=False,
            finish=finish,
            quarantine=quarantine,
        )
    return results


def _format_directory_cost(table) -> str:
    return "\n".join(f"{k}: {v:.1f} MB" for k, v in table.items())


#: The single experiment registry (canonical order):
#: name -> (runner(context), formatter(result), needs dual-socket context).
#: Both the sequential and the parallel paths iterate this registry -- and so
#: does ``repro report`` -- so a new figure is added in exactly one place.
_EXPERIMENTS: Dict[str, Tuple[Callable, Callable, bool]] = {
    "table1": (table1.run_table1, table1.format_table1, False),
    "fig2": (fig2.run_fig2, fig2.format_fig2, False),
    "fig3": (fig3.run_fig3, fig3.format_fig3, False),
    "fig6": (fig6.run_fig6, fig6.format_fig6, False),
    "fig7": (fig7.run_fig7, fig7.format_fig7, True),
    "fig8": (fig8.run_fig8, fig8.format_fig8, False),
    "fig9": (fig9.run_fig9, fig9.format_fig9, False),
    "broadcast_filter": (
        broadcast_filter.run_broadcast_filter,
        broadcast_filter.format_broadcast_filter,
        False,
    ),
    "directory_cost": (
        lambda _context: directory_cost.storage_cost_table(),
        _format_directory_cost,
        False,
    ),
    "fig10": (fig10.run_fig10, fig10.format_fig10, False),
    "fig11": (fig11.run_fig11, fig11.format_fig11, False),
}

#: Names skipped by ``include_sensitivity=False``.
_SENSITIVITY = ("fig10", "fig11")


def _experiment_names(include_sensitivity: bool) -> List[str]:
    return [n for n in _EXPERIMENTS if include_sensitivity or n not in _SENSITIVITY]


def run_all(
    settings: Optional[ExperimentSettings] = None,
    *,
    include_sensitivity: bool = True,
    stream=sys.stdout,
    store: Optional[ResultsStore] = None,
    names: Optional[Sequence[str]] = None,
    engine: str = "compiled",
) -> Dict[str, object]:
    """Run all experiments sequentially; returns {experiment-name: result}.

    One context is shared across figures (memoised runs are reused, e.g. the
    Fig. 6 simulations by Figs. 8/9) and the returned values are the raw
    per-figure result objects -- unlike :func:`run_all_parallel`, which
    returns formatted report text.  With a ``store``, every simulation is
    read through / persisted to it, so a repeated invocation is pure cache
    hits and ``repro report`` can later rebuild the tables offline.
    ``names`` restricts the run to a subset of the registry (campaigns use
    this for their ``figures`` list).
    """
    settings = settings or ExperimentSettings()
    context = ExperimentContext(settings, store=store, engine=engine)
    dual_context = ExperimentContext(
        settings.dual_socket(), store=store, engine=engine
    )
    results: Dict[str, object] = {}

    for name in names if names is not None else _experiment_names(include_sensitivity):
        runner, formatter, dual = _EXPERIMENTS[name]
        start = time.time()
        result = runner(dual_context if dual else context)
        report = formatter(result)
        elapsed = time.time() - start
        results[name] = result
        print(f"\n### {name}  ({elapsed:.1f} s)\n", file=stream)
        print(report, file=stream)
        stream.flush()
    return results


def _run_named_experiment(
    task: Tuple[str, ExperimentSettings, Optional[str]]
) -> Tuple[str, str, float, str]:
    """Worker entry point: run one named experiment and return its report text.

    Exceptions are caught and returned as a traceback string (the fourth
    element, empty on success) instead of propagating: with a bare
    ``pool.map`` the first raising task used to abort the whole fan-out and
    discard every completed report.
    """
    name, settings, store_path = task
    start = time.time()
    try:
        store = ResultsStore(store_path) if store_path is not None else None
        runner, formatter, dual = _EXPERIMENTS[name]
        context = ExperimentContext(
            settings.dual_socket() if dual else settings, store=store
        )
        result = runner(context)
        return name, formatter(result), time.time() - start, ""
    except Exception:
        return name, "", time.time() - start, traceback_module.format_exc()


def run_all_parallel(
    settings: Optional[ExperimentSettings] = None,
    *,
    jobs: int = 2,
    include_sensitivity: bool = True,
    stream=sys.stdout,
    store: Optional[ResultsStore] = None,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, str]:
    """Fan the experiments out over ``jobs`` worker processes.

    Each worker builds its own :class:`ExperimentContext`, so *in-process*
    run sharing is per-worker; pass a ``store`` to share runs across workers
    through the persistent results store instead (workers re-open it by
    path, and duplicated concurrent runs of the same point are harmless --
    identical keys store bit-identical records, last write wins).  Because
    the per-figure result objects are not guaranteed picklable, the workers
    return *formatted report text*: the return value is
    ``{experiment-name: report-text}``, not the result objects of
    :func:`run_all` -- use ``jobs=1`` / :func:`run_all` when structured
    results are needed.

    A raising experiment no longer aborts the fan-out: its error is printed
    (with the worker traceback) alongside the completed reports, and its
    entry in the returned dict is the string ``"FAILED: <traceback>"`` so
    callers can tell partial results from success.  ``names`` restricts the
    run to a subset of the registry, mirroring :func:`run_all`.
    """
    settings = settings or ExperimentSettings()
    store_path = str(store.directory) if store is not None else None
    tasks = [
        (name, settings, store_path)
        for name in (
            names if names is not None else _experiment_names(include_sensitivity)
        )
    ]
    reports: Dict[str, str] = {}
    failed: List[str] = []
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        # Unordered so every completed report is printed even if a later
        # recv or a sibling task fails mid-fan-out.
        for name, report, elapsed, error in pool.imap_unordered(
            _run_named_experiment, tasks
        ):
            if error:
                failed.append(name)
                reports[name] = f"FAILED: {error}"
                print(f"\n### {name}  FAILED  ({elapsed:.1f} s)\n", file=stream)
                print(error, file=stream)
            else:
                reports[name] = report
                print(f"\n### {name}  ({elapsed:.1f} s)\n", file=stream)
                print(report, file=stream)
            stream.flush()
    if store is not None:
        store.reload()  # pick up the records the workers appended
    if failed:
        print(
            f"\n{len(failed)}/{len(tasks)} experiments failed: "
            f"{', '.join(sorted(failed))}",
            file=stream,
        )
        stream.flush()
    # Restore registry order (imap_unordered scrambles it).
    ordered = [name for name, _s, _p in tasks]
    return {name: reports[name] for name in ordered if name in reports}


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized runs")
    parser.add_argument("--full", action="store_true",
                        help="higher fidelity: ExperimentSettings.full()")
    parser.add_argument(
        "--no-sensitivity", action="store_true", help="skip the Fig. 10/11 sweeps"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the figure sweeps (1 = sequential, shared "
             "context, structured results; >1 returns formatted report text)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist every simulation to this results-store directory and "
             "reuse any already stored (shared across --jobs workers and "
             "across invocations; see docs/campaigns.md)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        settings = ExperimentSettings.quick()
    elif args.full:
        settings = ExperimentSettings.full()
    else:
        settings = ExperimentSettings()
    store = ResultsStore(args.store) if args.store is not None else None
    if args.jobs > 1:
        return run_all_parallel(
            settings, jobs=args.jobs,
            include_sensitivity=not args.no_sensitivity, store=store,
        )
    return run_all(
        settings, include_sensitivity=not args.no_sensitivity, store=store
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()
