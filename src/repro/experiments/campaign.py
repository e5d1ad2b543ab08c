"""Resumable experiment campaigns: declarative sweep grids + figure sets.

A *campaign* is a JSON file describing a batch of experiments as data: a
fidelity profile (:class:`~repro.experiments.common.ExperimentSettings`),
a list of figure/table modules to reproduce, and any number of *sweep
grids* -- cartesian products of designs x workload sources (synthetic
benchmarks, scenarios, recorded trace directories) x machine topologies
that expand into :class:`~repro.experiments.runner.SweepPoint` lists.
Example (docs/campaigns.md documents every field)::

    {
      "name": "quick-smoke",
      "settings": {"profile": "quick"},
      "figures": ["table1", "fig6"],
      "sweeps": [
        {"protocols": ["baseline", "c3d"],
         "workloads": ["facesim"],
         "topologies": [{"sockets": 2, "cores_per_socket": 2}]}
      ]
    }

Campaigns execute against a persistent
:class:`~repro.stats.store.ResultsStore`: every completed point is appended
to the store immediately, already-stored points are skipped, and an
interrupted ``repro campaign run`` simply resumes where it stopped when
re-invoked -- the merged statistics are bit-identical to an uninterrupted
run (``tests/system/test_campaign_resume.py`` asserts this).  ``repro
campaign status`` reports completion without simulating anything, ``repro
campaign clean`` empties the store, and ``repro report`` renders the stored
results into Markdown/CSV tables (:mod:`repro.experiments.report`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import engines
from ..memory.allocation import POLICY_NAMES
from ..stats.counters import SimulationStats
from ..stats.store import MissingRunError, ResultsStore
from ..system.config import PROTOCOL_NAMES
from ..workloads.registry import WORKLOAD_SPECS
from .common import ExperimentContext, ExperimentSettings
from . import runner as runner_module
from .runner import (
    FailurePolicy,
    PointFailure,
    SweepPoint,
    SweepResult,
    run_all,
    run_sweep,
    sweep_point_key,
)

__all__ = [
    "CampaignError",
    "SweepGrid",
    "CampaignSpec",
    "CampaignSummary",
    "run_campaign",
    "campaign_status",
    "merged_point_stats",
    "main",
]

PathLike = Union[str, Path]

#: Settings profiles selectable from a campaign spec.
_PROFILES = {
    "default": ExperimentSettings,
    "quick": ExperimentSettings.quick,
    "full": ExperimentSettings.full,
}


class CampaignError(ValueError):
    """A campaign spec is malformed (unknown field, bad name, empty grid)."""


def _check_keys(mapping: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise CampaignError(
            f"unknown {where} field(s) {unknown}; expected a subset of {sorted(allowed)}"
        )


@dataclass(frozen=True)
class SweepGrid:
    """One cartesian sweep axis-set of a campaign.

    ``protocols`` x (``workloads`` + ``scenarios`` + ``trace_dirs`` +
    ``clones``) x ``topologies`` expand to one :class:`SweepPoint` each
    (``clones`` are clone-spec JSON paths from ``repro analyze --clone-out``,
    docs/ingestion.md); the scalar fields
    (scale, access counts, placement policy, ...) apply to every point of
    the grid and default to the campaign's settings profile.  A
    ``sample_plan`` spec string (docs/sampling.md) runs every point of the
    grid sampled; sampled points key separately from exact ones in the
    results store, so mixed campaigns never collide.
    """

    protocols: Tuple[str, ...] = ("baseline", "c3d")
    workloads: Tuple[str, ...] = ()
    scenarios: Tuple[str, ...] = ()
    trace_dirs: Tuple[str, ...] = ()
    clones: Tuple[str, ...] = ()
    #: (num_sockets, cores_per_socket) machine shapes.
    topologies: Tuple[Tuple[int, int], ...] = ()
    scale: int = 512
    accesses_per_thread: int = 3000
    warmup_accesses_per_thread: int = 1000
    allocation_policy: str = "first_touch"
    prewarm: bool = True
    broadcast_filter: bool = False
    seed: Optional[int] = None
    sample_plan: Optional[str] = None

    def sources(self) -> List[Tuple[str, str]]:
        """The workload sources as ``(kind, value)`` pairs, in spec order."""
        return (
            [("workload", name) for name in self.workloads]
            + [("scenario", name) for name in self.scenarios]
            + [("trace_dir", path) for path in self.trace_dirs]
            + [("clone", path) for path in self.clones]
        )

    def expand(self) -> List[SweepPoint]:
        """Expand to sweep points (protocol-major, then source, topology)."""
        points: List[SweepPoint] = []
        for protocol in self.protocols:
            for kind, value in self.sources():
                for num_sockets, cores_per_socket in self.topologies:
                    point = SweepPoint(
                        workload=value if kind == "workload" else "facesim",
                        protocol=protocol,
                        scale=self.scale,
                        accesses_per_thread=self.accesses_per_thread,
                        warmup_accesses_per_thread=self.warmup_accesses_per_thread,
                        num_sockets=num_sockets,
                        cores_per_socket=cores_per_socket,
                        allocation_policy=self.allocation_policy,
                        prewarm=self.prewarm,
                        broadcast_filter=self.broadcast_filter,
                        seed=self.seed,
                        trace_dir=value if kind == "trace_dir" else None,
                        scenario=value if kind == "scenario" else None,
                        clone=value if kind == "clone" else None,
                        sample_plan=self.sample_plan,
                    )
                    points.append(point)
        return points


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed, validated campaign description."""

    name: str
    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    figures: Tuple[str, ...] = ()
    sweeps: Tuple[SweepGrid, ...] = ()
    engine: str = "compiled"
    #: Default results-store directory (CLI ``--store`` overrides it).
    store: Optional[str] = None

    def expand(self) -> List[SweepPoint]:
        """All sweep points of the campaign, in deterministic spec order."""
        points: List[SweepPoint] = []
        for grid in self.sweeps:
            points.extend(grid.expand())
        return points

    def store_directory(self, override: Optional[PathLike] = None) -> Path:
        """Resolve the store directory (CLI override > spec > results/<name>)."""
        if override is not None:
            return Path(override)
        if self.store is not None:
            return Path(self.store)
        return Path("results") / self.name

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_file(cls, path: PathLike) -> "CampaignSpec":
        """Load and validate a campaign spec from a JSON file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(f"cannot read campaign spec {path}: {exc}") from None
        except ValueError as exc:
            raise CampaignError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(payload, where=str(path))

    @classmethod
    def from_dict(cls, payload: Mapping, *, where: str = "campaign") -> "CampaignSpec":
        """Build a validated spec from a JSON-shaped mapping."""
        if not isinstance(payload, Mapping):
            raise CampaignError(f"{where}: campaign spec must be a JSON object")
        _check_keys(
            payload,
            ("name", "settings", "figures", "sweeps", "engine", "store"),
            "campaign",
        )
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise CampaignError(f"{where}: campaign 'name' must be a non-empty string")

        settings = _parse_settings(payload.get("settings", {}))

        figures = tuple(payload.get("figures", ()))
        known_figures = tuple(runner_module._EXPERIMENTS)
        for figure in figures:
            if figure not in known_figures:
                raise CampaignError(
                    f"unknown figure {figure!r}; expected one of {list(known_figures)}"
                )

        engine = payload.get("engine", "compiled")
        try:
            engines.validate(engine)
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
        sweeps = tuple(
            _parse_grid(grid, settings, index)
            for index, grid in enumerate(payload.get("sweeps", ()))
        )
        if not figures and not sweeps:
            raise CampaignError(
                f"{where}: campaign has neither 'figures' nor 'sweeps' -- nothing to run"
            )
        return cls(
            name=name,
            settings=settings,
            figures=figures,
            sweeps=sweeps,
            engine=engine,
            store=payload.get("store"),
        )


def _parse_settings(payload: Mapping) -> ExperimentSettings:
    """Parse the ``settings`` block: a profile name plus field overrides."""
    if not isinstance(payload, Mapping):
        raise CampaignError("'settings' must be a JSON object")
    allowed = ("profile",) + tuple(f.name for f in fields(ExperimentSettings))
    _check_keys(payload, allowed, "settings")
    profile = payload.get("profile", "default")
    if profile not in _PROFILES:
        raise CampaignError(
            f"unknown settings profile {profile!r}; expected one of {sorted(_PROFILES)}"
        )
    settings = _PROFILES[profile]()
    overrides = {k: v for k, v in payload.items() if k != "profile"}
    if overrides:
        settings = replace(settings, **overrides)
    _check_policy(settings.allocation_policy, "settings")
    return settings


def _check_policy(policy, where: str) -> None:
    """Reject an allocation policy :func:`make_policy` would refuse, so a
    bad spec fails when it is parsed, not when a point builds its machine."""
    if policy not in POLICY_NAMES:
        raise CampaignError(
            f"{where}: unknown allocation_policy {policy!r}; "
            f"expected one of {list(POLICY_NAMES)}"
        )


def _parse_grid(payload: Mapping, settings: ExperimentSettings, index: int) -> SweepGrid:
    """Parse one ``sweeps[i]`` block, defaulting scalars to ``settings``."""
    where = f"sweeps[{index}]"
    if not isinstance(payload, Mapping):
        raise CampaignError(f"{where} must be a JSON object")
    allowed = tuple(f.name for f in fields(SweepGrid))
    _check_keys(payload, allowed, where)

    protocols = tuple(payload.get("protocols", ("baseline", "c3d")))
    for protocol in protocols:
        if protocol not in PROTOCOL_NAMES:
            raise CampaignError(
                f"{where}: unknown protocol {protocol!r}; "
                f"expected one of {list(PROTOCOL_NAMES)}"
            )
    workloads = tuple(payload.get("workloads", ()))
    for workload in workloads:
        if workload not in WORKLOAD_SPECS:
            raise CampaignError(
                f"{where}: unknown workload {workload!r}; "
                f"expected one of {sorted(WORKLOAD_SPECS)}"
            )
    scenarios = tuple(payload.get("scenarios", ()))
    trace_dirs = tuple(payload.get("trace_dirs", ()))
    clones = tuple(payload.get("clones", ()))
    if not (workloads or scenarios or trace_dirs or clones):
        raise CampaignError(
            f"{where}: needs at least one of 'workloads', 'scenarios', "
            f"'trace_dirs', 'clones'"
        )

    raw_topologies = payload.get(
        "topologies",
        ({"sockets": settings.num_sockets,
          "cores_per_socket": settings.cores_per_socket},),
    )
    topologies = []
    for topo in raw_topologies:
        if not isinstance(topo, Mapping):
            raise CampaignError(f"{where}: each topology must be an object")
        _check_keys(topo, ("sockets", "cores_per_socket"), f"{where} topology")
        try:
            topologies.append(
                (int(topo.get("sockets", 4)), int(topo.get("cores_per_socket", 8)))
            )
        except (TypeError, ValueError):
            raise CampaignError(
                f"{where}: topology sockets/cores_per_socket must be integers, "
                f"got {dict(topo)}"
            ) from None

    allocation_policy = payload.get("allocation_policy", settings.allocation_policy)
    _check_policy(allocation_policy, where)

    sample_plan = payload.get("sample_plan")
    if sample_plan is not None:
        from ..stats.sampling import SamplingPlan

        try:
            SamplingPlan.from_spec(sample_plan)
        except ValueError as exc:
            raise CampaignError(f"{where}: bad sample_plan: {exc}") from None

    return SweepGrid(
        protocols=protocols,
        workloads=workloads,
        scenarios=scenarios,
        trace_dirs=trace_dirs,
        clones=clones,
        topologies=tuple(topologies),
        scale=payload.get("scale", settings.scale),
        accesses_per_thread=payload.get(
            "accesses_per_thread", settings.accesses_per_thread
        ),
        warmup_accesses_per_thread=payload.get(
            "warmup_accesses_per_thread", settings.warmup_accesses_per_thread
        ),
        allocation_policy=allocation_policy,
        prewarm=payload.get("prewarm", settings.prewarm),
        broadcast_filter=payload.get("broadcast_filter", False),
        seed=payload.get("seed", settings.seed),
        sample_plan=sample_plan,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class CampaignSummary:
    """Outcome of one ``run_campaign`` invocation."""

    name: str
    total_points: int
    executed_points: int
    cached_points: int
    figures: Tuple[str, ...]
    figure_store_hits: int
    figure_store_misses: int
    wall_clock_s: float
    #: Points quarantined this invocation (exhausted their retry budget).
    failed_points: int = 0
    results: List[Optional[SweepResult]] = field(default_factory=list, repr=False)
    figure_results: Dict[str, object] = field(default_factory=dict, repr=False)
    failures: List[PointFailure] = field(default_factory=list, repr=False)

    def format(self) -> str:
        """One parse-friendly summary line (the CI smoke greps it)."""
        counts = f"{self.executed_points} executed, {self.cached_points} cached"
        if self.failed_points:
            # Appended only when non-zero so the fault-free line stays
            # byte-stable for the CI greps.
            counts += f", {self.failed_points} failed"
        parts = [f"campaign '{self.name}': {self.total_points} points ({counts})"]
        if self.figures:
            parts.append(
                f"{len(self.figures)} figures "
                f"({self.figure_store_misses} runs simulated, "
                f"{self.figure_store_hits} cached)"
            )
        parts.append(f"{self.wall_clock_s:.1f} s")
        return ", ".join(parts)


def run_campaign(
    spec: CampaignSpec,
    store: ResultsStore,
    *,
    jobs: int = 1,
    stream=sys.stdout,
    failure_policy: FailurePolicy = FailurePolicy(),
) -> CampaignSummary:
    """Execute a campaign against a results store, resuming automatically.

    Sweep points already in the store are skipped; fresh points are appended
    to the store the moment they complete, so an interrupted run loses at
    most the in-flight points and the next invocation continues from there.
    Figures run after the sweeps through store-backed contexts, so their
    simulations are cached and skipped the same way.

    Sweep points run fault-tolerantly (docs/robustness.md): each point is
    retried per ``failure_policy`` and, if it keeps failing, is quarantined
    to the store's ``failures.jsonl`` while the campaign completes the rest
    -- the summary reports them as ``failed_points``.  A quarantined point
    is *not* blacklisted: the next invocation retries it.
    """
    started = time.time()
    points = spec.expand()
    cached = sum(
        1 for point in points if sweep_point_key(point, spec.engine) in store
    )
    failures: List[PointFailure] = []
    results = run_sweep(
        points, jobs=jobs, store=store, engine=spec.engine,
        failure_policy=failure_policy, on_failure=failures.append,
    )
    for failure in failures:
        print(
            f"point FAILED after {failure.attempts} attempt(s) "
            f"[{failure.engine}]: {failure.error} "
            f"(quarantined to {store.failures_path})",
            file=stream,
        )

    hits_before, misses_before = store.hits, store.misses
    figure_results: Dict[str, object] = {}
    if spec.figures:
        figure_results = run_all(
            spec.settings, names=spec.figures, store=store,
            engine=spec.engine, stream=stream,
        )

    summary = CampaignSummary(
        name=spec.name,
        total_points=len(points),
        executed_points=len(points) - cached - len(failures),
        cached_points=cached,
        figures=spec.figures,
        figure_store_hits=store.hits - hits_before,
        figure_store_misses=store.misses - misses_before,
        wall_clock_s=time.time() - started,
        failed_points=len(failures),
        results=results,
        figure_results=figure_results,
        failures=failures,
    )
    print(summary.format(), file=stream)
    return summary


def campaign_status(spec: CampaignSpec, store: ResultsStore) -> Dict[str, object]:
    """Completion state of a campaign without simulating anything.

    Returns ``{"points_done", "points_total", "points_quarantined",
    "figures": {name: bool}}``; figure completeness is probed by replaying
    the figure through an *offline* context (pure store lookups -- a missing
    run means incomplete).  ``points_quarantined`` counts the campaign's
    points present in the store's ``failures.jsonl`` sidecar but not yet
    completed -- they re-run on the next invocation (docs/robustness.md).

    Point counting consults only the store's key index
    (:meth:`~repro.stats.store.ResultsStore.known_keys`, a raw scan of the
    shard files): no record body is parsed, so status on a store of
    millions of results costs one sequential read, not a full load --
    ``tests/experiments/test_status_index.py`` pins that.  (Figure
    probing, when the spec names figures, does fetch the records it
    replays.)
    """
    points = spec.expand()
    stored_keys = store.known_keys()
    campaign_keys = {sweep_point_key(point, spec.engine) for point in points}
    done = sum(
        1 for point in points
        if sweep_point_key(point, spec.engine) in stored_keys
    )
    quarantined = len(store.failure_log.keys() & campaign_keys - stored_keys)
    figures: Dict[str, bool] = {}
    if spec.figures:
        context = ExperimentContext(
            spec.settings, store=store, offline=True, engine=spec.engine
        )
        dual_context = ExperimentContext(
            spec.settings.dual_socket(), store=store, offline=True, engine=spec.engine
        )
        for name in spec.figures:
            figure_runner, _formatter, dual = runner_module._EXPERIMENTS[name]
            try:
                figure_runner(dual_context if dual else context)
            except MissingRunError:
                figures[name] = False
            else:
                figures[name] = True
    return {
        "points_done": done,
        "points_total": len(points),
        "points_quarantined": quarantined,
        "figures": figures,
    }


def merged_point_stats(
    spec: CampaignSpec, store: ResultsStore, *, skip_missing: bool = False
) -> SimulationStats:
    """Fold the stored statistics of every sweep point, in expansion order.

    Raises :class:`~repro.stats.store.MissingRunError` if any point has not
    been run yet; with ``skip_missing=True`` absent points (e.g. quarantined
    ones) are skipped instead, folding only the surviving points.  Because
    the fold order is the deterministic expansion order (not completion
    order), the aggregate is bit-identical whether the campaign ran cold,
    resumed, fanned out over workers, or survived injected faults.
    """
    merged = SimulationStats()
    for point in spec.expand():
        key = sweep_point_key(point, spec.engine)
        stored = store.get(key)
        if stored is None:
            if skip_missing:
                continue
            raise MissingRunError(key, runner_module.sweep_point_payload(point, spec.engine))
        merged.merge(stored.stats)
    return merged


# ----------------------------------------------------------------------
# CLI (`repro campaign ...`)
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from ..cli_common import store_options

    def common():
        # The unified --store/--json pair every store-touching subcommand
        # shares (repro.cli_common).
        return store_options(
            store_help="results-store directory (default: the spec's "
                       "'store' field, else results/<name>)"
        )

    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run, inspect or reset resumable experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", parents=[common()],
                                help="run a campaign (resumes automatically)")
    run_parser.add_argument("spec", help="campaign JSON file (docs/campaigns.md)")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the sweep points")
    run_parser.add_argument("--max-attempts", type=int, default=3,
                            help="attempts per sweep point before it is "
                                 "quarantined to failures.jsonl (default: 3)")
    run_parser.add_argument("--timeout", type=float, default=None, metavar="S",
                            help="per-point wall-clock budget in seconds; a "
                                 "point past it is killed and counted as a "
                                 "failed attempt (default: no timeout)")
    run_parser.add_argument("--retry-backoff", type=float, default=0.25,
                            metavar="S",
                            help="first retry delay in seconds, doubling per "
                                 "attempt with deterministic jitter "
                                 "(default: 0.25)")

    status_parser = sub.add_parser("status", parents=[common()],
                                   help="report completion without running")
    status_parser.add_argument("spec")

    clean_parser = sub.add_parser("clean", parents=[common()],
                                  help="delete a campaign's stored results")
    clean_parser.add_argument("spec")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = CampaignSpec.from_file(args.spec)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    store = ResultsStore(spec.store_directory(args.store))

    if args.command == "run":
        policy = FailurePolicy(
            max_attempts=args.max_attempts,
            timeout_s=args.timeout,
            backoff_s=args.retry_backoff,
        )
        summary = run_campaign(spec, store, jobs=args.jobs, failure_policy=policy,
                               # keep stdout pure JSON; progress goes to stderr
                               stream=sys.stderr if args.json else sys.stdout)
        if args.json:
            print(json.dumps({
                "name": spec.name,
                "total_points": summary.total_points,
                "executed": summary.executed_points,
                "cached": summary.cached_points,
                "failed": summary.failed_points,
            }, sort_keys=True))
        return 1 if summary.failed_points else 0
    if args.command == "status":
        status = campaign_status(spec, store)
        if args.json:
            print(json.dumps({"name": spec.name, **status}, sort_keys=True))
            all_done = (status["points_done"] == status["points_total"]
                        and all(status["figures"].values()))
            return 0 if all_done else 1
        print(
            f"campaign '{spec.name}': {status['points_done']}/"
            f"{status['points_total']} points complete"
        )
        if status["points_quarantined"]:
            print(
                f"  {status['points_quarantined']} point(s) quarantined in "
                f"{store.failures_path} (will retry on the next run)"
            )
        for name, complete in status["figures"].items():
            print(f"  figure {name}: {'complete' if complete else 'incomplete'}")
        all_points = status["points_done"] == status["points_total"]
        all_figures = all(status["figures"].values())
        return 0 if all_points and all_figures else 1
    if args.command == "clean":
        removed = store.clean()
        if args.json:
            print(json.dumps({"removed": removed,
                              "store": str(store.directory)}, sort_keys=True))
        else:
            print(f"removed {removed} stored result(s) from {store.directory}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via `repro campaign`
    sys.exit(main())
