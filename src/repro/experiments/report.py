"""``repro report``: render stored experiment results without re-simulating.

Once a results store has been populated -- by ``repro campaign run`` or
by ``python -m repro.experiments.runner --store DIR`` -- this module replays
every figure module through an *offline*
:class:`~repro.experiments.common.ExperimentContext`
(pure store lookups, zero simulation) and writes, per experiment:

* ``<name>.md``  -- the table as GitHub-flavoured Markdown,
* ``<name>.csv`` -- the same values machine-readable,
* ``<name>.txt`` -- the fixed-width text table previously only printed
  to stdout,

plus an ``index.md`` summarising completeness.  A figure whose runs are not
all in the store is reported as *incomplete* (with the first missing run
named) instead of silently re-simulating; ``repro campaign status`` tells
you the same thing without writing files.

Usage::

    python -m repro report --store results/demo
    python -m repro report --store results/demo --out tables --quick
    python -m repro report --campaign examples/campaigns/quick.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..stats.export import export_series_csv, export_table_csv
from ..stats.report import format_markdown_table, series_to_markdown
from ..stats.store import MissingRunError, ResultsStore
from .common import ExperimentContext, ExperimentSettings
from . import runner as runner_module

__all__ = ["ReportEntry", "generate_report", "main"]

PathLike = Union[str, Path]


@dataclass
class ReportEntry:
    """Outcome of rendering one experiment from the store."""

    name: str
    complete: bool
    result: Optional[object] = None
    text: str = ""
    markdown: str = ""
    missing: Optional[str] = None      #: first missing run (incomplete only)
    files: List[Path] = field(default_factory=list)


def _result_to_markdown(name: str, result: object) -> Optional[str]:
    """Markdown rendering for the two result shapes the experiments return."""
    if isinstance(result, Mapping) and result:
        first = next(iter(result.values()))
        if isinstance(first, Mapping):
            return f"## {name}\n\n" + series_to_markdown(result)
        return f"## {name}\n\n" + format_markdown_table(
            ["name", "value"], list(result.items())
        )
    return None


def _export_csv(name: str, result: object, out_dir: Path) -> Optional[Path]:
    """CSV rendering next to the Markdown (series or flat-table shaped)."""
    if isinstance(result, Mapping) and result:
        first = next(iter(result.values()))
        if isinstance(first, Mapping):
            return export_series_csv(result, out_dir / f"{name}.csv")
        return export_table_csv(result, out_dir / f"{name}.csv")
    return None


def _sampled_points_markdown(store: ResultsStore) -> Optional[str]:
    """Render every stored *sampled* run as a mean +/- CI table.

    Sampled records carry a :class:`~repro.stats.sampling.SamplingSummary`
    on their statistics; each becomes one row with ``mean ± half-width``
    cells per metric (the textual form of an error bar).  Returns ``None``
    when the store holds no sampled runs.
    """
    rows = []
    metric_names: List[str] = []
    # iter_records streams shard by shard without caching indexes: the
    # report stays a thin client even over stores far larger than memory.
    for record in store.iter_records():
        summary = getattr(record.stats, "sampling", None)
        if summary is None or not summary.metrics:
            continue
        params = record.params
        source = (
            params.get("scenario")
            or params.get("trace_dir")
            or params.get("workload")
            or record.key[:12]
        )
        protocol = params.get("protocol", "?")
        # Fully qualify the row so runs differing only in machine shape,
        # scale or plan stay distinguishable.
        parts = [f"{source}/{protocol}"]
        if params.get("scale") is not None:
            parts.append(f"s{params['scale']}")
        if params.get("num_sockets") is not None:
            parts.append(
                f"{params['num_sockets']}x{params.get('cores_per_socket', '?')}"
            )
        plan = params.get("sample_plan")
        if isinstance(plan, Mapping):
            parts.append(
                f"u{plan.get('num_units')}/d{plan.get('detail')}"
                f"/w{plan.get('warmup')}"
            )
        for name in summary.metrics:
            if name not in metric_names:
                metric_names.append(name)
        rows.append((" ".join(parts), summary))
    if not rows:
        return None
    header = ["point", "units", "confidence"] + metric_names
    lines = [
        "## sampled points",
        "",
        "Per-metric mean ± confidence half-width over the detail windows of "
        "each sampled run (docs/sampling.md).",
        "",
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for label, summary in sorted(rows, key=lambda row: row[0]):
        cells = [label, str(summary.plan.num_units), f"{summary.plan.confidence:.0%}"]
        for name in metric_names:
            estimate = summary.metrics.get(name)
            cells.append(
                f"{estimate.mean:.4g} ± {estimate.half_width:.2g}"
                if estimate is not None else "—"
            )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _point_label(params: Mapping, key: str) -> str:
    """Short human label of a stored point (mirrors the sampled table)."""
    source = (
        params.get("scenario")
        or params.get("trace_dir")
        or params.get("workload")
        or key[:12]
    )
    parts = [f"{source}/{params.get('protocol', '?')}"]
    if params.get("scale") is not None:
        parts.append(f"s{params['scale']}")
    if params.get("num_sockets") is not None:
        parts.append(f"{params['num_sockets']}x{params.get('cores_per_socket', '?')}")
    return " ".join(parts)


def _reliability_markdown(store: ResultsStore) -> Optional[str]:
    """Render the store's retried and quarantined points as tables.

    Stored records stamp ``attempts`` when a point needed retries
    (docs/robustness.md); the store's ``failures.jsonl`` sidecar holds the
    points that exhausted their attempts.  Returns ``None`` when every point
    completed first-try and nothing is quarantined -- the common case, which
    keeps fault-free reports byte-stable.
    """
    lines = [
        "## reliability",
        "",
        "Points that needed retries or were quarantined (docs/robustness.md).",
    ]
    retried = sorted(
        (_point_label(record.params, record.key), record.attempts)
        for record in store.iter_records()
        if record.attempts > 1
    )
    if retried:
        lines += ["", "| point | attempts |", "| --- | --- |"]
        lines += [f"| {label} | {attempts} |" for label, attempts in retried]
    failures = store.failure_log.records()
    if failures:
        lines += [
            "",
            f"### quarantined points ({store.failures_path.name})",
            "",
            "| point | engine | attempts | error |",
            "| --- | --- | --- | --- |",
        ]
        for failure in failures:
            error = failure.error.replace("|", "\\|")
            lines.append(
                f"| {_point_label(failure.params, failure.key)} "
                f"| {failure.engine or '?'} | {failure.attempts} | {error} |"
            )
    if not retried and not failures:
        return None
    return "\n".join(lines)


def generate_report(
    store: ResultsStore,
    settings: Optional[ExperimentSettings] = None,
    *,
    out_dir: Optional[PathLike] = None,
    names: Optional[Sequence[str]] = None,
    include_sensitivity: bool = True,
    engine: str = "compiled",
    stream=sys.stdout,
) -> Dict[str, ReportEntry]:
    """Render every requested experiment from ``store`` (never simulates).

    ``names`` restricts the experiment set (default: the full runner
    registry, minus Fig. 10/11 when ``include_sensitivity`` is false).
    Returns one :class:`ReportEntry` per experiment; when ``out_dir`` is
    given the Markdown/CSV/text renderings are also written there, plus an
    ``index.md`` marking incomplete figures.
    """
    settings = settings or ExperimentSettings()
    context = ExperimentContext(settings, store=store, offline=True, engine=engine)
    dual_context = ExperimentContext(
        settings.dual_socket(), store=store, offline=True, engine=engine
    )

    if names is None:
        names = runner_module._experiment_names(include_sensitivity)
    else:
        unknown = [n for n in names if n not in runner_module._EXPERIMENTS]
        if unknown:
            raise ValueError(
                f"unknown experiment(s) {unknown}; "
                f"expected a subset of {list(runner_module._EXPERIMENTS)}"
            )

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    entries: Dict[str, ReportEntry] = {}
    for name in names:
        figure_runner, formatter, dual = runner_module._EXPERIMENTS[name]
        try:
            result = figure_runner(dual_context if dual else context)
        except MissingRunError as exc:
            entries[name] = ReportEntry(
                name=name, complete=False, missing=str(exc)
            )
            print(f"{name}: INCOMPLETE ({exc})", file=stream)
            continue
        entry = ReportEntry(
            name=name,
            complete=True,
            result=result,
            text=formatter(result),
            markdown=_result_to_markdown(name, result) or "",
        )
        if out_path is not None:
            if entry.markdown:
                md_file = out_path / f"{name}.md"
                md_file.write_text(entry.markdown + "\n", encoding="utf-8")
                entry.files.append(md_file)
            csv_file = _export_csv(name, result, out_path)
            if csv_file is not None:
                entry.files.append(csv_file)
            txt_file = out_path / f"{name}.txt"
            txt_file.write_text(entry.text + "\n", encoding="utf-8")
            entry.files.append(txt_file)
        entries[name] = entry
        print(f"{name}: ok", file=stream)

    sampled_markdown = _sampled_points_markdown(store)
    if sampled_markdown is not None:
        print("sampled points: ok", file=stream)
        if out_path is not None:
            (out_path / "sampled_points.md").write_text(
                sampled_markdown + "\n", encoding="utf-8"
            )

    reliability_markdown = _reliability_markdown(store)
    if reliability_markdown is not None:
        print("reliability: retried/quarantined points present", file=stream)
        if out_path is not None:
            (out_path / "reliability.md").write_text(
                reliability_markdown + "\n", encoding="utf-8"
            )

    if out_path is not None:
        index_lines = ["# Experiment report", ""]
        for name, entry in entries.items():
            if entry.complete:
                index_lines.append(f"- [{name}]({name}.md)" if entry.markdown
                                   else f"- {name} (text only: {name}.txt)")
            else:
                index_lines.append(f"- {name} — **incomplete**: {entry.missing}")
        if sampled_markdown is not None:
            index_lines.append("- [sampled points](sampled_points.md) "
                               "(mean ± CI per metric)")
        if reliability_markdown is not None:
            index_lines.append("- [reliability](reliability.md) "
                               "(retried / quarantined points)")
        (out_path / "index.md").write_text("\n".join(index_lines) + "\n",
                                           encoding="utf-8")
    return entries


# ----------------------------------------------------------------------
# CLI (`repro report`)
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from ..cli_common import store_options

    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render stored experiment results to Markdown/CSV tables "
                    "without re-simulating.",
        parents=[store_options(
            store_help="results-store directory (required unless "
                       "--campaign provides one)",
        )],
    )
    parser.add_argument("--campaign", default=None, metavar="SPEC",
                        help="take settings/engine/store from a campaign "
                             "JSON spec instead of the profile flags")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: <store>/report)")
    parser.add_argument("--quick", action="store_true",
                        help="the store was populated with --quick settings")
    parser.add_argument("--full", action="store_true",
                        help="the store was populated with --full settings")
    parser.add_argument("--no-sensitivity", action="store_true",
                        help="skip the Fig. 10/11 tables")
    parser.add_argument("--engine", default="compiled",
                        help="engine the store was populated with")
    parser.add_argument("--experiments", nargs="+", default=None,
                        metavar="NAME", help="restrict to these experiments")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    engine = args.engine
    if args.campaign is not None:
        from .campaign import CampaignError, CampaignSpec

        try:
            spec = CampaignSpec.from_file(args.campaign)
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        settings = spec.settings
        engine = spec.engine
        store_dir = spec.store_directory(args.store)
        # A campaign that declares figures populated exactly those; default
        # the report to them instead of the full registry (whose other
        # figures would be reported incomplete by construction).
        if args.experiments is None and spec.figures:
            args.experiments = list(spec.figures)
    else:
        if args.store is None:
            print("error: --store DIR (or --campaign SPEC) is required",
                  file=sys.stderr)
            return 1
        if args.quick:
            settings = ExperimentSettings.quick()
        elif args.full:
            settings = ExperimentSettings.full()
        else:
            settings = ExperimentSettings()
        store_dir = Path(args.store)

    store = ResultsStore(store_dir)
    out_dir = Path(args.out) if args.out is not None else store.directory / "report"
    entries = generate_report(
        store,
        settings,
        out_dir=out_dir,
        names=args.experiments,
        include_sensitivity=not args.no_sensitivity,
        engine=engine,
    )
    complete = sum(1 for entry in entries.values() if entry.complete)
    if args.json:
        print(json.dumps({
            "out_dir": str(out_dir),
            "complete": complete,
            "total": len(entries),
            "experiments": {
                name: entry.complete for name, entry in entries.items()
            },
        }, sort_keys=True))
    else:
        print(f"report: {complete}/{len(entries)} experiments rendered to "
              f"{out_dir}")
    return 0 if complete == len(entries) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via `repro report`
    sys.exit(main())
