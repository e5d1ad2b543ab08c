"""Shared argparse conventions for every store-touching `repro` subcommand.

``repro campaign``, ``repro report``, ``repro store``, ``repro serve`` and
``repro submit`` all accept the same two flags, wired
from the one parent parser built here:

* ``--store PATH`` -- the results-store directory (docs/serving.md).
* ``--json``       -- machine-readable JSON on stdout instead of prose.

Each is the only spelling: no command takes the store as a positional.
"""

from __future__ import annotations

import argparse
from typing import Optional

__all__ = ["store_options"]


def store_options(*, store_help: Optional[str] = None,
                  json_help: Optional[str] = None) -> argparse.ArgumentParser:
    """The shared ``--store PATH`` / ``--json`` parent parser.

    Use with ``argparse.ArgumentParser(parents=[store_options()])`` (or on a
    subparser).  Returns a fresh parser each call, so per-command help text
    overrides never leak between commands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("common options")
    group.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=store_help or "results-store directory (docs/serving.md)",
    )
    group.add_argument(
        "--json",
        action="store_true",
        help=json_help or "emit machine-readable JSON instead of prose",
    )
    return parent
