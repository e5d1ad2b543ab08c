"""`repro serve`: the campaign HTTP daemon (stdlib only).

A :class:`ThreadingHTTPServer` front end over one sharded results store
and a :class:`~repro.service.jobs.JobManager` worker pool.  Four
endpoints (docs/serving.md is the full reference):

* ``GET  /healthz``                 -- liveness + job-pool counts
* ``POST /campaigns``               -- submit a CampaignSpec JSON body
* ``GET  /campaigns/{id}``          -- done/pending/quarantined counts
* ``GET  /campaigns/{id}/results``  -- completed records, streamed NDJSON

Responses are JSON; errors are ``{"error": ...}`` with a 4xx status.
Results stream record by record (HTTP/1.0 close-delimited, no buffering
of the whole store), in the campaign's deterministic expansion order.

The server binds 127.0.0.1 by default: the daemon trusts its callers --
anything that can reach the socket can submit work -- so exposing it
beyond localhost is an explicit operator decision (``--host``).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from ..experiments.campaign import CampaignError
from ..experiments.runner import FailurePolicy, sweep_point_key
from ..stats.store import _canonical
from .jobs import JobManager

__all__ = ["CampaignHTTPServer", "serve", "main"]

#: One stored record per line; close-delimited (no Content-Length).
NDJSON = "application/x-ndjson"
JSON = "application/json"


class CampaignHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`JobManager`."""

    daemon_threads = True

    def __init__(self, address, manager: JobManager, *, quiet: bool = True):
        self.manager = manager
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    #: HTTP/1.0 keeps the NDJSON stream close-delimited -- the client
    #: reads until EOF, the server never needs the full byte count.
    protocol_version = "HTTP/1.0"

    # -- plumbing ------------------------------------------------------

    @property
    def manager(self) -> JobManager:
        return self.server.manager

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - operator logging
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", JSON)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _route(self) -> Tuple[str, List[str]]:
        path = self.path.split("?", 1)[0]
        return path, [part for part in path.split("/") if part]

    # -- endpoints -----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path, parts = self._route()
        if path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "store": str(self.manager.store_path),
                "jobs": self.manager.counts(),
            })
            return
        if len(parts) >= 2 and parts[0] == "campaigns":
            job = self.manager.get(parts[1])
            if job is None:
                self._error(404, f"unknown campaign {parts[1]!r}")
                return
            if len(parts) == 2:
                self._send_json(200, self.manager.status(job))
                return
            if len(parts) == 3 and parts[2] == "results":
                self._stream_results(job)
                return
        self._error(404, f"no such endpoint: {path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path, _parts = self._route()
        if path != "/campaigns":
            self._error(404, f"no such endpoint: {path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        try:
            job, created = self.manager.submit(payload)
        except CampaignError as exc:
            self._error(400, str(exc))
            return
        self._send_json(202 if created else 200, {
            "id": job.id,
            "name": job.spec.name,
            "state": job.state,
            "points_total": len(job.spec.expand()),
            "created": created,
        })

    def _stream_results(self, job) -> None:
        """Stream the job's completed records as NDJSON, expansion order.

        Pending/quarantined points are simply absent; the client can diff
        against the status endpoint's counts.  Records come from per-shard
        index lookups -- the store is never loaded whole.
        """
        store = self.manager.open_store()
        self.send_response(200)
        self.send_header("Content-Type", NDJSON)
        self.end_headers()
        for point in job.spec.expand():
            record = store.get(sweep_point_key(point, job.spec.engine))
            if record is None:
                continue
            line = _canonical(record.to_json_dict()) + "\n"
            self.wfile.write(line.encode("utf-8"))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def serve(
    store_path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    point_jobs: int = 2,
    failure_policy: Optional[FailurePolicy] = None,
    quiet: bool = True,
) -> CampaignHTTPServer:
    """Bind the daemon (without entering its serve loop).

    ``port=0`` binds an ephemeral port -- read it back from
    ``server.server_address``.  The caller owns the loop: call
    ``serve_forever()`` (or poll ``handle_request()`` in tests) and
    ``shutdown_service()`` when done.
    """
    manager = JobManager(
        store_path,
        workers=workers,
        point_jobs=point_jobs,
        failure_policy=failure_policy,
    )
    server = CampaignHTTPServer((host, port), manager, quiet=quiet)
    return server


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from ..cli_common import store_options

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve campaign submit/status/results over HTTP "
                    "against one sharded results store (docs/serving.md).",
        parents=[store_options(
            store_help="results-store directory every campaign runs against "
                       "(submitted specs' own 'store' fields are ignored)",
            json_help="reserved for symmetry with the other subcommands",
        )],
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: localhost only)")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (default: 8642; 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent campaign jobs (default: 2)")
    parser.add_argument("--point-jobs", type=int, default=2,
                        help="worker processes per campaign sweep "
                             "(default: 2)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)
    if not args.store:
        parser.error("--store PATH is required")

    server = serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        point_jobs=args.point_jobs,
        quiet=not args.verbose,
    )
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"(store {args.store}, {args.workers} worker(s) x "
          f"{args.point_jobs} point job(s))", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.manager.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `repro serve`
    import sys

    sys.exit(main(sys.argv[1:]))
