"""`repro submit`: the thin HTTP client of a `repro serve` daemon.

Stdlib ``urllib`` only.  :class:`ServeClient` wraps the four endpoints;
the CLI submits a campaign spec file, optionally polls it to completion
and streams the NDJSON results to a file or stdout.  The client never
opens the store -- everything goes over the wire (docs/serving.md).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Mapping, Optional

__all__ = ["ServeClient", "ServiceError", "main"]


class ServiceError(RuntimeError):
    """An HTTP error response from the serving daemon."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"server returned {status}: {message}")


class ServeClient:
    """Minimal client of the `repro serve` HTTP API."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, path: str, body: Optional[bytes] = None):
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            headers={"Content-Type": "application/json"} if body else {},
            method="POST" if body is not None else "GET",
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, OSError):
                detail = exc.reason
            raise ServiceError(exc.code, detail) from None

    def _json(self, path: str, body: Optional[bytes] = None) -> Dict:
        with self._request(path, body) as response:
            return json.loads(response.read().decode("utf-8"))

    # -- endpoints -----------------------------------------------------

    def submit(self, spec_payload: Mapping) -> Dict:
        """POST a CampaignSpec payload; returns the job descriptor."""
        body = json.dumps(dict(spec_payload)).encode("utf-8")
        return self._json("/campaigns", body)

    def status(self, job_id: str) -> Dict:
        return self._json(f"/campaigns/{job_id}")

    def results(self, job_id: str) -> Iterator[Dict]:
        """Stream the completed records of a campaign, one per NDJSON line."""
        with self._request(f"/campaigns/{job_id}/results") as response:
            for raw in response:
                line = raw.decode("utf-8").strip()
                if line:
                    yield json.loads(line)

    def wait(self, job_id: str, *, timeout: float = 600.0,
             poll_s: float = 0.2) -> Dict:
        """Poll until the job leaves the queue and no points are pending."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed"):
                return status
            if time.monotonic() > deadline:
                raise ServiceError(
                    504, f"campaign {job_id} still {status['state']} "
                         f"({status['points_done']}/{status['points_total']} "
                         f"points) after {timeout:.0f}s"
                )
            time.sleep(poll_s)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from ..cli_common import store_options

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a campaign spec to a running `repro serve` "
                    "daemon over HTTP (docs/serving.md).",
        parents=[store_options(
            store_help="ignored: the server owns the store; accepted for "
                       "CLI symmetry",
        )],
    )
    parser.add_argument("spec", help="campaign spec JSON file")
    parser.add_argument("--server", required=True, metavar="URL",
                        help="base URL of the daemon, e.g. "
                             "http://127.0.0.1:8642")
    parser.add_argument("--wait", action="store_true",
                        help="poll status until the campaign finishes")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds (default: 600)")
    parser.add_argument("--results", metavar="PATH", default=None,
                        help="after --wait, stream the NDJSON results "
                             "to this file ('-' = stdout)")
    args = parser.parse_args(argv)
    if args.store:
        print("repro submit: note: --store is ignored (the server owns "
              "its store)", file=sys.stderr)

    try:
        payload = json.loads(open(args.spec, encoding="utf-8").read())
    except (OSError, ValueError) as exc:
        print(f"repro submit: cannot read spec {args.spec}: {exc}",
              file=sys.stderr)
        return 2

    client = ServeClient(args.server)
    try:
        job = client.submit(payload)
        if not args.wait:
            print(json.dumps(job, sort_keys=True) if args.json else
                  f"submitted campaign '{job['name']}' as {job['id']} "
                  f"({job['points_total']} points, state {job['state']})")
            return 0
        status = client.wait(job["id"], timeout=args.timeout)
        if args.results:
            out = (sys.stdout if args.results == "-"
                   else open(args.results, "w", encoding="utf-8"))
            try:
                for record in client.results(job["id"]):
                    out.write(json.dumps(record, sort_keys=True,
                                         separators=(",", ":")) + "\n")
            finally:
                if out is not sys.stdout:
                    out.close()
        if args.json:
            print(json.dumps(status, sort_keys=True))
        else:
            print(f"campaign '{status['name']}' {status['state']}: "
                  f"{status['points_done']}/{status['points_total']} points "
                  f"({status['executed']} executed, {status['cached']} "
                  f"cached, {status['points_quarantined']} quarantined)")
        return 0 if status["state"] == "done" else 1
    except (ServiceError, urllib.error.URLError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via `repro submit`
    sys.exit(main(sys.argv[1:]))
