"""HTTP round-trip tests for the `repro serve` daemon.

Covers all four endpoints (healthz, submit, status, NDJSON results), the
acceptance bit: a campaign submitted over HTTP with >= 2 concurrent point
workers merges bit-identically to a serial `repro campaign run` -- and a
resubmission of the same campaign that is served 100% from cache.
"""

import io
import json
import threading
import urllib.request

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    merged_point_stats,
    run_campaign,
)
from repro.experiments.runner import sweep_point_key
from repro.service.client import ServeClient, ServiceError
from repro.service.server import serve
from repro.stats.store import ResultsStore

SPEC_PAYLOAD = {
    "name": "http-round-trip",
    "settings": {
        "scale": 4096,
        "accesses_per_thread": 150,
        "warmup_accesses_per_thread": 50,
        "num_sockets": 2,
        "cores_per_socket": 1,
    },
    "sweeps": [
        {
            "protocols": ["baseline", "c3d"],
            "workloads": ["facesim", "streamcluster"],
            "topologies": [{"sockets": 2, "cores_per_socket": 1}],
        }
    ],
}


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on an ephemeral port, >= 2 point workers per campaign."""
    server = serve(tmp_path / "served", workers=2, point_jobs=2, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServeClient(f"http://{host}:{port}"), tmp_path / "served"
    finally:
        server.shutdown()
        server.manager.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_healthz(daemon):
    client, store_path = daemon
    with urllib.request.urlopen(f"{client.base_url}/healthz", timeout=5) as response:
        health = json.loads(response.read().decode("utf-8"))
    assert health["status"] == "ok"
    assert health["store"] == str(store_path)
    assert set(health["jobs"]) == {"queued", "running", "done", "failed"}


def test_submit_rejects_invalid_spec(daemon):
    client, _ = daemon
    with pytest.raises(ServiceError) as exc:
        client.submit({"name": "broken", "sweeps": [], "figures": []})
    assert exc.value.status == 400
    assert "nothing to run" in str(exc.value)


def test_unknown_campaign_and_endpoint_404(daemon):
    client, _ = daemon
    with pytest.raises(ServiceError) as exc:
        client.status("deadbeef00000000")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client._json("/nonsense")
    assert exc.value.status == 404


def test_http_campaign_matches_serial_run_and_resubmit_is_cached(
    daemon, tmp_path
):
    client, store_path = daemon
    spec = CampaignSpec.from_dict(SPEC_PAYLOAD)

    # The reference: the same campaign run serially in-process.
    serial_store = ResultsStore(tmp_path / "serial")
    run_campaign(spec, serial_store, stream=io.StringIO())
    serial_merged = merged_point_stats(spec, serial_store)

    # Submit over HTTP; >= 2 concurrent point workers on the server side.
    job = client.submit(SPEC_PAYLOAD)
    assert job["points_total"] == 4 and job["created"]
    status = client.wait(job["id"], timeout=300)
    assert status["state"] == "done"
    assert status["points_done"] == 4 and status["points_pending"] == 0
    assert status["points_quarantined"] == 0
    assert (status["executed"], status["cached"]) == (4, 0)

    # NDJSON results: every point, in deterministic expansion order,
    # bit-identical to the serially stored records.
    records = list(client.results(job["id"]))
    assert len(records) == 4
    assert [r["key"] for r in records] == [
        sweep_point_key(point, spec.engine) for point in spec.expand()
    ]
    for record in records:
        reference = serial_store.get(record["key"]).to_json_dict()
        # wall_clock_s is timing telemetry, the only nondeterministic field.
        reference.pop("wall_clock_s"), record.pop("wall_clock_s")
        assert reference == record

    # Merged stats from the server's store: bit-identical to serial.
    served_merged = merged_point_stats(spec, ResultsStore(store_path))
    assert served_merged.to_json_dict() == serial_merged.to_json_dict()
    assert ResultsStore(store_path).verify().clean

    # Resubmit: same content-addressed id, re-runs 100% from cache.
    again = client.submit(SPEC_PAYLOAD)
    assert again["id"] == job["id"] and not again["created"]
    final = client.wait(job["id"], timeout=300)
    assert final["state"] == "done"
    assert (final["executed"], final["cached"]) == (0, 4)


def test_results_endpoint_streams_ndjson_content_type(daemon):
    client, _ = daemon
    job = client.submit(SPEC_PAYLOAD)
    client.wait(job["id"], timeout=300)
    request = urllib.request.Request(
        f"{client.base_url}/campaigns/{job['id']}/results"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [line for line in response.read().decode().split("\n") if line]
    assert len(lines) == 4
    for line in lines:
        json.loads(line)
