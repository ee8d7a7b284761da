"""The HTTP front end: routes, status codes, NDJSON streaming, metrics."""

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.runner import run_cell, run_cells
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from tests.service.test_manager import quick_payload, quick_specs


def _sleepy(spec):
    time.sleep(1.5)
    return run_cell(spec)


@contextlib.contextmanager
def serving(manager):
    """A live daemon on an ephemeral port, torn down hard afterwards."""
    server = ServiceServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown(drain=False)
        thread.join(5.0)


@pytest.fixture
def client(tmp_path):
    with serving(JobManager(jobs=2, cache_dir=tmp_path / "cache")) as client:
        yield client


class TestHealthAndMetrics:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs_total"] == 0
        assert health["queue_limit"] == 1024

    def test_metrics_exposition(self, client):
        client.wait(client.submit(quick_payload())["id"])
        text = client.metrics_text()
        assert "# TYPE service_jobs_submitted counter" in text
        assert "service_jobs_submitted 1" in text
        assert "service_cell_latency_seconds" in text


class TestJobRoutes:
    def test_submit_wait_result(self, client):
        snapshot = client.submit(quick_payload(kinds=("afraid", "raid0")))
        assert snapshot["state"] in ("queued", "running")
        final = client.wait(snapshot["id"])
        assert final["state"] == "done"
        assert final["cells_completed"] == 2
        result = client.result(snapshot["id"])
        assert set(result["cells"]) == {"hplajw/afraid", "hplajw/raid0"}
        cell = result["cells"]["hplajw/afraid"]
        assert cell["workload"] == "hplajw"
        assert cell["io_time"]["mean"] > 0

    def test_results_match_local_sweep_over_http(self, client, tmp_path):
        """Byte-identity survives the wire: the raw served JSON equals the
        sweep-cache encoding of the same cell (``"inf"`` strings and all)."""
        from repro.harness.runner import result_to_payload

        spec = quick_specs(kinds=("raid0",))[0]  # raid0: infinite-MTTDL fields
        local = run_cells([spec], cache_dir=tmp_path / "sweep-cache")
        job_id = client.submit(quick_payload(kinds=("raid0",)))["id"]
        client.wait(job_id)
        with urllib.request.urlopen(
            f"{client.base_url}/jobs/{job_id}/result", timeout=10
        ) as response:
            raw = json.loads(response.read())
        served = raw["cells"]["hplajw/raid0"]
        expected = result_to_payload(local.results[spec.key])
        assert json.dumps(served, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_jobs_listing(self, client):
        first = client.submit(quick_payload())["id"]
        client.wait(first)
        jobs = client.jobs()
        assert [job["id"] for job in jobs] == [first]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.status == 404

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_payload_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"cells": []})
        assert excinfo.value.status == 400
        assert "non-empty" in str(excinfo.value)

    def test_unrunnable_cell_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"workloads": ["hplajw"], "duration_s": float("nan")})
        assert excinfo.value.status == 400
        assert "duration_s" in str(excinfo.value)

    def test_non_json_body_400(self, client):
        request = urllib.request.Request(
            f"{client.base_url}/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_result_before_terminal_409(self, tmp_path):
        with serving(
            JobManager(jobs=1, cache_dir=None, cell_fn=_sleepy)
        ) as client:
            job_id = client.submit(quick_payload())["id"]
            with pytest.raises(ServiceError) as excinfo:
                client.result(job_id)
            assert excinfo.value.status == 409
            client.cancel(job_id)

    def test_delete_cancels(self, tmp_path):
        with serving(
            JobManager(jobs=1, cache_dir=None, cell_fn=_sleepy)
        ) as client:
            job_id = client.submit(quick_payload())["id"]
            assert client.cancel(job_id)["state"] == "cancelled"
            assert client.health()["jobs_active"] == 0


class TestBackpressureOverHttp:
    def test_429_with_retry_headers(self, tmp_path):
        with serving(
            JobManager(jobs=1, cache_dir=None, queue_limit=0)
        ) as client:
            body = json.dumps(quick_payload()).encode()
            request = urllib.request.Request(
                f"{client.base_url}/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] == "1"
            assert error.headers["X-Queue-Limit"] == "0"

    def test_submit_with_backoff_gives_up_after_retries(self, tmp_path):
        with serving(
            JobManager(jobs=1, cache_dir=None, queue_limit=0)
        ) as client:
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.submit_with_backoff(
                    quick_payload(), retries=3, backoff_s=0.01
                )
            assert excinfo.value.status == 429
            assert time.monotonic() - started >= 0.02  # it did back off

    def test_warm_cells_served_even_at_zero_capacity(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_cells(quick_specs(), cache_dir=cache_dir)
        with serving(
            JobManager(jobs=1, cache_dir=cache_dir, queue_limit=0)
        ) as client:
            snapshot = client.submit_with_backoff(quick_payload())
            assert snapshot["state"] == "done"
            assert snapshot["cells_cached"] == 1


class TestEventStreaming:
    def test_stream_follows_to_completion(self, client):
        job_id = client.submit(quick_payload(kinds=("afraid", "raid0")))["id"]
        events = list(client.stream_events(job_id))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "job_completed"
        assert kinds.count("cell_completed") == 2
        assert [event["seq"] for event in events] == list(range(len(events)))
        snapshot = next(e for e in events if e["event"] == "cell_completed")
        assert "cache_hit_ratio" in snapshot["metrics"]

    def test_since_resumes_and_nofollow_returns(self, client):
        job_id = client.submit(quick_payload())["id"]
        client.wait(job_id)
        everything = list(client.stream_events(job_id, follow=False))
        tail = list(client.stream_events(job_id, since=1, follow=False))
        assert tail == everything[1:]
        assert list(client.stream_events(job_id, since=len(everything))) == []

    def test_bad_since_400(self, client):
        job_id = client.submit(quick_payload())["id"]
        client.wait(job_id)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{client.base_url}/jobs/{job_id}/events?since=soon", timeout=10
            )
        assert excinfo.value.code == 400


class TestTimelineRoute:
    def test_timeline_ndjson_tells_the_job_story(self, client):
        job_id = client.submit(quick_payload())["id"]
        client.wait(job_id)
        with urllib.request.urlopen(f"{client.base_url}/timeline", timeout=10) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = response.read().decode().strip().split("\n")
        events = [json.loads(line) for line in lines]
        kinds = [event["kind"] for event in events]
        assert "service.job_submitted" in kinds
        assert "service.cell_completed" in kinds
        assert "service.job_completed" in kinds
        # Every non-root event is cause-linked back to its job's submit.
        root = next(e for e in events if e["kind"] == "service.job_submitted")
        for event in events:
            if event["kind"] != "service.job_submitted":
                assert event["cause"] == root["id"]
        assert [event["seq"] for event in events] == sorted(e["seq"] for e in events)

    def test_since_filters_by_seq(self, client):
        client.wait(client.submit(quick_payload())["id"])
        with urllib.request.urlopen(f"{client.base_url}/timeline", timeout=10) as response:
            total = len(response.read().decode().strip().split("\n"))
        with urllib.request.urlopen(
            f"{client.base_url}/timeline?since=1", timeout=10
        ) as response:
            events = [
                json.loads(line)
                for line in response.read().decode().strip().split("\n")
            ]
        assert len(events) == total - 1
        assert all(event["seq"] >= 1 for event in events)

    def test_bad_since_400(self, client):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{client.base_url}/timeline?since=banana", timeout=10)
        assert excinfo.value.code == 400

    def test_empty_timeline_is_empty_body(self, client):
        with urllib.request.urlopen(f"{client.base_url}/timeline", timeout=10) as response:
            assert response.read() == b""
