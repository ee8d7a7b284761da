"""Simulation as a service, end to end.

Starts an `afraid-sim serve` daemon in-process on an ephemeral port,
submits a small policy sweep over HTTP, streams per-cell progress as it
happens, then shows the two headline contracts:

* results served over the API are byte-identical to a local
  ``run_cells`` of the same specs;
* a resubmission of the same job is answered entirely from the
  content-addressed cache — done before the POST returns, no worker
  pool involved.

Run with::

    PYTHONPATH=src python examples/service_demo.py [workload] [duration_s] [cache_dir]
"""

import json
import sys
import tempfile
import threading

from repro.harness.experiment import result_to_payload
from repro.harness.runner import ladder_specs, run_cells
from repro.service import JobManager, ServiceClient, ServiceServer, cell_label


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "hplajw"
    duration_s = float(sys.argv[2]) if len(sys.argv) > 2 else 8.0
    cache_dir = (
        sys.argv[3] if len(sys.argv) > 3
        else tempfile.mkdtemp(prefix="afraid-service-demo-")
    )

    manager = JobManager(jobs=2, cache_dir=cache_dir)
    server = ServiceServer(("127.0.0.1", 0), manager)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(server.url)
    print(f"daemon listening on {server.url} (cache: {cache_dir})")

    payload = {
        "workloads": [workload],
        "targets": [1e7],
        "duration_s": duration_s,
        "seed": 42,
        "include_raid0": False,
    }
    job_id = client.submit(payload)["id"]
    print(f"\nsubmitted {job_id}; streaming events:")
    for event in client.stream_events(job_id):
        if event["event"] == "cell_completed":
            source = "cache" if event["from_cache"] else "simulated"
            print(f"  cell {event['cell']:<24} {source:>9}  "
                  f"{event['latency_s'] * 1e3:8.1f} ms  "
                  f"mean I/O {event['mean_io_time_ms']:.1f} ms")
        else:
            print(f"  [{event['event']}]")

    served = client.result(job_id)
    specs = ladder_specs([workload], [1e7], include_raid0=False,
                         duration_s=duration_s, seed=42)
    print("\nbyte-identity check against a local run_cells of the same specs:")
    local = run_cells(specs, cache_dir=cache_dir)
    for spec in specs:
        a = json.dumps(served["cells"][cell_label(spec)], sort_keys=True)
        b = json.dumps(result_to_payload(local.results[spec.key]), sort_keys=True)
        verdict = "identical" if a == b else "MISMATCH"
        print(f"  {cell_label(spec):<24} served == local sweep: {verdict}")

    warm = client.submit(payload)
    print(f"\nwarm resubmission: state={warm['state']!r} in the 202 response, "
          f"{warm['cells_cached']}/{warm['cells_total']} cells from cache")

    health = client.health()
    print(f"health: {health['jobs_total']} jobs tracked, "
          f"{health['worker_restarts']} worker restarts")

    server.shutdown()
    server.server_close()
    manager.shutdown(drain=True)
    print("drained; bye")


if __name__ == "__main__":
    main()
