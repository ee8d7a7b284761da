"""One spec surface: the CLI and the service read a run the same way.

Each bad value of a cell field gets the same message from both surfaces:
``afraid-sim`` exits 2 with ``argument <flag>: <message>``, and ``POST
/jobs`` answers 400 with ``<message>``.  Both come from the spec's own
check (``CellSpec`` / ``PolicySpec``), and every organization the
registry knows runs over HTTP exactly as ``run_cells`` runs it locally.
"""

import contextlib
import dataclasses
import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.harness.experiment import result_to_payload
from repro.harness.runner import CellSpec, PolicySpec, run_cells
from repro.layout import ORGANIZATIONS
from repro.service import JobManager, ServiceClient, ServiceError, ServiceServer
from repro.spec import coerce

#: A disk count each organization refuses.
BAD_NDISKS = {"raid5": 2, "raid5d": 3, "raid1": 4, "raid10": 5, "raid15": 5}

#: (flag, flag arguments, cell fields of the same run) for each bad value.
#: A flag of ``None`` marks a field no CLI flag sets; its message is
#: checked against the spec directly.
CASES = [
    ("--duration", ["--duration", "0"], {"duration_s": 0}),
    ("--duration", ["--duration", "-3"], {"duration_s": -3}),
    ("--duration", ["--duration", "nan"], {"duration_s": "nan"}),
    ("--duration", ["--duration", "inf"], {"duration_s": "inf"}),
    ("--duration", ["--duration", "soon"], {"duration_s": "soon"}),
    ("--seed", ["--seed", "1.7"], {"seed": 1.7}),
    ("--seed", ["--seed", "abc"], {"seed": "abc"}),
    *[
        (
            "--ndisks",
            ["--organization", org, "--ndisks", str(n)],
            {"organization": org, "ndisks": n},
        )
        for org, n in BAD_NDISKS.items()
    ],
    ("--ndisks", ["--ndisks", "5.5"], {"ndisks": 5.5}),
    ("--organization", ["--organization", "raid99"], {"organization": "raid99"}),
    ("--policy", ["--policy", "raid99"], {"policy": "raid99"}),
    ("--mttdl-target", ["--policy", "mttdl"], {"policy": "mttdl"}),
    *[
        (
            "--mttdl-target",
            ["--policy", "mttdl", "--mttdl-target", text],
            {"policy": {"kind": "mttdl", "mttdl_target": value}},
        )
        for text, value in (("nan", "nan"), ("-1", -1), ("0", 0), ("inf", "inf"))
    ],
    (None, [], {"stripe_unit_sectors": 0}),
    (None, [], {"stripe_unit_sectors": -8}),
    (None, [], {"stripe_unit_sectors": 10**9}),
    (None, [], {"stripe_unit_sectors": 2.5}),
    (None, [], {"idle_threshold_s": -1}),
    (None, [], {"idle_threshold_s": "NaN"}),
    (None, [], {"extra_settle_s": -5}),
]


@contextlib.contextmanager
def serving(manager):
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


@pytest.fixture(scope="module")
def client():
    with serving(JobManager(jobs=1, cache_dir=None)) as client:
        yield client


def _http_message(client, fields) -> str:
    cell = {"workload": "hplajw", "policy": "afraid", **fields}
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"cells": [cell], "duration_s": 1})
    assert excinfo.value.status == 400
    return excinfo.value.payload["error"]


@pytest.mark.parametrize(
    "flag, argv, fields", CASES, ids=[f"{sorted(f)[0]}={list(f.values())}" for *_, f in CASES]
)
def test_bad_value_same_message_on_both_surfaces(client, capsys, flag, argv, fields):
    message = _http_message(client, fields)
    if flag is None:
        # No flag sets this field: the 400 carries the message of the
        # field's declared-type coercion and the spec's own check.
        declared = {field.name: field for field in dataclasses.fields(CellSpec)}
        with pytest.raises(ValueError) as excinfo:
            coerced = {name: coerce(declared[name], value) for name, value in fields.items()}
            CellSpec("hplajw", PolicySpec("afraid"), duration_s=1.0, **coerced)
        assert str(excinfo.value) == message
        return
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "hplajw", "--duration", "1", *argv])
    assert excinfo.value.code == 2
    assert f"argument {flag}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "hplajw", "--organization", "raid15", "--ndisks", "5"],
        ["sweep", "hplajw", "--jobs", "0", "--no-cache"],
        ["serve", "--jobs", "0"],
        ["serve", "--max-attempts", "0"],
        ["faults", "--organization", "raid10", "--ndisks", "5"],
        ["nemesis", "--organization", "raid1", "--ndisks", "4"],
        ["nemesis", "--policy", "mttdl"],
        ["nemesis", "--disk-failures", "-1"],
        ["nemesis", "nosuch"],
        ["availability", "--organization", "raid15", "--ndisks", "4"],
        ["replay", "snake", "--organization", "raid99"],
        ["replay", "snake", "--policy", "mttdl"],
        ["sweep", "nosuch", "--no-cache"],
        ["submit", "nosuch"],
        ["submit", "hplajw", "--organization", "raid10", "--ndisks", "3"],
    ],
)
def test_refused_values_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error: argument " in err


class TestEveryOrganizationOverHttp:
    def test_one_cell_per_organization_matches_run_cells(self, tmp_path):
        specs = [
            CellSpec("hplajw", PolicySpec("afraid"), duration_s=1.0, seed=5, organization=org)
            for org in ORGANIZATIONS
        ]
        local = run_cells(specs, cache_dir=tmp_path / "local")
        with serving(JobManager(jobs=1, cache_dir=tmp_path / "served")) as client:
            for org, spec in zip(ORGANIZATIONS, specs):
                cell = {"workload": "hplajw", "policy": "afraid", "organization": org}
                job = client.submit({"cells": [cell], "duration_s": 1.0, "seed": 5})
                assert client.wait(job["id"])["state"] == "done"
                # The raw served JSON, as a client reads it off the wire.
                url = f"{client.base_url}/jobs/{job['id']}/result"
                with urllib.request.urlopen(url, timeout=10) as response:
                    served = json.loads(response.read())["cells"]
                label = "/".join(spec.key)
                assert list(served) == [label]
                expected = result_to_payload(local.results[spec.key])
                assert json.dumps(served[label], sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                )

    def test_one_policy_over_two_organizations_is_two_cells(self, tmp_path):
        with serving(JobManager(jobs=1, cache_dir=tmp_path / "cache")) as client:
            cells = [
                {"workload": "hplajw", "policy": "raid5", "organization": org}
                for org in ("raid5", "raid10")
            ]
            job = client.submit({"cells": cells, "duration_s": 1.0, "seed": 5})
            assert client.wait(job["id"])["state"] == "done"
            served = client.result(job["id"])["cells"]
        assert sorted(served) == ["hplajw/raid5", "hplajw/raid5@raid10"]
        assert served["hplajw/raid5"]["organization"] == "raid5"
        assert served["hplajw/raid5@raid10"]["organization"] == "raid10"
        assert served["hplajw/raid5"] != served["hplajw/raid5@raid10"]
