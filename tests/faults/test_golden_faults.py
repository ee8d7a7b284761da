"""Golden-equivalence gate for fault campaigns and nemesis runs.

The replay fixtures pin healthy runs only.  This one pins what a fault
run writes, byte for byte:

* **campaigns**: :func:`~repro.faults.run_campaign` on every organization
  under AFRAID, RAID 5 and RAID 0 policies, seeds 0–1, with three fault
  mixes — the default spec (one disk failure), a forced crash at 2.5 s,
  and latent errors plus an NVRAM loss plus a possible crash (two marker
  bits per stripe on the parity-striped organizations).  Each cell keeps
  the sha256 of the report's ``to_json()`` and its ``summary`` block, so
  a failing diff names the field that moved;
* **nemesis runs**: :func:`~repro.harness.run_nemesis` for 20 simulated
  seconds, seeds 0–1, on every organization; each cell keeps the sha256
  of the five files :func:`~repro.harness.write_nemesis_report` writes.

The CI determinism jobs compare two runs of one tree; this fixture
compares a tree against the results committed with it.

Regenerate (only when *intentionally* changing simulated behaviour)::

    PYTHONPATH=src python tests/faults/test_golden_faults.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

from repro.faults import CampaignSpec, NemesisSpec, run_campaign
from repro.harness import run_nemesis, write_nemesis_report

FIXTURE = pathlib.Path(__file__).with_name("golden_faults.json")

NDISKS = {"raid5": 5, "raid5d": 5, "raid1": 2, "raid10": 6, "raid15": 6}
POLICIES = ("afraid", "raid5", "raid0")
SEEDS = (0, 1)
#: Fault mixes on top of the per-cell organization and policy.
VARIANTS = {
    "default": {},
    "crash": {"crashes": 1.0, "crash_points": (2.5,)},
    "mixed": {"latent_errors": 1.0, "nvram_losses": 1.0, "crashes": 0.5},
}
#: Organizations whose "mixed" campaigns use two marker bits per stripe.
SUB_UNIT_ORGANIZATIONS = ("raid5", "raid5d")
NEMESIS_DURATION_S = 20.0
NEMESIS_ORGANIZATIONS = ("raid5", "raid5d", "raid1", "raid10", "raid15")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def campaign_spec(organization: str, policy: str, variant: str) -> CampaignSpec:
    knobs = dict(VARIANTS[variant])
    if variant == "mixed" and organization in SUB_UNIT_ORGANIZATIONS:
        knobs["bits_per_stripe"] = 2
    return CampaignSpec(
        organization=organization, ndisks=NDISKS[organization], policy=policy, **knobs
    )


def capture_campaigns() -> dict:
    results = {}
    for organization in NDISKS:
        for policy in POLICIES:
            for variant in VARIANTS:
                spec = campaign_spec(organization, policy, variant)
                for seed in SEEDS:
                    report = run_campaign(spec, seed)
                    results[f"{organization}/{policy}/{variant}/{seed}"] = {
                        "sha256": _sha256(report.to_json().encode()),
                        "summary": report.payload["summary"],
                    }
    return results


def capture_nemesis() -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for organization in NEMESIS_ORGANIZATIONS:
            spec = NemesisSpec(
                duration_s=NEMESIS_DURATION_S,
                organization=organization,
                ndisks=NDISKS[organization],
            )
            for seed in SEEDS:
                paths = write_nemesis_report(
                    run_nemesis(spec, seed), pathlib.Path(scratch) / f"{organization}-{seed}"
                )
                results[f"{organization}/{seed}"] = {
                    name: _sha256(path.read_bytes()) for name, path in sorted(paths.items())
                }
    return results


def capture_all() -> dict:
    return {"campaigns": capture_campaigns(), "nemesis": capture_nemesis()}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_campaigns_match_golden_fixture():
    golden = _golden()["campaigns"]
    fresh = capture_campaigns()
    assert set(fresh) == set(golden)
    for key, expected in golden.items():
        actual = fresh[key]
        for field, value in expected["summary"].items():
            assert actual["summary"][field] == value, f"{key}: summary.{field} diverged"
        assert actual["sha256"] == expected["sha256"], f"{key}: report bytes diverged"


def test_nemesis_runs_match_golden_fixture():
    golden = _golden()["nemesis"]
    fresh = capture_nemesis()
    assert set(fresh) == set(golden)
    for key, expected in golden.items():
        for name, digest in expected.items():
            assert fresh[key][name] == digest, f"{key}: {name} diverged"


def test_fixture_exercises_crashes_repairs_and_exposure():
    """The fixture must keep covering what its docstring claims."""
    summaries = [cell["summary"] for cell in _golden()["campaigns"].values()]
    assert any(summary["segments"] > 1 for summary in summaries)
    assert all(summary["disk_failures"] for summary in summaries)
    assert any(summary["spares_used"] for summary in summaries)
    assert any(summary["predicted_loss_bytes"] for summary in summaries)
    assert any(summary["data_lost_requests"] for summary in summaries)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
