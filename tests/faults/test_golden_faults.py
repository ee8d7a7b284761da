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
  Two more mixes pin the spare pool on the organizations that survive a
  second member failure: two failures against one spare (the second
  repair finds the pool empty) and against two (two rebuilds at once);
* **nemesis runs**: :func:`~repro.harness.run_nemesis` for 20 simulated
  seconds, seeds 0–1, on every organization; each cell keeps the sha256
  of the five files :func:`~repro.harness.write_nemesis_report` writes.
  Five more runs use the CLI's default SLO gate: three with one spare
  against three failures (a ``rebuild.no_spare`` and a gate hold each)
  and two under an unreachable MTTDL floor (one hold that lasts to the
  horizon, five faults dropped).

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

from repro.cli import DEFAULT_NEMESIS_SLOS
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
#: Two member failures against a pool of one spare and of two.
SPARE_VARIANTS = {
    "spares1": {"disk_failures": 2.0, "spare_pool": 1},
    "spares2": {"disk_failures": 2.0, "spare_pool": 2},
}
SPARE_ORGANIZATIONS = ("raid10", "raid15")
NEMESIS_DURATION_S = 20.0
NEMESIS_ORGANIZATIONS = ("raid5", "raid5d", "raid1", "raid10", "raid15")
#: Nemesis runs gated by the CLI's default SLO rules: name -> (knobs,
#: the (organization, seed) pairs run with them).
GATED_NEMESIS = {
    "spares1": (
        {"spare_pool": 1, "disk_failures": 3.0}, [("raid5", 1), ("raid10", 0), ("raid10", 1)]
    ),
    "floor": ({"mttdl_floor_h": 1e12}, [("raid5", 0), ("raid10", 0)]),
}


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
    cells = [
        (
            f"{organization}/{policy}/{variant}/{seed}",
            campaign_spec(organization, policy, variant),
            seed,
        )
        for organization in NDISKS
        for policy in POLICIES
        for variant in VARIANTS
        for seed in SEEDS
    ]
    cells += [
        (
            f"{organization}/afraid/{variant}/{seed}",
            CampaignSpec(organization=organization, ndisks=NDISKS[organization], **knobs),
            seed,
        )
        for organization in SPARE_ORGANIZATIONS
        for variant, knobs in SPARE_VARIANTS.items()
        for seed in SEEDS
    ]
    results = {}
    for key, spec, seed in cells:
        report = run_campaign(spec, seed)
        results[key] = {
            "sha256": _sha256(report.to_json().encode()),
            "summary": report.payload["summary"],
        }
    return results


def nemesis_cells() -> list:
    """(key, spec, seed, SLO rules) of every pinned nemesis run."""
    cells = [
        (f"{organization}/{seed}", NemesisSpec(
            duration_s=NEMESIS_DURATION_S, organization=organization, ndisks=NDISKS[organization]
        ), seed, ())
        for organization in NEMESIS_ORGANIZATIONS
        for seed in SEEDS
    ]
    cells += [
        (f"gated-{name}/{organization}/{seed}", NemesisSpec(
            duration_s=NEMESIS_DURATION_S, organization=organization,
            ndisks=NDISKS[organization], **knobs,
        ), seed, DEFAULT_NEMESIS_SLOS)
        for name, (knobs, runs) in GATED_NEMESIS.items()
        for organization, seed in runs
    ]
    return cells


def capture_nemesis() -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for key, spec, seed, rules in nemesis_cells():
            paths = write_nemesis_report(
                run_nemesis(spec, seed, rules), pathlib.Path(scratch) / key.replace("/", "-")
            )
            results[key] = {
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
    campaigns = _golden()["campaigns"]
    for organization in SPARE_ORGANIZATIONS:
        for seed in SEEDS:
            # One spare: the second repair finds the pool empty.
            one = campaigns[f"{organization}/afraid/spares1/{seed}"]["summary"]
            assert one["spares_used"] == 1 and one["final_degraded_disk"] is not None
            # Two spares: both members are rebuilt.
            two = campaigns[f"{organization}/afraid/spares2/{seed}"]["summary"]
            assert two["spares_used"] == 2 and two["final_degraded_disk"] is None


def test_gated_nemesis_pins_hold_and_run_out_of_spares():
    """The gated nemesis pins reach what no other fixture run does."""
    for key, spec, seed, rules in nemesis_cells():
        if not key.startswith("gated-"):
            continue
        kinds = run_nemesis(spec, seed, rules).timeline.kinds()
        if key.startswith("gated-spares1/"):
            assert kinds.get("rebuild.no_spare") and kinds.get("nemesis.hold"), key
        else:
            assert kinds.get("nemesis.hold") == 1 and kinds.get("nemesis.dropped") == 5, key


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
