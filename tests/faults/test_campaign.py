"""The deterministic fault-campaign engine."""

import json

import pytest

from repro.faults import CampaignSpec, run_campaign
from repro.harness import run_campaign_suite, write_campaign_reports


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = CampaignSpec(disk_failures=2.0, crash_points=(1.5,), bits_per_stripe=2)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_round_trips_through_json(self, tmp_path):
        spec = CampaignSpec(policy="raid0", latent_errors=1.0)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert CampaignSpec.from_file(path) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({"workload": "snake", "disc_failures": 1.0})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([{}], "must be a JSON object"),
            ({"crash_points": 5}, "crash_points must be a list"),
            ({"duration_s": "abc"}, "duration_s must be a finite number > 0"),
            ({"ndisks": 2.5}, "ndisks must be an integer"),
            ({"workload": "nosuch"}, "workload must be one of"),
            ({"spare_pool": -1}, "spare_pool must be >= 0"),
            ({"disk_failures": float("nan")}, "disk_failures must be a finite number >= 0"),
        ],
    )
    def test_malformed_spec_file_is_a_value_error(self, payload, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec.from_dict(payload)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            CampaignSpec(policy="raid6")

    def test_crash_points_must_be_inside_run(self):
        with pytest.raises(ValueError, match="crash_points"):
            CampaignSpec(duration_s=5.0, crash_points=(5.0,))


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        spec = CampaignSpec(disk_failures=1.0, nvram_losses=0.5, latent_errors=1.0)
        first = run_campaign(spec, 11)
        second = run_campaign(spec, 11)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        spec = CampaignSpec(disk_failures=1.0)
        assert run_campaign(spec, 0).to_json() != run_campaign(spec, 1).to_json()

    def test_crash_segmentation_is_deterministic(self):
        spec = CampaignSpec(disk_failures=1.0, crash_points=(2.0, 4.0))
        first = run_campaign(spec, 5)
        second = run_campaign(spec, 5)
        assert first.to_json() == second.to_json()
        assert first.payload["summary"]["segments"] == 3


class TestInvariants:
    def test_smoke_campaign_passes_invariants(self):
        spec = CampaignSpec(disk_failures=1.0, nvram_losses=0.5, latent_errors=1.0)
        for seed in range(5):
            report = run_campaign(spec, seed)
            assert report.ok, (seed, report.violations)

    def test_sub_unit_campaign_prediction_is_exact(self):
        spec = CampaignSpec(disk_failures=1.0, bits_per_stripe=4, policy="raid0")
        saw_loss = False
        for seed in range(5):
            report = run_campaign(spec, seed)
            assert report.ok, (seed, report.violations)
            summary = report.payload["summary"]
            # raid0 never scrubs and never goes conservative: equality.
            assert summary["predicted_loss_bytes"] == summary["actual_loss_bytes"]
            saw_loss = saw_loss or summary["actual_loss_bytes"] > 0
        assert saw_loss  # the campaign exercised a real loss at least once

    def test_raid5_campaign_loses_nothing(self):
        spec = CampaignSpec(policy="raid5", disk_failures=1.0)
        for seed in range(3):
            report = run_campaign(spec, seed)
            assert report.ok
            assert report.payload["summary"]["actual_loss_bytes"] == 0


class TestCrashSegments:
    def test_crash_produces_restart_event_and_recovers(self):
        spec = CampaignSpec(disk_failures=0.0, crash_points=(2.0,))
        report = run_campaign(spec, 3)
        kinds = [event["kind"] for event in report.payload["events"]]
        assert "crash" in kinds and "restart" in kinds
        assert report.ok
        assert report.payload["summary"]["final_marks"] == 0

    def test_failure_spanning_crash_still_repairs(self):
        # Failure before the crash, repair delayed past it: the restarted
        # segment must re-schedule the repair and end whole.
        spec = CampaignSpec(disk_failures=1.0, crash_points=(3.0,), repair_delay_s=2.5)
        report = run_campaign(spec, 7)
        assert report.ok
        summary = report.payload["summary"]
        if summary["disk_failures"]:
            assert summary["final_degraded_disk"] is None
            assert summary["spares_used"] == 1


class TestSparePool:
    """A spare leaves the pool when its rebuild starts; a crash gives it back."""

    @pytest.mark.parametrize("organization", ["raid10", "raid15"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_concurrent_repairs_share_one_spare(self, organization, seed):
        # Both members fail before either rebuild finishes: the second
        # repair finds the pool empty instead of drawing a spare it lacks.
        spec = CampaignSpec(organization=organization, disk_failures=2.0, spare_pool=1)
        report = run_campaign(spec, seed)
        kinds = [event["kind"] for event in report.payload["events"]]
        assert report.payload["summary"]["spares_used"] == 1
        assert kinds.count("repair_no_spare") == 1
        assert kinds.count("rebuild_complete") == 1
        assert report.ok, report.violations

    def test_a_crash_returns_the_spare_of_the_rebuild_it_cuts(self):
        spec = CampaignSpec(organization="raid5", ndisks=5, crashes=1.0, crash_points=(2.5,))
        report = run_campaign(spec, 1)
        events = report.payload["events"]
        (failure,) = [event for event in events if event["kind"] == "disk_failure"]
        (rebuilt,) = [event for event in events if event["kind"] == "rebuild_complete"]
        crashes = [event["t"] for event in events if event["kind"] == "crash"]
        # The repair starts before the first crash, which cuts it short;
        # the rebuild that completes is the last segment's.
        assert failure["t"] + spec.repair_delay_s < crashes[0] < rebuilt["t"]
        assert crashes[-1] < rebuilt["t"]
        assert report.payload["summary"]["spares_used"] == 1
        assert report.ok


class TestSuiteRunner:
    def test_suite_collects_all_seeds(self):
        spec = CampaignSpec(disk_failures=1.0)
        outcome = run_campaign_suite(spec, [0, 1, 2])
        assert [report.seed for report in outcome.reports] == [0, 1, 2]
        assert outcome.ok
        assert outcome.summary_payload()["totals"]["disk_failures"] >= 1

    def test_written_reports_are_byte_stable(self, tmp_path):
        spec = CampaignSpec(disk_failures=1.0, latent_errors=1.0)
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        write_campaign_reports(run_campaign_suite(spec, [0, 1]), first_dir)
        write_campaign_reports(run_campaign_suite(spec, [0, 1]), second_dir)
        for path in sorted(first_dir.iterdir()):
            assert path.read_bytes() == (second_dir / path.name).read_bytes()

    def test_report_files_parse_and_match_reports(self, tmp_path):
        spec = CampaignSpec()
        outcome = run_campaign_suite(spec, [4])
        paths = write_campaign_reports(outcome, tmp_path)
        seed_file = tmp_path / "seed-004.json"
        assert seed_file in paths
        assert json.loads(seed_file.read_text()) == outcome.reports[0].payload
