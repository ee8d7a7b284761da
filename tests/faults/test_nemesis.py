"""Tests for the continuous nemesis loop and its schedule drawing."""

import random

import pytest

from repro.faults import (
    CampaignSpec,
    NemesisLoop,
    NemesisSpec,
    draw_fault_schedule,
    run_campaign,
)
from repro.faults.campaign import CampaignRun
from repro.harness import run_nemesis, write_nemesis_report


QUICK = NemesisSpec(
    duration_s=8.0,
    disk_failures=2.0,
    nvram_losses=1.0,
    latent_errors=1.0,
    settle_s=1.0,
)
RULES = ("degraded_disks < 1", "scrub_backlog_marks <= 64")


class TestDrawFaultSchedule:
    def test_matches_campaign_schedule_for_same_seed(self):
        """The extracted draw is the campaign's, call-order included."""
        spec = CampaignSpec(
            duration_s=20.0, disk_failures=2.0, nvram_losses=1.5,
            latent_errors=2.0, crashes=1.0, crash_points=(3.0,),
        )
        run = CampaignRun(spec, seed=42)
        standalone = draw_fault_schedule(
            random.Random(42),
            duration_s=spec.duration_s, ndisks=spec.ndisks,
            disk_failures=spec.disk_failures, nvram_losses=spec.nvram_losses,
            latent_errors=spec.latent_errors, crashes=spec.crashes,
            crash_points=spec.crash_points, max_faults=spec.max_faults,
        )
        assert standalone == (run.events, run.boundaries[1:-1])

    def test_nemesis_draws_the_same_schedule_without_crashes(self):
        spec = NemesisSpec(duration_s=20.0, disk_failures=2.0, nvram_losses=1.5)
        standalone, crashes = draw_fault_schedule(
            random.Random(42),
            duration_s=spec.duration_s, ndisks=spec.ndisks,
            disk_failures=spec.disk_failures, nvram_losses=spec.nvram_losses,
            latent_errors=spec.latent_errors, max_faults=spec.max_faults,
        )
        run = NemesisLoop(spec, seed=42)
        assert run.events == run.pending == standalone
        assert crashes == [] and run.nsegments == 1

    def test_deterministic_and_bounded(self):
        events, crashes = draw_fault_schedule(
            random.Random(7), duration_s=30.0, ndisks=5,
            disk_failures=10.0, latent_errors=10.0, max_faults=4,
        )
        again, _ = draw_fault_schedule(
            random.Random(7), duration_s=30.0, ndisks=5,
            disk_failures=10.0, latent_errors=10.0, max_faults=4,
        )
        assert events == again
        # max_faults caps each kind independently.
        by_kind = {}
        for event in events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert all(count <= 4 for count in by_kind.values()), by_kind
        assert events == sorted(events, key=lambda e: e.time_s)
        assert crashes == []


class TestNemesisSpec:
    def test_defaults_are_valid(self):
        spec = NemesisSpec()
        assert spec.workload == "snake"
        assert spec.to_dict()["duration_s"] == spec.duration_s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0},
            {"period_s": 0.0},
            {"sample_period_s": -1.0},
            {"disk_model": "bogus"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NemesisSpec(**kwargs)


class TestRunNemesis:
    """One small seeded run, reused across assertions (runs take ~0.1s)."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return run_nemesis(QUICK, seed=3, rules=RULES)

    def test_invariants_hold(self, outcome):
        assert outcome.violations == []
        assert outcome.ok

    def test_faults_were_injected(self, outcome):
        injected = outcome.timeline.events_of("fault.inject")
        assert injected
        assert outcome.timeline.fault_counts()

    def test_gate_holds_injection_during_breach(self, outcome):
        """Between each hold and its resume, nothing is injected."""
        holds = outcome.timeline.events_of("nemesis.hold")
        assert holds, "quick spec should provoke at least one hold"
        for hold in holds:
            resume = next(
                event
                for event in outcome.timeline.events_of("nemesis.resume")
                if event.cause == hold.id
            )
            held = [
                event
                for event in outcome.timeline.events_of("fault.inject")
                if hold.seq < event.seq < resume.seq
            ]
            assert held == [], f"injected during hold {hold.id}: {held}"

    def test_breaches_are_cause_linked_to_faults(self, outcome):
        fault_ids = {e.id for e in outcome.timeline.events_of("fault.inject")}
        breaches = outcome.timeline.events_of("slo.breach")
        assert breaches
        for breach in breaches:
            assert breach.cause in fault_ids

    def test_rebuild_spans_all_close(self, outcome):
        starts = outcome.timeline.events_of("rebuild.start")
        finishes = outcome.timeline.events_of("rebuild.finish")
        assert len(starts) == len(finishes)
        assert all(f.duration_s is not None and f.duration_s > 0 for f in finishes)

    def test_same_seed_rerun_is_byte_identical(self, outcome):
        rerun = run_nemesis(QUICK, seed=3, rules=RULES)
        assert rerun.timeline.to_jsonl() == outcome.timeline.to_jsonl()

    def test_different_seed_differs(self, outcome):
        other = run_nemesis(QUICK, seed=4, rules=RULES)
        assert other.timeline.to_jsonl() != outcome.timeline.to_jsonl()

    def test_summary_payload_shape(self, outcome):
        payload = outcome.summary_payload()
        assert sum(payload["faults"]["injected"].values()) == len(
            outcome.timeline.events_of("fault.inject")
        )
        assert payload["slo"]["rules"] == list(RULES)
        assert payload["invariants"] == {"ok": True, "violations": []}
        assert payload["timeline"]["events"] == len(outcome.timeline)

    def test_report_bundle(self, outcome, tmp_path):
        paths = write_nemesis_report(outcome, tmp_path / "report")
        for name in ("timeline", "trace", "metrics", "incident", "summary"):
            assert paths[name].is_file(), name
        assert paths["timeline"].read_text() == outcome.timeline.to_jsonl()
        assert "Nemesis incident report" in paths["incident"].read_text()


ORGANIZATIONS = {"raid5": 5, "raid5d": 5, "raid1": 2, "raid10": 6, "raid15": 6}


class TestLatentLbaRule:
    """Campaigns and the nemesis place latent errors by one rule."""

    @pytest.mark.parametrize("seed", [0, 4, 5])
    def test_declustered_nemesis_finishes(self, seed):
        # These seeds once drew a latent LBA past a declustered member's end
        # (``afraid-sim nemesis --organization raid5d``, its default rules).
        spec = NemesisSpec(duration_s=20.0, organization="raid5d")
        outcome = run_nemesis(spec, seed, rules=RULES)
        assert outcome.ok, outcome.violations

    @pytest.mark.parametrize("organization", sorted(ORGANIZATIONS))
    def test_injected_lbas_lie_inside_the_member(self, organization):
        ndisks = ORGANIZATIONS[organization]
        knobs = dict(
            organization=organization, ndisks=ndisks, disk_failures=0.0,
            nvram_losses=0.0, latent_errors=16.0,
        )
        outcome = run_nemesis(NemesisSpec(duration_s=8.0, **knobs), seed=1)
        array = outcome.loop.array
        injected = [
            (event.attrs["disk"], event.attrs["lba"])
            for event in outcome.timeline.events_of("fault.inject")
            if event.attrs.get("fault") == "latent_error"
        ]
        report = run_campaign(CampaignSpec(**knobs), seed=1)
        injected += [
            (entry["disk"], entry["lba"])
            for entry in report.payload["events"]
            if entry["kind"].startswith("latent_error")
        ]
        assert len(injected) > 16
        for disk, lba in injected:
            assert 0 <= lba < array.layout.disk_sectors_used
            assert lba < array.disks[disk].geometry.total_sectors
            array.layout.logical_of(disk, lba)  # raises outside the striped region


class TestUngatedNemesis:
    """Without an SLO gate, strikes land on members already failed or rebuilding."""

    @pytest.mark.parametrize("organization", sorted(ORGANIZATIONS))
    def test_every_run_finishes_and_closes_its_rebuilds(self, organization):
        # A skipped strike on a member under rebuild once started a second,
        # concurrent rebuild of it whose span never closed; a RAID 1+5
        # mirror partner dying mid-read once crashed the rebuild.
        spec = NemesisSpec(
            duration_s=20.0, organization=organization, ndisks=ORGANIZATIONS[organization]
        )
        for seed in range(10):
            outcome = run_nemesis(spec, seed)
            assert outcome.violations == [], (seed, outcome.violations)
            starts = outcome.timeline.events_of("rebuild.start")
            assert len(outcome.timeline.events_of("rebuild.finish")) == len(starts), seed
