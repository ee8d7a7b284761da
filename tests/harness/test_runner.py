"""The parallel sweep engine: cache behaviour, parallel determinism."""

import dataclasses
import errno
import functools
import json
import os
import time

import pytest

from repro.harness import (
    merged_exposure_histograms,
    merged_histograms,
    run_policy_grid,
    policy_ladder,
)
from repro.array.controller import DiskArray
from repro.harness.checkpoint import CheckpointScope, CheckpointStore
from repro.harness.experiment import result_to_payload
from repro.harness.runner import (
    CellExecutor,
    CellSpec,
    PolicySpec,
    SweepInterrupted,
    cache_key,
    code_fingerprint,
    ladder_specs,
    run_cell,
    run_cells,
)
from repro.metrics import PerfCounters
from repro.service import DONE, JobManager

#: Short enough to keep the whole module fast, long enough for real I/O.
QUICK = dict(duration_s=2.0, seed=11)


def quick_specs(workloads=("hplajw",), kinds=("afraid", "raid0")):
    return [
        CellSpec(workload=workload, policy=PolicySpec(kind), **QUICK)
        for workload in workloads
        for kind in kinds
    ]


class TestPolicySpec:
    def test_builds_each_kind(self):
        for kind in ("raid5", "afraid", "raid0"):
            assert PolicySpec(kind).build() is not PolicySpec(kind).build()
        policy = PolicySpec("mttdl", mttdl_target=1e7).build()
        assert "MTTDL" in policy.describe() or "mttdl" in policy.describe().lower()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("raid99")

    def test_mttdl_requires_target(self):
        with pytest.raises(ValueError):
            PolicySpec("mttdl")

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -1.0, 0.0, True, "1e7"])
    def test_target_must_be_a_finite_positive_number(self, target):
        with pytest.raises(ValueError, match="mttdl_target must be a finite number > 0"):
            PolicySpec("mttdl", mttdl_target=target)

    def test_labels_match_ladder_labels(self):
        ladder = policy_ladder(targets=(1e7, 1e6))
        for entry in ladder:
            assert entry.spec is not None
            assert entry.spec.label == entry.label


class TestCellSpecValidation:
    """A spec the worker cannot run is refused at construction."""

    @pytest.mark.parametrize("duration", [0.0, -3.0, float("nan"), float("inf")])
    def test_duration_must_be_positive_and_finite(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), duration_s=duration)

    @pytest.mark.parametrize(
        "organization, ndisks", [("raid5", 1), ("raid5", 2), ("raid1", 4), ("raid10", 5)]
    )
    def test_disk_count_must_fit_the_organization(self, organization, ndisks):
        with pytest.raises(ValueError, match="disks"):
            CellSpec(
                workload="hplajw", policy=PolicySpec("afraid"), ndisks=ndisks,
                organization=organization,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("stripe_unit_sectors", 0, "stripe unit must be >= 1 sector"),
            ("stripe_unit_sectors", -8, "stripe unit must be >= 1 sector"),
            ("stripe_unit_sectors", 10**9, "smaller than one stripe unit"),
            ("idle_threshold_s", -1.0, "idle_threshold_s"),
            ("idle_threshold_s", float("nan"), "idle_threshold_s"),
            ("extra_settle_s", -5.0, "extra_settle_s"),
            ("extra_settle_s", float("inf"), "extra_settle_s"),
        ],
    )
    def test_cell_no_worker_can_run_is_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), **{field: value})

    @pytest.mark.parametrize("field", ["seed", "ndisks", "stripe_unit_sectors"])
    @pytest.mark.parametrize("value", [1.7, True, "8"])
    def test_integer_fields_refuse_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), **{field: value})

    @pytest.mark.parametrize(
        "organization, ndisks",
        [("raid5", 5), ("raid5d", 5), ("raid1", 2), ("raid10", 6), ("raid15", 6)],
    )
    def test_disk_count_defaults_to_the_organization_s(self, organization, ndisks):
        spec = CellSpec(workload="hplajw", policy=PolicySpec("afraid"), organization=organization)
        assert spec.ndisks == ndisks
        assert spec == dataclasses.replace(spec, ndisks=ndisks)

    def test_huge_disk_counts_are_refused_before_any_layout_is_built(self):
        with pytest.raises(ValueError, match="need <= 64 disks for RAID 5"):
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), ndisks=10**6)

    def test_unknown_organization_rejected(self):
        with pytest.raises(ValueError, match="unknown organization"):
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), organization="raid99")

    def test_synthetic_trace_rejects_nan_duration(self):
        from repro.traces import make_trace

        with pytest.raises(ValueError, match="duration"):
            make_trace("hplajw", duration_s=float("nan"), address_space_sectors=1 << 20, seed=1)


class TestCacheKey:
    def test_stable_for_equal_specs(self):
        a = CellSpec(workload="hplajw", policy=PolicySpec("afraid"), **QUICK)
        b = CellSpec(workload="hplajw", policy=PolicySpec("afraid"), **QUICK)
        assert cache_key(a) == cache_key(b)

    def test_changes_with_array_config(self):
        base = CellSpec(workload="hplajw", policy=PolicySpec("afraid"), **QUICK)
        assert cache_key(base) != cache_key(dataclasses.replace(base, ndisks=7))
        assert cache_key(base) != cache_key(dataclasses.replace(base, duration_s=3.0))
        assert cache_key(base) != cache_key(dataclasses.replace(base, seed=12))

    def test_changes_with_policy_params(self):
        base = CellSpec(
            workload="hplajw", policy=PolicySpec("mttdl", mttdl_target=1e7), **QUICK
        )
        other = dataclasses.replace(base, policy=PolicySpec("mttdl", mttdl_target=1e6))
        assert cache_key(base) != cache_key(other)

    def test_code_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    #: ``cache_key`` of specs valid before the spec checks moved into the
    #: specs, under a pinned code fingerprint: their config bytes, and so
    #: their keys, must not move.
    PINNED_KEYS = {
        "94a390412f0fba05f6bc31e16aa4d135009426cdf19a9cbc7518ee0fad699733": dict(
            workload="hplajw", policy=PolicySpec("afraid")
        ),
        "6238f7d70cf8aaaa49bbaa019b1cf139a71f5334ee409c751560af37f45b0cd5": dict(
            workload="ATT", policy=PolicySpec("mttdl", mttdl_target=1e6), duration_s=30.0, seed=7
        ),
        "ff2cfb01dbd22bf8c46558651ad2f91bdadd06d277d0ec67eeab5a1fa5eb08fc": dict(
            workload="cello-usr", policy=PolicySpec("raid5"), ndisks=6, organization="raid10"
        ),
        "231f059712e30bc11989e3747b194f5472bcf8a8313c12eef3df138d6d406bdd": dict(
            workload="snake", policy=PolicySpec("raid0"), ndisks=8, stripe_unit_sectors=16,
            organization="raid15",
        ),
        "4620e2b45ab22a69c3eaf1a2789ae7f30460dca9a71269b0e93605d74c52a500": dict(
            workload="netware", policy=PolicySpec("afraid"), ndisks=5, organization="raid5d"
        ),
        "047729dcb49e4e111a155fd093b76dd7c457291a1fa2ce687262cf2d54b32ff7": dict(
            workload="hplajw", policy=PolicySpec("afraid"), ndisks=2, organization="raid1",
            idle_threshold_s=0.05, extra_settle_s=1.0,
        ),
        "54b6ceb6f49eaab395ceba4a09bc1be2cb46f473bb3a4e80d15c92bcfb8c3dee": dict(
            workload="hplajw", policy=PolicySpec("raid5"), duration_s=30, seed=0
        ),
    }

    @pytest.mark.parametrize("key", sorted(PINNED_KEYS))
    def test_pinned_keys(self, monkeypatch, key):
        import repro.harness.runner as runner

        monkeypatch.setattr(runner, "code_fingerprint", lambda: "pinned-fingerprint")
        assert cache_key(CellSpec(**self.PINNED_KEYS[key])) == key

    def test_default_disk_count_keys_like_the_explicit_one(self):
        implicit = CellSpec(workload="hplajw", policy=PolicySpec("afraid"), organization="raid10")
        explicit = dataclasses.replace(implicit, ndisks=6)
        assert cache_key(implicit) == cache_key(explicit)


def test_benchmark_import_chain_stays_off_the_cli_and_service():
    """The sweep engine and sharded replay import neither the CLI, the
    service nor argparse: perfbench times their fresh imports."""
    import subprocess
    import sys

    code = (
        "import sys, repro.harness.runner, repro.harness.sharding; "
        "print(sorted(m for m in sys.modules if m == 'argparse' "
        "or m.startswith(('repro.cli', 'repro.service'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        specs = quick_specs()
        cold = run_cells(specs, cache_dir=tmp_path)
        assert (cold.simulated, cold.cached) == (len(specs), 0)
        warm = run_cells(specs, cache_dir=tmp_path)
        assert (warm.simulated, warm.cached) == (0, len(specs))
        for key in cold.results:
            assert warm.results[key].to_dict() == cold.results[key].to_dict()

    def test_round_trip_preserves_every_field(self, tmp_path):
        spec = quick_specs(kinds=("raid0",))[0]  # raid0: has infinite MTTDL fields
        direct = run_cell(spec)
        run_cells([spec], cache_dir=tmp_path)
        revived = run_cells([spec], cache_dir=tmp_path).results[spec.key]
        assert revived == direct

    def test_config_change_is_a_miss(self, tmp_path):
        specs = quick_specs()
        run_cells(specs, cache_dir=tmp_path)
        changed = [dataclasses.replace(spec, seed=99) for spec in specs]
        outcome = run_cells(changed, cache_dir=tmp_path)
        assert (outcome.simulated, outcome.cached) == (len(specs), 0)

    def test_corrupted_entry_recomputes_without_crashing(self, tmp_path):
        specs = quick_specs(kinds=("afraid",))
        cold = run_cells(specs, cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{ not json !!!")
        recovered = run_cells(specs, cache_dir=tmp_path)
        assert (recovered.simulated, recovered.cached) == (1, 0)
        assert recovered.results == cold.results or (
            recovered.results[specs[0].key].to_dict() == cold.results[specs[0].key].to_dict()
        )
        # And the recomputed result was re-cached, replacing the junk.
        assert run_cells(specs, cache_dir=tmp_path).cached == 1

    def test_wrong_shape_entry_is_also_tolerated(self, tmp_path):
        specs = quick_specs(kinds=("afraid",))
        run_cells(specs, cache_dir=tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(json.dumps({"valid": "json", "wrong": "shape"}))
        assert run_cells(specs, cache_dir=tmp_path).simulated == 1

    def test_cacheless_run_never_writes(self, tmp_path):
        run_cells(quick_specs(), cache_dir=None)
        assert list(tmp_path.iterdir()) == []

    def test_load_returns_none_for_unknown_key(self, tmp_path):
        assert CheckpointStore(tmp_path).load("0" * 64) is None


def _entry(cache, name, size, mtime):
    path = cache.root / (name * 64 + ".json")
    path.write_text("x" * size)
    os.utime(path, (mtime, mtime))
    return path


class TestCachePrune:
    def test_size_bytes_sums_entries(self, tmp_path):
        cache = CheckpointStore(tmp_path)
        _entry(cache, "a", 100, 1000)
        _entry(cache, "b", 250, 2000)
        assert cache.size_bytes() == 350

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = CheckpointStore(tmp_path)
        oldest = _entry(cache, "a", 400, 1000)
        middle = _entry(cache, "b", 400, 2000)
        newest = _entry(cache, "c", 400, 3000)
        removed, freed = cache.prune(900)
        assert (removed, freed) == (1, 400)
        assert not oldest.exists()
        assert middle.exists() and newest.exists()
        assert cache.size_bytes() == 800

    def test_prune_under_limit_is_a_no_op(self, tmp_path):
        cache = CheckpointStore(tmp_path)
        _entry(cache, "a", 100, 1000)
        assert cache.prune(1 << 20) == (0, 0)
        assert cache.size_bytes() == 100

    def test_prune_to_zero_clears_the_cache(self, tmp_path):
        cache = CheckpointStore(tmp_path)
        _entry(cache, "a", 100, 1000)
        _entry(cache, "b", 100, 2000)
        assert cache.prune(0) == (2, 200)
        assert cache.size_bytes() == 0

    def test_pruned_sweep_cache_recomputes_cleanly(self, tmp_path):
        specs = quick_specs(kinds=("afraid",))
        run_cells(specs, cache_dir=tmp_path)
        CheckpointStore(tmp_path).prune(0)
        assert run_cells(specs, cache_dir=tmp_path).simulated == 1


class TestSweepInterrupted:
    def test_serial_interrupt_reports_progress_and_keeps_cache(
        self, tmp_path, monkeypatch
    ):
        import repro.harness.runner as runner_mod

        specs = quick_specs(kinds=("afraid", "raid0", "raid5"))
        calls = []
        real = run_cell

        def interrupt_on_second(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(spec)

        monkeypatch.setattr(runner_mod, "run_cell", interrupt_on_second)
        with pytest.raises(SweepInterrupted) as excinfo:
            run_cells(specs, jobs=1, cache_dir=tmp_path)
        assert (excinfo.value.completed, excinfo.value.total) == (1, 3)
        # It is still a KeyboardInterrupt for callers that do not care.
        assert isinstance(excinfo.value, KeyboardInterrupt)
        # The finished cell was cached, so a rerun resumes there.
        monkeypatch.setattr(runner_mod, "run_cell", real)
        resumed = run_cells(specs, jobs=1, cache_dir=tmp_path)
        assert resumed.cached == 1
        assert resumed.simulated == 2

    def test_interrupt_counts_prior_cache_hits(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner_mod

        specs = quick_specs(kinds=("afraid", "raid0"))
        run_cells(specs[:1], cache_dir=tmp_path)

        def interrupt(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "run_cell", interrupt)
        with pytest.raises(SweepInterrupted) as excinfo:
            run_cells(specs, jobs=1, cache_dir=tmp_path)
        assert (excinfo.value.completed, excinfo.value.total) == (1, 2)


class TestCellExecutor:
    def test_callbacks_fire_once_per_cell_and_write_through(self, tmp_path):
        specs = quick_specs()
        cache = CheckpointStore(tmp_path)
        executor = CellExecutor(jobs=2, cache=cache).start()
        outcomes = []
        try:
            for spec in specs:
                executor.submit(spec, outcomes.append)
            deadline = time.monotonic() + 120
            while len(outcomes) < len(specs):
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            executor.shutdown(drain=True)
        assert sorted(o.spec.key for o in outcomes) == sorted(s.key for s in specs)
        assert all(o.error is None and o.attempts == 1 for o in outcomes)
        for spec in specs:
            assert cache.load(cache_key(spec)) is not None

    def test_warm_submit_completes_synchronously(self, tmp_path):
        spec = quick_specs(kinds=("afraid",))[0]
        run_cells([spec], cache_dir=tmp_path)
        executor = CellExecutor(jobs=1, cache=CheckpointStore(tmp_path)).start()
        outcomes = []
        try:
            executor.submit(spec, outcomes.append)
            # No waiting: the hit was delivered on the calling thread.
            assert len(outcomes) == 1
            assert outcomes[0].from_cache
            assert executor.queue_depth == 0
        finally:
            executor.shutdown(drain=True)

    def test_submit_after_shutdown_is_an_error(self, tmp_path):
        executor = CellExecutor(jobs=1).start()
        executor.shutdown(drain=True)
        with pytest.raises(RuntimeError):
            executor.submit(quick_specs()[0], lambda outcome: None)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            CellExecutor(jobs=0)
        with pytest.raises(ValueError):
            CellExecutor(max_attempts=0)


class TestParallelDeterminism:
    def test_jobs_1_and_jobs_4_are_identical(self, tmp_path):
        """The acceptance bar: parallel fan-out must not change results.

        Every cell runs a fresh Simulator with explicitly-seeded RNG, so
        worker count and scheduling order are invisible to the output.
        """
        specs = ladder_specs(["hplajw", "ATT"], targets=[1e7], **QUICK)
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=4)
        assert serial.results.keys() == parallel.results.keys()
        for key in serial.results:
            assert serial.results[key] == parallel.results[key], key

    def test_grid_through_engine_matches_legacy_serial_path(self):
        workloads = ["hplajw"]
        ladder = policy_ladder(targets=(1e7,))
        legacy = run_policy_grid(workloads, ladder, **QUICK)
        engine = run_policy_grid(workloads, ladder, jobs=2, **QUICK)
        assert legacy.keys() == engine.keys()
        for key in legacy:
            assert legacy[key].to_dict() == engine[key].to_dict(), key

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_cells(quick_specs(), jobs=0)


class TestCounters:
    def test_sweep_counts_cells_and_ios(self, tmp_path):
        counters = PerfCounters()
        specs = quick_specs()
        run_cells(specs, cache_dir=tmp_path, counters=counters)
        assert counters.counts["cells_simulated"] == len(specs)
        assert counters.counts["cells_cached"] == 0
        assert counters.counts["ios_serviced"] > 0
        warm = PerfCounters()
        run_cells(specs, cache_dir=tmp_path, counters=warm)
        assert warm.counts["cells_cached"] == len(specs)
        assert warm.counts["cells_simulated"] == 0


class TestHistogramsThroughTheEngine:
    def test_merged_histograms_identical_across_worker_counts(self):
        """Per-worker histograms merged in the parent must equal the
        serial run's — merge is exact, so worker count is invisible."""
        specs = ladder_specs(["hplajw", "ATT"], targets=[1e7], **QUICK)
        serial = merged_histograms(run_cells(specs, jobs=1).results.values())
        parallel = merged_histograms(run_cells(specs, jobs=4).results.values())
        assert serial == parallel
        assert serial.total_count > 0
        for q in (50, 90, 95, 99):
            assert serial.get("client_read").percentile(q) == parallel.get(
                "client_read"
            ).percentile(q)

    def test_cache_round_trip_preserves_histograms(self, tmp_path):
        spec = quick_specs(kinds=("afraid",))[0]
        direct = run_cell(spec)
        run_cells([spec], cache_dir=tmp_path)
        revived = run_cells([spec], cache_dir=tmp_path).results[spec.key]
        assert revived.latency_hists == direct.latency_hists
        assert revived.histogram_set() == direct.histogram_set()
        assert revived.histogram_set().get("client_write").count == direct.writes

    def test_merged_histograms_skips_payloadless_results(self):
        spec = quick_specs(kinds=("afraid",))[0]
        result = run_cell(spec)
        legacy = dataclasses.replace(result, latency_hists=None)
        merged = merged_histograms([result, legacy])
        assert merged == merged_histograms([result])


class TestExposureHistogramsThroughTheEngine:
    def test_merged_exposure_histograms_identical_across_worker_counts(self):
        """Acceptance: --jobs 4 merged exposure histograms equal serial
        exactly — the same exact-merge bar latency histograms meet."""
        specs = ladder_specs(["hplajw", "ATT"], targets=[1e7], **QUICK)
        serial = merged_exposure_histograms(run_cells(specs, jobs=1).results.values())
        parallel = merged_exposure_histograms(run_cells(specs, jobs=4).results.values())
        assert serial == parallel
        assert serial.total_count > 0  # AFRAID-family cells record dwells
        for q in (50, 90, 95, 99):
            assert serial.get("dirty_dwell").percentile(q) == parallel.get(
                "dirty_dwell"
            ).percentile(q)

    def test_cache_round_trip_preserves_exposure_histograms(self, tmp_path):
        spec = quick_specs(kinds=("afraid",))[0]
        direct = run_cell(spec)
        run_cells([spec], cache_dir=tmp_path)
        revived = run_cells([spec], cache_dir=tmp_path).results[spec.key]
        assert revived.exposure_hists == direct.exposure_hists
        assert revived.exposure_histogram_set() == direct.exposure_histogram_set()

    def test_merged_exposure_histograms_skips_payloadless_results(self):
        spec = quick_specs(kinds=("afraid",))[0]
        result = run_cell(spec)
        legacy = dataclasses.replace(result, exposure_hists=None)
        merged = merged_exposure_histograms([result, legacy])
        assert merged == merged_exposure_histograms([result])


# -- the one result store -----------------------------------------------------------

#: Disk count per organization (three mirrored pairs for the hybrids).
NDISKS = {"raid5": 5, "raid5d": 5, "raid1": 2, "raid10": 6, "raid15": 6}

SURFACE_POLICIES = (PolicySpec("afraid"), PolicySpec("raid5"), PolicySpec("mttdl", 1e6))


def _org_spec(organization, policy, workload):
    return CellSpec(
        workload=workload, policy=policy, duration_s=3.0, seed=5,
        ndisks=NDISKS[organization], organization=organization,
    )


def _org_specs(policies):
    return [
        _org_spec(organization, policy, workload)
        for organization in sorted(NDISKS)
        for policy in policies
        for workload in ("cello-usr", "ATT")
    ]


@functools.cache
def _direct(spec):
    return run_cell(spec)


def _text(result):
    return json.dumps(result_to_payload(result))


def _asdict_payload(result):
    """The reference encoding: ``dataclasses.asdict``, then an inf walk."""

    def encode(value):
        if isinstance(value, float) and value == float("inf"):
            return "inf"
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        return value

    return {key: encode(value) for key, value in dataclasses.asdict(result).items()}


class TestOneStore:
    def test_every_surface_gives_the_same_payload(self, tmp_path):
        store = str(tmp_path / "store")
        specs = _org_specs(SURFACE_POLICIES)
        expected = [_text(_direct(spec)) for spec in specs]
        for spec, text in zip(specs, expected):
            assert _text(run_cell(spec, checkpoint_dir=store)) == text, spec.key
            assert _text(run_cell(spec, checkpoint_dir=store)) == text, spec.key
        sweep = run_cells(specs, cache_dir=store)
        assert (sweep.simulated, sweep.cached) == (0, len(specs))
        for spec, text in zip(specs, expected):
            assert _text(sweep.results[spec.key]) == text, spec.key
        manager = JobManager(jobs=1, cache_dir=None, checkpoint_dir=store)
        try:
            job = manager.submit(specs)
            assert job.wait(120) == DONE
        finally:
            manager.shutdown(drain=False)
        for spec, record, text in zip(specs, job.cells, expected):
            assert json.dumps(record["result"]) == text, spec.key

    def test_warm_cell_builds_nothing(self, tmp_path, monkeypatch):
        import repro.harness.experiment as experiment_mod

        store = str(tmp_path)
        spec = quick_specs(kinds=("afraid",))[0]
        cold = run_cell(spec, checkpoint_dir=store)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm cell reached the replay machinery")

        monkeypatch.setattr(experiment_mod, "build_array", forbidden)
        monkeypatch.setattr(experiment_mod, "make_trace", forbidden)
        monkeypatch.setattr(CheckpointScope, "lookup_final", forbidden)
        monkeypatch.setattr(CheckpointScope, "lookup_cut", forbidden)
        assert run_cell(spec, checkpoint_dir=store) == cold

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(dict(workload="cello-usr"), id="workload"),
            pytest.param(dict(policy=PolicySpec("afraid")), id="policy-kind"),
            pytest.param(dict(policy=PolicySpec("mttdl", 1e6)), id="mttdl-target"),
            pytest.param(dict(duration_s=3.0), id="duration"),
            pytest.param(dict(seed=12), id="seed"),
            pytest.param(dict(ndisks=6), id="ndisks"),
            pytest.param(dict(stripe_unit_sectors=32), id="stripe-unit"),
            pytest.param(dict(idle_threshold_s=0.2), id="idle-threshold"),
            pytest.param(dict(extra_settle_s=1.0), id="settle"),
            pytest.param(dict(organization="raid5d"), id="organization"),
            pytest.param("code", id="code"),
        ],
    )
    def test_any_changed_input_misses(self, tmp_path, monkeypatch, change):
        import repro.harness.runner as runner_mod

        store = str(tmp_path)
        base = CellSpec(
            workload="hplajw", policy=PolicySpec("mttdl", mttdl_target=1e7), **QUICK
        )
        run_cell(base, checkpoint_dir=store)

        class Missed(Exception):
            pass

        def missed(*args, **kwargs):
            raise Missed

        monkeypatch.setattr(runner_mod, "run_experiment", missed)
        run_cell(base, checkpoint_dir=store)  # the unchanged cell still hits
        if change == "code":
            monkeypatch.setattr(runner_mod, "code_fingerprint", lambda: "different")
            spec = base
        else:
            spec = dataclasses.replace(base, **change)
        with pytest.raises(Missed):
            run_cell(spec, checkpoint_dir=store)

    def test_every_rung_gives_the_same_payload(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        spec = CellSpec(workload="cello-usr", policy=PolicySpec("afraid"), duration_s=12.0)
        cold = run_cell(spec, checkpoint_dir=str(tmp_path))
        expected = _text(cold)
        cell_entry = tmp_path / f"{cache_key(spec)}.json"
        submitted = []
        submit = DiskArray.submit

        def counting(self, request):
            submitted.append(request)
            return submit(self, request)

        monkeypatch.setattr(DiskArray, "submit", counting)

        # Rung 2: the record-keyed final answers without simulating.
        cell_entry.unlink()
        assert _text(run_cell(spec, checkpoint_dir=str(tmp_path))) == expected
        assert submitted == []

        # Rung 3: the deepest cut resumes, submitting only the suffix.
        cell_entry.unlink()
        finals = list(tmp_path.glob("*/final-*.ckpt"))
        assert len(finals) == 1
        finals[0].unlink()
        cuts = sorted(tmp_path.glob("*/cut-*.ckpt"))
        assert cuts, "expected a quiescent cut at this duration"
        consumed = int(cuts[-1].name[4:-5])
        assert _text(run_cell(spec, checkpoint_dir=str(tmp_path))) == expected
        assert len(submitted) == cold.nrequests - consumed

        # Rung 4: an empty store runs cold.
        store.prune(0)
        submitted.clear()
        assert _text(run_cell(spec, checkpoint_dir=str(tmp_path))) == expected
        assert len(submitted) == cold.nrequests

    def test_payload_text_matches_the_asdict_route(self):
        policies = (PolicySpec("raid5"), PolicySpec("afraid"), PolicySpec("raid0"),
                    PolicySpec("mttdl", 1e6))
        results = [_direct(spec) for spec in _org_specs(policies)]
        results.append(dataclasses.replace(results[0], mttdl_disk_h=float("inf")))
        for result in results:
            assert json.dumps(result_to_payload(result)) == json.dumps(_asdict_payload(result))


class TestCheckpointStoreAccounting:
    """Without a ``cache_dir``, the checkpoint store's cell entries count as the cache."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_sweep_simulates_nothing(self, tmp_path, jobs):
        specs = quick_specs()
        cold = run_cells(specs, jobs=jobs, checkpoint_dir=tmp_path)
        assert (cold.simulated, cold.cached) == (len(specs), 0)
        warm = run_cells(specs, jobs=jobs, checkpoint_dir=tmp_path)
        assert (warm.simulated, warm.cached) == (0, len(specs))
        for spec in specs:
            assert _text(warm.results[spec.key]) == _text(cold.results[spec.key])

    def test_warm_job_is_answered_from_the_store(self, tmp_path):
        specs = quick_specs()
        run_cells(specs, checkpoint_dir=tmp_path)
        manager = JobManager(jobs=1, cache_dir=None, checkpoint_dir=str(tmp_path))
        try:
            job = manager.submit(specs)
            assert job.wait(60) == DONE
        finally:
            manager.shutdown(drain=False)
        snapshot = job.snapshot()
        assert snapshot["cells_cached"] == snapshot["cells_total"] == len(specs)
        assert all(record["from_cache"] for record in job.cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_pass_writes_each_cell_entry_once(self, tmp_path, monkeypatch, jobs):
        # Logged to a file: forked pool workers inherit the patch.
        log = tmp_path / "writes.log"
        store = CheckpointStore.store

        def logged(self, key, result):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(key + "\n")
            store(self, key, result)

        monkeypatch.setattr(CheckpointStore, "store", logged)
        specs = quick_specs()
        run_cells(specs, jobs=jobs, checkpoint_dir=tmp_path / "store")
        written = log.read_text(encoding="utf-8").split()
        assert sorted(written) == sorted(cache_key(spec) for spec in specs)


def _full_disk(monkeypatch, root):
    """Make every rename into ``root`` fail as if the disk were full."""
    replace = os.replace

    def failing(src, dst, *args, **kwargs):
        if os.fspath(dst).startswith(os.fspath(root)):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(dst))
        return replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", failing)


class TestFailedStoreWrite:
    """A failed result write must not fail a finished cell or stall the pool."""

    def test_serial_sweep_keeps_the_cell(self, tmp_path, monkeypatch):
        spec = quick_specs(kinds=("afraid",))[0]
        _full_disk(monkeypatch, tmp_path)
        outcome = run_cells([spec], jobs=1, cache_dir=tmp_path)
        assert outcome.results[spec.key] == run_cell(spec)
        assert list(tmp_path.iterdir()) == []  # no temp file left behind

    def test_executor_delivers_every_cell(self, tmp_path, monkeypatch):
        specs = quick_specs()
        _full_disk(monkeypatch, tmp_path)
        executor = CellExecutor(jobs=1, cache=CheckpointStore(tmp_path)).start()
        outcomes = []
        try:
            for count, spec in enumerate(specs, 1):
                executor.submit(spec, outcomes.append)
                deadline = time.monotonic() + 60
                while len(outcomes) < count and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert len(outcomes) == count, f"no callback for {spec.key}"
        finally:
            executor.shutdown(drain=True, timeout=30)
        assert all(o.error is None and o.result == run_cell(o.spec) for o in outcomes)
        assert list(tmp_path.iterdir()) == []
