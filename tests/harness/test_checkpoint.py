"""Checkpointed incremental replay: equivalence, eviction, recovery.

The contract under test (repro.harness.checkpoint): resuming a replay
from *any* stored quiescent-cut prefix — or from the stored final
result — produces a `replay_digest` bit-identical to a cold replay, for
every policy × workload × shard count; a pruned, corrupted, or
version-mismatched store never silently corrupts a resume (eviction and
truncation fall back to cold, a foreign version is refused loudly).
"""

import dataclasses
import functools
import glob
import json
import os
import pickle
import shutil

import pytest

from repro.array.controller import DiskArray
from repro.array.factory import build_array
from repro.harness import checkpoint as checkpoint_mod
from repro.harness.checkpoint import (
    PICKLE_PROTOCOL,
    CheckpointStore,
    CheckpointVersionError,
    records_digest,
)
from repro.harness.replay import replay_trace
from repro.harness.sharding import (
    ShardReplayResult,
    replay_digest,
    replay_trace_sharded,
    run_sharded_replay,
)
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator
from repro.traces import Trace, make_trace

POLICIES = {
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
    "raid0": NeverScrubPolicy,
}


def _replay(workload, policy, duration_s, seed=42, shards=4, scope=None):
    sim = Simulator()
    array = build_array(sim, POLICIES[policy]())
    trace = make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )
    result = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=scope)
    return result, replay_digest(result)


def _scope(tmp_path, workload, policy, seed=42):
    store = CheckpointStore(tmp_path / "store")
    return store, store.scope(
        {"workload": workload, "policy": policy, "seed": seed, "array": "paper-default"}
    )


def _entry_files(scope, kind="*"):
    return sorted(glob.glob(os.path.join(scope.path, f"{kind}-*.ckpt")))


# -- equivalence: cold vs resume-from-every-prefix --------------------------------------


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("workload", ["cello-usr", "ATT"])
def test_resume_from_every_prefix_matches_cold(tmp_path, workload, policy):
    """Seed the store with each stored prefix in turn; every resume point
    (including the empty store and the full final-result hit) must
    reproduce the cold digest exactly."""
    duration = 12.0
    _, cold_digest = _replay(workload, policy, duration)

    _, scope = _scope(tmp_path, workload, policy)
    populated, digest = _replay(workload, policy, duration, scope=scope)
    assert digest == cold_digest
    assert populated.events_simulated > 0

    entries = _entry_files(scope)
    cuts = [path for path in entries if os.path.basename(path).startswith("cut-")]
    # Replay once per prefix depth: store holds exactly the first k cuts.
    for k in range(len(cuts) + 1):
        prefix_dir = tmp_path / f"prefix-{k}"
        prefix_scope_path = prefix_dir / "store" / os.path.basename(scope.path)
        os.makedirs(prefix_scope_path)
        for path in cuts[:k]:
            shutil.copy2(path, prefix_scope_path)
        store = CheckpointStore(prefix_dir / "store")
        prefix_scope = store.scope(
            {"workload": workload, "policy": policy, "seed": 42, "array": "paper-default"}
        )
        assert prefix_scope.path == str(prefix_scope_path)
        resumed, resumed_digest = _replay(workload, policy, duration, scope=prefix_scope)
        assert resumed_digest == cold_digest, f"prefix depth {k} diverged"
        if k:
            assert resumed.events_simulated <= populated.events_simulated

    # Full store: the final entry answers without simulating at all.
    warm, warm_digest = _replay(workload, policy, duration, scope=scope)
    assert warm_digest == cold_digest
    assert warm.events_simulated == 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cold_vs_resumed_across_shard_counts(tmp_path, shards):
    _, cold_digest = _replay("cello-usr", "afraid", 12.0, shards=shards)
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _, first = _replay("cello-usr", "afraid", 12.0, shards=shards, scope=scope)
    resumed, second = _replay("cello-usr", "afraid", 12.0, shards=shards, scope=scope)
    assert first == cold_digest
    assert second == cold_digest
    assert resumed.events_simulated == 0


def test_duration_extension_resumes_from_cuts(tmp_path):
    """Extending --duration pays only the suffix: the longer trace's
    replay resumes from the 12 s run's deepest cut, and its digest equals
    a cold 20 s replay's."""
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    _, cold_digest = _replay("cello-usr", "afraid", 20.0)
    extended, digest = _replay("cello-usr", "afraid", 20.0, scope=scope)
    cold, _ = _replay("cello-usr", "afraid", 20.0)
    assert digest == cold_digest
    assert 0 < extended.events_simulated < cold.events_simulated


def test_run_sharded_replay_checkpoint_round_trip(tmp_path):
    store_dir = str(tmp_path / "store")
    cold, cold_digest = run_sharded_replay(
        "snake", duration_s=10.0, shards=2, checkpoint_dir=store_dir
    )
    warm, warm_digest = run_sharded_replay(
        "snake", duration_s=10.0, shards=2, checkpoint_dir=store_dir
    )
    _, plain_digest = run_sharded_replay("snake", duration_s=10.0, shards=2)
    assert cold_digest == warm_digest == plain_digest
    assert cold.events_simulated > 0
    assert warm.events_simulated == 0


def _replay_scope_configs(monkeypatch, tmp_path, **kwargs) -> list[dict]:
    configs = []
    scope = CheckpointStore.scope
    monkeypatch.setattr(
        CheckpointStore, "scope", lambda self, config: configs.append(config) or scope(self, config)
    )
    run_sharded_replay("snake", duration_s=2.0, checkpoint_dir=str(tmp_path), **kwargs)
    return configs


def test_run_sharded_replay_scope_key_of_the_paper_array_is_unchanged(monkeypatch, tmp_path):
    """A store written before replays took an organization still resumes."""
    expected = {
        "surface": "run_sharded_replay", "workload": "snake", "seed": 42,
        "policy": "afraid", "array": "paper-default",
    }
    assert _replay_scope_configs(monkeypatch, tmp_path) == [expected]
    assert _replay_scope_configs(monkeypatch, tmp_path, ndisks=5) == [expected]


def test_run_sharded_replay_builds_the_organization(monkeypatch, tmp_path):
    (config,) = _replay_scope_configs(monkeypatch, tmp_path, organization="raid10")
    assert config["array"] == {"organization": "raid10", "ndisks": 6}
    _, one = run_sharded_replay("snake", duration_s=6.0, organization="raid10")
    _, three = run_sharded_replay("snake", duration_s=6.0, shards=3, organization="raid10")
    _, paper = run_sharded_replay("snake", duration_s=6.0)
    assert one == three != paper


# -- every organization, with no re-simulation -------------------------------------------

#: Disk count per organization (three mirrored pairs for the hybrids).
NDISKS = {"raid5": 5, "raid5d": 5, "raid1": 2, "raid10": 6, "raid15": 6}


def _org_cell(organization, policy, workload):
    sim = Simulator()
    array = build_array(
        sim, POLICIES[policy](), ndisks=NDISKS[organization], organization=organization
    )
    trace = make_trace(
        workload,
        duration_s=10.0,
        seed=5,
        address_space_sectors=array.layout.total_data_sectors,
    )
    return sim, array, trace


@functools.cache
def _org_direct(organization, policy, workload):
    """``replay_trace``'s digest and event count for one cell."""
    sim, array, trace = _org_cell(organization, policy, workload)
    outcome = replay_trace(sim, array, trace)
    return replay_digest(ShardReplayResult.from_array(array, outcome)), sim.events_dispatched


def _count_submits(monkeypatch):
    """Patch ``DiskArray.submit`` to log every call; returns the log."""
    calls = []
    submit = DiskArray.submit

    def counting(self, request):
        calls.append(request)
        return submit(self, request)

    monkeypatch.setattr(DiskArray, "submit", counting)
    return calls


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("workload", ["cello-usr", "ATT"])
@pytest.mark.parametrize("policy", ["afraid", "raid5"])
@pytest.mark.parametrize("organization", sorted(NDISKS))
def test_every_organization_cold_and_resumed_without_resimulation(
    tmp_path, monkeypatch, organization, policy, workload, shards
):
    """Cold checkpointed runs, and runs resumed from each stored cut alone,
    match ``replay_trace``; each record is submitted exactly once."""
    expected, events = _org_direct(organization, policy, workload)
    submitted = _count_submits(monkeypatch)
    config = {"organization": organization, "policy": policy, "workload": workload}
    scope = CheckpointStore(tmp_path / "cold").scope(config)
    sim, array, trace = _org_cell(organization, policy, workload)
    cold = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=scope)
    assert replay_digest(cold) == expected
    assert cold.events_simulated == events
    assert len(submitted) == len(trace)

    for path in _entry_files(scope, "cut"):
        consumed = int(os.path.basename(path)[4:-5])
        alone = CheckpointStore(tmp_path / f"cut-{consumed}").scope(config)
        os.makedirs(alone.path)
        shutil.copy2(path, alone.path)
        submitted.clear()
        sim, array, trace = _org_cell(organization, policy, workload)
        resumed = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=alone)
        assert replay_digest(resumed) == expected, f"resume from cut {consumed} diverged"
        assert len(submitted) == len(trace) - consumed


# -- store maintenance: eviction --------------------------------------------------------


def test_prune_evicts_oldest_and_replay_falls_back_cold(tmp_path):
    store, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    assert store.size_bytes() > 0
    assert store.listing()

    removed, freed = store.prune(0)
    assert removed > 0
    assert freed > 0
    assert store.size_bytes() == 0
    # Emptied scope directories are cleaned up too.
    assert not os.path.isdir(scope.path)

    # The evicted store is a plain cold start, not an error.
    cold, digest = _replay("cello-usr", "afraid", 12.0, scope=scope)
    _, expected = _replay("cello-usr", "afraid", 12.0)
    assert digest == expected
    assert cold.events_simulated > 0


def test_prune_keeps_entries_under_budget(tmp_path):
    store, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    total = store.size_bytes()
    removed, freed = store.prune(total)
    assert (removed, freed) == (0, 0)
    assert store.size_bytes() == total


def _aged(path, size, mtime):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


def test_maintenance_counts_and_evicts_both_kinds_oldest_first(tmp_path):
    store = CheckpointStore(tmp_path / "store")
    scope = store.scope({"a": 1})
    old_cell = _aged(os.path.join(store.root, "a" * 64 + ".json"), 100, 1000)
    cut = _aged(os.path.join(scope.path, "cut-00000007.ckpt"), 200, 2000)
    new_cell = _aged(os.path.join(store.root, "b" * 64 + ".json"), 300, 3000)
    final = _aged(os.path.join(scope.path, "final-0123456789abcdef.ckpt"), 400, 4000)
    assert store.size_bytes() == 1000
    assert [(row["kind"], row["scope"], row["bytes"]) for row in store.listing()] == [
        ("cell", None, 100),
        ("cut", scope.key, 200),
        ("cell", None, 300),
        ("final", scope.key, 400),
    ]
    assert store.prune(700) == (2, 300)
    assert not os.path.exists(old_cell) and not os.path.exists(cut)
    assert os.path.exists(new_cell) and os.path.exists(final)
    assert store.size_bytes() == 700


def test_prune_to_zero_empties_the_store_and_its_scopes(tmp_path):
    from repro.harness.runner import CellSpec, PolicySpec, run_cell

    store = CheckpointStore(tmp_path / "store")
    spec = CellSpec(workload="cello-usr", policy=PolicySpec("afraid"), duration_s=12.0)
    run_cell(spec, checkpoint_dir=str(store.root))
    listed = store.listing()
    assert {row["kind"] for row in listed} == {"cell", "cut", "final"}
    assert store.prune(0) == (len(listed), sum(row["bytes"] for row in listed))
    assert store.size_bytes() == 0
    assert list(store.root.iterdir()) == []


# -- recovery: corruption and version skew ----------------------------------------------


def _corrupt_truncate(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])


def test_truncated_entry_is_discarded_and_replay_stays_exact(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    for path in _entry_files(scope):
        _corrupt_truncate(path)
    resumed, digest = _replay("cello-usr", "afraid", 12.0, scope=scope)
    _, expected = _replay("cello-usr", "afraid", 12.0)
    assert digest == expected
    assert resumed.events_simulated > 0  # nothing usable survived → cold


def test_deepest_truncated_cut_falls_back_to_shallower(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    populated, _ = _replay("cello-usr", "afraid", 24.0, scope=scope, shards=6)
    cuts = _entry_files(scope, "cut")
    assert len(cuts) >= 2, "expected multiple quiescent cuts at this duration"
    for path in _entry_files(scope, "final"):
        os.unlink(path)
    _corrupt_truncate(cuts[-1])
    resumed, digest = _replay("cello-usr", "afraid", 24.0, scope=scope, shards=6)
    _, expected = _replay("cello-usr", "afraid", 24.0, shards=6)
    assert digest == expected
    assert 0 < resumed.events_simulated < populated.events_simulated
    # Discarded on sight, then rewritten intact by the resumed replay.
    assert scope._read(os.path.basename(cuts[-1])) is not None


def test_garbage_entry_is_discarded(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    path = _entry_files(scope)[0]
    with open(path, "wb") as handle:
        handle.write(b"not a checkpoint at all")
    assert scope._read(os.path.basename(path)) is None
    assert not os.path.exists(path)


def test_version_mismatch_is_refused_naming_both(tmp_path, monkeypatch):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    monkeypatch.setattr(checkpoint_mod, "_REPRO_VERSION", "99.0.0")
    with pytest.raises(CheckpointVersionError) as excinfo:
        _replay("cello-usr", "afraid", 12.0, scope=scope)
    message = str(excinfo.value)
    assert "99.0.0" in message  # the running version
    assert "1.0" in message  # the version that wrote the entry
    assert "--checkpoint-dir" in message


def test_protocol_mismatch_is_refused(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    path = _entry_files(scope)[0]
    with open(path, "rb") as handle:
        blob = handle.read()
    magic = checkpoint_mod._MAGIC
    rest = blob[len(magic):]
    header_line, _, payload = rest.partition(b"\n")
    header = json.loads(header_line)
    header["protocol"] = PICKLE_PROTOCOL + 1
    rewritten = magic + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    with open(path, "wb") as handle:
        handle.write(rewritten)
    with pytest.raises(CheckpointVersionError) as excinfo:
        scope._read(os.path.basename(path))
    assert str(PICKLE_PROTOCOL) in str(excinfo.value)


# -- keying -----------------------------------------------------------------------------


def test_prefix_digest_guards_against_different_trace_content(tmp_path):
    """Two workloads sharing a scope (forced, by lying in the config) must
    never resume from each other's cuts — the record-prefix digest is the
    last line of defence."""
    store = CheckpointStore(tmp_path / "store")
    config = {"deliberately": "shared"}
    scope = store.scope(config)

    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy())
    trace_a = make_trace(
        "cello-usr", duration_s=12.0, seed=42,
        address_space_sectors=array.layout.total_data_sectors,
    )
    replay_trace_sharded(sim, array, trace_a, shards=4, checkpoint=scope)
    assert _entry_files(scope, "cut")

    sim2 = Simulator()
    array2 = build_array(sim2, BaselineAfraidPolicy())
    trace_b = make_trace(
        "snake", duration_s=12.0, seed=42,
        address_space_sectors=array2.layout.total_data_sectors,
    )
    assert scope.lookup_cut(list(trace_b)) is None
    result = replay_trace_sharded(sim2, array2, trace_b, shards=4, checkpoint=scope)
    fresh_sim = Simulator()
    fresh_array = build_array(fresh_sim, BaselineAfraidPolicy())
    expected = replay_trace_sharded(fresh_sim, fresh_array, trace_b, shards=4)
    assert replay_digest(result) == replay_digest(expected)


def test_cut_never_resumes_into_a_trace_whose_next_record_differs(tmp_path):
    """A cut is paused at the arrival of record ``consumed``, so its digest
    covers that record too: moving it earlier than the paused state's
    clock must miss the cut, not resume into the past."""
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    assert os.path.exists(os.path.join(scope.path, "cut-00000072.ckpt"))

    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy())
    trace = make_trace(
        "cello-usr", duration_s=12.0, seed=42,
        address_space_sectors=array.layout.total_data_sectors,
    )
    records = list(trace)
    assert records[71].time_s < 2.62 < records[72].time_s
    records[72] = dataclasses.replace(records[72], time_s=2.62)
    edited = Trace(trace.name, records, trace.duration_s)
    result = replay_trace_sharded(sim, array, edited, shards=4, checkpoint=scope)

    cold_sim = Simulator()
    cold_array = build_array(cold_sim, BaselineAfraidPolicy())
    cold = replay_trace(cold_sim, cold_array, edited)
    expected = ShardReplayResult.from_array(cold_array, cold)
    assert replay_digest(result) == replay_digest(expected)


def test_records_digest_is_prefix_consistent():
    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy())
    short = list(
        make_trace(
            "cello-usr", duration_s=8.0, seed=42,
            address_space_sectors=array.layout.total_data_sectors,
        )
    )
    long = list(
        make_trace(
            "cello-usr", duration_s=16.0, seed=42,
            address_space_sectors=array.layout.total_data_sectors,
        )
    )
    assert len(long) > len(short)
    assert records_digest(long, len(short)) == records_digest(short, len(short))


def test_scope_key_covers_code_fingerprint(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path / "store")
    key_before = store.scope({"a": 1}).key
    monkeypatch.setattr(checkpoint_mod, "code_fingerprint", lambda: "different")
    assert store.scope({"a": 1}).key != key_before


def test_stored_payloads_use_pinned_protocol(tmp_path):
    _, scope = _scope(tmp_path, "cello-usr", "afraid")
    _replay("cello-usr", "afraid", 12.0, scope=scope)
    for path in _entry_files(scope):
        entry = scope._read(os.path.basename(path))
        assert entry is not None
        header, payload = entry
        assert header["protocol"] == PICKLE_PROTOCOL
        # proto 2+ frames open with PROTO opcode naming the version.
        assert payload[0:1] == b"\x80" and payload[1] == PICKLE_PROTOCOL
        pickle.loads(payload)  # revivable
