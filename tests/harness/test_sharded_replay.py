"""Sharded-replay determinism: byte-identical to the unsharded fast path.

The contract under test (repro.harness.sharding): replaying a trace in N
consecutive time slices with pickled boundary-state handoff produces the
exact observable results — per-request latency doubles in completion
order, every counter, the parity-lag integrals — as one continuous
replay, for any N, whether the shard steps run in-process or in worker
processes.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.array.factory import build_array
from repro.harness.replay import replay_trace
from repro.harness.sharding import (
    ShardReplayResult,
    advance_shard,
    replay_digest,
    replay_trace_sharded,
    run_sharded_replay,
)
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator
from repro.traces import make_trace

POLICIES = {
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
    "raid0": NeverScrubPolicy,
}


def _fresh(policy_name: str):
    sim = Simulator()
    array = build_array(sim, POLICIES[policy_name]())
    return sim, array


def _trace_for(array, workload: str, duration_s: float, seed: int):
    return make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )


def _direct(workload: str, policy: str, duration_s: float, seed: int):
    sim, array = _fresh(policy)
    trace = _trace_for(array, workload, duration_s, seed)
    outcome = replay_trace(sim, array, trace)
    return ShardReplayResult.from_array(array, outcome)


def _sharded(workload: str, policy: str, duration_s: float, seed: int, shards: int):
    sim, array = _fresh(policy)
    trace = _trace_for(array, workload, duration_s, seed)
    return replay_trace_sharded(sim, array, trace, shards=shards)


class TestShardCountInvariance:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cello_byte_identical(self, policy, shards):
        # 12 sim-s of cello-usr has idle gaps, so cuts actually land and
        # the scrub is still running at the horizon (the restored final
        # shard must clamp there, not drain to quiescence).
        reference = _direct("cello-usr", policy, 12.0, 7)
        result = _sharded("cello-usr", policy, 12.0, 7, shards)
        assert replay_digest(result) == replay_digest(reference)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_att_byte_identical(self, shards):
        # The write-heavy ATT trace has almost no usable idle gaps under
        # AFRAID (§4.4): the cut search must extend, possibly collapsing
        # to a single shard — and still match exactly.
        reference = _direct("ATT", "afraid", 8.0, 11)
        result = _sharded("ATT", "afraid", 8.0, 11, shards)
        assert replay_digest(result) == replay_digest(reference)

    def test_latency_stream_identical_not_just_digest(self):
        reference = _direct("cello-usr", "afraid", 12.0, 7)
        result = _sharded("cello-usr", "afraid", 12.0, 7, 4)
        assert result.stats.io_times == reference.stats.io_times
        assert result.outcome.horizon_s == reference.outcome.horizon_s
        assert result.parity_lag == reference.parity_lag

    def test_n1_equals_direct_flow(self):
        # shards=1 must degenerate to exactly the replay_trace flow with
        # one snapshot round-trip — proving pickling alone changes nothing.
        reference = _direct("cello-usr", "raid5", 10.0, 3)
        result = _sharded("cello-usr", "raid5", 10.0, 3, 1)
        assert replay_digest(result) == replay_digest(reference)


class TestProcessPoolHandoff:
    def test_pool_matches_in_process(self):
        reference = _direct("cello-usr", "afraid", 12.0, 7)
        sim, array = _fresh("afraid")
        trace = _trace_for(array, "cello-usr", 12.0, 7)
        with ProcessPoolExecutor(max_workers=2) as pool:
            result = replay_trace_sharded(
                sim, array, trace, shards=4,
                submit=lambda fn, *args: pool.submit(fn, *args).result(),
            )
        assert replay_digest(result) == replay_digest(reference)


class TestSpecEntryPoint:
    def test_run_sharded_replay_digests_agree(self):
        _result1, digest1 = run_sharded_replay(
            "cello-usr", policy="afraid", duration_s=10.0, seed=42, shards=1
        )
        _result2, digest2 = run_sharded_replay(
            "cello-usr", policy="afraid", duration_s=10.0, seed=42, shards=3
        )
        assert digest1 == digest2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_sharded_replay("cello-usr", policy="nonsense", duration_s=5.0)

    def test_bad_shard_count_rejected(self):
        sim, array = _fresh("afraid")
        trace = _trace_for(array, "cello-usr", 5.0, 42)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            replay_trace_sharded(sim, array, trace, shards=0)


class TestCutSearch:
    def test_no_cut_signals_none(self):
        # A tentative count at/past the slice end cannot produce a cut:
        # the handoff carries no payload, and nothing was simulated.
        import pickle

        sim, array = _fresh("afraid")
        payload = pickle.dumps((sim, array, [], []), protocol=pickle.HIGHEST_PROTOCOL)
        trace = _trace_for(array, "cello-usr", 5.0, 42)
        records = list(trace)
        handoff = advance_shard(payload, records, len(records), True, 0.0)
        assert handoff.payload is None
        assert handoff.events == 0


class TestEventAccounting:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_events_simulated_counts_every_dispatch(self, monkeypatch, shards):
        # ATT under AFRAID starves the cut search, so with 4 shards whole
        # searches fail and are retried; their events were paid too.
        dispatched = []

        def counting(method):
            def wrapper(sim, *args, **kwargs):
                base = sim.events_dispatched
                try:
                    return method(sim, *args, **kwargs)
                finally:
                    dispatched.append(sim.events_dispatched - base)
            return wrapper

        monkeypatch.setattr(Simulator, "run", counting(Simulator.run))
        monkeypatch.setattr(
            Simulator, "run_until_triggered", counting(Simulator.run_until_triggered)
        )
        result = _sharded("ATT", "afraid", 20.0, 11, shards)
        assert result.events_simulated == sum(dispatched) > 0
