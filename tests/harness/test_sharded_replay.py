"""Sharded-replay determinism: byte-identical to the unsharded fast path.

The contract under test (repro.harness.sharding): replaying a trace in N
consecutive time slices with pickled boundary-state handoff produces the
exact observable results — per-request latency doubles in completion
order, every counter, the parity-lag integrals — as one continuous
replay, for any N, and a handoff resumed from its pickle (the checkpoint
store's form) does too.
"""

import math
import pickle

import pytest

from repro.array.factory import build_array
from repro.harness.checkpoint import PICKLE_PROTOCOL
from repro.harness.replay import replay_trace
from repro.harness.sharding import (
    ShardHandoff,
    ShardReplayResult,
    advance_shard,
    finish_shard,
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
        # shards=1 must degenerate to exactly the replay_trace flow.
        reference = _direct("cello-usr", "raid5", 10.0, 3)
        result = _sharded("cello-usr", "raid5", 10.0, 3, 1)
        assert replay_digest(result) == replay_digest(reference)


class TestPickledHandoff:
    def test_pickled_state_resumes_to_the_same_digest(self):
        """A paused step's state survives a pickle round trip, the form the
        checkpoint store keeps it in, and resumes to the unsharded digest."""
        reference = _direct("cello-usr", "afraid", 12.0, 7)
        sim, array = _fresh("afraid")
        trace = _trace_for(array, "cello-usr", 12.0, 7)
        records = list(trace)
        handoff = advance_shard(
            (sim, array, [], []), records, 0, len(records) // 2, trace.duration_s, 0.0, True
        )
        assert isinstance(handoff, ShardHandoff)
        state = pickle.loads(pickle.dumps(handoff.state, protocol=PICKLE_PROTOCOL))
        assert state[0] is not sim
        result = finish_shard(state, records, handoff.consumed, trace.duration_s, 0.0, True)
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


def _quiescent_arrivals(policy: str, workload: str, duration_s: float, seed: int):
    """Indices of the records whose arrival finds an unsharded replay's
    simulator otherwise empty (probed as the feeder submits each one)."""
    sim, array = _fresh(policy)
    trace = _trace_for(array, workload, duration_s, seed)
    quiet = []
    submitted = []
    submit = array.submit

    def probe(request):
        if sim.peek() == math.inf:
            quiet.append(len(submitted))
        submitted.append(request)
        return submit(request)

    array.submit = probe
    replay_trace(sim, array, trace)
    return quiet


class TestCutSearch:
    def test_step_pauses_at_first_quiescent_arrival_at_or_past_cut(self):
        # ATT's quiescent arrivals are scarce, so the search runs past
        # its tentative index before it finds one.
        quiet = _quiescent_arrivals("raid5", "ATT", 20.0, 11)
        sim, array = _fresh("raid5")
        trace = _trace_for(array, "ATT", 20.0, 11)
        records = list(trace)
        cut = len(records) // 4
        expected = min(index for index in quiet if index >= cut)
        assert expected > cut
        handoff = advance_shard(
            (sim, array, [], []), records, 0, cut, trace.duration_s, 0.0, True
        )
        assert isinstance(handoff, ShardHandoff)
        assert handoff.consumed == expected
        paused_sim, paused_array, requests, completions = handoff.state
        assert paused_sim is sim and paused_array is array  # handed over live
        assert sim.peek() == math.inf
        assert records[expected - 1].time_s < sim.now
        assert len(requests) == len(completions) == expected
        assert handoff.events == sim.events_dispatched

    def test_search_without_cut_closes_the_books_in_the_same_simulation(self):
        quiet = _quiescent_arrivals("raid5", "ATT", 20.0, 11)
        reference = _direct("ATT", "raid5", 20.0, 11)
        sim, array = _fresh("raid5")
        trace = _trace_for(array, "ATT", 20.0, 11)
        records = list(trace)
        result = advance_shard(
            (sim, array, [], []), records, 0, quiet[-1] + 1, trace.duration_s, 0.0, True
        )
        assert isinstance(result, ShardReplayResult)
        assert result.stats is array.stats
        assert replay_digest(result) == replay_digest(reference)
        assert result.events_simulated == sim.events_dispatched


class TestEventAccounting:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_events_simulated_counts_every_dispatch(self, monkeypatch, shards):
        # ATT under AFRAID has no quiescent arrival, so with 4 shards the
        # first step runs to the end and closes the books; every event is
        # counted once.
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
