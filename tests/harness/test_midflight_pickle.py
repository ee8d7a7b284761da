"""A replay paused between any two events pickles and resumes bit-exactly.

Every controller protocol — client writes on every organization, the
idle scrubber, paritypoints (``DiskArray.commit``) and spare rebuilds
(``RebuildManager``) — runs as callback states, so no generator frame
or closure holds array state and the whole simulation pickles
mid-flight, not only at the quiescent cuts sharded replay looks for.
Each case pauses a replay at the first event past its pause time where
its protocol is in flight, round-trips the state through pickle,
resumes the copy and checks it against the uninterrupted run's
``replay_digest``.
"""

import pickle

import pytest

from repro.array.batchplan import warm_extent_cache
from repro.array.factory import build_array
from repro.disk import IoKind, toy_disk
from repro.ext.rebuild import RebuildManager
from repro.harness.checkpoint import PICKLE_PROTOCOL
from repro.harness.replay import _Feeder, close_replay
from repro.harness.sharding import ShardReplayResult, replay_digest
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy
from repro.sim import Simulator
from repro.traces import make_trace

WORKLOAD = {"workload": "cello-usr", "duration_s": 60.0, "seed": 3}
NDISKS = {"raid5": 5, "raid10": 6}
PAUSE_S = 20.0
MAX_STEPS = 500_000
#: Paritypoints: every COMMIT_EVERY-th write past PAUSE_S is committed
#: COMMIT_DELAY_S after it arrives, while its stripe is usually dirty.
COMMIT_EVERY = 8
COMMIT_DELAY_S = 0.05


class _Committer:
    """Commits write extents on a timer; bound-method callbacks only."""

    def __init__(self, sim: Simulator, array, records) -> None:
        self.sim = sim
        self.array = array
        writes = [record for record in records if record.is_write and record.time_s > PAUSE_S]
        self.records = writes[::COMMIT_EVERY]
        self.index = 0
        self.commits = []
        self._arm()

    def _arm(self) -> None:
        if self.index < len(self.records):
            when = self.records[self.index].time_s + COMMIT_DELAY_S
            self.sim.timeout(when - self.sim.now).callbacks.append(self._fire)

    def _fire(self, _event) -> None:
        record = self.records[self.index]
        self.index += 1
        self.commits.append(self.array.commit(record.offset_sectors, record.nsectors))
        self._arm()


def _mid_scrub(array, requests, committer) -> bool:
    return bool(array._rebuilding)


def _mid_commit(array, requests, committer) -> bool:
    return bool(array._rebuilding) and any(not done.triggered for done in committer.commits)


def _mid_write(array, requests, committer) -> bool:
    return any(
        request.kind is IoKind.WRITE
        and request.dispatch_time is not None
        and request.complete_time is None
        for request in requests[-8:]
    )


CASES = {
    "raid5-afraid-scrub": ("raid5", BaselineAfraidPolicy, False, _mid_scrub),
    "raid5-afraid-commit": ("raid5", BaselineAfraidPolicy, True, _mid_commit),
    "raid10-raid5-mirrored-write": ("raid10", AlwaysRaid5Policy, False, _mid_write),
}


def _replay_digest(case: str, pause: bool) -> str:
    organization, policy, commits, in_flight = CASES[case]
    sim = Simulator()
    array = build_array(sim, policy(), ndisks=NDISKS[organization], organization=organization)
    trace = make_trace(
        WORKLOAD["workload"], duration_s=WORKLOAD["duration_s"], seed=WORKLOAD["seed"],
        address_space_sectors=array.layout.total_data_sectors,
    )
    records = list(trace)
    committer = _Committer(sim, array, records) if commits else None
    state = (sim, array, [], [])
    warm_extent_cache(array.layout, records)
    fed = _Feeder(sim, array, records, state[2], state[3]).start()
    if pause:
        for _ in range(MAX_STEPS):
            if sim.now > PAUSE_S and in_flight(array, state[2], committer):
                break
            sim.step()
        else:
            raise AssertionError(f"{case}: the protocol was never in flight past {PAUSE_S} s")
        assert sim.peek() < float("inf")  # mid-flight: work is still scheduled
        state, fed = pickle.loads(pickle.dumps((state, fed), protocol=PICKLE_PROTOCOL))
        sim, array = state[0], state[1]
    sim.run_until_triggered(fed)
    outcome = close_replay(state, trace.duration_s, 0.0, finalize=True)
    assert not outcome.failures
    return replay_digest(ShardReplayResult.from_array(array, outcome))


@pytest.mark.parametrize("case", sorted(CASES))
def test_paused_state_pickles_and_resumes_to_the_same_digest(case):
    assert _replay_digest(case, pause=True) == _replay_digest(case, pause=False)


#: Spare rebuilds: ATT on toy disks; member 1 fails at REBUILD_FAIL_S and
#: is rebuilt flat out while the foreground runs, paused past
#: REBUILD_PAUSE_S once REBUILD_PAUSE_STRIPES stripes are on the spare.
REBUILD_WORKLOAD = {"workload": "ATT", "duration_s": 20.0, "seed": 3}
REBUILD_FAIL_S = 5.0
REBUILD_PAUSE_S = 6.0
REBUILD_PAUSE_STRIPES = 20


class _Rebuilder:
    """Fails a member on a timer and rebuilds it; bound-method callbacks only."""

    def __init__(self, sim: Simulator, array) -> None:
        self.sim = sim
        self.manager = RebuildManager(sim, array, yield_to_foreground=False)
        self.done = None
        sim.timeout(REBUILD_FAIL_S).callbacks.append(self._fail)

    def _fail(self, _event) -> None:
        self.done = self.manager.fail_and_rebuild(1, toy_disk(self.sim, name="spare"))

    def in_flight(self) -> bool:
        stats = self.manager.stats
        return stats.stripes_rebuilt >= REBUILD_PAUSE_STRIPES and not self.done.triggered


def _rebuild_replay(organization: str, pause: bool):
    sim = Simulator()
    array = build_array(
        sim, BaselineAfraidPolicy(), ndisks=NDISKS[organization], organization=organization,
        disk_factory=toy_disk,
    )
    trace = make_trace(
        REBUILD_WORKLOAD["workload"], duration_s=REBUILD_WORKLOAD["duration_s"],
        seed=REBUILD_WORKLOAD["seed"], address_space_sectors=array.layout.total_data_sectors,
    )
    records = list(trace)
    rebuilder = _Rebuilder(sim, array)
    state = (sim, array, [], [])
    warm_extent_cache(array.layout, records)
    fed = _Feeder(sim, array, records, state[2], state[3]).start()
    if pause:
        while not (sim.now > REBUILD_PAUSE_S and rebuilder.in_flight()):
            sim.step()
        state, fed, rebuilder = pickle.loads(
            pickle.dumps((state, fed, rebuilder), protocol=PICKLE_PROTOCOL)
        )
        sim, array = state[0], state[1]
    sim.run_until_triggered(fed)
    outcome = close_replay(state, trace.duration_s, 0.0, finalize=True)
    assert not outcome.failures
    assert rebuilder.done.triggered and array.degraded_disk is None
    return replay_digest(ShardReplayResult.from_array(array, outcome)), rebuilder.done.value


@pytest.mark.parametrize("organization", ["raid5", "raid10"])
def test_paused_rebuild_pickles_and_resumes_to_the_same_digest(organization):
    digest, stats = _rebuild_replay(organization, pause=True)
    assert stats.stripes_rebuilt == 256
    assert (digest, stats) == _rebuild_replay(organization, pause=False)
