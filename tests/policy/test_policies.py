"""Tests for the parity-update policies (against a stub array view)."""

import pytest

from repro.availability import TABLE_1, raid5_mttdl_catastrophic
from repro.layout.organization import get_organization
from repro.policy import (
    AlwaysRaid5Policy,
    BaselineAfraidPolicy,
    DirtyStripeThresholdPolicy,
    EagerScrubPolicy,
    MttdlTargetPolicy,
    NeverScrubPolicy,
    WriteMode,
)


class StubArray:
    """A minimal ArrayView for policy unit tests."""

    organization = get_organization("raid5")
    obs = None

    def __init__(self, ndisks=5):
        self._ndisks = ndisks
        self.dirty = 0
        self.fraction = 0.0
        self.idle = True
        self.scrub_requests = []

    @property
    def now(self):
        return 0.0

    @property
    def ndisks(self):
        return self._ndisks

    @property
    def dirty_stripe_count(self):
        return self.dirty

    @property
    def is_idle(self):
        return self.idle

    def unprotected_fraction_so_far(self):
        return self.fraction

    def request_scrub(self, force=False):
        self.scrub_requests.append(force)


def attach(policy, **kwargs):
    array = StubArray(**kwargs)
    policy.attach(array)
    return array


class TestBaseline:
    def test_always_afraid_mode(self):
        policy = BaselineAfraidPolicy()
        attach(policy)
        assert policy.write_mode() is WriteMode.AFRAID
        assert policy.may_scrub_now()
        assert not policy.scrub_despite_load()


class TestRaid0Model:
    def test_never_scrubs(self):
        policy = NeverScrubPolicy()
        attach(policy)
        assert policy.write_mode() is WriteMode.AFRAID
        assert not policy.may_scrub_now()


class TestRaid5:
    def test_always_rmw(self):
        policy = AlwaysRaid5Policy()
        attach(policy)
        assert policy.write_mode() is WriteMode.RAID5


class TestThreshold:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirtyStripeThresholdPolicy(max_dirty_stripes=0)

    def test_forces_scrub_above_threshold(self):
        policy = DirtyStripeThresholdPolicy(max_dirty_stripes=20)
        array = attach(policy)
        array.dirty = 20
        policy.on_stripes_marked()
        assert array.scrub_requests == []  # at threshold: not yet
        array.dirty = 21
        policy.on_stripes_marked()
        assert array.scrub_requests == [True]
        assert policy.scrub_despite_load()

    def test_force_clears_when_debt_drains(self):
        policy = DirtyStripeThresholdPolicy(max_dirty_stripes=5)
        array = attach(policy)
        array.dirty = 6
        policy.on_stripes_marked()
        assert policy.scrub_despite_load()
        array.dirty = 2
        policy.on_stripes_marked()
        assert not policy.scrub_despite_load()


class TestMttdlTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MttdlTargetPolicy(target_h=0)

    def test_afraid_while_meeting_target(self):
        policy = MttdlTargetPolicy(target_h=1e7, params=TABLE_1)
        array = attach(policy)
        array.fraction = 0.0  # fully protected so far: infinite MTTDL
        assert policy.write_mode() is WriteMode.AFRAID
        assert array.scrub_requests == []

    def test_reverts_to_raid5_when_missing_target(self):
        # Target just below pure RAID 5: any exposure at all misses it.
        raid5 = raid5_mttdl_catastrophic(5, TABLE_1.mttf_disk_h, TABLE_1.mttr_h)
        policy = MttdlTargetPolicy(target_h=raid5 * 0.99, params=TABLE_1)
        array = attach(policy)
        array.fraction = 0.5
        assert policy.write_mode() is WriteMode.RAID5
        assert array.scrub_requests == [True]  # drains the parity debt too
        assert policy.scrub_despite_load()

    def test_achieved_mttdl_decreases_with_exposure(self):
        policy = MttdlTargetPolicy(target_h=1e6, params=TABLE_1)
        array = attach(policy)
        array.fraction = 0.01
        low_exposure = policy.achieved_mttdl_h()
        array.fraction = 0.5
        high_exposure = policy.achieved_mttdl_h()
        assert high_exposure < low_exposure

    def test_loose_target_tolerates_exposure(self):
        policy = MttdlTargetPolicy(target_h=1e5, params=TABLE_1)
        array = attach(policy)
        array.fraction = 0.9  # MTTDL ≈ 2e6/5/0.9 ≈ 4.4e5 > 1e5
        assert policy.write_mode() is WriteMode.AFRAID

    def test_describe_includes_target(self):
        assert MttdlTargetPolicy(target_h=2e6).describe() == "MTTDL_2e+06"


class TestEager:
    def test_scrubs_despite_load_and_requests_immediately(self):
        policy = EagerScrubPolicy()
        array = attach(policy)
        assert policy.scrub_despite_load()
        policy.on_stripes_marked()
        assert array.scrub_requests == [True]
