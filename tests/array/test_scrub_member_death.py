"""The scrub's failure exits: the stripe stays marked, everyone moves on.

The scrub (§4.1) reads the slice of every data unit, then writes the
slice of the organization's redundancy.  A member that dies during
either step leaves the stripe unredundant: the mark stays set (the loss
accounting is based on it), the stripe's rebuild barrier is released, a
client write parked on that barrier completes through the degraded
protocol, and the scrubber stops (redundancy now comes back through the
rebuild manager, not the scrubber).  A latent sector error the scrub
cannot heal in three rewrites is not the scrubber's to catch: it
escapes the run loop.  No golden fixture reaches these exits, so these
tests pin them.
"""

import pytest

from repro.array import toy_array
from repro.array.request import ArrayRequest
from repro.disk import IoKind, LatentSectorError
from repro.sim import Simulator

NDISKS = {"raid5": 5, "raid10": 6}
#: Step budget: every scenario settles long before this many dispatches.
MAX_STEPS = 10_000


def _step_until(sim: Simulator, condition) -> None:
    for _ in range(MAX_STEPS):
        if condition():
            return
        sim.step()
    raise AssertionError("condition never held")


def _victim(array, stripe: int, phase: str) -> int:
    """The member whose command is in flight when it dies."""
    layout = array.layout
    if phase == "reads":
        return layout.data_units(stripe)[0].disk
    if array.organization.has_parity:
        return layout.parity_unit(stripe).disk
    return layout.mirror_unit(stripe, 0).disk


@pytest.mark.parametrize("phase", ["reads", "write"])
@pytest.mark.parametrize("organization", sorted(NDISKS))
def test_member_dies_under_the_scrub(organization, phase):
    sim = Simulator()
    array = toy_array(
        sim, ndisks=NDISKS[organization], organization=organization,
        idle_threshold_s=0.01, with_functional=False,
    )
    sim.run_until_triggered(array.submit(ArrayRequest(IoKind.WRITE, 0, 4)))
    stripe = 0
    assert array.marks.is_marked(stripe)
    _step_until(sim, lambda: stripe in array._rebuilding)
    barrier = array._rebuilding[stripe]

    # A client write to the same stripe parks on the scrub's barrier.
    parked = array.submit(ArrayRequest(IoKind.WRITE, 4, 4))
    _step_until(sim, lambda: len(barrier.callbacks) == 1)

    victim = _victim(array, stripe, phase)
    if phase == "write":
        driver = array.drivers[victim]
        issued = driver.stats.submitted
        _step_until(sim, lambda: driver.stats.submitted > issued)
        assert stripe in array._rebuilding  # the redundancy write is in flight
    array.disks[victim].fail()
    array.enter_degraded(victim)

    _step_until(sim, lambda: stripe not in array._rebuilding)
    assert array.marks.is_marked(stripe)
    assert not array._scrub_running
    assert not parked.triggered

    sim.run_until_triggered(parked)
    assert parked.ok
    sim.run()
    assert not array._rebuilding
    assert not array._scrub_running
    assert array.stats.stripes_scrubbed == 0
    assert array.slots.in_use == 0
    assert array.staging.in_use == 0


class _Unhealable(set):
    def discard(self, lba) -> None:
        pass


@pytest.mark.parametrize("organization", sorted(NDISKS))
def test_an_unhealable_latent_error_escapes_the_run_loop(organization):
    sim = Simulator()
    array = toy_array(
        sim, ndisks=NDISKS[organization], organization=organization,
        idle_threshold_s=0.01, with_functional=False,
    )
    sim.run_until_triggered(array.submit(ArrayRequest(IoKind.WRITE, 0, 4)))
    stripe = 0
    unit = array.layout.data_units(stripe)[0]
    # A sector no rewrite heals: every retry reads it bad again.
    array.disks[unit.disk]._latent_errors = _Unhealable({unit.disk_lba})
    with pytest.raises(LatentSectorError):
        sim.run()
    assert array.marks.is_marked(stripe)
    assert not array._rebuilding
    assert not array._scrub_running
    assert array.stats.scrub_data_reads == 4 * array.layout.data_units_per_stripe
