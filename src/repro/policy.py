"""Parity-update policies: the AFRAID availability/performance dial.

A policy decides, continuously:

* **write mode** — AFRAID (write data, defer parity) or RAID 5
  (read-modify-write in the critical path);
* **when the scrubber may run** — only in detected idle periods
  (baseline), regardless of load (eager / forced), or never (the paper's
  RAID 0 model);
* **forced scrubs** — e.g. the MTTDL_x policy's "start a parity update
  when more than 20 stripes are unprotected, even if the array is not
  idle" rule.

Policies see the array through the narrow :class:`ArrayView` protocol.
"""

from __future__ import annotations

import enum
import typing

from repro.availability import ReliabilityParams, organization_mttdl

if typing.TYPE_CHECKING:  # pragma: no cover - optional observability
    from repro.layout.organization import ArrayOrganization
    from repro.obs.observer import Observer


class WriteMode(enum.Enum):
    """How a client write maintains (or defers) parity."""

    AFRAID = "afraid"  # write data only; mark stripes dirty
    RAID5 = "raid5"  # full read-modify-write, parity stays fresh


class ArrayView(typing.Protocol):
    """What a policy may observe and request of its array."""

    @property
    def now(self) -> float: ...

    @property
    def ndisks(self) -> int: ...

    @property
    def organization(self) -> "ArrayOrganization": ...

    #: The array's observer, or None: where decision events go.
    obs: "Observer | None"

    @property
    def dirty_stripe_count(self) -> int: ...

    @property
    def is_idle(self) -> bool: ...

    def unprotected_fraction_so_far(self) -> float: ...

    def idle_fraction_so_far(self) -> float: ...

    def request_scrub(self, force: bool = False) -> None: ...


class ParityPolicy:
    """Base policy: pure AFRAID (the paper's baseline configuration).

    Data is written immediately, parity rebuilds happen only in detected
    idle periods, and nothing is ever forced.
    """

    name = "afraid"

    def __init__(self) -> None:
        self.array: ArrayView | None = None

    def attach(self, array: ArrayView) -> None:
        """Bind the policy to its array (called once by the controller)."""
        self.array = array

    # -- decision points ---------------------------------------------------------------

    def write_mode(self, stripes: typing.Sequence[int] = ()) -> WriteMode:
        """Mode for the client write about to be serviced.

        ``stripes`` are the stripes the write touches — most policies
        ignore them, but per-region policies (§5) dispatch on them.
        """
        return WriteMode.AFRAID

    def may_scrub_now(self) -> bool:
        """May the scrubber start/continue during a detected idle period?"""
        return True

    def should_scrub_stripe(self, stripe: int) -> bool:
        """Is ``stripe`` eligible for background parity rebuild?

        Per-region policies return False for RAID 0-flagged regions,
        whose stripes deliberately stay unredundant (§5).
        """
        return True

    def scrub_despite_load(self) -> bool:
        """May the scrubber run even when clients are active?"""
        return False

    def on_stripes_marked(self) -> None:
        """Called after a write marks stripes (dirty count may have grown)."""

    def describe(self) -> str:
        return self.name


class BaselineAfraidPolicy(ParityPolicy):
    """Alias for the base policy, for explicitness in experiment tables."""

    name = "afraid"


class NeverScrubPolicy(ParityPolicy):
    """The paper's RAID 0 model: an AFRAID that never updates parity.

    Using the same code path as AFRAID for the unprotected datapoint keeps
    performance comparisons exact (§4.1).
    """

    name = "raid0"

    def may_scrub_now(self) -> bool:
        return False


class AlwaysRaid5Policy(ParityPolicy):
    """Traditional RAID 5: every write pays the small-update penalty."""

    name = "raid5"

    def write_mode(self, stripes: typing.Sequence[int] = ()) -> WriteMode:
        return WriteMode.RAID5


#: The fixed policies by name: the one vocabulary of the CLI, sweep cells,
#: sharded replay and fault runs.  ``mttdl`` (:class:`MttdlTargetPolicy`)
#: is not listed because it also needs a target.
POLICIES: dict[str, type[ParityPolicy]] = {
    policy.name: policy for policy in (BaselineAfraidPolicy, AlwaysRaid5Policy, NeverScrubPolicy)
}


class DirtyStripeThresholdPolicy(ParityPolicy):
    """Bound MDLR by capping the number of unprotected stripes.

    When more than ``max_dirty_stripes`` are marked, a scrub is forced
    even if the array is busy.  The paper found 20 stripes "fairly
    effective and caused little performance degradation" (§4.1).
    """

    name = "threshold"

    def __init__(self, max_dirty_stripes: int = 20) -> None:
        super().__init__()
        if max_dirty_stripes < 1:
            raise ValueError(f"max_dirty_stripes must be >= 1, got {max_dirty_stripes}")
        self.max_dirty_stripes = max_dirty_stripes
        self._forcing = False

    def scrub_despite_load(self) -> bool:
        return self._forcing

    def on_stripes_marked(self) -> None:
        assert self.array is not None
        if self.array.dirty_stripe_count > self.max_dirty_stripes:
            if not self._forcing and self.array.obs is not None:
                self.array.obs.event(
                    "policy.force_scrub",
                    dirty=self.array.dirty_stripe_count, threshold=self.max_dirty_stripes,
                )
            self._forcing = True
            self.array.request_scrub(force=True)
        else:
            self._forcing = False

    def describe(self) -> str:
        return f"{self.name}({self.max_dirty_stripes})"


class MttdlTargetPolicy(DirtyStripeThresholdPolicy):
    """The paper's MTTDL_x policy (§4.1).

    Keeps the achieved disk-related MTTDL above ``target_h`` by
    continuously evaluating eq. (2c) — or, off RAID 5, its organization's
    model — on the unprotected-time fraction observed so far, and
    reverting to RAID 5 mode (plus kicking off parity updates for pending
    stripes) whenever the target is not being met.  It also bounds MDLR
    via the inherited >20-dirty-stripes forced scrub.
    """

    name = "mttdl"

    def __init__(
        self,
        target_h: float,
        params: ReliabilityParams | None = None,
        max_dirty_stripes: int = 20,
        safety_factor: float = 1.25,
    ) -> None:
        super().__init__(max_dirty_stripes=max_dirty_stripes)
        if target_h <= 0:
            raise ValueError(f"target MTTDL must be positive, got {target_h}")
        if safety_factor < 1.0:
            raise ValueError(f"safety factor must be >= 1, got {safety_factor}")
        self.target_h = target_h
        #: Revert to RAID 5 a little before the target is actually crossed,
        #: so scrub latency cannot drag the achieved value below it.  This
        #: is why the paper's simple implementation was "never more than 5%
        #: below its target, and usually far exceeded it" (§4.3).
        self.safety_factor = safety_factor
        self.params = params if params is not None else ReliabilityParams()
        self._raid5_mode = False  # last decision, for transition instants

    def achieved_mttdl_h(self) -> float:
        """Disk-related MTTDL achieved so far: eq. (2c), or its organization's model.

        The array's whole-run unprotected fraction goes through
        :func:`~repro.availability.organization_mttdl` for the array's
        organization — the formula and the snapshot the
        :class:`~repro.obs.ExposureMonitor` exports as ``achieved_mttdl_h``,
        so the policy decides the same with or without telemetry attached.
        """
        assert self.array is not None
        return organization_mttdl(
            self.array.organization.name,
            ndisks=self.array.ndisks,
            mttf_disk_h=self.params.mttf_disk_h,
            mttr_h=self.params.mttr_h,
            unprotected_fraction=self.array.unprotected_fraction_so_far(),
        )

    def meeting_target(self) -> bool:
        return self.achieved_mttdl_h() >= self.target_h * self.safety_factor

    def write_mode(self, stripes: typing.Sequence[int] = ()) -> WriteMode:
        if self.meeting_target():
            if self._raid5_mode:
                self._raid5_mode = False
                self._mode_switched("policy.resume_afraid")
            return WriteMode.AFRAID
        # Goal missed: revert to RAID 5 and drain the pending parity debt.
        assert self.array is not None
        if not self._raid5_mode:
            self._raid5_mode = True
            self._mode_switched("policy.revert_raid5", target_h=self.target_h)
        self.array.request_scrub(force=True)
        return WriteMode.RAID5

    def _mode_switched(self, name: str, **fields) -> None:
        obs = self.array.obs
        if obs is not None:
            obs.event(name, achieved_mttdl_h=self.achieved_mttdl_h(), **fields)

    def scrub_despite_load(self) -> bool:
        return self._forcing or not self.meeting_target()

    def describe(self) -> str:
        return f"MTTDL_{self.target_h:g}"


class EagerScrubPolicy(ParityPolicy):
    """Scrub whenever there is parity debt, idle or not.

    The most availability-aggressive refinement in §1.1: parity rebuilding
    gets priority over foreground I/Os.
    """

    name = "eager"

    def scrub_despite_load(self) -> bool:
        return True

    def on_stripes_marked(self) -> None:
        assert self.array is not None
        self.array.request_scrub(force=True)
