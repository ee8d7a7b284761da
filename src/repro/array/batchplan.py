"""Batch planning of stripe mappings and NVRAM mark decisions.

When the host driver holds a run of queued requests, the geometry work the
controller would do one request at a time — splitting each extent into
per-disk runs, grouping the runs by stripe, and deciding which
``(stripe, sub_unit)`` NVRAM marks an AFRAID write must set — is a pure
function of the layout and the request alone.  This module computes it for
the whole backlog at once as numpy array ops and attaches the result to
each request as a :class:`RequestPlan`; the service machine then consumes
the plan instead of re-deriving the same tables per request.

Only *non-interacting* batches are planned: requests whose stripe intervals
overlap another batch member's are left unplanned (two writes racing for
one stripe mark, or a read behind a write to the same stripe, keep the
exact scalar path), and no planning happens at all while a member disk is
failed or a parity rebuild is in flight.  Plans carry only geometry — the
actual mark flips, policy mode choice, and rebuild barriers stay dynamic at
service time — so a plan is *always* exact: the guards bound when batching
is worthwhile, not when it is correct.

numpy is optional here, matching :mod:`repro.disk.vector`: without it (or
for tiny batches, where array-op constant cost exceeds the win) the planner
falls back to the layout's scalar ``map_extent``.
"""

from __future__ import annotations

import dataclasses
import typing

try:  # pragma: no cover - the toolchain bakes numpy in
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.layout.base import ExtentRun
from repro.layout.raid5 import Raid5Layout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import DiskArray
    from repro.array.request import ArrayRequest

#: Minimum number of cache-missing extents before the vectorised mapper
#: pays for its call overhead; below this the scalar walk is faster.
#: Calibrated against whole-trace replay: with the per-request scalar
#: path as lean as it now is, small batches lose to it even when every
#: extent misses the cache, so only genuinely deep cold bursts plan.
MIN_VECTOR_EXTENTS = 16


@dataclasses.dataclass(frozen=True, slots=True)
class RequestPlan:
    """Precomputed geometry for one client request.

    ``runs`` matches ``layout.map_extent(offset, nsectors)`` element for
    element; ``by_stripe`` is the same grouping ``_group_runs`` produces
    (stripes in first-appearance order, runs in logical order within each);
    ``mark_targets`` is the exact ``(stripe, sub_unit)`` sequence the
    scalar AFRAID mark loops would feed to ``MarkMemory.mark`` (empty for
    reads).
    """

    runs: tuple[ExtentRun, ...]
    by_stripe: tuple[tuple[int, tuple[ExtentRun, ...]], ...]
    stripes: tuple[int, ...]
    mark_targets: tuple[tuple[int, int], ...]


def warm_extent_cache(layout, records) -> int:
    """Vector-map every distinct extent of ``records`` into the layout cache.

    Trace replay knows the whole arrival schedule before the clock starts,
    so the geometry of every request can be batch-computed up front: one
    vectorised sweep fills the extent cache and the per-request scalar
    ``map_extent`` becomes a dict probe for the rest of the run.  This is
    purely a cache warm — mapping is memoised, never observed — so it is
    exact for any workload.  Skipped for every layout but RAID 5 (the
    vector fill hard-codes its phase, ``stripe % ndisks``, and its unit
    start, ``stripe * stripe_unit_sectors``), when numpy is absent, or
    when the distinct extents would overflow the cache (warming would
    churn the FIFO).

    Returns the number of extents filled.
    """
    if type(layout) is not Raid5Layout or _np is None:
        return 0
    cache = layout._extent_cache
    limit = layout.total_data_sectors
    seen: set[tuple[int, int]] = set()
    missing: list[tuple[int, int]] = []
    for record in records:
        key = (record.offset_sectors, record.nsectors)
        if key in cache or key in seen:
            continue
        # Out-of-range extents are rejected at submit time with the exact
        # scalar error; do not let the (validation-free) vector fill see
        # them.
        if key[0] < 0 or key[0] + key[1] > limit or key[1] < 1:
            continue
        seen.add(key)
        missing.append(key)
    if not missing or len(cache) + len(missing) > layout._EXTENT_CACHE_MAX:
        return 0
    _fill_extent_cache(layout, missing)
    return len(missing)


def plan_host_batch(array: "DiskArray", head: "ArrayRequest") -> None:
    """Plan ``head`` plus the queued backlog behind it, where eligible.

    Called by the host pump when it pops ``head`` with more requests still
    queued.  Attaches a :class:`RequestPlan` to every non-interacting
    member (``request.plan``); interacting members are skipped and take
    the scalar path unchanged.
    """
    array._plan_dirty = 0
    pending = getattr(array._host_queue, "pending", None)
    if pending is None:
        return  # an ablation scheduler without the accessor: scalar path
    batch = [head]
    for request, _done in pending():
        if request.plan is None:
            batch.append(request)
    if len(batch) < 2:
        return
    # Profitability gate: the array ops only pay when the vectorised
    # extent fill will amortise over enough cache-missing extents.  With
    # a hot extent cache the scalar path is cheaper than building and
    # attaching plans, and skipping is always exact — a plan is an
    # optional precomputation of the identical geometry.
    if _np is None:
        return
    cache = array.layout._extent_cache
    missing = 0
    for request in batch:
        if (request.offset_sectors, request.nsectors) not in cache:
            missing += 1
            if missing >= MIN_VECTOR_EXTENTS:
                break
    if missing < MIN_VECTOR_EXTENTS:
        return
    sds = array.layout.stripe_data_sectors
    intervals = sorted(
        (
            (request.offset_sectors // sds,
             (request.offset_sectors + request.nsectors - 1) // sds,
             index)
            for index, request in enumerate(batch)
        ),
    )
    eligible = [True] * len(batch)
    for position in range(len(intervals) - 1):
        # Sorted by first stripe, any overlap shows up between neighbours.
        if intervals[position][1] >= intervals[position + 1][0]:
            eligible[intervals[position][2]] = False
            eligible[intervals[position + 1][2]] = False
    planned = [request for index, request in enumerate(batch) if eligible[index]]
    if planned:
        attach_plans(array, planned)


def attach_plans(array: "DiskArray", requests: "list[ArrayRequest]") -> None:
    """Compute and attach a :class:`RequestPlan` to each request."""
    layout = array.layout
    cache = layout._extent_cache
    missing: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for request in requests:
        key = (request.offset_sectors, request.nsectors)
        if key not in cache and key not in seen:
            seen.add(key)
            missing.append(key)
    if missing:
        _fill_extent_cache(layout, missing)
    bits = array.marks.bits_per_stripe
    for request in requests:
        runs = cache.get((request.offset_sectors, request.nsectors))
        if runs is None:  # cache evicted under us: scalar walk (re-caches)
            runs = layout.map_extent(request.offset_sectors, request.nsectors)
        request.plan = _build_plan(array, request, runs, bits)


def _build_plan(
    array: "DiskArray", request: "ArrayRequest", runs: tuple[ExtentRun, ...], bits: int
) -> RequestPlan:
    # Runs walk logical space forward, so stripes are non-decreasing:
    # grouping preserves both the dict insertion order of _group_runs and
    # the flattened run order of the scalar submit loops.
    by_stripe: list[tuple[int, tuple[ExtentRun, ...]]] = []
    group_start = 0
    for index in range(1, len(runs) + 1):
        if index == len(runs) or runs[index].stripe != runs[group_start].stripe:
            by_stripe.append((runs[group_start].stripe, runs[group_start:index]))
            group_start = index
    if request.is_write:
        if bits == 1:
            mark_targets = tuple((run.stripe, 0) for run in runs)
        else:
            mark_targets = tuple(
                (run.stripe, sub_unit)
                for run in runs
                for sub_unit in array._sub_units_of(run)
            )
    else:
        mark_targets = ()
    return RequestPlan(
        runs=runs,
        by_stripe=tuple(by_stripe),
        stripes=tuple(stripe for stripe, _runs in by_stripe),
        mark_targets=mark_targets,
    )


def _disk_table(layout):
    """(phase, unit_index) → disk, as one numpy gather table."""
    table = layout.__dict__.get("_batchplan_disk_table")
    if table is None:
        table = _np.array(layout._data_disks_by_phase, dtype=_np.int64)
        layout.__dict__["_batchplan_disk_table"] = table
    return table


def _fill_extent_cache(layout, keys: list[tuple[int, int]]) -> None:
    """Map every extent in ``keys`` and store the runs in the layout cache.

    The vectorised mapper produces runs identical to ``map_extent`` —
    the golden-replay gate holds it to that — and inserts them with the
    same FIFO eviction discipline, so scalar and batched callers share
    one cache.
    """
    if _np is None or len(keys) < MIN_VECTOR_EXTENTS:
        for offset, nsectors in keys:
            layout.map_extent(offset, nsectors)
        return
    unit = layout.stripe_unit_sectors
    dpu = layout.data_units_per_stripe
    offsets = _np.array([key[0] for key in keys], dtype=_np.int64)
    lengths = _np.array([key[1] for key in keys], dtype=_np.int64)
    first_unit = offsets // unit
    counts = (offsets + lengths - 1) // unit - first_unit + 1
    total = int(counts.sum())
    bounds = _np.cumsum(counts)
    starts = bounds - counts
    # Global data-unit index of every run of every extent, then the run
    # boundaries clipped to each extent — the whole divmod walk at once.
    gunit = _np.repeat(first_unit - starts, counts) + _np.arange(total)
    run_start = _np.maximum(_np.repeat(offsets, counts), gunit * unit)
    run_end = _np.minimum(_np.repeat(offsets + lengths, counts), (gunit + 1) * unit)
    stripe = gunit // dpu
    unit_index = gunit - stripe * dpu
    disk = _disk_table(layout)[stripe % layout.ndisks, unit_index]
    disk_lba = stripe * unit + (run_start - gunit * unit)
    # One positional constructor sweep over the column lists, then slice
    # per extent — cheaper than rebuilding each run field-by-field.
    all_runs = list(
        map(
            ExtentRun,
            stripe.tolist(),
            unit_index.tolist(),
            disk.tolist(),
            disk_lba.tolist(),
            (run_end - run_start).tolist(),
            run_start.tolist(),
        )
    )
    cache = layout._extent_cache
    cache_max = layout._EXTENT_CACHE_MAX
    start = 0
    for key, count in zip(keys, counts.tolist()):
        end = start + count
        runs = tuple(all_runs[start:end])
        start = end
        if len(cache) >= cache_max:
            del cache[next(iter(cache))]
        cache[key] = runs
