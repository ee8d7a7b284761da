"""The benchmark's workloads: cell grids built from a seed.

A *cell* is one trace × organization × policy replay of the first
``REQUESTS[workload]`` requests of one *replica* of that trace: each run
synthesises ``REPLICAS[workload]`` independent traces per catalog name,
seeded ``seed * SEED_STRIDE + replica``.  Fixing the request count rather
than the simulated duration, and averaging over replicas, keeps the work
per run steady from seed to seed: over a fixed window the bursty catalog
traces vary by half in request count, and whether the sharded harness
finds its quiescent cuts varies from trace to trace.  A *pass* runs every
cell of the workload once, one after another in this process (closed
loop on the host; inside each cell the replay is open loop in simulated
time, requests arriving at their trace timestamps).

* ``paper-mix`` and ``org-matrix`` call the bare ``replay_trace`` with no
  observers attached, building a fresh simulator and array per cell.
* ``sweep-checkpoint`` runs the grid through ``run_cells(jobs=1,
  checkpoint_dir=...)``: a cold pass into a fresh checkpoint store, then a
  warm pass over the same specs that hits the stored final results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time

import repro.traces
from repro.array.factory import build_array
from repro.harness.checkpoint import CheckpointStore
from repro.harness.replay import replay_trace
from repro.harness.runner import CellSpec, PolicySpec, code_fingerprint, run_cells
from repro.harness.sharding import ShardReplayResult, replay_digest
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator

POLICIES = {
    "raid0": NeverScrubPolicy,
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
}

#: Disk count per organization: the paper's 5-disk RAID 5, a 2-disk
#: mirror, 6 disks (three pairs) for the hybrids, 5 for declustered RAID 5.
NDISKS = {"raid5": 5, "raid5d": 5, "raid1": 2, "raid10": 6, "raid15": 6}

#: The trace the set-up warm-up replays (replica 0 only): the lightest.
WARMUP_TRACE = "cello-usr"

#: Replica ``k`` of a run with seed ``s`` synthesises its traces with
#: seed ``s * SEED_STRIDE + k``.
SEED_STRIDE = 100


@dataclasses.dataclass(frozen=True)
class Cell:
    trace: str
    organization: str
    policy: str
    replica: int = 0

    @property
    def label(self) -> str:
        return f"{self.trace}/{self.organization}/{self.policy}#{self.replica}"

    @property
    def source(self) -> tuple[str, str, int]:
        """What the cell's trace depends on: name, organization, replica."""
        return self.trace, self.organization, self.replica

    @property
    def warms_up(self) -> bool:
        return self.trace == WARMUP_TRACE and self.replica == 0


@dataclasses.dataclass
class CellRun:
    """One timed cell: host seconds, client requests, result digest."""

    label: str
    seconds: float
    requests: int
    digest: str | None
    error: str | None = None


@dataclasses.dataclass
class PassRun:
    """One pass.  ``warm`` is the checkpoint-hit pass (sweep only)."""

    cells: list[CellRun]
    warm: list[CellRun] = dataclasses.field(default_factory=list)
    checkpoint_bytes: int = 0

    @property
    def requests(self) -> int:
        return sum(cell.requests for cell in self.cells)


def _grid(traces, organizations, policies, replicas) -> tuple[Cell, ...]:
    """Every combination; replicas outermost so cell types interleave."""
    return tuple(
        Cell(trace, organization, policy, replica)
        for replica in range(replicas)
        for trace in traces
        for organization in organizations
        for policy in policies
    )


def _address_spaces(cells) -> dict[str, int]:
    """Data sectors of each organization's array (what traces must fit)."""
    spaces = {}
    for organization in sorted({cell.organization for cell in cells}):
        sim = Simulator()
        array = build_array(
            sim, BaselineAfraidPolicy(), ndisks=NDISKS[organization], organization=organization
        )
        spaces[organization] = array.layout.total_data_sectors
    return spaces


def _inputs(cells, seed: int, requests: int) -> dict:
    """``seeded_trace`` for every distinct source of ``cells``."""
    spaces = _address_spaces(cells)
    return {
        (trace, organization, replica): seeded_trace(
            trace, spaces[organization], replica_seed(seed, replica), requests
        )
        for trace, organization, replica in sorted({cell.source for cell in cells})
    }


def replica_seed(seed: int, replica: int) -> int:
    return seed * SEED_STRIDE + replica


def seeded_trace(name: str, space: int, seed: int, requests: int):
    """The first ``requests`` records of the seeded trace, as ``(duration, trace)``.

    A shorter trace is a prefix of a longer one with the same seed, so
    ``make_trace(name, duration_s=duration, ...)`` yields exactly the
    returned records: ``duration`` is the arrival time of the next record.
    """
    duration = 10.0
    while True:
        trace = repro.traces.make_trace(
            name, duration_s=duration, address_space_sectors=space, seed=seed
        )
        if len(trace.records) > requests:
            break
        duration *= 2
    cut = trace.records[requests].time_s
    return cut, repro.traces.make_trace(
        name, duration_s=cut, address_space_sectors=space, seed=seed
    )


class ReplayWorkload:
    """Bare ``replay_trace`` over a fixed cell grid."""

    def __init__(self, name: str, cells: tuple[Cell, ...], requests: int, seed: int) -> None:
        self.name = name
        self.cells = cells
        self.requests = requests
        self.seed = seed
        self.traces: dict[tuple[str, str, int], object] = {}

    def make_inputs(self) -> None:
        """Synthesise every (trace, organization, replica) input from the seed."""
        inputs = _inputs(self.cells, self.seed, self.requests)
        self.traces = {source: trace for source, (_duration, trace) in inputs.items()}

    def warm_up(self) -> None:
        """Replay each (organization, policy) pair once on the lightest trace."""
        for cell in self.cells:
            if cell.warms_up:
                self.run_cell(cell)

    def run_cell(self, cell: Cell) -> CellRun:
        trace = self.traces[cell.source]
        start = time.perf_counter()
        try:
            sim = Simulator()
            array = build_array(
                sim,
                POLICIES[cell.policy](),
                ndisks=NDISKS[cell.organization],
                organization=cell.organization,
            )
            outcome = replay_trace(sim, array, trace)
        except Exception as exc:  # a raising cell is counted, not fatal
            seconds = time.perf_counter() - start
            return CellRun(cell.label, seconds, 0, None, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        error = f"{len(outcome.failures)} request failures" if outcome.failures else None
        digest = replay_digest(ShardReplayResult.from_array(array, outcome))
        return CellRun(cell.label, seconds, len(trace.records), digest, error)

    def run_pass(self) -> PassRun:
        return PassRun(cells=[self.run_cell(cell) for cell in self.cells])

    def close(self) -> None:
        pass


def result_digest(result) -> str:
    """Stable hash of ``ExperimentResult.to_dict()``."""
    encoded = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


class SweepWorkload:
    """``run_cells`` with a checkpoint store: a cold pass, then a warm pass."""

    def __init__(self, cells: tuple[Cell, ...], requests: int, seed: int, workdir: str) -> None:
        self.name = "sweep-checkpoint"
        self.cells = cells
        self.requests = requests
        self.seed = seed
        self.workdir = workdir
        self.specs: dict[str, CellSpec] = {}

    def make_inputs(self) -> None:
        """One spec per cell, its duration set to hold ``requests`` records.

        The cells synthesise their traces themselves (inside
        ``run_experiment``); the code hash the store keys on is set up here.
        """
        inputs = _inputs(self.cells, self.seed, self.requests)
        self.specs = {
            cell.label: CellSpec(
                workload=cell.trace,
                policy=PolicySpec(cell.policy),
                duration_s=inputs[cell.source][0],
                seed=replica_seed(self.seed, cell.replica),
                ndisks=NDISKS[cell.organization],
                organization=cell.organization,
            )
            for cell in self.cells
        }
        code_fingerprint()

    def _run(self, cell: Cell, store: str) -> CellRun:
        spec = self.specs[cell.label]
        start = time.perf_counter()
        try:
            result = run_cells([spec], jobs=1, checkpoint_dir=store)[spec.key]
        except Exception as exc:  # run_experiment raises on request failures
            seconds = time.perf_counter() - start
            return CellRun(cell.label, seconds, 0, None, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        return CellRun(cell.label, seconds, result.nrequests, result_digest(result))

    def _cold_and_warm(self, cells) -> PassRun:
        store = os.path.join(self.workdir, "store")
        shutil.rmtree(store, ignore_errors=True)
        try:
            cold = [self._run(cell, store) for cell in cells]
            size = CheckpointStore(store).size_bytes()
            warm = [self._run(cell, store) for cell in cells]
        finally:
            shutil.rmtree(store, ignore_errors=True)
        for before, after in zip(cold, warm):
            if after.error is None and after.digest != before.digest:
                after.error = "warm digest differs from the cold pass"
        return PassRun(cells=cold, warm=warm, checkpoint_bytes=size)

    def warm_up(self) -> None:
        self._cold_and_warm([cell for cell in self.cells if cell.warms_up])

    def run_pass(self) -> PassRun:
        return self._cold_and_warm(self.cells)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


#: Client requests per cell, per workload.  Short cells make short passes,
#: so each cell is timed many times in a run and its best time is close to
#: its cost on an uncontended host.
REQUESTS = {"paper-mix": 150, "org-matrix": 400, "sweep-checkpoint": 150}

#: Independent traces per catalog name, per workload: enough that each
#: grid's p90 has at least ``run.MIN_TAIL`` cells beyond it.
REPLICAS = {"paper-mix": 12, "org-matrix": 7, "sweep-checkpoint": 8}

CELLS = {
    "paper-mix": _grid(
        ("cello-usr", "snake", "ATT"), ("raid5",), ("raid0", "afraid", "raid5"),
        REPLICAS["paper-mix"],
    ),
    "org-matrix": _grid(
        ("ATT", "cello-usr"), ("raid1", "raid10", "raid15", "raid5d"), ("afraid", "raid5"),
        REPLICAS["org-matrix"],
    ),
    "sweep-checkpoint": _grid(
        ("cello-usr", "snake", "ATT"), ("raid5", "raid10"), ("afraid", "raid5"),
        REPLICAS["sweep-checkpoint"],
    ),
}

NAMES = tuple(CELLS)


def build(name: str, seed: int, workdir: str):
    """The named workload with its inputs not yet made."""
    if name not in CELLS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name == "sweep-checkpoint":
        return SweepWorkload(CELLS[name], REQUESTS[name], seed, workdir)
    return ReplayWorkload(name, CELLS[name], REQUESTS[name], seed)


def config_fingerprint() -> str:
    """Hash of every grid, request count and replica seeding (keys the references)."""
    payload = {
        "seed_stride": SEED_STRIDE,
        **{name: [REQUESTS[name], [cell.label for cell in cells]] for name, cells in CELLS.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
