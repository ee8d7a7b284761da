"""repro — a reproduction of AFRAID (Savage & Wilkes, USENIX 1996).

AFRAID — *A Frequently Redundant Array of Independent Disks* — is a RAID 5
variant that applies data updates immediately but defers parity updates to
idle periods, trading a small, bounded loss of availability for close to
RAID 0 performance on small writes.

The package layers, bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.disk` — calibrated mechanical disk models (HP C3325-like);
* :mod:`repro.sched` — C-LOOK / FCFS / SSTF / LOOK schedulers and drivers;
* :mod:`repro.layout` — left-symmetric RAID 5 (plus RAID 0/6) layouts;
* :mod:`repro.blocks` — byte-accurate functional array (real xor parity);
* :mod:`repro.nvram`, :mod:`repro.idle`, :mod:`repro.policy` — marking
  memory, idle detection, and the parity-update policies (baseline AFRAID,
  MTTDL_x, thresholds, RAID 5, RAID 0);
* :mod:`repro.array` — the array controller tying it all together;
* :mod:`repro.traces` — synthetic stand-ins for the paper's traces;
* :mod:`repro.availability` — Section 3's MTTDL/MDLR analytics;
* :mod:`repro.faults`, :mod:`repro.metrics`, :mod:`repro.harness` —
  fault injection, statistics, and the experiment harness;
* :mod:`repro.ext` — extensions from the paper's §2/§5 (parity logging,
  AFRAID-on-RAID 6, sub-stripe marks).

Quick start::

    from repro.sim import Simulator
    from repro.array import paper_array, ArrayRequest
    from repro.disk import IoKind

    sim = Simulator()
    array = paper_array(sim)                       # 5 x HP C3325, AFRAID
    done = array.submit(ArrayRequest(IoKind.WRITE, 0, 16))
    sim.run_until_triggered(done)                  # 1 disk I/O, not 4
"""

# Defined before the imports below: the result store, imported with
# ``repro.harness``, stamps it into every checkpoint header.
__version__ = "1.0.0"

from repro.array import ArrayRequest, DiskArray, paper_array, toy_array
from repro.availability import TABLE_1, ReliabilityParams
from repro.disk import IoKind
from repro.harness import run_experiment
from repro.policy import (
    AlwaysRaid5Policy,
    BaselineAfraidPolicy,
    DirtyStripeThresholdPolicy,
    EagerScrubPolicy,
    MttdlTargetPolicy,
    NeverScrubPolicy,
)
from repro.sim import Simulator
from repro.traces import make_trace, workload_names

__all__ = [
    "AlwaysRaid5Policy",
    "ArrayRequest",
    "BaselineAfraidPolicy",
    "DirtyStripeThresholdPolicy",
    "DiskArray",
    "EagerScrubPolicy",
    "IoKind",
    "MttdlTargetPolicy",
    "NeverScrubPolicy",
    "ReliabilityParams",
    "Simulator",
    "TABLE_1",
    "make_trace",
    "paper_array",
    "run_experiment",
    "toy_array",
    "workload_names",
    "__version__",
]
