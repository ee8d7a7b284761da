"""Committed reference digests, and the per-checkout record of earlier runs.

``reference.json`` holds, for every seed in ``SEEDS`` and every workload,
the result digest of each cell in grid order, each cut to
``DIGEST_CHARS`` hex digits and concatenated into one string:
``replay_digest`` for the replay workloads and a hash of
``ExperimentResult.to_dict()`` for sweep cells.  It is keyed by
:func:`workloads.config_fingerprint`, so changing a grid or a request
count without regenerating it fails loudly.

Regenerate after changing a workload (a few minutes)::

    python3 perfbench/reference.py

The per-checkout record (``.perfbench-out/seen-*.json``) keeps the digests
and exact per-layer counts of the first run of each (workload, seed) in a
checkout, so later runs of the same code can be held to them.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Seeds with committed digests.
SEEDS = range(32)

#: Digests are stored truncated to this many hex digits.
DIGEST_CHARS = 8


def load(workload: str, seed: int, fingerprint: str) -> list[str] | None:
    """Committed digests for ``workload`` at ``seed``, or ``None`` if absent.

    Raises ``ValueError`` when the file was made for another configuration.
    """
    try:
        data = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    if data.get("config") != fingerprint:
        raise ValueError(
            f"{REFERENCE_PATH.name} was generated for workload configuration "
            f"{data.get('config')!r}, not {fingerprint!r}; regenerate it"
        )
    joined = data["seeds"].get(str(seed), {}).get(workload)
    if joined is None:
        return None
    return [joined[i:i + DIGEST_CHARS] for i in range(0, len(joined), DIGEST_CHARS)]


def check_seen(path: pathlib.Path, section: str, values: dict) -> list[str]:
    """Compare ``values`` with the record at ``path``; record them if new.

    Returns one message per key whose value differs from the record.
    """
    try:
        record = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        record = {}
    seen = record.get(section)
    if seen is None:
        record[section] = values
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        tmp.replace(path)
        return []
    return [
        f"{key}: {values.get(key)!r} here, {seen.get(key)!r} in an earlier run"
        for key in sorted(set(seen) | set(values))
        if seen.get(key) != values.get(key)
    ]


def generate() -> dict:
    import workloads

    scratch = HERE.parent / ".perfbench-out" / "reference-work"
    out: dict = {"config": workloads.config_fingerprint(), "seeds": {}}
    for seed in SEEDS:
        row = {}
        for name in workloads.NAMES:
            workload = workloads.build(name, seed, str(scratch))
            try:
                workload.make_inputs()
                run = workload.run_pass()
            finally:
                workload.close()
            failed = [cell for cell in run.cells + run.warm if cell.error]
            if failed:
                raise RuntimeError(f"seed {seed} {name}: {failed[0].label}: {failed[0].error}")
            row[name] = "".join(cell.digest[:DIGEST_CHARS] for cell in run.cells)
        out["seeds"][str(seed)] = row
        print(f"seed {seed} done", flush=True)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    REFERENCE_PATH.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
