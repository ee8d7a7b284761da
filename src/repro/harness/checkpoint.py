"""Content-addressed on-disk store for replay checkpoints.

A checkpoint is one of the quiescent cuts :mod:`repro.harness.sharding`
pauses at — the full simulator + array state at the arrival of one
trace record, before that record is submitted — pickled and persisted so
a later replay of the same cell can resume from the longest matching
trace prefix instead of re-simulating from ``t=0``.  The final shard's
:class:`ShardReplayResult` is stored too, as the last rung of the prefix
ladder: a byte-identical re-run pays only the store lookup, a
``--duration`` extension resumes from the deepest cut inside the new
trace, and everything else falls back to a cold replay.

Keying follows the same fingerprint discipline as
:class:`repro.harness.runner.ResultCache`:

* the **scope** (one directory per keyed configuration) hashes the cell
  configuration — workload identity, policy, array geometry,
  reliability parameters — together with :func:`code_fingerprint` and a
  schema number, so any change to the simulator's code invalidates every
  checkpoint it wrote;
* each **cut entry** additionally records the index ``consumed`` of the
  record it is paused at and a digest of ``records[:consumed + 1]`` —
  the submitted records *and* the paused one, whose arrival the state's
  clock already reads — so a checkpoint is only ever resumed into a
  trace whose prefix is bit-identical to the one that produced it (this
  is what makes ``--duration`` extension safe: the synthetic generators
  emit identical prefixes for longer durations, and the digest proves
  it);
* each **final entry** is additionally keyed on the full record count,
  the measurement-horizon inputs (duration, settle) and the finalize
  flag — everything that distinguishes one complete replay from another
  within a scope.

Entries are written atomically (tmp + rename) in a self-describing
container: a magic line, a JSON header, then the raw payload pickle.
The header names the repro version and the pinned pickle protocol
(:data:`PICKLE_PROTOCOL`); a mismatch on either
raises :class:`CheckpointVersionError` naming both sides, so a stale
store can never silently corrupt a resume.  A *corrupted* entry
(truncated payload, garbage header) is quietly deleted and treated as a
miss — the replay falls back to cold and rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import typing

from repro import __version__ as _REPRO_VERSION
from repro.harness.runner import code_fingerprint

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.sharding import ShardReplayResult
    from repro.traces.records import TraceRecord

#: Bump when the entry container format changes incompatibly.
STORE_SCHEMA = 2

#: Pickle protocol of every checkpoint payload.  Pinned explicitly (not
#: ``HIGHEST_PROTOCOL``) so payloads written by one Python version are
#: readable by another, and so the store can name the exact protocol it
#: expects when rejecting entries from a different repro build.
PICKLE_PROTOCOL = 5

_MAGIC = b"afraid-checkpoint/1\n"


class CheckpointError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by a different repro version or pickle
    protocol than this process uses; resuming from it is refused."""


def records_digest(records: typing.Sequence["TraceRecord"], upto: int) -> str:
    """Order-sensitive fingerprint of ``records[:upto]``.

    Packs the exact doubles and integers of each record, so two prefixes
    digest equal iff the replay would see bit-identical arrivals.
    """
    digest = hashlib.sha256()
    pack = struct.pack
    for record in records[:upto]:
        digest.update(
            pack(
                "<dqqBB",
                record.time_s,
                record.offset_sectors,
                record.nsectors,
                1 if record.is_write else 0,
                1 if record.sync else 0,
            )
        )
    return digest.hexdigest()


def _prefix_digests(
    records: typing.Sequence["TraceRecord"], marks: typing.Iterable[int]
) -> dict[int, str]:
    """``{upto: digest}`` for every ``upto`` in ``marks``, in one scan."""
    wanted = sorted(set(marks))
    out: dict[int, str] = {}
    digest = hashlib.sha256()
    pack = struct.pack
    position = 0
    for upto in wanted:
        for record in records[position:upto]:
            digest.update(
                pack(
                    "<dqqBB",
                    record.time_s,
                    record.offset_sectors,
                    record.nsectors,
                    1 if record.is_write else 0,
                    1 if record.sync else 0,
                )
            )
        position = upto
        out[upto] = digest.copy().hexdigest()
    return out


class CheckpointScope:
    """One keyed configuration's slice of the store (a subdirectory)."""

    def __init__(self, store: "CheckpointStore", key: str) -> None:
        self.store = store
        self.key = key
        self.path = os.path.join(store.root, key)

    # -- entry I/O ---------------------------------------------------------------

    def _write(self, filename: str, header: dict, payload: bytes) -> None:
        os.makedirs(self.path, exist_ok=True)
        header = dict(header)
        header["version"] = _REPRO_VERSION
        header["protocol"] = PICKLE_PROTOCOL
        path = os.path.join(self.path, filename)
        tmp = f"{path}.tmp.{os.getpid()}"
        blob = _MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            # Best-effort store: a full disk must not fail the replay.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _read(self, filename: str) -> tuple[dict, bytes] | None:
        """Header + payload, or ``None`` for missing/corrupt entries.

        Corrupt entries are deleted on sight.  A version or protocol
        mismatch raises :class:`CheckpointVersionError` instead — the
        entry is intact, it just belongs to a different repro build, and
        silently resuming from it is exactly the failure mode the pinned
        header exists to prevent.
        """
        path = os.path.join(self.path, filename)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            rest = blob[len(_MAGIC):]
            header_line, _, payload = rest.partition(b"\n")
            header = json.loads(header_line)
            declared = header["payload_bytes"]
        except (ValueError, KeyError):
            self._discard(path)
            return None
        if header.get("version") != _REPRO_VERSION or header.get("protocol") != PICKLE_PROTOCOL:
            raise CheckpointVersionError(
                f"checkpoint {path} was written by repro "
                f"{header.get('version')!r} (pickle protocol {header.get('protocol')!r}) "
                f"but this is repro {_REPRO_VERSION!r} (pickle protocol "
                f"{PICKLE_PROTOCOL!r}); delete the store or point "
                f"--checkpoint-dir at a fresh directory"
            )
        if len(payload) != declared:
            # Truncated write (crash mid-store): recover by discarding.
            self._discard(path)
            return None
        return header, payload

    def _discard(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- cuts --------------------------------------------------------------------

    def store_cut(
        self, records: typing.Sequence["TraceRecord"], consumed: int, state: tuple
    ) -> None:
        """Persist ``state``, paused at the arrival of record ``consumed``."""
        payload = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
        self._write(
            f"cut-{consumed:08d}.ckpt",
            {
                "kind": "cut",
                "consumed": consumed,
                "prefix_sha": records_digest(records, consumed + 1),
                "cut_time_s": state[0].now,
                "payload_bytes": len(payload),
            },
            payload,
        )

    def lookup_cut(self, records: typing.Sequence["TraceRecord"]) -> tuple[int, tuple] | None:
        """``(consumed, state)`` of the deepest stored cut matching ``records``."""
        try:
            names = sorted(
                name for name in os.listdir(self.path)
                if name.startswith("cut-") and name.endswith(".ckpt")
            )
        except OSError:
            return None
        candidates: list[tuple[int, str]] = []
        for name in names:
            try:
                consumed = int(name[4:-5])
            except ValueError:
                continue
            # A cut is paused at the arrival of record ``consumed``: this
            # trace must have that record.
            if 0 < consumed < len(records):
                candidates.append((consumed, name))
        if not candidates:
            return None
        digests = _prefix_digests(records, (consumed + 1 for consumed, _ in candidates))
        for consumed, name in sorted(candidates, reverse=True):
            entry = self._read(name)
            if entry is None:
                continue
            header, payload = entry
            if header.get("kind") != "cut" or header.get("consumed") != consumed:
                self._discard(os.path.join(self.path, name))
                continue
            if header.get("prefix_sha") != digests[consumed + 1]:
                continue  # same scope, different trace content — not ours
            return consumed, pickle.loads(payload)
        return None

    # -- final results -----------------------------------------------------------

    def _final_name(
        self, nrecords: int, duration_s: float, extra_settle_s: float, finalize: bool
    ) -> str:
        tag = hashlib.sha256(
            json.dumps(
                {
                    "nrecords": nrecords,
                    "duration_s": duration_s,
                    "extra_settle_s": extra_settle_s,
                    "finalize": finalize,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()[:16]
        return f"final-{tag}.ckpt"

    def store_final(
        self,
        records: typing.Sequence["TraceRecord"],
        duration_s: float,
        extra_settle_s: float,
        finalize: bool,
        result: "ShardReplayResult",
    ) -> None:
        """Persist a complete replay's ``ShardReplayResult``."""
        result_payload = pickle.dumps(result, protocol=PICKLE_PROTOCOL)
        self._write(
            self._final_name(len(records), duration_s, extra_settle_s, finalize),
            {
                "kind": "final",
                "consumed": len(records),
                "prefix_sha": records_digest(records, len(records)),
                "payload_bytes": len(result_payload),
            },
            result_payload,
        )

    def lookup_final(
        self,
        records: typing.Sequence["TraceRecord"],
        duration_s: float,
        extra_settle_s: float,
        finalize: bool,
    ) -> "ShardReplayResult | None":
        """The result of an identical complete replay, if stored."""
        entry = self._read(self._final_name(len(records), duration_s, extra_settle_s, finalize))
        if entry is None:
            return None
        header, payload = entry
        if header.get("kind") != "final" or header.get("consumed") != len(records):
            return None
        if header.get("prefix_sha") != records_digest(records, len(records)):
            return None
        return pickle.loads(payload)


class CheckpointStore:
    """Directory of replay checkpoints, one subdirectory per scope key."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def scope(self, config: dict) -> CheckpointScope:
        """The scope for one keyed configuration.

        ``config`` must be a JSON-serialisable description of everything
        (other than the trace records themselves) that determines the
        replay's evolution — policy, array geometry, reliability
        parameters.  The code fingerprint and schema are mixed in here,
        exactly as :func:`repro.harness.runner.cache_key` does for cells.
        """
        key = hashlib.sha256(
            json.dumps(
                {
                    "schema": STORE_SCHEMA,
                    "code": code_fingerprint(),
                    "config": config,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()[:24]
        return CheckpointScope(self, key)

    # -- maintenance -------------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every entry file, oldest first."""
        found: list[tuple[float, int, str]] = []
        try:
            scopes = os.listdir(self.root)
        except OSError:
            return found
        for scope in scopes:
            scope_dir = os.path.join(self.root, scope)
            try:
                names = os.listdir(scope_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".ckpt"):
                    continue
                path = os.path.join(scope_dir, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                found.append((info.st_mtime, info.st_size, path))
        found.sort()
        return found

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(size for _, size, _ in self._entries())

    def listing(self) -> list[dict]:
        """One row per entry (scope, name, bytes) — for store audits."""
        return [
            {
                "scope": os.path.basename(os.path.dirname(path)),
                "entry": os.path.basename(path),
                "bytes": size,
            }
            for _, size, path in self._entries()
        ]

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Delete oldest entries until the store fits ``max_bytes``.

        Returns ``(entries_removed, bytes_freed)`` — the same contract as
        ``ResultCache.prune``.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        # Drop scope directories emptied by the sweep (best-effort).
        for scope in os.listdir(self.root):
            scope_dir = os.path.join(self.root, scope)
            try:
                if os.path.isdir(scope_dir) and not os.listdir(scope_dir):
                    os.rmdir(scope_dir)
            except OSError:
                continue
        return removed, freed
