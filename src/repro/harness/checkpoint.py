"""The one on-disk result store: finished cells and replay checkpoints.

A :class:`CheckpointStore` directory holds two kinds of entry:

* **Cell entries** — ``<key>.json`` at the store root, one finished
  :class:`~repro.harness.experiment.ExperimentResult` each, in
  :func:`~repro.harness.experiment.result_to_payload` form.  The key is
  :func:`repro.harness.runner.cache_key`: the cell configuration, the
  payload schema and :func:`code_fingerprint`.  ``--cache-dir``, the
  service's cache-first admission and ``run_cell(spec,
  checkpoint_dir=...)`` all read them.  They are JSON, so loading one
  cannot run code.
* **Scope entries** — one subdirectory per *scope* (a keyed replay
  configuration) holding the quiescent cuts
  :mod:`repro.harness.sharding` pauses at (the full simulator + array
  state at the arrival of one trace record, before that record is
  submitted) and the final :class:`ShardReplayResult` of each complete
  replay, pickled.

A checkpointed cell is answered by the first rung that hits:

1. its cell entry — one keyed read, before any array is built or any
   trace synthesised;
2. the final of an identical complete replay — zero events simulated;
3. the deepest stored cut whose record prefix matches the trace — only
   the suffix is simulated (this is what a ``--duration`` extension
   pays);
4. a cold replay.

Scope keying follows the same fingerprint discipline as cell keys:

* the **scope** hashes the replay configuration — workload identity,
  policy, array geometry, reliability parameters — together with
  :func:`code_fingerprint` and :data:`STORE_SCHEMA`, so any change to the
  simulator's code invalidates every entry it wrote;
* each **cut entry** additionally records the index ``consumed`` of the
  record it is paused at and a digest of ``records[:consumed + 1]`` —
  the submitted records *and* the paused one, whose arrival the state's
  clock already reads — so a checkpoint is only ever resumed into a
  trace whose prefix is bit-identical to the one that produced it (the
  synthetic generators emit identical prefixes for longer durations,
  and the digest proves it);
* each **final entry** is additionally keyed on the full record count,
  the measurement-horizon inputs (duration, settle) and the finalize
  flag — everything that distinguishes one complete replay from another
  within a scope.

Every entry is written the same way: a temp file renamed into place,
best effort — a failed write (a full disk) removes its temp file and
leaves a miss, never failing the run that produced the result.  Every
entry is read under one rule: a corrupt entry (unparseable, wrong shape,
truncated) is deleted on sight and treated as a miss.  Scope entries are
a self-describing container — a magic line, a JSON header naming the
repro version and the pinned pickle protocol (:data:`PICKLE_PROTOCOL`),
then the raw payload pickle; an intact entry from a different build
raises :class:`CheckpointVersionError` naming both sides, so a stale
store can never silently corrupt a resume.  :meth:`CheckpointStore.
size_bytes`, :meth:`~CheckpointStore.listing` and
:meth:`~CheckpointStore.prune` see both kinds, oldest first by mtime.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import struct
import typing

from repro import __version__ as _REPRO_VERSION
from repro.harness.experiment import ExperimentResult, result_from_payload, result_to_payload

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.sharding import ShardReplayResult
    from repro.traces.records import TraceRecord

#: Bump when the scope-entry container format changes incompatibly.
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


def code_fingerprint(refresh: bool = False) -> str:
    """A hash of every ``repro`` source file, so code edits invalidate results.

    Computed once per process; ``refresh=True`` forces a rescan (tests).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None or refresh:
        package_root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


_FINGERPRINT: str | None = None


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


def _discard(path: str | os.PathLike) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _parse_scope_entry(path: str, blob: bytes) -> tuple[dict, bytes]:
    """Split a scope entry into header and payload.

    Raises ``ValueError`` (or ``KeyError``/``TypeError``) for a corrupt
    entry, and :class:`CheckpointVersionError` for an intact entry from a
    different repro build — silently resuming from that is exactly the
    failure mode the pinned header exists to prevent.
    """
    if not blob.startswith(_MAGIC):
        raise ValueError("bad magic")
    header_line, _, payload = blob[len(_MAGIC):].partition(b"\n")
    header = json.loads(header_line)
    declared = header["payload_bytes"]
    if header.get("version") != _REPRO_VERSION or header.get("protocol") != PICKLE_PROTOCOL:
        raise CheckpointVersionError(
            f"checkpoint {path} was written by repro "
            f"{header.get('version')!r} (pickle protocol {header.get('protocol')!r}) "
            f"but this is repro {_REPRO_VERSION!r} (pickle protocol "
            f"{PICKLE_PROTOCOL!r}); delete the store or point "
            f"--checkpoint-dir at a fresh directory"
        )
    if len(payload) != declared:
        raise ValueError("truncated payload")  # a crash mid-store
    return header, payload


class CheckpointScope:
    """One keyed replay configuration's slice of the store (a subdirectory)."""

    def __init__(self, store: "CheckpointStore", key: str) -> None:
        self.store = store
        self.key = key
        self.path = os.path.join(store.root, key)

    # -- entry I/O ---------------------------------------------------------------

    def _write(self, filename: str, header: dict, payload: bytes) -> None:
        header = dict(header, version=_REPRO_VERSION, protocol=PICKLE_PROTOCOL)
        blob = _MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        self.store._write(os.path.join(self.path, filename), blob)

    def _read(self, filename: str) -> tuple[dict, bytes] | None:
        """Header + payload, or ``None`` for missing/corrupt entries."""
        path = os.path.join(self.path, filename)
        return self.store._read(path, lambda blob: _parse_scope_entry(path, blob))

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
                _discard(os.path.join(self.path, name))
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
    """A directory of cell entries (``<key>.json``) and scope subdirectories."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- entry I/O: one write and one corrupt-entry rule for both kinds -----------

    def _write(self, path: str, blob: bytes) -> None:
        """Place ``blob`` at ``path`` atomically (temp file + rename), best effort."""
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            # A full disk must not fail the run that produced the entry:
            # the entry just stays a miss.
            _discard(tmp)

    def _read(self, path: str, parse: typing.Callable[[bytes], typing.Any]) -> typing.Any:
        """``parse(blob)`` of the entry at ``path``; ``None`` if missing or corrupt.

        A corrupt entry — ``parse`` raising ``ValueError``, ``KeyError``,
        ``TypeError`` or ``AttributeError`` — is deleted on sight, so the
        run that misses rewrites it.
        """
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            return parse(blob)
        except (ValueError, KeyError, TypeError, AttributeError):
            _discard(path)
            return None

    # -- cell entries ------------------------------------------------------------

    def _cell_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> ExperimentResult | None:
        """The finished cell stored under ``key``, or ``None``."""
        return self._read(
            self._cell_path(key), lambda blob: result_from_payload(json.loads(blob))
        )

    def store(self, key: str, result: ExperimentResult) -> None:
        """Store a finished cell under ``key`` (best effort)."""
        self._write(self._cell_path(key), json.dumps(result_to_payload(result)).encode())

    # -- scope entries -----------------------------------------------------------

    def scope(self, config: dict) -> CheckpointScope:
        """The scope for one keyed replay configuration.

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

    def _entries(self) -> list[tuple[float, int, pathlib.Path]]:
        """(mtime, size, path) of every cell and scope entry, oldest first."""
        found = []
        for path in [*self.root.glob("*.json"), *self.root.glob("*/*.ckpt")]:
            try:
                info = path.stat()
            except OSError:
                continue  # removed concurrently
            found.append((info.st_mtime, info.st_size, path))
        found.sort()
        return found

    def size_bytes(self) -> int:
        """Total bytes currently stored, cell and scope entries alike."""
        return sum(size for _, size, _ in self._entries())

    def listing(self) -> list[dict]:
        """One row per entry, oldest first — for store audits.

        ``kind`` is ``"cell"``, ``"cut"`` or ``"final"``; ``scope`` is
        ``None`` for cell entries.
        """
        rows = []
        for _, size, path in self._entries():
            cell = path.parent == self.root
            rows.append(
                {
                    "kind": "cell" if cell else path.name.split("-", 1)[0],
                    "scope": None if cell else path.parent.name,
                    "entry": path.name,
                    "bytes": size,
                }
            )
        return rows

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict the oldest entries (by mtime, across both kinds) until the
        store fits ``max_bytes``; scope directories left empty go too.

        Returns ``(entries_removed, bytes_freed)``.  Entries that vanish
        concurrently (another process pruning, or a store racing) are
        simply skipped — pruning is advisory, never load-bearing.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        for scope_dir in self.root.glob("*/"):
            try:
                scope_dir.rmdir()  # refuses a scope that still holds entries
            except OSError:
                continue
        return removed, freed
