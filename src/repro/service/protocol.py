"""The serve daemon's wire vocabulary: job payloads in, views + events out.

A job submission is JSON speaking the exact same cell/policy vocabulary
as :class:`~repro.harness.runner.CellSpec` / ``PolicySpec`` — the specs
a client submits over HTTP are the specs ``afraid-sim sweep`` builds
locally, which is what makes service results byte-identical to sweep
results for the same configuration.  The accepted cell keys are
``CellSpec``'s fields, each coerced by its declared type
(:func:`repro.spec.coerce`) and checked by the spec itself, so a value
the CLI refuses gets a 400 here with the same message.

Two submission shapes are accepted:

* explicit cells::

      {"cells": [{"workload": "hplajw", "policy": {"kind": "afraid"}},
                 {"workload": "ATT", "policy": {"kind": "mttdl",
                                                "mttdl_target": 1e7},
                  "organization": "raid10"}],
       "duration_s": 30.0, "seed": 42}

  Top-level ``duration_s`` / ``seed`` / ``organization`` / ... act as
  defaults each cell may override; a policy may also be the bare kind
  string.

* the sweep ladder, mirroring ``afraid-sim sweep``'s arguments::

      {"workloads": ["hplajw", "ATT"], "targets": [1e7, 1e6],
       "duration_s": 30.0, "seed": 42}

Malformed payloads raise :class:`ProtocolError`, which the server maps
to ``400`` with the message in the body — validation happens at the
edge, so a worker process never sees a spec it cannot run.
"""

from __future__ import annotations

import dataclasses

from repro.harness.runner import CellSpec, PolicySpec, ladder_specs
from repro.spec import SpecError, as_bool, as_float, coerce
from repro.traces import CATALOG, workload_names


class ProtocolError(ValueError):
    """A malformed job payload (maps to HTTP 400)."""


#: Every key a cell may carry: ``CellSpec``'s fields.
_FIELDS = {field.name: field for field in dataclasses.fields(CellSpec)}

#: The ladder-shape keys that are not cell fields.
_LADDER_KEYS = frozenset({"workloads", "targets", "include_raid5", "include_raid0"})


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _refuse_unknown(keys, known, what: str) -> None:
    unknown = set(keys) - set(known)
    if unknown:
        raise ProtocolError(f"unknown {what} keys: {sorted(unknown)}")


def _workload(name) -> str:
    if not (isinstance(name, str) and name in CATALOG):
        raise ProtocolError(f"unknown workload {name!r}; choose from {workload_names()}")
    return name


def _coerced(cls, payload: dict) -> dict:
    """``payload``'s values coerced to the declared types of ``cls``'s fields."""
    fields = {field.name: field for field in dataclasses.fields(cls)}
    return {name: coerce(fields[name], value) for name, value in payload.items()}


def parse_policy(value) -> PolicySpec:
    """A policy payload — ``"afraid"`` or ``{"kind": ..., ...}`` — to a spec."""
    if isinstance(value, str):
        value = {"kind": value}
    value = _require_mapping(value, "policy")
    _refuse_unknown(value, ("kind", "mttdl_target"), "policy")
    if "kind" not in value:
        raise ProtocolError('policy needs a "kind"')
    try:
        return PolicySpec(**_coerced(PolicySpec, value))
    except SpecError as exc:
        raise ProtocolError(str(exc)) from None


def parse_cell(payload, defaults: dict | None = None) -> CellSpec:
    """One cell payload to a :class:`CellSpec`, applying job-level defaults."""
    payload = _require_mapping(payload, "cell")
    _refuse_unknown(payload, _FIELDS, "cell")
    merged = {**(defaults or {}), **payload}
    if "workload" not in merged:
        raise ProtocolError('cell needs a "workload"')
    if "policy" not in merged:
        raise ProtocolError('cell needs a "policy"')
    try:
        spec = CellSpec(**{**_coerced(CellSpec, merged), "policy": parse_policy(merged["policy"])})
    except SpecError as exc:
        raise ProtocolError(str(exc)) from None
    _workload(spec.workload)
    return spec


def parse_job_payload(payload) -> list[CellSpec]:
    """A full submission body to its list of cell specs.

    Accepts either the explicit-``cells`` shape or the sweep-ladder
    shape (``workloads`` + optional ``targets``); exactly one of the two
    must be present.
    """
    payload = _require_mapping(payload, "job")
    has_cells = "cells" in payload
    has_ladder = "workloads" in payload
    if has_cells == has_ladder:
        raise ProtocolError('job needs exactly one of "cells" or "workloads"')

    if has_cells:
        _refuse_unknown(payload, {*_FIELDS, "cells"} - {"workload"}, "job")
        cells = payload["cells"]
        if not isinstance(cells, list) or not cells:
            raise ProtocolError('"cells" must be a non-empty list')
        defaults = {key: payload[key] for key in payload if key != "cells"}
        return [parse_cell(cell, defaults) for cell in cells]

    _refuse_unknown(payload, {*_FIELDS, *_LADDER_KEYS} - {"workload", "policy"}, "job")
    workloads = payload["workloads"]
    if not isinstance(workloads, list) or not workloads:
        raise ProtocolError('"workloads" must be a non-empty list')
    targets = payload.get("targets", [])
    if not isinstance(targets, list):
        raise ProtocolError('"targets" must be a list of hours')
    try:
        return ladder_specs(
            [_workload(workload) for workload in workloads],
            [as_float("targets", target) for target in targets],
            include_raid5=as_bool("include_raid5", payload.get("include_raid5", True)),
            include_raid0=as_bool("include_raid0", payload.get("include_raid0", True)),
            **_coerced(CellSpec, {key: payload[key] for key in payload if key in _FIELDS}),
        )
    except SpecError as exc:
        raise ProtocolError(str(exc)) from None


def cell_label(spec: CellSpec) -> str:
    """The ``workload/policy`` label a cell's results are keyed under.

    It is :attr:`CellSpec.key` joined, so a non-default organization
    suffixes the policy (``hplajw/afraid@raid10``) exactly as in
    ``afraid-sim sweep --json``'s cells, and one policy over two
    organizations is two cells.
    """
    return "/".join(spec.key)


def spec_to_payload(spec: CellSpec) -> dict:
    """The JSON view of one cell spec (round-trips through parse_cell)."""
    payload = spec.to_config()
    if payload["policy"].get("mttdl_target") is None:
        payload["policy"] = {"kind": payload["policy"]["kind"]}
    return payload
