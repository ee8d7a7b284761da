"""The serve daemon's wire vocabulary: job payloads in, views + events out.

A job submission is JSON speaking the exact same cell/policy vocabulary
as :class:`~repro.harness.runner.CellSpec` / ``PolicySpec`` — the specs
a client submits over HTTP are the specs ``afraid-sim sweep`` builds
locally, which is what makes service results byte-identical to sweep
results for the same configuration.

Two submission shapes are accepted:

* explicit cells::

      {"cells": [{"workload": "hplajw", "policy": {"kind": "afraid"}},
                 {"workload": "ATT", "policy": {"kind": "mttdl",
                                                "mttdl_target": 1e7}}],
       "duration_s": 30.0, "seed": 42}

  Top-level ``duration_s`` / ``seed`` / ``ndisks`` / ... act as defaults
  each cell may override; a policy may also be the bare kind string.

* the sweep ladder, mirroring ``afraid-sim sweep``'s arguments::

      {"workloads": ["hplajw", "ATT"], "targets": [1e7, 1e6],
       "duration_s": 30.0, "seed": 42}

Malformed payloads raise :class:`ProtocolError`, which the server maps
to ``400`` with the message in the body — validation happens at the
edge, so a worker process never sees a spec it cannot run.
"""

from __future__ import annotations

import typing

from repro.harness.runner import CellSpec, PolicySpec, ladder_specs
from repro.traces import CATALOG, workload_names


class ProtocolError(ValueError):
    """A malformed job payload (maps to HTTP 400)."""


#: CellSpec fields a submission may set, with their expected coercions.
_CELL_FIELDS: dict[str, typing.Callable] = {
    "workload": str,
    "duration_s": float,
    "seed": int,
    "ndisks": int,
    "stripe_unit_sectors": int,
    "idle_threshold_s": float,
    "extra_settle_s": float,
}

#: Top-level keys shared by both submission shapes.
_DEFAULT_KEYS = frozenset(_CELL_FIELDS) - {"workload"}


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def parse_policy(value) -> PolicySpec:
    """A policy payload — ``"afraid"`` or ``{"kind": ..., ...}`` — to a spec."""
    if isinstance(value, str):
        value = {"kind": value}
    value = _require_mapping(value, "policy")
    unknown = set(value) - {"kind", "mttdl_target"}
    if unknown:
        raise ProtocolError(f"unknown policy keys: {sorted(unknown)}")
    if "kind" not in value:
        raise ProtocolError('policy needs a "kind"')
    target = value.get("mttdl_target")
    try:
        return PolicySpec(
            str(value["kind"]),
            mttdl_target=float(target) if target is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from None


def parse_cell(payload, defaults: dict | None = None) -> CellSpec:
    """One cell payload to a :class:`CellSpec`, applying job-level defaults."""
    payload = _require_mapping(payload, "cell")
    unknown = set(payload) - set(_CELL_FIELDS) - {"policy"}
    if unknown:
        raise ProtocolError(f"unknown cell keys: {sorted(unknown)}")
    merged = dict(defaults or {})
    merged.update(payload)
    if "workload" not in merged:
        raise ProtocolError('cell needs a "workload"')
    if "policy" not in merged:
        raise ProtocolError('cell needs a "policy"')
    kwargs = {}
    for field, coerce in _CELL_FIELDS.items():
        if field in merged:
            try:
                kwargs[field] = coerce(merged[field])
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"cell field {field!r}: cannot make a {coerce.__name__} "
                    f"of {merged[field]!r}"
                ) from None
    policy = parse_policy(merged["policy"])
    try:
        spec = CellSpec(policy=policy, **kwargs)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    if spec.workload not in CATALOG:
        raise ProtocolError(
            f"unknown workload {spec.workload!r}; choose from {workload_names()}"
        )
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
        unknown = set(payload) - _DEFAULT_KEYS - {"cells", "policy"}
        if unknown:
            raise ProtocolError(f"unknown job keys: {sorted(unknown)}")
        cells = payload["cells"]
        if not isinstance(cells, list) or not cells:
            raise ProtocolError('"cells" must be a non-empty list')
        defaults = {key: payload[key] for key in payload if key != "cells"}
        return [parse_cell(cell, defaults) for cell in cells]

    unknown = set(payload) - _DEFAULT_KEYS - {
        "workloads", "targets", "include_raid5", "include_raid0",
    }
    if unknown:
        raise ProtocolError(f"unknown job keys: {sorted(unknown)}")
    workloads = payload["workloads"]
    if not isinstance(workloads, list) or not workloads:
        raise ProtocolError('"workloads" must be a non-empty list')
    for workload in workloads:
        if workload not in CATALOG:
            raise ProtocolError(
                f"unknown workload {workload!r}; choose from {workload_names()}"
            )
    targets = payload.get("targets", [])
    if not isinstance(targets, list):
        raise ProtocolError('"targets" must be a list of hours')
    cell_kwargs = {}
    for key in _DEFAULT_KEYS:
        if key in payload:
            try:
                cell_kwargs[key] = _CELL_FIELDS[key](payload[key])
            except (TypeError, ValueError):
                raise ProtocolError(f"job field {key!r}: bad value {payload[key]!r}") from None
    try:
        targets = [float(target) for target in targets]
    except (TypeError, ValueError):
        raise ProtocolError('"targets" must be a list of hours') from None
    try:
        return ladder_specs(
            [str(w) for w in workloads],
            targets,
            include_raid5=bool(payload.get("include_raid5", True)),
            include_raid0=bool(payload.get("include_raid0", True)),
            **cell_kwargs,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def cell_label(spec: CellSpec) -> str:
    """The ``workload/policy`` label a cell's results are keyed under."""
    return f"{spec.workload}/{spec.policy.label}"


def spec_to_payload(spec: CellSpec) -> dict:
    """The JSON view of one cell spec (round-trips through parse_cell)."""
    payload = spec.to_config()
    if payload["policy"].get("mttdl_target") is None:
        payload["policy"] = {"kind": payload["policy"]["kind"]}
    return payload
