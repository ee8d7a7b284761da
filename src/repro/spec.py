"""The rules every run spec checks its fields with, and the edge coercions.

The spec dataclasses — :class:`~repro.harness.runner.CellSpec` and
:class:`~repro.harness.runner.PolicySpec`,
:class:`~repro.faults.campaign.CampaignSpec` and
:class:`~repro.faults.nemesis.NemesisSpec` — are the one declaration of a
run.  Each field's declared type says how an edge turns a value into it
(:func:`coerce`: ``afraid-sim`` flag text, a JSON value of a service
submission), and each spec's ``__post_init__`` checks the bounds with the
helpers here.  A refused value raises :class:`SpecError`, which names the
field, so the CLI reports it against its flag (exit 2) and the service
as an HTTP 400 carrying the same message.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

from repro.layout.organization import ArrayOrganization, get_organization


class SpecError(ValueError):
    """A spec field holds a value no run can use."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@contextlib.contextmanager
def blame(field: str):
    """Re-raise a ``ValueError`` of the block as a :class:`SpecError` of ``field``."""
    try:
        yield
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(field, str(exc)) from None


def is_number(value) -> bool:
    """An int or a float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """``value`` is an integer (an integral float counts, a bool does not) >= ``minimum``."""
    if not (is_number(value) and (isinstance(value, int) or value.is_integer())):
        raise SpecError(name, f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(name, f"{name} must be >= {minimum}, got {value!r}")


def check_number(name: str, value, minimum: float = 0.0, strict: bool = False) -> None:
    """``value`` is a finite number > ``minimum`` (``strict``) or >= it."""
    if is_number(value) and (isinstance(value, int) or math.isfinite(value)):
        if value > minimum if strict else value >= minimum:
            return
    bound = ">" if strict else ">="
    raise SpecError(name, f"{name} must be a finite number {bound} {minimum:g}, got {value!r}")


def check_choice(name: str, value, choices) -> None:
    """``value`` is one of ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise SpecError(name, f"{name} must be one of {sorted(choices)}, got {value!r}")


def check_organization(organization, ndisks) -> tuple[ArrayOrganization, int]:
    """The organization and its disk count; ``ndisks=None`` is its default count."""
    with blame("organization"):
        org = get_organization(organization)
    if ndisks is None:
        return org, org.default_disks
    check_integer("ndisks", ndisks)
    with blame("ndisks"):
        org.validate(ndisks)
    return org, ndisks


# -- edge coercions ---------------------------------------------------------------


def _parse_number(value):
    """Flag text or a JSON string as the number it spells; anything else as is."""
    if isinstance(value, str):
        for parse in (int, float):
            with contextlib.suppress(ValueError):
                return parse(value)
    return value


def as_float(name: str, value) -> float:
    value = _parse_number(value)
    if is_number(value):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise SpecError(name, f"{name} must be a number, got {value!r}")


def as_int(name: str, value) -> int:
    value = _parse_number(value)
    check_integer(name, value)
    return int(value)


def as_str(name: str, value) -> str:
    if not isinstance(value, str):
        raise SpecError(name, f"{name} must be a string, got {value!r}")
    return value


def as_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise SpecError(name, f"{name} must be true or false, got {value!r}")
    return value


#: Coercion per declared field type (annotations are strings here).
_COERCIONS = {"float": as_float, "int": as_int, "str": as_str}


def coerce(field: dataclasses.Field, value):
    """``value`` — flag text or a JSON value — as ``field``'s declared type.

    An optional field (``T | None``) takes ``None`` as is; a field of any
    other type (a nested spec, a tuple) is left to its spec.
    """
    kind = str(field.type)
    if value is None and kind.endswith(" | None"):
        return None
    coercion = _COERCIONS.get(kind.removesuffix(" | None"))
    return value if coercion is None else coercion(field.name, value)
