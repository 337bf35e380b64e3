"""Settings dataclasses declared once: a field's annotated type and metadata
drive its check at construction, its parser in config files and on CLI flags,
and its flag. Metadata ``admits`` is an interval written "(0, 1)", "[2, inf)"
..., or a tuple of choices; ``flag`` and ``help`` replace the generated flag
name and help."""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import fields
from typing import Optional

_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    tuple: (numbers.Real, "real numbers"),
    str: (str, "a string"),
}


def _within(allowed: str, value) -> bool:
    """Whether ``value`` lies in an interval written "(0, 1)", "[2, inf)"..."""
    low, high = (float(b) for b in allowed[1:-1].split(","))
    above = low < value if allowed[0] == "(" else low <= value
    below = value < high if allowed[-1] == ")" else value <= high
    return above and below


@functools.cache
def _hints(cls) -> dict:
    """Each field's annotated type, with ``Optional`` unwrapped."""
    hints = typing.get_type_hints(cls)
    return {
        name: typing.get_args(hint)[0] if typing.get_origin(hint) is typing.Union else hint
        for name, hint in hints.items()
    }


def check_fields(settings) -> None:
    """Refuse a field value of the wrong type or outside the field's
    ``admits``, with a ``ValueError`` that names the field.

    A bool is no number. A tuple field holds as many real numbers as its
    annotation lists, each in the interval, and is stored as a tuple of
    floats. A field whose default is None admits None.
    """
    for f in fields(settings):
        name, value = f.name, getattr(settings, f.name)
        hint = _hints(type(settings))[name]
        if value is None and f.default is None:
            continue
        kind = typing.get_origin(hint) or hint
        items = tuple(value) if kind is tuple and hasattr(value, "__iter__") else (value,)
        cls, what = _KINDS[kind]
        if any(isinstance(v, bool) or not isinstance(v, cls) for v in items):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        if kind is tuple:
            args = typing.get_args(hint)
            if ... not in args and len(items) != len(args):
                raise ValueError(f"{name} must hold {len(args)} numbers, got {value!r}")
            setattr(settings, name, tuple(float(v) for v in items))
        allowed = f.metadata.get("admits")
        if isinstance(allowed, tuple) and value not in allowed:
            raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if isinstance(allowed, str) and not all(_within(allowed, v) for v in items):
            raise ValueError(f"{name} must lie in {allowed}, got {value!r}")


def _parse_floats(raw: str) -> Optional[tuple[float, ...]]:
    raw = raw.strip()
    try:
        return tuple(float(tok) for tok in raw.split(",")) if raw else None
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {raw!r}") from None


def field_parser(cls, name: str):
    """The string parser of one field of ``cls``: comma-separated floats
    ("" for None) for a tuple field, else its annotated type."""
    hint = _hints(cls)[name]
    return _parse_floats if typing.get_origin(hint) is tuple else hint
