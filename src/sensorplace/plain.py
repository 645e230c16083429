"""The plain form of config and result dataclasses, the typed reader back,
and the text form of every value an output file holds.

:func:`_plain` writes what JSON and YAML hold: dataclasses become dicts of
their fields, tuples lists and enum members their values.
:func:`_from_plain` is the one reader of such input (``--config`` nested
specs and orientation maps, catalog entries, ``selections.json``): it
converts an int to a float and nothing else.  :func:`_has_type` is the
check without conversion that ``validate_inputs`` applies.

:func:`_fmt` is the one place a float becomes output text, its shortest
round-trip ``repr``, in every CSV, LP and QUBO coordinate file, and
:func:`write_csv` is the one writer of a CSV file.  Every output file is
opened by :func:`open_output` and every output directory made by
:func:`make_output_dir`, so a path that cannot be written raises
:class:`ConfigError` naming it, as an unreadable input does.
"""

from __future__ import annotations

import csv
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError


def _plain(value):
    """JSON-ready form of a config or result value: dataclasses become dicts,
    tuples lists and enum members their values."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def _from_plain(value, hint):
    """The value of annotated type ``hint`` whose :func:`_plain` form is
    ``value``; a form that does not fit raises ValueError."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # an optional value, ``X | None``
        return None if value is None else _from_plain(value, args[0])
    if is_dataclass(hint):
        names = [f.name for f in fields(hint)]
        if not isinstance(value, dict):
            raise ValueError(f"expected a mapping of {hint.__name__} fields, got {value!r}")
        wrong = [f"unknown {k}" for k in value if k not in names]
        wrong += [f"missing {name}" for name in names if name not in value]
        if wrong:
            raise ValueError(f"a {hint.__name__} takes exactly the fields {', '.join(names)} ({', '.join(wrong)})")
        hints, kwargs = get_type_hints(hint), {}
        for name in names:
            try:
                kwargs[name] = _from_plain(value[name], hints[name])
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        return hint(**kwargs)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if origin is dict and isinstance(value, dict):
        return {_from_plain(k, args[0]): _from_plain(v, args[1]) for k, v in value.items()}
    if origin is tuple and isinstance(value, list):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(map(_from_plain, value, items))
    elif _has_type(value, hint):
        return float(value) if hint is float else value
    raise ValueError(f"expected {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")


def _has_type(value, hint) -> bool:
    """Whether ``value`` is of the annotated type ``hint`` as it stands: an
    int passes for a float and a list for a tuple, a bool for no number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_has_type(value, a) for a in args)
    if origin is dict and isinstance(value, dict):
        return all(_has_type(k, args[0]) and _has_type(v, args[1]) for k, v in value.items())
    if origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_has_type, value, items))
    if hint is float:
        hint = int | float
    return isinstance(value, origin or hint) and (hint is bool or not isinstance(value, bool))


def _fmt(value) -> str:
    """Output text of one value: ``n/a`` for None, the shortest round-trip
    ``repr`` for any float (numpy scalars included), ``str`` otherwise."""
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _unwritable(path, exc: OSError) -> ConfigError:
    return ConfigError(f"{path}: cannot write: {exc.strerror or exc}")


def open_output(path, newline: str | None = None):
    """``path`` opened for writing text; a path that cannot be written
    raises ConfigError naming it."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def make_output_dir(path) -> None:
    """Make the directory ``path`` and its parents unless they exist; a
    path that cannot be made raises ConfigError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def write_csv(path, header, rows, schema: str | None = None) -> None:
    """Write a CSV file: the ``schema`` comment line when given, the
    header, then ``rows`` (any iterable), every cell through :func:`_fmt`."""
    with open_output(path, newline="") as fh:
        if schema is not None:
            fh.write(schema + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)
