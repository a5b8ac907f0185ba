"""One check of a dataclass's fields, read off its annotations.

A field says once what it may hold: its annotation, and a bound in its
``metadata`` — ``{"ge": b}``, ``{"gt": b}`` or ``{"in": choices}``
(``None`` passes every bound).  An annotation admits:

* ``str``: at most :data:`MAX_SIZE` characters; ``int``: an ``int``,
  never a ``bool``, of magnitude at most :data:`MAX_SIZE`; ``bool``;
  ``float``: a finite ``float``, or an ``int`` as above;
* ``Optional[X]``, ``Tuple[X, ...]``, ``Tuple[X, Y]``, ``Tuple``,
  ``List[X]``, ``Dict[K, V]``: the container, item by item;
* any other class: an instance of it.

A class's predicates are built from its annotations at its first check.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from typing import Any, Callable, Dict, Tuple, Type

#: The longest string and the largest integer magnitude a field holds.
MAX_SIZE = 2 ** 31

Predicate = Callable[[Any], bool]

#: class -> ((field name, predicate, what the field must be), ...)
_TABLES: Dict[type, Tuple[Tuple[str, Predicate, str], ...]] = {}


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= MAX_SIZE


_SCALARS: Dict[Any, Predicate] = {
    str: lambda v: isinstance(v, str) and len(v) <= MAX_SIZE,
    int: _is_int,
    bool: lambda v: isinstance(v, bool),
    float: lambda v: math.isfinite(v) if isinstance(v, float) else _is_int(v),
}

#: Metadata key -> (``admits`` narrowed to values meeting ``b``, how it reads).
_BOUNDS: Dict[str, Tuple[Callable[[Predicate, Any], Predicate], str]] = {
    "ge": (lambda admits, b: lambda v: admits(v) and (v is None or v >= b), ">="),
    "gt": (lambda admits, b: lambda v: admits(v) and (v is None or v > b), ">"),
    "in": (lambda admits, b: lambda v: admits(v) and (v is None or v in b), "in"),
}


def _predicate(hint: Any) -> Predicate:
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is None and isinstance(hint, type):
        # ``type(v) is`` first: ``Fraction``'s isinstance goes via ABCMeta.
        return lambda v: type(v) is hint or isinstance(v, hint)
    items = [_predicate(a) for a in args if a not in (type(None), ...)]
    if origin is typing.Union and len(args) == 2 and len(items) == 1:
        return lambda v: v is None or items[0](v)
    if origin is dict:
        return lambda v: (isinstance(v, dict) and all(map(items[0], v))
                          and all(map(items[1], v.values())))
    if origin is list or (origin is tuple and ... in args):
        return lambda v: isinstance(v, origin) and all(map(items[0], v))
    if origin is tuple:
        return lambda v: isinstance(v, tuple) and (not items or (
            len(v) == len(items) and all(p(x) for p, x in zip(items, v))))
    raise TypeError(f"no field check for annotation {hint!r}")


def _table(cls: type) -> Tuple[Tuple[str, Predicate, str], ...]:
    hints, table = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        admits = _predicate(hints[f.name])
        kind = getattr(f.type, "__name__", str(f.type))
        for key, bound in f.metadata.items():
            narrow, word = _BOUNDS[key]
            admits = narrow(admits, bound)
            kind += f" {word} {bound}"
        table.append((f.name, admits, kind))
    _TABLES[cls] = tuple(table)
    return _TABLES[cls]


def check_fields(instance: Any, error: Type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the first field of dataclass ``instance``
    that its annotation and bound do not admit."""
    cls = type(instance)
    for name, admits, kind in _TABLES.get(cls) or _table(cls):
        value = getattr(instance, name)
        if not admits(value):
            raise error(f"{cls.__name__}.{name}={value!r:.40} is not {kind}")
