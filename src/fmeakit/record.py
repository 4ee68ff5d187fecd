"""Immutable slotted records, the one class mechanism of fmeakit's data.

A record class subclasses ``Record``, annotates its fields in order (a
default after the annotation is the field's default) and is decorated
with ``@record``. ``Record`` gives every record the same contract: ``==``
compares the class and the field values, ``hash`` is the hash of the
field tuple, ``repr`` is ``Name(field=value, ...)``, a field cannot be
set or deleted, and a record pickles as its class called with its field
values, so unpickling runs ``__init__`` and any check it makes. A changed
copy is made by calling the class.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

_R = TypeVar("_R", bound="Record")


class Record:
    """Equality, hash, repr, immutability and pickling by field values:
    ``_fields``, the field names, and ``_values()``, the field tuple, come
    from ``record``."""

    __slots__ = ()
    _fields: tuple[str, ...]
    _values: Callable[[Record], tuple]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._values()


def record(cls: type[_R]) -> type[_R]:
    """Rebuild *cls*, a Record subclass whose body annotates its fields,
    as a slotted class with one slot per field.

    Its ``__init__`` takes the fields in order, with their defaults, and
    sets each through its slot's member descriptor, bound once: about
    twice as fast as object.__setattr__. It then calls ``__post_init__``
    if the class defines one.
    """
    body = dict(cls.__dict__)
    annotations = body.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {name: body.pop(name) for name in names if name in body}
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    new = type(cls.__name__, cls.__bases__, {**body, "__slots__": names, "_fields": names})
    namespace: dict[str, object] = {f"_set_{name}": new.__dict__[name].__set__
                                    for name in names}
    namespace.update({f"_default_{name}": value for name, value in defaults.items()})
    signature = "".join(f", {name}=_default_{name}" if name in defaults else f", {name}"
                        for name in names)
    setters = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    if hasattr(new, "__post_init__"):
        setters += "\n    self.__post_init__()"
    values = "".join(f"self.{name}, " for name in names)
    exec(f"def __init__(self{signature}):{setters}\n"
         f"def _values(self):\n    return ({values})", namespace)
    for method in ("__init__", "_values"):
        function = namespace[method]
        function.__qualname__ = f"{new.__qualname__}.{method}"
        setattr(new, method, function)
    new.__init__.__annotations__ = {**annotations, "return": None}
    return new
