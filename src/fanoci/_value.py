"""The base of ``DegreeTuple``, ``FieldSpec``, ``MultiPoly`` and ``PointedCI``."""

from operator import attrgetter
from typing import Tuple


class Value:
    """An immutable value, compared, hashed and shown by its fields.

    A subclass names its fields in ``_fields`` and sets each once, in
    ``__init__``, with ``_set``.  Equal values are of one class, with equal
    fields; the hash is that of the tuple of field values.  Instances keep
    their ``__dict__``, so a ``cached_property`` still caches.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)  # a bare value for one field

    # ``self._set(name, value)`` sets a field past the ``__setattr__`` below.
    # Writing to ``self.__dict__`` instead would be quicker to construct, but
    # it gives the instance a materialized dict, and every later attribute
    # read slower.  A method wrapping the call would cost a Python call per
    # field.
    _set = object.__setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
