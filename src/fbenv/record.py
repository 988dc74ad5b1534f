"""Tuple records: the immutable value types built once per message, tick
or step.

:func:`record` turns an annotated class into a tuple subclass made by
:func:`collections.namedtuple`, built by a single tuple construction. A
record is immutable, equals only a record of its own type with equal
fields (never a plain tuple), hashes to match and is never falsy. It
still unpacks, indexes and has a length.
"""

from __future__ import annotations

from collections import namedtuple


class _Record(tuple):
    """Base of every record type: equal per type, hashed to match, truthy."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((type(self), *self))

    def __bool__(self):
        return True


def record(cls: type) -> type:
    """Class decorator: the record type whose fields are ``cls``'s
    annotations, in order, with the rest of ``cls``'s body. A ``__new__``
    in the body replaces the generated one, to check the fields; it builds
    the record with ``tuple.__new__(cls, fields)``."""
    fields = namedtuple(cls.__name__, cls.__dict__.get("__annotations__", {}), module=cls.__module__)
    body = {name: value for name, value in vars(cls).items() if name not in ("__dict__", "__weakref__")}
    if "__new__" in body:  # so _make and _replace check the fields too
        body["_make"] = classmethod(lambda cls, iterable: cls(*iterable))
    return type(cls.__name__, (_Record, fields), {**body, "__slots__": ()})
