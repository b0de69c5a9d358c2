"""The immutable record base of the library's value types.

A record lists its fields in __slots__ and sets each one once, in its own
__init__, through object.__setattr__; afterwards assignment and deletion
raise AttributeError.  Equality and hashing go by _key, the field values
unless a record says otherwise, and only between records of the same
class; repr lists the fields by name.
Nothing here is imported beyond the interpreter's builtins, so records
cost a light command's cold start nothing.
"""


def _restore(cls, values):
    """A record of cls holding values, in __slots__ order, unchecked; the
    inverse of Record.__reduce__ for copy and pickle."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


class Record:
    """Base of an immutable record whose fields are its __slots__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (self.__class__, self._values())
