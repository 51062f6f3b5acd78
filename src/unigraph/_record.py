"""The base of the package's immutable value records.

A record class names its fields, in order, in ``_fields`` and sets them in
its own ``__init__`` with ``object.__setattr__``. Records of one class are
equal when their field tuples are, hash as that tuple and print as
``Name(field=value, ...)``. Instances of a class that declares no
``__slots__`` keep a ``__dict__``, so cached properties live there and
pickling saves and restores it; a class that declares its fields as slots
(``TypedComponent``) has none. No class is generated at import, so
defining a record costs no compilation.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__eq__" in cls.__dict__:  # a class that compares otherwise
            return
        get = attrgetter(*cls._fields)  # of one name: the bare value

        # closures over the getter, so a call looks nothing up on the class
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        cls.__eq__ = __eq__
        if len(cls._fields) > 1:
            cls.__hash__ = lambda self: hash(get(self))
        else:
            cls.__hash__ = lambda self: hash((get(self),))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
