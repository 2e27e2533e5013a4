"""The frozen-record base of the package's value classes.

A record lists its fields as annotations in its class body, in order, and a
default as the class attribute of the same name.  `Frozen` reads the field
names once per class, in `__init_subclass__`, and gives every record what
`dataclasses.dataclass(frozen=True)` would: an `__init__` taking positional
arguments, keywords and defaults that ends with `__post_init__`, equality
within one class only, the hash of the field tuple, `Name(field=value, ...)`
as repr, `__match_args__`, and `FrozenInstanceError` on assignment and
deletion.  No code is generated per class, so a command does not load
`dataclasses` and the `inspect` it imports.

Fields are set with `object.__setattr__`, as `dataclasses` does, so CPython
keeps an instance's values inline until a `cached_property` asks for its
`__dict__`.  Equality, hash and repr read the field tuple through one
`operator.attrgetter` per class, and the generic `__init__` loops over the
field names.  Both cost more per call than code written for one class, so a
class built in a hot loop (`Edge`, `Matrix`, `Poly`) writes its `__init__`,
`__eq__` and `__hash__` out.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A record's attributes cannot be assigned or deleted."""


class Frozen:
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__ = tuple(cls.__annotations__)
        # the field tuple of a record, read in C; attrgetter returns a lone field bare
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order: the positional arguments, then keywords, then defaults."""
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values, defaults = list(args), vars(cls)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unknown or repeated fields {sorted(kwargs)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._values(self))
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
