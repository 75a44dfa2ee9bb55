"""Frozen value classes without generated source.

`record` turns a class with annotated fields into an immutable value type:
an `__init__` taking the fields positionally or by keyword, equality and
hashing on the tuple of field values, and a `Name(field=value, ...)` repr.
It behaves like a frozen standard-library dataclass on the classes of this
package, and hashes and prints exactly as one does, but builds its methods as
closures instead of compiling source for every class, so that importing
the package stays cheap.

Fields are the class's own annotations, in order; a field's default is the
plain class attribute of the same name.  `__post_init__`, when defined, runs
after the fields are set.  Setting or deleting an attribute raises
`AttributeError`; `functools.cached_property` still works, because it
writes to the instance `__dict__` directly.

An `Interner` holds the results of checks, each keyed by the check's kind
and the values it reads, so that one computation runs each distinct check
once; a later check may ask whether an earlier one passed.
"""

from __future__ import annotations

from operator import attrgetter

# Fields are stored one object.__setattr__ at a time: reading or updating an
# instance's __dict__ would make CPython build a dict for it and slow every
# later attribute read on that instance.
_set_field = object.__setattr__


def record(cls):
    """Make `cls` a frozen value class over its annotated fields."""
    qualname = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = n - len(defaults)
    if any(name not in defaults for name in names[required:]):
        raise TypeError(f"{qualname}: a field without a default follows one with a default")
    tail = tuple(defaults.values())
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        """The field values in order, from arguments that are not simply
        one positional value per field."""
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        if not kwargs and len(args) >= required:
            return args + tail[len(args) - required:]
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{qualname}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return tuple(values[name] if name in values else defaults[name] for name in names)

    if post_init is None:
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            for name, value in zip(names, args):
                _set_field(self, name, value)
    else:
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            for name, value in zip(names, args):
                _set_field(self, name, value)
            post_init(self)

    if n > 1:
        field_values = attrgetter(*names)
    else:  # attrgetter of a single name returns the bare value
        def field_values(self):
            return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return field_values(self) == field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls.__record_fields__ = names
    return cls


class Interner:
    """A memo of checks (`once`), each keyed by its kind and the values it
    reads, compared by equality.

    Values are named by small integers, equal values alike: a value met
    again as the same object costs one dict lookup, and a new object is
    looked up by equality once.  Every value named is kept alive with the
    interner, so no id() is reused while its name is in use.
    """

    def __init__(self):
        self._results: dict = {}
        self._kept, self._of_id, self._of_value = [], {}, {}

    def _key(self, kind, values) -> tuple:
        of_id, of_value, key = self._of_id, self._of_value, [kind]
        for value in values:
            name = of_id.get(id(value))
            if name is None:
                name = of_id[id(value)] = of_value.setdefault(value, len(of_value))
                self._kept.append(value)
            key.append(name)
        return tuple(key)

    def once(self, kind, values, check):
        """`check()`, run on the first use of `kind` over `values` (every
        input of the check) and remembered."""
        key = self._key(kind, values)
        result = self._results.get(key)
        if result is None:
            result = self._results[key] = check()
        return result

    def passed(self, kind, values) -> bool:
        """Whether the check `kind` over `values` has run and found nothing."""
        result = self._results.get(self._key(kind, values))
        return result is not None and not result
