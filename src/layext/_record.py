"""`Value` and `record`: the frozen, slotted value classes of layext.

A value is fixed by its fields, the names in its class's `_fields`.  `Value`
gives every value class one equality, hash, repr, pickling and immutability,
all read from those names.  `record` builds a value class from an annotated
body, as `@dataclass(frozen=True, slots=True)` did, without importing
`dataclasses`, which loads `inspect`, `ast` and `dis`; it generates only the
constructor.  `tropical.LayeredElem` and `cancellative.ExtElem` store
integers instead of their Fraction fields, so they subclass `Value` directly,
name their fields and write their own `__new__`.
"""

_NO_DEFAULT = object()


class Value:
    """An immutable value: equal to a value of the same class with equal fields.

    The hash is the hash of the field tuple, the repr is
    `Name(field=value!r, ...)`, a copy or unpickled value is the class
    called on the field tuple, and assignment and deletion raise
    `AttributeError`.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """`cls` rebuilt as a `Value` class with one slot per field.

    The fields are a parent record's fields, then the annotated names of the
    body in order; a value in the body is the field's default.  `_fields`
    maps each field to its default.  The class gets
    `__new__(cls, *fields)`, which stores the fields and then calls
    `__post_init__` if the class has one, and everything else from `Value`.
    It gets no `__init__`, so a second `__init__` call on a built value is
    `object.__init__`, which ignores its arguments.  A body `__slots__`
    names extra slots outside the fields, for `__post_init__` to fill with
    `object.__setattr__`; a cache slot may be filled again later.
    """
    body = cls.__dict__
    own, extra = tuple(body.get("__annotations__", ())), tuple(body.get("__slots__", ()))
    fields = {**getattr(cls, "_fields", {}), **{f: body.get(f, _NO_DEFAULT) for f in own}}
    ns = {k: v for k, v in body.items() if k not in {*own, *extra, "__dict__", "__weakref__"}}
    ns.update(__slots__=own + extra, _fields=fields, __qualname__=cls.__qualname__)
    params = "".join(f", {f}" if d is _NO_DEFAULT else f", {f}=_dflt[{f!r}]" for f, d in fields.items())
    new = ["self = _new(cls)", *(f"_set_{f}(self, {f})" for f in fields)]
    if hasattr(cls, "__post_init__"):
        new.append("self.__post_init__()")
    made = {"_new": object.__new__, "_dflt": fields}
    exec("\n".join([f"def __new__(cls{params}):", *(f" {line}" for line in new), " return self"]), made)
    ns["__new__"] = made["__new__"]
    ns["__new__"].__qualname__ = f"{cls.__qualname__}.__new__"
    bases = cls.__bases__ if issubclass(cls, Value) else (*(b for b in cls.__bases__ if b is not object), Value)
    built = type(cls)(cls.__name__, bases, ns)
    # `__new__` stores each field through its slot's own setter, which exists once the class does
    made.update({f"_set_{f}": getattr(built, f).__set__ for f in fields})
    return built
