"""`record`: the frozen, slotted value classes of layext.

It builds what `@dataclass(frozen=True, slots=True)` built, with one `exec` per class and
without importing `dataclasses`, which loads `inspect`, `ast` and `dis`.  It builds every
value class but `tropical.LayeredElem` and `cancellative.ExtElem`, which store integers
instead of their Fraction fields and write the same construction in `__new__`, equality,
hash, repr, pickling and immutability by hand.
"""

_NO_DEFAULT = object()


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, f) for f in self._fields)


def record(cls):
    """`cls` rebuilt as a frozen value class with one slot per field.

    The fields are a parent record's fields, then the annotated names of the
    body in order; a value in the body is the field's default.  The class
    gets `__new__(cls, *fields)`, which stores the fields and then calls
    `__post_init__` if the class has one; `__eq__`, true for the same class
    and equal field tuples; `__hash__`, the hash of the field tuple; and
    `__repr__`, `Name(field=value!r, ...)`.  It gets no `__init__`, so a
    second `__init__` call on a built value is `object.__init__`, which
    ignores its arguments; assignment and deletion raise `AttributeError`.
    A body `__slots__` names extra slots outside all of these, for
    `__post_init__` to fill with `object.__setattr__`.
    """
    body = cls.__dict__
    own, extra = tuple(body.get("__annotations__", ())), tuple(body.get("__slots__", ()))
    fields = {**getattr(cls, "_fields", {}), **{f: body.get(f, _NO_DEFAULT) for f in own}}
    ns = {k: v for k, v in body.items() if k not in {*own, *extra, "__dict__", "__weakref__"}}
    ns.update(__slots__=own + extra, _fields=fields, __qualname__=cls.__qualname__,
              __setattr__=_frozen_setattr, __delattr__=_frozen_delattr, __reduce__=_reduce)
    params = "".join(f", {f}" if d is _NO_DEFAULT else f", {f}=_dflt[{f!r}]" for f, d in fields.items())
    new = ["self = _new(cls)", *(f"_set_{f}(self, {f})" for f in fields)]
    if hasattr(cls, "__post_init__"):
        new.append("self.__post_init__()")
    selfs, others = (f"({''.join(f'{obj}.{f},' for f in fields)})" for obj in ("self", "other"))
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    src = "\n".join([
        f"def __new__(cls{params}):", *(f" {line}" for line in new), " return self",
        "def __eq__(self, other):", " if other.__class__ is self.__class__:",
        f"  return {selfs} == {others}", " return NotImplemented",
        "def __hash__(self):", f" return hash({selfs})",
        "def __repr__(self):", f" return self.__class__.__qualname__ + f\"({shown})\"",
    ])
    made = {"_new": object.__new__, "_dflt": fields}
    exec(src, made)
    for name in ("__new__", "__eq__", "__hash__", "__repr__"):
        ns[name] = made[name]
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
    built = type(cls)(cls.__name__, cls.__bases__, ns)
    # `__new__` stores each field through its slot's own setter, which exists once the class does
    made.update({f"_set_{f}": getattr(built, f).__set__ for f in fields})
    return built
