"""Frozen record classes without the standard library's ``dataclasses``.

``@record`` gives a class whose annotated names are its fields what
rklab uses of ``@dataclass(frozen=True)``, with the same results: an
``__init__`` taking the fields in annotation order and their defaults,
then calling ``__post_init__`` if the class has one; equality only
between instances of one class; the hash of the field tuple; the
``Name(field=value, ...)`` repr; and instances that refuse assignment
and deletion.  A method the class defines itself is kept.  ``replace``
builds a changed copy through ``__init__``, so validation runs again.

Importing ``dataclasses`` loads ``inspect``, and each dataclass compiles
six methods; a record compiles its methods in one ``exec``.
"""


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{type(self).__qualname__}({body})"


def record(cls):
    """Make ``cls``, whose annotated names are its fields, a frozen record."""
    own = cls.__dict__
    fields = tuple(own.get("__annotations__", ()))
    env = {"_set": object.__setattr__}
    params, body = ["self"], []
    for name in fields:
        if name in own:
            env[f"_d_{name}"] = own[name]
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in fields)
    theirs = "".join(f"other.{name}," for name in fields)
    exec(
        f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]) + "\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n",
        env,
    )
    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for name in ("__init__", "__eq__", "__hash__"):
        methods[name] = env[name]
        env[name].__qualname__ = f"{cls.__qualname__}.{name}"
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    cls.__record_fields__ = fields
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``, validated by its ``__init__``."""
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return type(obj)(**changes)
