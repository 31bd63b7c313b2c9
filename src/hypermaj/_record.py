"""Frozen record classes, built without the standard library's
record decorator.

frozen_record(cls) makes the fields cls annotates, in order, an
immutable record: two instances are equal when they are of the same
class and their fields are equal, hash by the tuple of their fields,
print as Name(field=value, ...) and refuse assignment and deletion with
AttributeError. A class without an __init__ of its own gets one taking
the fields by position or name; it writes them straight into the
instance dict, then calls __post_init__ when the class has one. A class
with its own __init__ sets its fields through object.__setattr__.

The standard decorator does the same, but importing its module takes
about 9 ms, most of it loading inspect, ast, dis and tokenize: more
than most CLI calls spend on their work.
"""


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen_record(cls: type) -> type:
    fields = tuple(cls.__dict__.get("__annotations__", ()))

    def values(self) -> tuple:
        return tuple([getattr(self, f) for f in fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in fields])
        return f"{self.__class__.__qualname__}({body})"

    if "__init__" not in cls.__dict__:
        # generated like namedtuple's __new__: a plain function with one
        # store per field is the cheapest way to build an instance
        lines = [f"def __init__(self, {', '.join(fields)}):", "    d = self.__dict__"]
        lines += [f"    d[{f!r}] = {f}" for f in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace: dict = {}
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_del
    return cls
