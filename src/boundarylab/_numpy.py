"""numpy, imported at its first use.

Every module of the package takes ``np`` from here, so a process that never
builds an array never imports numpy, whose import is most of the wall time
of a cold scalar command (``model``, ``compare``, ``sweep``).  The first
attribute load imports numpy, copies its namespace into this module object
and turns it into a plain module: from then on an ``np.`` load costs what it
costs on numpy itself, and numpy's own module ``__getattr__`` still serves
its lazy submodules.
"""

import types


class _Deferred(types.ModuleType):
    def __getattr__(self, name):
        import numpy

        self.__dict__.update(numpy.__dict__)
        self.__class__ = types.ModuleType
        return getattr(self, name)


np = _Deferred("numpy")
