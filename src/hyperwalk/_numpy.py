"""numpy, imported on the first read of one of its names: the package's one
import of numpy.  Modules do ``from . import _numpy as np``; each name is
kept in this module's globals after its first read, so later reads cost a
plain module attribute.  Nothing else is defined here, so no name can
shadow one of numpy's.
"""


def __getattr__(name):
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value
    return value
