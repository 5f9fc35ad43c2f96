"""numpy, imported when a sampling function first reads an attribute of it.

The modules that sample profiles (``gridfn``, ``scaling``, ``funceq``) bind
this module as ``np``.  The operator algebra never reads it, so a process
that only does exact symbolic work never loads numpy.  Each attribute handed
out is stored in this module's globals, so later reads are plain lookups.
"""


def __getattr__(name: str):
    if name.startswith("__"):  # probes such as help()'s __path__ and __all__ ask this module
        raise AttributeError(name)
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
