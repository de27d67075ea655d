"""The package namespace: one export list per module, one error split."""

import inspect

import searelay as sr
from searelay import channel, evaluate, simqueue, solver1d, solver2d

MODULES = (channel, solver1d, evaluate, solver2d, simqueue)


def test_package_exports_every_module_export():
    joined = [name for module in MODULES for name in module.__all__]
    assert sorted(sr.__all__) == sorted(joined + ["__version__"])
    assert len(set(sr.__all__)) == len(sr.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sr, name) is getattr(module, name), name
    assert isinstance(sr.__version__, str)


def test_every_exported_error_is_a_config_or_numeric_error():
    errors = [obj for obj in map(sr.__getattribute__, sr.__all__)
              if inspect.isclass(obj) and issubclass(obj, Exception)]
    assert len(errors) == 7   # WrongBranchError went with decay_factor
    for cls in errors:
        # exactly one of the two families: exit 2 or exit 3 in the CLI
        assert issubclass(cls, ValueError) != issubclass(cls, sr.NumericalError), cls
    assert issubclass(sr.OutOfRangeError, ValueError)
    assert issubclass(sr.InconclusiveProbeError, sr.NumericalError)
