import doctest
import importlib
import pkgutil

import lehmerlab


def test_docstrings():
    """Every docstring example in the package runs and gives its output."""
    names = ["lehmerlab"] + [
        info.name for info in pkgutil.iter_modules(lehmerlab.__path__, "lehmerlab.")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0
