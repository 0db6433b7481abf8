import doctest
import importlib
import pkgutil

import hyperoct


def test_module_doctests_pass():
    names = ["hyperoct"] + [
        info.name for info in pkgutil.iter_modules(hyperoct.__path__, "hyperoct.")
    ]
    failed = attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 2
