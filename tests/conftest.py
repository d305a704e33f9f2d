import copy
import os
import pickle
from pathlib import Path

import pytest

import posicat
from posicat import Engine


@pytest.fixture(scope="session")
def engine():
    """Shared engine so exhaustive sweeps reuse the memo tables."""
    return Engine()


def _pickled(protocol):
    return lambda value: pickle.loads(pickle.dumps(value, protocol))


@pytest.fixture(params=[
    *(pytest.param(_pickled(p), id=f"pickle-{p}") for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
])
def duplicate(request):
    """A pickle round trip at each protocol, `copy.copy` and `copy.deepcopy`."""
    return request.param


def pytest_report_header(config):
    """One warning line when a PYTHONPATH entry holds another posicat tree.

    pyproject's `pythonpath = ["src"]` goes ahead of PYTHONPATH, so such a
    run silently tests this checkout's package, not the other one.
    """
    imported = Path(posicat.__file__).resolve().parent
    shadowed = []
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = Path(entry).resolve() / "posicat"
        if (package / "__init__.py").is_file() and package != imported:
            shadowed.append(str(package))
    if not shadowed:
        return None
    return (
        f"posicat: testing {imported}, not {', '.join(shadowed)} on PYTHONPATH: "
        'pyproject\'s pythonpath = ["src"] goes first; run pytest from inside that tree'
    )
