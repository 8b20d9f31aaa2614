"""Every warning a test here does not expect is an error.

The filter is a mark on each test of this directory rather than a
project-wide pytest setting, so it leaves the benchmark's self-tests
alone; a test's own ``filterwarnings`` marks still take precedence.
"""

import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

# When a hypothesis test fails, its report hook imports this module,
# whose dependencies (libcst -> mypy_extensions) warn on import; under
# the filter below that warning would abort the whole pytest run instead of
# reporting the failure.  Importing it once here, outside any test, keeps
# those third-party warnings out of the filter's reach.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
