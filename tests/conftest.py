"""Every warning a test here does not expect is an error.

The filter is a mark on each test of this directory rather than a
project-wide pytest setting, so it leaves the benchmark's self-tests
alone; a test's own ``filterwarnings`` marks still take precedence.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
