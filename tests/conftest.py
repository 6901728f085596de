import os

import pytest
from hypothesis import settings

from contractum.cli import dispatch

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def space_file(tmp_path):
    """Example 3.4's four-point table, exported by the CLI."""
    path = tmp_path / "ex34.json"
    assert dispatch(["examples", "export", "example-3.4", "--grid", "0",
                     "--out", str(path)]) == 0
    return path
