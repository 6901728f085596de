import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
