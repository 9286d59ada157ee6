"""Test-wide settings.

Setting HYPOTHESIS_PROFILE=ci selects hypothesis' `ci` profile: examples
are derandomized, so a run repeats exactly, and a failing property prints
the `@reproduce_failure` blob that replays it.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
