"""Test-wide settings.

Setting HYPOTHESIS_PROFILE=ci selects hypothesis' `ci` profile: examples
are derandomized, so a run repeats exactly, and a failing property prints
the `@reproduce_failure` blob that replays it.
"""

import os
import warnings

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Hypothesis reports a failing property through hypothesis.extra._patching,
# which imports libcst, and libcst subclasses the deprecated
# mypy_extensions.TypedDict when that is installed. Under `-W error` that
# first import raised inside pytest's report hook, so the run ended in
# INTERNALERROR without the falsifying example. Importing it here once,
# with that warning ignored, leaves `-W error` in force for every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
