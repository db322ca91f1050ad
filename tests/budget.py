"""Example budgets of the property tests that bind a fast path to its reference.

Each such test names its budget under hypothesis's default profile.  A loaded
profile with a larger ``max_examples`` (``ci``, registered in conftest.py)
scales every budget by the same factor, so CI draws more examples than a
local run without slowing the local run down.
"""

from hypothesis import settings


def examples(budget: int) -> int:
    """``budget`` scaled by the loaded profile's share of the default
    profile's ``max_examples``."""
    default = settings.get_profile("default").max_examples
    return max(1, budget * settings.default.max_examples // default)
