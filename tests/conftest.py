"""One Hypothesis profile for the whole suite.

Every property test draws its examples derandomized, so a run draws the
same examples as the last and no example database is kept.  A test's own
``@settings`` sets only its example count and, where a case can be slow,
``deadline=None``.
"""

from hypothesis import settings

settings.register_profile("braidact", derandomize=True)
settings.load_profile("braidact")
