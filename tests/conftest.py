"""Tier-1 draws the same Hypothesis examples on every run.

The "derandomized" profile, loaded by default, seeds each test's draws from the
test itself (no database either, so no earlier failure is replayed first).
``pytest --hypothesis-profile=random`` draws fresh examples, as Hypothesis does
by default.  Each test keeps its own example count.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random")
settings.load_profile("derandomized")
