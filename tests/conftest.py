"""Shared pytest configuration.

Property-based tests run under a derandomized hypothesis profile: the
examples are a fixed function of each test, so the suite is deterministic
and needs no example database.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
